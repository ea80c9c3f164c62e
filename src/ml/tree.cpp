#include "ml/tree.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// Largest training sample: squared class counts stay below 2^52, so sums
/// of them are exact in double precision (see the split scan).
constexpr std::size_t kMaxSamples = std::size_t{1} << 26;

/// Below this many keys a comparison sort beats the radix passes.
constexpr std::size_t kRadixMinKeys = 128;
/// Widest radix digit (2048 buckets).
constexpr int kMaxDigitBits = 11;

/// Sorts keys ascending. Small inputs use std::sort; larger ones an LSD
/// radix sort over the bits of max_key, in as few equal-width passes of at
/// most kMaxDigitBits as cover them. `tmp` must be as long as keys.
void sort_keys(std::span<std::uint64_t> keys, std::span<std::uint64_t> tmp,
               std::uint64_t max_key, std::vector<std::uint32_t>& hist) {
  if (keys.size() < kRadixMinKeys) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  const int bits = std::bit_width(max_key);
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit = (bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit) - 1;
  std::span<std::uint64_t> from = keys, to = tmp;
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit;
    hist.assign(std::size_t{1} << digit, 0);
    for (const std::uint64_t key : from) ++hist[(key >> shift) & mask];
    std::uint32_t start = 0;
    for (auto& h : hist) start += std::exchange(h, start);
    for (const std::uint64_t key : from) {
      to[hist[(key >> shift) & mask]++] = key;
    }
    std::swap(from, to);
  }
  if (from.data() != keys.data()) {
    std::copy(from.begin(), from.end(), keys.begin());
  }
}

}  // namespace

FeatureRanks::FeatureRanks(const Matrix& x)
    : rows_(x.rows()), ranks_(x.rows() * x.cols()), distinct_(x.cols()) {
  ICN_REQUIRE(x.rows() <= std::numeric_limits<std::uint32_t>::max(),
              "feature ranks row count");
  icn::util::parallel_for(
      0, x.cols(), 8, [&](std::size_t lo, std::size_t hi) {
        std::vector<double> column(rows_);
        std::vector<std::uint32_t> order(rows_);
        for (std::size_t f = lo; f < hi; ++f) {
          for (std::size_t i = 0; i < rows_; ++i) column[i] = x(i, f);
          std::iota(order.begin(), order.end(), std::uint32_t{0});
          std::sort(order.begin(), order.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return column[a] < column[b];
                    });
          auto& distinct = distinct_[f];
          std::uint32_t* rank = ranks_.data() + f * rows_;
          for (const std::uint32_t i : order) {
            if (distinct.empty() || column[i] != distinct.back()) {
              distinct.push_back(column[i]);
            }
            rank[i] = static_cast<std::uint32_t>(distinct.size() - 1);
          }
        }
      });
}

/// Inputs and per-node scratch of one build. Every buffer is sized once per
/// fit; a node is done with them before it recurses, so its children reuse
/// them.
struct DecisionTree::Build {
  const Matrix& x;
  const FeatureRanks& ranks;
  std::span<const int> y;
  const Params& params;
  icn::util::Rng& rng;
  std::vector<std::size_t> idx;
  int label_bits = 0;
  std::vector<double> counts, left_counts;
  std::vector<std::size_t> features;
  std::vector<std::uint64_t> labels, keys, tmp;
  std::vector<std::uint32_t> hist;
};

void DecisionTree::fit(const Matrix& x, std::span<const int> y,
                       int num_classes, const Params& params,
                       icn::util::Rng& rng,
                       std::span<const std::size_t> sample_idx) {
  fit(x, FeatureRanks(x), y, num_classes, params, rng, sample_idx);
}

void DecisionTree::fit(const Matrix& x, const FeatureRanks& ranks,
                       std::span<const int> y, int num_classes,
                       const Params& params, icn::util::Rng& rng,
                       std::span<const std::size_t> sample_idx) {
  ICN_REQUIRE(x.rows() == y.size() && x.rows() > 0, "tree fit input shape");
  ICN_REQUIRE(ranks.rows() == x.rows() && ranks.cols() == x.cols(),
              "tree fit ranks shape");
  ICN_REQUIRE(num_classes >= 1, "tree fit num_classes");
  ICN_REQUIRE(params.max_depth <= kMaxDepth, "tree fit max_depth");
  for (const int label : y) {
    ICN_REQUIRE(label >= 0 && label < num_classes, "tree fit label range");
  }
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  cover_.clear();
  value_.clear();
  num_classes_ = num_classes;
  num_features_ = x.cols();
  depth_ = 0;
  importance_.assign(num_features_, 0.0);

  Build b{x, ranks, y, params, rng, {}, 0, {}, {}, {}, {}, {}, {}, {}};
  if (sample_idx.empty()) {
    b.idx.resize(x.rows());
    std::iota(b.idx.begin(), b.idx.end(), std::size_t{0});
  } else {
    b.idx.assign(sample_idx.begin(), sample_idx.end());
    for (const std::size_t i : b.idx) {
      ICN_REQUIRE(i < x.rows(), "tree fit sample index");
    }
  }
  ICN_REQUIRE(b.idx.size() <= kMaxSamples, "tree fit sample count");
  const auto k = static_cast<std::size_t>(num_classes);
  b.label_bits = std::bit_width(k - 1);
  b.counts.resize(k);
  b.left_counts.resize(k);
  b.features.resize(num_features_);
  b.labels.resize(b.idx.size());
  b.keys.resize(b.idx.size());
  b.tmp.resize(b.idx.size());
  build(b, 0, b.idx.size(), 0);
}

int DecisionTree::build(Build& b, std::size_t begin, std::size_t end,
                        std::size_t depth) {
  const std::size_t n = end - begin;
  const auto k = static_cast<std::size_t>(num_classes_);
  const Params& params = b.params;

  std::fill(b.counts.begin(), b.counts.end(), 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    const auto label = static_cast<std::size_t>(b.y[b.idx[i]]);
    b.counts[label] += 1.0;
    b.labels[i - begin] = label;
  }
  const double node_n = static_cast<double>(n);
  double node_sq = 0.0;  // Sum of squared class counts.
  for (const double c : b.counts) node_sq += c * c;
  const double node_gini = 1.0 - node_sq / (node_n * node_n);

  const int node_id = static_cast<int>(feature_.size());
  feature_.push_back(-1);
  threshold_.push_back(0.0);
  left_.push_back(-1);
  right_.push_back(-1);
  cover_.push_back(node_n);
  for (std::size_t c = 0; c < k; ++c) value_.push_back(b.counts[c] / node_n);
  depth_ = std::max(depth_, depth);

  const bool pure = node_gini == 0.0;
  if (pure || depth >= params.max_depth || n < params.min_samples_split) {
    return node_id;
  }

  // Candidate features: a random subset of size max_features (all when 0).
  std::iota(b.features.begin(), b.features.end(), std::size_t{0});
  std::size_t mtry = params.max_features == 0
                         ? num_features_
                         : std::min(params.max_features, num_features_);
  // Partial Fisher-Yates: the first mtry entries become the candidate set.
  for (std::size_t i = 0; i < mtry; ++i) {
    const std::size_t j = i + b.rng.uniform_index(num_features_ - i);
    std::swap(b.features[i], b.features[j]);
  }

  double best_gain = 0.0;
  std::size_t best_feature = 0;
  double best_threshold = 0.0;
  const std::span<std::uint64_t> keys(b.keys.data(), n);
  const std::span<std::uint64_t> tmp(b.tmp.data(), n);
  const std::uint64_t label_mask = (std::uint64_t{1} << b.label_bits) - 1;

  for (std::size_t fi = 0; fi < mtry; ++fi) {
    const std::size_t f = b.features[fi];
    // Sort key (rank << label_bits) | label: rank order is value order, so
    // the scan below meets the cut points, left counts and midpoints of a
    // sort by (value, label).
    const auto rank = b.ranks.rank(f);
    std::uint32_t lo_rank = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi_rank = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = rank[b.idx[begin + i]];
      lo_rank = std::min(lo_rank, r);
      hi_rank = std::max(hi_rank, r);
      keys[i] = (std::uint64_t{r} << b.label_bits) | b.labels[i];
    }
    if (lo_rank == hi_rank) continue;  // constant feature
    sort_keys(keys, tmp, (std::uint64_t{hi_rank} << b.label_bits) | label_mask,
              b.hist);
    const std::vector<double>& distinct = b.ranks.distinct(f);
    std::fill(b.left_counts.begin(), b.left_counts.end(), 0.0);
    // The sums of squared class counts move by one class count per row.
    // Counts are integers below kMaxSamples, so every partial sum is an
    // exact integer and the running sums equal a fresh sum over the classes
    // bit for bit.
    double left_sq = 0.0, right_sq = node_sq;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const std::uint64_t label = keys[i] & label_mask;
      const double lc = b.left_counts[label];
      const double rc = b.counts[label] - lc;
      b.left_counts[label] = lc + 1.0;
      left_sq += 2.0 * lc + 1.0;
      right_sq -= 2.0 * rc - 1.0;
      const std::uint64_t r = keys[i] >> b.label_bits;
      const std::uint64_t r_next = keys[i + 1] >> b.label_bits;
      if (r == r_next) continue;  // not a cut point
      const double nl = static_cast<double>(i + 1);
      const double nr = node_n - nl;
      if (nl < static_cast<double>(params.min_samples_leaf) ||
          nr < static_cast<double>(params.min_samples_leaf)) {
        continue;
      }
      const double gini_l = 1.0 - left_sq / (nl * nl);
      const double gini_r = 1.0 - right_sq / (nr * nr);
      const double gain =
          node_gini - (nl / node_n) * gini_l - (nr / node_n) * gini_r;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (distinct[r] + distinct[r_next]);
      }
    }
  }

  if (best_gain <= 0.0) return node_id;

  // Partition idx[begin, end) by the chosen split (stable not required).
  const auto mid_it = std::partition(
      b.idx.begin() + static_cast<std::ptrdiff_t>(begin),
      b.idx.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) { return b.x(i, best_feature) <= best_threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - b.idx.begin());
  if (mid == begin || mid == end) return node_id;  // numerical edge: no split

  importance_[best_feature] += node_n * best_gain;

  const int left_id = build(b, begin, mid, depth + 1);
  const int right_id = build(b, mid, end, depth + 1);
  const auto id = static_cast<std::size_t>(node_id);
  feature_[id] = static_cast<int>(best_feature);
  threshold_[id] = best_threshold;
  left_[id] = left_id;
  right_[id] = right_id;
  return node_id;
}

std::size_t DecisionTree::leaf_index(std::span<const double> x) const {
  ICN_REQUIRE(is_fitted(), "predict on unfitted tree");
  ICN_REQUIRE(x.size() == num_features_, "predict feature count");
  std::size_t i = 0;
  while (feature_[i] >= 0) {
    const auto f = static_cast<std::size_t>(feature_[i]);
    i = static_cast<std::size_t>(x[f] <= threshold_[i] ? left_[i] : right_[i]);
  }
  return i;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> x) const {
  const auto proba = value(leaf_index(x));
  return {proba.begin(), proba.end()};
}

int DecisionTree::predict(std::span<const double> x) const {
  const auto proba = value(leaf_index(x));
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

}  // namespace icn::ml
