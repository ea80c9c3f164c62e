#include "ml/treeshap.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// One element of the TreeSHAP feature path (Lundberg Alg. 2).
struct PathElement {
  int d = -1;      ///< Feature index (-1 for the root placeholder).
  double z = 1.0;  ///< Fraction of "zero" (missing-feature) paths that flow through.
  double o = 1.0;  ///< Fraction of "one" (present-feature) paths that flow through.
  double w = 0.0;  ///< Permutation weight of subsets of this size.
};

/// One contribution of a leaf: phi(d, c) += scale * value[c] for every c.
struct LeafTerm {
  int d = 0;
  double scale = 0.0;
};

/// Grows the path m[0, l) by one split (EXTEND of Alg. 2); m has room for
/// element l.
void extend(PathElement* m, std::size_t l, double pz, double po, int pi) {
  m[l] = PathElement{pi, pz, po, l == 0 ? 1.0 : 0.0};
  for (std::size_t i = l; i-- > 0;) {
    m[i + 1].w += po * m[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    m[i].w = pz * m[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

/// Removes element i of the path m[0, depth), restoring the weights (UNWIND
/// of Alg. 2).
void unwind(PathElement* m, std::size_t depth, std::size_t i) {
  const double o_i = m[i].o;
  const double z_i = m[i].z;
  double n = m[depth - 1].w;
  for (std::size_t j = depth - 1; j-- > 0;) {
    if (o_i != 0.0) {
      const double t = m[j].w;
      m[j].w = n * static_cast<double>(depth) /
               (static_cast<double>(j + 1) * o_i);
      n = t - m[j].w * z_i * static_cast<double>(depth - 1 - j) /
                  static_cast<double>(depth);
    } else {
      m[j].w = m[j].w * static_cast<double>(depth) /
               (z_i * static_cast<double>(depth - 1 - j));
    }
  }
  for (std::size_t j = i; j + 1 < depth; ++j) {
    m[j].d = m[j + 1].d;
    m[j].z = m[j + 1].z;
    m[j].o = m[j + 1].o;
  }
}

/// Sum of the weights unwind(m, depth, i) would produce, without mutating
/// the path.
double unwound_sum(const PathElement* m, std::size_t depth, std::size_t i) {
  const double o_i = m[i].o;
  const double z_i = m[i].z;
  double n = m[depth - 1].w;
  double total = 0.0;
  for (std::size_t j = depth - 1; j-- > 0;) {
    if (o_i != 0.0) {
      const double t = n * static_cast<double>(depth) /
                       (static_cast<double>(j + 1) * o_i);
      total += t;
      n = m[j].w - t * z_i * static_cast<double>(depth - 1 - j) /
                       static_cast<double>(depth);
    } else {
      total += m[j].w * static_cast<double>(depth) /
               (z_i * static_cast<double>(depth - 1 - j));
    }
  }
  return total;
}

/// Leaf terms keyed by (leaf, path mask) for one tree at a time. Reused
/// across trees and rows of a batch: reset() invalidates every entry by
/// bumping a stamp, so a table that only ever misses costs one probe and one
/// append per leaf visit.
class LeafMemo {
 public:
  void reset() {
    ++stamp_;
    used_ = 0;
    terms_.clear();
  }

  /// The terms stored for (leaf, mask), if any.
  std::optional<std::span<const LeafTerm>> find(int leaf,
                                                std::uint64_t mask) const {
    if (slots_.empty()) return std::nullopt;
    const std::size_t cap_mask = slots_.size() - 1;
    for (std::size_t i = hash(leaf, mask) & cap_mask;; i = (i + 1) & cap_mask) {
      const Slot& s = slots_[i];
      if (s.stamp != stamp_) return std::nullopt;
      if (s.leaf == leaf && s.mask == mask) {
        return std::span<const LeafTerm>(terms_.data() + s.offset, s.count);
      }
    }
  }

  /// Stores the terms of a key find() does not hold.
  void insert(int leaf, std::uint64_t mask, std::span<const LeafTerm> terms) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    slots_[empty_slot(leaf, mask)] =
        Slot{mask, leaf, stamp_, static_cast<std::uint32_t>(terms_.size()),
             static_cast<std::uint32_t>(terms.size())};
    terms_.insert(terms_.end(), terms.begin(), terms.end());
    ++used_;
  }

 private:
  struct Slot {
    std::uint64_t mask = 0;
    int leaf = -1;
    std::uint32_t stamp = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  static std::size_t hash(int leaf, std::uint64_t mask) {
    std::uint64_t h = (mask ^ (static_cast<std::uint64_t>(leaf) << 32)) *
                      0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  /// First free slot on the probe sequence of (leaf, mask).
  std::size_t empty_slot(int leaf, std::uint64_t mask) const {
    const std::size_t cap_mask = slots_.size() - 1;
    std::size_t i = hash(leaf, mask) & cap_mask;
    while (slots_[i].stamp == stamp_) i = (i + 1) & cap_mask;
    return i;
  }

  void grow() {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(1024, 2 * old.size()), Slot{});
    for (const Slot& s : old) {
      if (s.stamp == stamp_) slots_[empty_slot(s.leaf, s.mask)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<LeafTerm> terms_;
  std::size_t used_ = 0;
  std::uint32_t stamp_ = 1;
};

/// Reusable buffers of the walker.
struct ShapScratch {
  std::vector<PathElement> path;
  std::vector<LeafTerm> terms;
};

/// Lundberg's Alg. 2 over one tree for one row, accumulating into phi
/// (M x K). The path of the node at depth d lives in path[d(d+1)/2, ...) and
/// is copied from its parent's segment, so the two children of a node start
/// from the same path. `mask` has bit j set when step j of the root-to-node
/// path went the hot way (the way x goes).
///
/// x enters only through those hot/cold choices, so a leaf's terms are a
/// pure function of (leaf, mask). With a memo the walker computes them once
/// per key and replays them, in the same leaf order and with the same
/// floating-point operations, for every later row that reaches the leaf by
/// the same turns: the output is bit-identical with or without the memo.
class Walker {
 public:
  Walker(const DecisionTree& tree, std::span<const double> x, Matrix& phi,
         ShapScratch& scratch, LeafMemo* memo)
      : tree_(tree), x_(x), phi_(phi), path_(scratch.path),
        terms_(scratch.terms), memo_(memo) {
    const std::size_t d = tree.depth();
    path_.resize(std::max(path_.size(), (d + 1) * (d + 2) / 2));
    terms_.resize(std::max(terms_.size(), d));
  }

  void run() { visit(0, 0, 0, 1.0, 1.0, -1, 0); }

 private:
  void visit(std::size_t node, std::size_t depth, std::size_t parent_len,
             double pz, double po, int pi, std::uint64_t mask) {
    const TreeNode n = tree_.node(node);
    const int leaf_key = static_cast<int>(node);
    if (n.is_leaf() && memo_ != nullptr) {
      // A leaf whose terms are memoised needs no path at all.
      if (const auto terms = memo_->find(leaf_key, mask)) {
        accumulate(*terms, n.value);
        return;
      }
    }
    PathElement* m = path_.data() + depth * (depth + 1) / 2;
    if (depth > 0) {
      const PathElement* parent = m - depth;
      std::copy(parent, parent + parent_len, m);
    }
    extend(m, parent_len, pz, po, pi);
    std::size_t len = parent_len + 1;
    if (n.is_leaf()) {
      for (std::size_t i = 1; i < len; ++i) {
        const double w = unwound_sum(m, len, i);
        terms_[i - 1] = LeafTerm{m[i].d, w * (m[i].o - m[i].z)};
      }
      const std::span<const LeafTerm> terms(terms_.data(), len - 1);
      if (memo_ != nullptr) memo_->insert(leaf_key, mask, terms);
      accumulate(terms, n.value);
      return;
    }
    const auto f = static_cast<std::size_t>(n.feature);
    const bool go_left = x_[f] <= n.threshold;
    const auto hot = static_cast<std::size_t>(go_left ? n.left : n.right);
    const auto cold = static_cast<std::size_t>(go_left ? n.right : n.left);
    double incoming_z = 1.0;
    double incoming_o = 1.0;
    // If this feature already appeared on the path, undo its element first
    // so each feature is unique on the path.
    for (std::size_t i = 1; i < len; ++i) {
      if (m[i].d == n.feature) {
        incoming_z = m[i].z;
        incoming_o = m[i].o;
        unwind(m, len, i);
        --len;
        break;
      }
    }
    const double hot_cover = tree_.node(hot).cover;
    const double cold_cover = tree_.node(cold).cover;
    visit(hot, depth + 1, len, incoming_z * hot_cover / n.cover, incoming_o,
          n.feature, mask | (std::uint64_t{1} << depth));
    visit(cold, depth + 1, len, incoming_z * cold_cover / n.cover, 0.0,
          n.feature, mask);
  }

  /// phi(d, c) += scale * value[c] for each term in order.
  void accumulate(std::span<const LeafTerm> terms,
                  std::span<const double> value) {
    for (const LeafTerm& term : terms) {
      const auto f = static_cast<std::size_t>(term.d);
      for (std::size_t c = 0; c < value.size(); ++c) {
        phi_(f, c) += term.scale * value[c];
      }
    }
  }

  const DecisionTree& tree_;
  std::span<const double> x_;
  Matrix& phi_;
  std::vector<PathElement>& path_;
  std::vector<LeafTerm>& terms_;
  LeafMemo* memo_;
};

/// Adds one tree's SHAP values at x into acc the way forest_shap always
/// has: computed into phi from zero, then added entry by entry.
void add_tree_shap(const DecisionTree& tree, std::span<const double> x,
                   Matrix& phi, Matrix& acc, ShapScratch& scratch,
                   LeafMemo* memo) {
  std::fill(phi.data().begin(), phi.data().end(), 0.0);
  Walker(tree, x, phi, scratch, memo).run();
  for (std::size_t i = 0; i < acc.data().size(); ++i) {
    acc.data()[i] += phi.data()[i];
  }
}

std::vector<double> conditional_expectation_impl(
    const DecisionTree& tree, std::size_t node_id, std::span<const double> x,
    const std::vector<bool>& present) {
  const TreeNode node = tree.node(node_id);
  if (node.is_leaf()) return {node.value.begin(), node.value.end()};
  const auto f = static_cast<std::size_t>(node.feature);
  const auto left = static_cast<std::size_t>(node.left);
  const auto right = static_cast<std::size_t>(node.right);
  if (present[f]) {
    return conditional_expectation_impl(
        tree, x[f] <= node.threshold ? left : right, x, present);
  }
  const auto lv = conditional_expectation_impl(tree, left, x, present);
  const auto rv = conditional_expectation_impl(tree, right, x, present);
  const double wl = tree.node(left).cover;
  const double wr = tree.node(right).cover;
  std::vector<double> out(lv.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = (wl * lv[c] + wr * rv[c]) / (wl + wr);
  }
  return out;
}

}  // namespace

Matrix tree_shap(const DecisionTree& tree, std::span<const double> x) {
  ICN_REQUIRE(tree.is_fitted(), "tree_shap on unfitted tree");
  ICN_REQUIRE(x.size() == tree.num_features(), "SHAP row feature count");
  Matrix phi(x.size(), static_cast<std::size_t>(tree.num_classes()));
  ShapScratch scratch;
  Walker(tree, x, phi, scratch, nullptr).run();
  return phi;
}

std::vector<double> tree_base_values(const DecisionTree& tree) {
  ICN_REQUIRE(tree.is_fitted(), "base values on unfitted tree");
  // Node values are cover-weighted class distributions, so the root value is
  // exactly the cover-weighted mean over leaves.
  const auto root = tree.value(0);
  return {root.begin(), root.end()};
}

Matrix forest_shap(const RandomForest& forest, std::span<const double> x) {
  ICN_REQUIRE(forest.is_fitted(), "forest_shap on unfitted forest");
  ICN_REQUIRE(x.size() == forest.num_features(), "SHAP row feature count");
  Matrix acc(x.size(), static_cast<std::size_t>(forest.num_classes()));
  Matrix phi(acc.rows(), acc.cols());
  ShapScratch scratch;
  // One row visits every leaf once per tree, so a memo could never hit.
  for (const auto& tree : forest.trees()) {
    add_tree_shap(tree, x, phi, acc, scratch, nullptr);
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : acc.data()) v *= inv;
  return acc;
}

std::vector<Matrix> forest_shap_batch(const RandomForest& forest,
                                      const Matrix& x) {
  ICN_REQUIRE(forest.is_fitted(), "forest_shap_batch on unfitted forest");
  ICN_REQUIRE(x.cols() == forest.num_features(), "SHAP row feature count");
  const std::size_t k = static_cast<std::size_t>(forest.num_classes());
  std::vector<Matrix> out(x.rows());
  // Rows go in two chunks per lane (135 rows at paper shape on 4 lanes),
  // and each chunk runs tree-major: one tree stays cache-resident across
  // the chunk and its memo serves every row that reaches a leaf by the same
  // turns. Larger chunks would hit more often but leave lanes idle on small
  // batches. Each row still folds the trees in index order exactly as
  // forest_shap does, so the output depends neither on the chunking nor on
  // the lane count.
  const std::size_t lanes = icn::util::ThreadPool::active().num_threads();
  const std::size_t grain =
      std::max<std::size_t>(1, (x.rows() + 2 * lanes - 1) / (2 * lanes));
  icn::util::parallel_for(0, x.rows(), grain, [&](std::size_t lo,
                                                  std::size_t hi) {
    Matrix phi(x.cols(), k);
    ShapScratch scratch;
    LeafMemo memo;
    for (std::size_t r = lo; r < hi; ++r) out[r] = Matrix(x.cols(), k);
    for (const auto& tree : forest.trees()) {
      memo.reset();
      for (std::size_t r = lo; r < hi; ++r) {
        add_tree_shap(tree, x.row(r), phi, out[r], scratch, &memo);
      }
    }
    const double inv = 1.0 / static_cast<double>(forest.trees().size());
    for (std::size_t r = lo; r < hi; ++r) {
      for (auto& v : out[r].data()) v *= inv;
    }
  });
  return out;
}

std::vector<double> forest_base_values(const RandomForest& forest) {
  ICN_REQUIRE(forest.is_fitted(), "base values on unfitted forest");
  std::vector<double> base(static_cast<std::size_t>(forest.num_classes()),
                           0.0);
  for (const auto& tree : forest.trees()) {
    const auto b = tree.value(0);
    for (std::size_t c = 0; c < base.size(); ++c) base[c] += b[c];
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : base) v *= inv;
  return base;
}

std::vector<double> tree_conditional_expectation(
    const DecisionTree& tree, std::span<const double> x,
    const std::vector<bool>& present) {
  ICN_REQUIRE(tree.is_fitted(), "conditional expectation on unfitted tree");
  ICN_REQUIRE(x.size() == tree.num_features(), "SHAP row feature count");
  ICN_REQUIRE(present.size() == x.size(), "present mask size");
  return conditional_expectation_impl(tree, 0, x, present);
}

std::vector<double> forest_conditional_expectation(
    const RandomForest& forest, std::span<const double> x,
    const std::vector<bool>& present) {
  ICN_REQUIRE(forest.is_fitted(), "conditional expectation on unfitted forest");
  std::vector<double> out(static_cast<std::size_t>(forest.num_classes()),
                          0.0);
  for (const auto& tree : forest.trees()) {
    const auto v = tree_conditional_expectation(tree, x, present);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += v[c];
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : out) v *= inv;
  return out;
}

}  // namespace icn::ml
