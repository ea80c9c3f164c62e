#include "core/forecast.h"

#include <cmath>

#include "ml/distance.h"
#include "util/arena.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace icn::core {

void SeasonalForecaster::fit(std::span<const double> series,
                             std::size_t season_hours) {
  ICN_REQUIRE(season_hours > 0, "season length");
  ICN_REQUIRE(series.size() >= season_hours,
              "need at least one full season of training data");
  slot_median_.assign(season_hours, 0.0);
  // Slot buckets live in the per-thread scratch arena: a batch fit over
  // thousands of antennas reuses one warm block per worker instead of a
  // malloc per (antenna, slot). median_inplace sorts the same values the
  // copying median sorted, so slot medians are bit-identical.
  auto& arena = icn::util::scratch_arena();
  const icn::util::Arena::Frame frame(arena);
  const std::span<double> bucket = arena.alloc_span<double>(
      (series.size() + season_hours - 1) / season_hours);
  for (std::size_t slot = 0; slot < season_hours; ++slot) {
    std::size_t n = 0;
    for (std::size_t t = slot; t < series.size(); t += season_hours) {
      bucket[n++] = series[t];
    }
    slot_median_[slot] = icn::util::median_inplace(bucket.first(n));
  }
  train_hours_ = series.size();
}

void SeasonalForecaster::fit_masked(std::span<const double> series,
                                    std::span<const std::uint8_t> covered,
                                    std::size_t season_hours) {
  ICN_REQUIRE(season_hours > 0, "season length");
  ICN_REQUIRE(series.size() >= season_hours,
              "need at least one full season of training data");
  ICN_REQUIRE(covered.size() == series.size(),
              "coverage bitmap must match the series");
  auto& arena = icn::util::scratch_arena();
  const icn::util::Arena::Frame frame(arena);
  const std::span<double> all_covered =
      arena.alloc_span<double>(series.size());
  std::size_t covered_n = 0;
  for (std::size_t t = 0; t < series.size(); ++t) {
    if (covered[t] != 0) all_covered[covered_n++] = series[t];
  }
  ICN_REQUIRE(covered_n != 0, "series has no covered samples");
  const double fallback =
      icn::util::median_inplace(all_covered.first(covered_n));
  slot_median_.assign(season_hours, 0.0);
  const std::span<double> bucket = arena.alloc_span<double>(
      (series.size() + season_hours - 1) / season_hours);
  for (std::size_t slot = 0; slot < season_hours; ++slot) {
    std::size_t n = 0;
    for (std::size_t t = slot; t < series.size(); t += season_hours) {
      if (covered[t] != 0) bucket[n++] = series[t];
    }
    slot_median_[slot] =
        n == 0 ? fallback : icn::util::median_inplace(bucket.first(n));
  }
  train_hours_ = series.size();
}

std::vector<SeasonalForecaster> fit_seasonal_batch(
    std::span<const std::span<const double>> series,
    std::size_t season_hours) {
  std::vector<SeasonalForecaster> out(series.size());
  // Forecaster i is written only by the chunk owning index i, so any
  // decomposition — including stolen chunks — produces the same batch.
  icn::util::parallel_for(
      0, series.size(), icn::util::adaptive_grain(0, series.size()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i].fit(series[i], season_hours);
        }
      });
  return out;
}

std::vector<SeasonalForecaster> fit_seasonal_batch_masked(
    std::span<const std::span<const double>> series,
    std::span<const std::span<const std::uint8_t>> covered,
    std::size_t season_hours) {
  ICN_REQUIRE(series.size() == covered.size(),
              "one coverage bitmap per series");
  std::vector<SeasonalForecaster> out(series.size());
  icn::util::parallel_for(
      0, series.size(), icn::util::adaptive_grain(0, series.size()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i].fit_masked(series[i], covered[i], season_hours);
        }
      });
  return out;
}

double SeasonalForecaster::slot_value(std::size_t slot) const {
  ICN_REQUIRE(is_fitted(), "forecaster not fitted");
  ICN_REQUIRE(slot < slot_median_.size(), "slot index");
  return slot_median_[slot];
}

std::vector<double> SeasonalForecaster::forecast(std::size_t horizon) const {
  ICN_REQUIRE(is_fitted(), "forecaster not fitted");
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = slot_median_[(train_hours_ + h) % slot_median_.size()];
  }
  return out;
}

void HoltWintersForecaster::fit(std::span<const double> series,
                                std::size_t season_hours) {
  fit(series, season_hours, Params{});
}

void HoltWintersForecaster::fit(std::span<const double> series,
                                std::size_t season_hours,
                                const Params& params) {
  ICN_REQUIRE(season_hours > 0, "season length");
  ICN_REQUIRE(series.size() >= 2 * season_hours,
              "Holt-Winters needs two full seasons");
  for (const double p : {params.alpha, params.beta, params.gamma}) {
    ICN_REQUIRE(p > 0.0 && p < 1.0, "smoothing parameter in (0,1)");
  }
  const std::size_t m = season_hours;
  // Initialization: level = mean of season 1; trend = mean season-over-
  // season change; seasonal = first-season deviations from the level. The
  // season sums go through the dispatched canonical-order kernel, so the
  // initial state is the same under the scalar and avx2 lanes.
  const double inv_m = 1.0 / static_cast<double>(m);
  const double mean1 = icn::ml::vector_sum(series.first(m)) * inv_m;
  const double mean2 = icn::ml::vector_sum(series.subspan(m, m)) * inv_m;
  level_ = mean1;
  trend_ = (mean2 - mean1) / static_cast<double>(m);
  seasonal_.assign(m, 0.0);
  for (std::size_t t = 0; t < m; ++t) {
    seasonal_[t] = series[t] - mean1;
  }
  // Smoothing pass over the full series.
  for (std::size_t t = 0; t < series.size(); ++t) {
    const std::size_t slot = t % m;
    const double prev_level = level_;
    level_ = params.alpha * (series[t] - seasonal_[slot]) +
             (1.0 - params.alpha) * (level_ + trend_);
    trend_ = params.beta * (level_ - prev_level) +
             (1.0 - params.beta) * trend_;
    seasonal_[slot] = params.gamma * (series[t] - level_) +
                      (1.0 - params.gamma) * seasonal_[slot];
  }
  train_hours_ = series.size();
}

std::vector<double> HoltWintersForecaster::forecast(
    std::size_t horizon) const {
  ICN_REQUIRE(is_fitted(), "forecaster not fitted");
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const std::size_t slot = (train_hours_ + h) % seasonal_.size();
    out[h] = level_ + static_cast<double>(h + 1) * trend_ + seasonal_[slot];
  }
  return out;
}

double smape(std::span<const double> actual,
             std::span<const double> predicted) {
  ICN_REQUIRE(actual.size() == predicted.size() && !actual.empty(),
              "smape sizes");
  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t t = 0; t < actual.size(); ++t) {
    const double denom = std::fabs(actual[t]) + std::fabs(predicted[t]);
    if (denom <= 0.0) continue;  // both zero: perfect, uncounted
    acc += 2.0 * std::fabs(actual[t] - predicted[t]) / denom;
    ++counted;
  }
  return counted == 0 ? 0.0 : acc / static_cast<double>(counted);
}

}  // namespace icn::core
