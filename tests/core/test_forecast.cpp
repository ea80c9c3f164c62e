#include "core/forecast.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace icn::core {
namespace {

/// FNV-1a over the raw bytes of `v`, continuing from `h`.
std::uint64_t fnv1a(double v, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Seeded hourly series of uneven lengths (some end mid-season) with
/// repeated values, so slot medians see ties and both even and odd counts.
std::vector<std::vector<double>> seeded_series(std::size_t count,
                                               std::size_t season) {
  icn::util::Rng rng(6161);
  std::vector<std::vector<double>> out(count);
  for (std::size_t a = 0; a < count; ++a) {
    out[a].resize(season * 3 + (a * 7) % (2 * season));
    for (double& v : out[a]) {
      v = std::floor(rng.uniform(0.0, 40.0)) * 0.25;
    }
  }
  return out;
}

std::vector<std::span<const double>> as_spans(
    const std::vector<std::vector<double>>& series) {
  return {series.begin(), series.end()};
}

TEST(SeasonalForecasterTest, RecoversExactPeriodicSignal) {
  // Three seasons of a pure 24h pattern: forecast equals the pattern.
  std::vector<double> series;
  for (int rep = 0; rep < 3; ++rep) {
    for (int h = 0; h < 24; ++h) {
      series.push_back(10.0 + std::sin(h / 24.0 * 2.0 * M_PI));
    }
  }
  SeasonalForecaster f;
  f.fit(series, 24);
  const auto pred = f.forecast(24);
  for (int h = 0; h < 24; ++h) {
    EXPECT_NEAR(pred[static_cast<std::size_t>(h)],
                10.0 + std::sin(h / 24.0 * 2.0 * M_PI), 1e-12);
  }
}

TEST(SeasonalForecasterTest, MedianRobustToOneOutlierSeason) {
  // Three seasons, one corrupted by a 100x spike: median ignores it.
  std::vector<double> series(3 * 24, 5.0);
  series[30] = 500.0;  // hour 6 of season 2
  SeasonalForecaster f;
  f.fit(series, 24);
  EXPECT_DOUBLE_EQ(f.slot_value(6), 5.0);
}

TEST(SeasonalForecasterTest, ForecastContinuesFromTrainingPhase) {
  // Training ends mid-season: the first forecast hour is the next slot.
  std::vector<double> series;
  for (std::size_t t = 0; t < 30; ++t) {
    series.push_back(static_cast<double>(t % 10));
  }
  SeasonalForecaster f;
  f.fit(series, 10);
  const auto pred = f.forecast(5);
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_DOUBLE_EQ(pred[h], static_cast<double>((30 + h) % 10));
  }
}

TEST(SeasonalForecasterTest, PartialLastSeasonHandled) {
  // 2.5 seasons: slots in the covered half see 3 samples, others 2.
  std::vector<double> series(25, 1.0);
  SeasonalForecaster f;
  f.fit(series, 10);
  EXPECT_DOUBLE_EQ(f.slot_value(0), 1.0);
  EXPECT_DOUBLE_EQ(f.slot_value(9), 1.0);
}

TEST(SeasonalForecasterTest, Validation) {
  SeasonalForecaster f;
  EXPECT_THROW(f.forecast(5), icn::util::PreconditionError);
  std::vector<double> tiny(5, 1.0);
  EXPECT_THROW(f.fit(tiny, 10), icn::util::PreconditionError);
  EXPECT_THROW(f.fit(tiny, 0), icn::util::PreconditionError);
  std::vector<double> ok(20, 1.0);
  f.fit(ok, 10);
  EXPECT_THROW((void)f.slot_value(10), icn::util::PreconditionError);
}

TEST(SeasonalForecasterTest, BatchDigestIsPinned) {
  // Bit-exact pins of the slot medians from the batch fit and from the
  // masked fit (about a fifth of the hours uncovered).
  const std::size_t season = 24;
  const auto series = seeded_series(37, season);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto batch = fit_seasonal_batch(as_spans(series), season);
  for (const auto& f : batch) {
    for (std::size_t s = 0; s < season; ++s) h = fnv1a(f.slot_value(s), h);
  }
  icn::util::Rng rng(6262);
  for (const auto& x : series) {
    std::vector<std::uint8_t> covered(x.size());
    for (auto& c : covered) c = rng.uniform(0.0, 1.0) < 0.8 ? 1 : 0;
    covered[x.size() / 2] = 1;
    SeasonalForecaster f;
    f.fit_masked(x, covered, season);
    for (std::size_t s = 0; s < season; ++s) h = fnv1a(f.slot_value(s), h);
  }
  EXPECT_EQ(h, 0x1c4fa27e0b7e240fULL);
}

TEST(SeasonalForecasterTest, BatchEqualsSerialFitOnOneAndFourLanes) {
  const std::size_t season = 24;
  const auto series = seeded_series(53, season);
  std::vector<SeasonalForecaster> serial(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    serial[i].fit(series[i], season);
  }
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    icn::util::ThreadPool::ScopedOverride pool(lanes);
    const auto batch = fit_seasonal_batch(as_spans(series), season);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto want = serial[i].forecast(2 * season);
      const auto got = batch[i].forecast(2 * season);
      for (std::size_t t = 0; t < want.size(); ++t) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[t]),
                  std::bit_cast<std::uint64_t>(want[t]))
            << "lanes " << lanes << " series " << i << " hour " << t;
      }
    }
  }
}

TEST(SmapeTest, PerfectForecastIsZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(smape(a, a), 0.0);
}

TEST(SmapeTest, WorstCaseIsTwo) {
  const std::vector<double> actual = {1.0, 5.0};
  const std::vector<double> predicted = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(smape(actual, predicted), 2.0);
}

TEST(SmapeTest, SymmetricInArguments) {
  const std::vector<double> a = {1.0, 4.0, 2.0};
  const std::vector<double> b = {2.0, 3.0, 2.5};
  EXPECT_DOUBLE_EQ(smape(a, b), smape(b, a));
}

TEST(SmapeTest, BothZeroHoursUncounted) {
  const std::vector<double> actual = {0.0, 2.0};
  const std::vector<double> predicted = {0.0, 2.0};
  EXPECT_DOUBLE_EQ(smape(actual, predicted), 0.0);
}

TEST(SmapeTest, SizeValidation) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)smape(a, b), icn::util::PreconditionError);
  EXPECT_THROW((void)smape(std::vector<double>{}, std::vector<double>{}),
               icn::util::PreconditionError);
}

TEST(SeasonalForecasterTest, NoisyPeriodicSignalForecastBeatsMean) {
  // Weekly periodic signal + noise: the seasonal forecaster's sMAPE on a
  // held-out week beats a flat mean predictor.
  icn::util::Rng rng(5);
  std::vector<double> series;
  for (std::size_t t = 0; t < 168 * 5; ++t) {
    const double base =
        5.0 + 4.0 * std::sin(static_cast<double>(t % 168) / 168.0 * 2 * M_PI);
    series.push_back(base * rng.gamma(25.0, 1.0 / 25.0));
  }
  const std::size_t train = 168 * 4;
  SeasonalForecaster f;
  f.fit(std::span<const double>(series).first(train), 168);
  const auto pred = f.forecast(168);
  const std::span<const double> test(series.data() + train, 168);
  double mean = 0.0;
  for (std::size_t t = 0; t < train; ++t) mean += series[t] / train;
  const std::vector<double> flat(168, mean);
  EXPECT_LT(smape(test, pred), smape(test, flat) * 0.6);
}

TEST(SeasonalForecasterTest, MaskedFitIgnoresDropoutZeros) {
  // A periodic signal with dropout windows recorded as zeros: the plain fit
  // is dragged down, the masked fit recovers the clean profile exactly.
  const std::size_t season = 24;
  std::vector<double> series;
  std::vector<std::uint8_t> covered;
  for (std::size_t t = 0; t < season * 5; ++t) {
    const double value = 10.0 + static_cast<double>(t % season);
    // Seasons 1-3 lose hours [4, 9) to a probe dropout, so the plain
    // per-slot median over {v, 0, 0, 0, v} collapses to zero there.
    const bool lost = t / season >= 1 && t / season <= 3 &&
                      t % season >= 4 && t % season < 9;
    series.push_back(lost ? 0.0 : value);
    covered.push_back(lost ? 0 : 1);
  }
  SeasonalForecaster masked;
  masked.fit_masked(series, covered, season);
  for (std::size_t slot = 0; slot < season; ++slot) {
    EXPECT_EQ(masked.slot_value(slot), 10.0 + static_cast<double>(slot))
        << "slot " << slot;
  }
  SeasonalForecaster plain;
  plain.fit(series, season);
  EXPECT_LT(plain.slot_value(5), masked.slot_value(5));
}

TEST(SeasonalForecasterTest, MaskedFitFallsBackWhenSlotNeverCovered) {
  const std::size_t season = 8;
  std::vector<double> series(season * 3, 4.0);
  std::vector<std::uint8_t> covered(series.size(), 1);
  // Slot 2 never observed.
  for (std::size_t t = 2; t < series.size(); t += season) {
    series[t] = 999.0;
    covered[t] = 0;
  }
  SeasonalForecaster f;
  f.fit_masked(series, covered, season);
  // Fallback = median over all covered samples = 4.0, not the garbage value.
  EXPECT_EQ(f.slot_value(2), 4.0);
}

TEST(SeasonalForecasterTest, MaskedFitNeverReadsUncoveredGarbage) {
  // Uncovered samples hold NaN (what a fuzzed, unrepaired volume looks
  // like): the masked fit must never read them, or the slot medians and the
  // global fallback would both be poisoned.
  const std::size_t season = 6;
  std::vector<double> series(season * 4);
  std::vector<std::uint8_t> covered(series.size(), 1);
  for (std::size_t t = 0; t < series.size(); ++t) {
    series[t] = 5.0 + static_cast<double>(t % season);
  }
  // Every third hour lost; with season 6 that blanks slots 0 and 3 entirely.
  for (std::size_t t = 0; t < series.size(); t += 3) {
    series[t] = std::numeric_limits<double>::quiet_NaN();
    covered[t] = 0;
  }
  SeasonalForecaster f;
  f.fit_masked(series, covered, season);
  // Covered slots keep their exact profile values...
  EXPECT_EQ(f.slot_value(1), 6.0);
  EXPECT_EQ(f.slot_value(2), 7.0);
  EXPECT_EQ(f.slot_value(4), 9.0);
  EXPECT_EQ(f.slot_value(5), 10.0);
  // ...and the never-covered slots get the global median of the covered
  // samples (median of 6,7,9,10 repeated = 8), not NaN.
  EXPECT_EQ(f.slot_value(0), 8.0);
  EXPECT_EQ(f.slot_value(3), 8.0);
}

TEST(SeasonalForecasterTest, MaskedFitSingleCoveredSampleFillsEverySlot) {
  const std::size_t season = 4;
  std::vector<double> series(season * 2, -1.0e9);
  std::vector<std::uint8_t> covered(series.size(), 0);
  series[5] = 42.0;
  covered[5] = 1;
  SeasonalForecaster f;
  f.fit_masked(series, covered, season);
  for (std::size_t slot = 0; slot < season; ++slot) {
    EXPECT_EQ(f.slot_value(slot), 42.0) << "slot " << slot;
  }
}

TEST(SeasonalForecasterTest, MaskedFitMatchesPlainFitOnFullCoverage) {
  const std::size_t season = 24;
  std::vector<double> series;
  icn::util::Rng rng(404);
  for (std::size_t t = 0; t < season * 7; ++t) {
    series.push_back(rng.uniform(0.0, 100.0));
  }
  const std::vector<std::uint8_t> covered(series.size(), 1);
  SeasonalForecaster plain;
  plain.fit(series, season);
  SeasonalForecaster masked;
  masked.fit_masked(series, covered, season);
  for (std::size_t slot = 0; slot < season; ++slot) {
    EXPECT_EQ(masked.slot_value(slot), plain.slot_value(slot))
        << "slot " << slot;
  }
}

TEST(SeasonalForecasterTest, MaskedFitValidation) {
  SeasonalForecaster f;
  const std::vector<double> series(48, 1.0);
  std::vector<std::uint8_t> covered(47, 1);
  EXPECT_THROW(f.fit_masked(series, covered, 24),
               icn::util::PreconditionError);
  covered.assign(48, 0);
  EXPECT_THROW(f.fit_masked(series, covered, 24),
               icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::core
