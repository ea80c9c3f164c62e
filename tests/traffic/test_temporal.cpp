#include "traffic/temporal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "util/calendar.h"
#include "util/error.h"
#include "util/stats.h"

namespace icn::traffic {
namespace {

using icn::util::Date;
using icn::util::Weekday;

class TemporalModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::TopologyParams topo_params;
    topo_params.seed = 21;
    topo_params.scale = 0.15;
    topo_params.outdoor_ratio = 0.0;
    topology_ = net::Topology::generate(topo_params);
    demand_ = std::make_unique<DemandModel>(topology_, archetypes_,
                                            DemandParams{});
  }

  TemporalModel make(double noise_shape = 0.0) const {
    TemporalParams params;
    params.noise_shape = noise_shape;  // most tests want noise-free curves
    return TemporalModel(*demand_, params);
  }

  /// First indoor antenna with the given archetype (and optional env/city).
  static std::optional<std::size_t> find_antenna_in(
      const DemandModel& demand, int archetype,
      std::optional<net::Environment> env = std::nullopt,
      std::optional<net::City> city = std::nullopt) {
    const auto& indoor = demand.topology().indoor();
    for (std::size_t i = 0; i < indoor.size(); ++i) {
      if (demand.archetype_labels()[i] != archetype) continue;
      if (env && indoor[i].environment != *env) continue;
      if (city && indoor[i].city != *city) continue;
      return i;
    }
    return std::nullopt;
  }

  std::optional<std::size_t> find_antenna(
      int archetype,
      std::optional<net::Environment> env = std::nullopt,
      std::optional<net::City> city = std::nullopt) const {
    return find_antenna_in(*demand_, archetype, env, city);
  }

  ServiceCatalog catalog_;
  ArchetypeModel archetypes_{catalog_};
  net::Topology topology_;
  std::unique_ptr<DemandModel> demand_;
};

TEST_F(TemporalModelTest, PeriodIsTheStudyWindow) {
  const TemporalModel temporal = make();
  EXPECT_EQ(temporal.period().num_days(), 65);
  EXPECT_EQ(temporal.period().first(), (Date{2022, 11, 21}));
}

TEST_F(TemporalModelTest, ServiceSeriesSumsToMatrixEntry) {
  const TemporalModel temporal = make(25.0);  // with noise, still exact
  for (const std::size_t antenna : {0u, 5u, 17u}) {
    for (const std::size_t service : {0u, 11u, 38u}) {
      const auto series = temporal.hourly_service_series(antenna, service);
      EXPECT_EQ(series.size(),
                static_cast<std::size_t>(temporal.period().num_hours()));
      const double total = icn::util::sum(series);
      EXPECT_NEAR(total, demand_->traffic_matrix()(antenna, service),
                  1e-6 * std::max(1.0, total));
    }
  }
}

TEST_F(TemporalModelTest, TotalSeriesSumsToAntennaVolume) {
  const TemporalModel temporal = make(25.0);
  for (const std::size_t antenna : {1u, 9u}) {
    const auto series = temporal.hourly_total_series(antenna);
    const double total = icn::util::sum(series);
    EXPECT_NEAR(total, demand_->profiles()[antenna].total_mb,
                1e-6 * total);
  }
}

TEST_F(TemporalModelTest, SeriesAreNonNegativeAndDeterministic) {
  const TemporalModel a = make(25.0);
  const TemporalModel b = make(25.0);
  const auto sa = a.hourly_total_series(3);
  const auto sb = b.hourly_total_series(3);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t t = 0; t < sa.size(); ++t) {
    EXPECT_GE(sa[t], 0.0);
    EXPECT_DOUBLE_EQ(sa[t], sb[t]);
  }
}

TEST_F(TemporalModelTest, CommuterClustersPeakAtCommuteHours) {
  const auto antenna = find_antenna(0);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto series = temporal.hourly_total_series(*antenna);
  // Tuesday 22 Nov 2022 = day 1.
  const std::size_t day = 1 * 24;
  const double morning = series[day + 8];   // 8h-9h
  const double evening = series[day + 18];  // 18h-19h
  const double midday = series[day + 13];
  const double night = series[day + 3];
  EXPECT_GT(morning, midday * 2.0);
  EXPECT_GT(evening, midday * 2.0);
  EXPECT_GT(midday, night);
}

TEST_F(TemporalModelTest, CommuterWeekendsAreQuiet) {
  const auto antenna = find_antenna(4);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto series = temporal.hourly_total_series(*antenna);
  // Saturday 26 Nov 2022 = day 5; compare with Friday day 4 at 8h.
  EXPECT_GT(series[4 * 24 + 8], series[5 * 24 + 8] * 3.0);
}

TEST_F(TemporalModelTest, StrikeDayCollapsesParisCommuterTraffic) {
  const auto antenna = find_antenna(0);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto series = temporal.hourly_total_series(*antenna);
  const auto strike_day_idx =
      temporal.period().index_of(icn::util::strike_day());
  // 19 Jan 2023 (Thursday) vs the previous Thursday, 12 Jan.
  const double strike_peak = series[strike_day_idx * 24 + 8];
  const double normal_peak = series[(strike_day_idx - 7) * 24 + 8];
  EXPECT_LT(strike_peak, normal_peak * 0.2);
}

TEST_F(TemporalModelTest, StrikeIsMilderForProvincialMetros) {
  const auto paris = find_antenna(0);
  const auto provincial = find_antenna(7);
  ASSERT_TRUE(paris.has_value());
  ASSERT_TRUE(provincial.has_value());
  const auto strike = icn::util::strike_day();
  const bool strike_flag = true;
  // Compare the day-shape attenuation directly (same weekday, same hour).
  const double paris_ratio =
      TemporalModel::day_shape(0, strike.weekday(), strike_flag, 8.5) /
      TemporalModel::day_shape(0, strike.weekday(), false, 8.5);
  const double prov_ratio =
      TemporalModel::day_shape(7, strike.weekday(), strike_flag, 8.5) /
      TemporalModel::day_shape(7, strike.weekday(), false, 8.5);
  EXPECT_LT(paris_ratio, 0.15);
  EXPECT_GT(prov_ratio, 0.35);
}

TEST_F(TemporalModelTest, WorkspacesIdleOnWeekendsAndEvenings) {
  const double weekday = TemporalModel::day_shape(3, Weekday::kTuesday,
                                                  false, 11.0);
  const double evening = TemporalModel::day_shape(3, Weekday::kTuesday,
                                                  false, 21.0);
  const double weekend = TemporalModel::day_shape(3, Weekday::kSaturday,
                                                  false, 11.0);
  EXPECT_GT(weekday, evening * 5.0);
  EXPECT_GT(weekday, weekend * 5.0);
}

TEST_F(TemporalModelTest, RetailHasSundayDipAndNightFloor) {
  const double saturday = TemporalModel::day_shape(2, Weekday::kSaturday,
                                                   false, 15.0);
  const double sunday = TemporalModel::day_shape(2, Weekday::kSunday,
                                                 false, 15.0);
  EXPECT_NEAR(sunday / saturday, 0.75, 0.02);
  // Cluster 2's night floor beats cluster 1's (hotels, hospitals).
  const double night2 = TemporalModel::day_shape(2, Weekday::kTuesday,
                                                 false, 3.0);
  const double night1 = TemporalModel::day_shape(1, Weekday::kTuesday,
                                                 false, 3.0);
  EXPECT_GT(night2, night1 * 1.5);
}

TEST_F(TemporalModelTest, ParisArenasHostTheNbaGame) {
  // Any green-archetype Paris stadium antenna receives the NBA event.
  auto antenna =
      find_antenna(8, net::Environment::kStadium, net::City::kParis);
  if (!antenna) {
    antenna = find_antenna(6, net::Environment::kStadium, net::City::kParis);
  }
  if (!antenna) {
    antenna = find_antenna(5, net::Environment::kStadium, net::City::kParis);
  }
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto events = temporal.site_events(*antenna);
  bool has_nba = false;
  const auto nba_day = temporal.period().index_of(Date{2023, 1, 19});
  for (const auto& ev : events) {
    if (ev.label == "NBA Paris Game") {
      has_nba = true;
      EXPECT_EQ(ev.day, nba_day);
      EXPECT_GE(ev.boost, 10.0);
    }
  }
  EXPECT_TRUE(has_nba);
}

TEST_F(TemporalModelTest, LyonExpoHostsSirha) {
  // The fixture's scale-0.15 topology has no archetype-5 Lyon expo antenna;
  // the paper-scale one (same seed) does.
  net::TopologyParams topo_params;
  topo_params.seed = 21;
  topo_params.outdoor_ratio = 0.0;
  const net::Topology topology = net::Topology::generate(topo_params);
  const DemandModel demand(topology, archetypes_, DemandParams{});
  const auto antenna =
      find_antenna_in(demand, 5, net::Environment::kExpo, net::City::kLyon);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal(demand, TemporalParams{});
  const auto events = temporal.site_events(*antenna);
  std::size_t sirha_days = 0;
  for (const auto& ev : events) {
    if (ev.label == "Sirha Lyon") ++sirha_days;
  }
  // 19-24 Jan inclusive.
  EXPECT_EQ(sirha_days, 6u);
}

TEST_F(TemporalModelTest, NonVenueAntennasHaveNoEvents) {
  const auto antenna = find_antenna(3, net::Environment::kWorkspace);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  EXPECT_TRUE(temporal.site_events(*antenna).empty());
}

TEST_F(TemporalModelTest, EventsBoostVenueTraffic) {
  const auto antenna =
      find_antenna(6, net::Environment::kStadium);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto events = temporal.site_events(*antenna);
  ASSERT_FALSE(events.empty());
  const auto series = temporal.hourly_total_series(*antenna);
  const auto& ev = events.front();
  const std::size_t event_hour = static_cast<std::size_t>(
      ev.day * 24 + static_cast<std::int64_t>(ev.start_hour) + 1);
  // Compare with the same hour one day earlier (no event scheduled then
  // unless extraordinarily unlucky with the synthetic calendar).
  const std::size_t quiet_hour = event_hour - 24;
  EXPECT_GT(series[event_hour], series[quiet_hour] * 3.0);
}

TEST_F(TemporalModelTest, WazeSurgesAfterTheEventNotDuring) {
  const auto antenna = find_antenna(6, net::Environment::kStadium);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto events = temporal.site_events(*antenna);
  ASSERT_FALSE(events.empty());
  const auto waze = *catalog_.index_of("Waze");
  const auto snapchat = *catalog_.index_of("Snapchat");
  const auto waze_series = temporal.hourly_service_series(*antenna, waze);
  const auto snap_series =
      temporal.hourly_service_series(*antenna, snapchat);
  const auto& ev = events.front();
  const auto during = static_cast<std::size_t>(
      ev.day * 24 + static_cast<std::int64_t>(ev.start_hour) + 1);
  const auto after = static_cast<std::size_t>(
      ev.day * 24 + static_cast<std::int64_t>(ev.end_hour) + 1);
  // Snapchat peaks during the event; Waze peaks after it (Sec. 6.0.2).
  EXPECT_GT(snap_series[during], snap_series[after]);
  EXPECT_GT(waze_series[after], waze_series[during]);
}

TEST_F(TemporalModelTest, ProfileShapesPeakWhereExpected) {
  using enum DiurnalProfile;
  const auto wd = Weekday::kWednesday;
  // Commute: 8:30 over 13:00.
  EXPECT_GT(TemporalModel::profile_shape(kCommute, wd, 8.5),
            TemporalModel::profile_shape(kCommute, wd, 13.0) * 2.0);
  // Work hours: 11:00 over 21:00.
  EXPECT_GT(TemporalModel::profile_shape(kWorkHours, wd, 11.0),
            TemporalModel::profile_shape(kWorkHours, wd, 21.0) * 3.0);
  // Evening: 20:30 over 9:00.
  EXPECT_GT(TemporalModel::profile_shape(kEvening, wd, 20.5),
            TemporalModel::profile_shape(kEvening, wd, 9.0) * 2.0);
  // Night profile is alive at 1:00.
  EXPECT_GT(TemporalModel::profile_shape(kNight, wd, 1.0),
            TemporalModel::profile_shape(kNight, wd, 10.0));
  // Flat is flat.
  EXPECT_DOUBLE_EQ(TemporalModel::profile_shape(kFlat, wd, 3.0),
                   TemporalModel::profile_shape(kFlat, wd, 15.0));
  // Morning beats evening for the morning profile.
  EXPECT_GT(TemporalModel::profile_shape(kMorning, wd, 8.0),
            TemporalModel::profile_shape(kMorning, wd, 20.0));
}

TEST_F(TemporalModelTest, EventParticipationByCategory) {
  using enum ServiceCategory;
  // Crowd-driven categories surge fully; long-form media barely moves
  // (Fig. 11d: Netflix stays under-utilized in venues even at event peaks).
  EXPECT_DOUBLE_EQ(TemporalModel::event_participation(kSocial), 1.0);
  EXPECT_DOUBLE_EQ(TemporalModel::event_participation(kSports), 1.0);
  EXPECT_LT(TemporalModel::event_participation(kVideoStreaming), 0.2);
  EXPECT_LT(TemporalModel::event_participation(kMusic), 0.2);
  for (std::size_t c = 0; c < kNumServiceCategories; ++c) {
    const double p =
        TemporalModel::event_participation(static_cast<ServiceCategory>(c));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(TemporalModelTest, NetflixDoesNotBurstDuringEvents) {
  const auto antenna = find_antenna(6, net::Environment::kStadium);
  ASSERT_TRUE(antenna.has_value());
  const TemporalModel temporal = make();
  const auto events = temporal.site_events(*antenna);
  ASSERT_FALSE(events.empty());
  const auto netflix = *catalog_.index_of("Netflix");
  const auto snapchat = *catalog_.index_of("Snapchat");
  const auto nf = temporal.hourly_service_series(*antenna, netflix);
  const auto snap = temporal.hourly_service_series(*antenna, snapchat);
  const auto& ev = events.front();
  const auto during = static_cast<std::size_t>(
      ev.day * 24 + static_cast<std::int64_t>(ev.start_hour) + 1);
  const std::size_t quiet = during - 24;
  // Snapchat surges hard; Netflix's event-hour lift is far smaller.
  const double snap_lift = snap[during] / std::max(snap[quiet], 1e-12);
  const double nf_lift = nf[during] / std::max(nf[quiet], 1e-12);
  EXPECT_GT(snap_lift, nf_lift * 2.5);
}

TEST_F(TemporalModelTest, ServiceSeriesSumToTotalSeries) {
  // The per-service hourly series partition the antenna's total series.
  const TemporalModel temporal = make(25.0);
  const std::size_t antenna = 4;
  const auto total = temporal.hourly_total_series(antenna);
  std::vector<double> acc(total.size(), 0.0);
  for (std::size_t j = 0; j < catalog_.size(); ++j) {
    const auto series = temporal.hourly_service_series(antenna, j);
    for (std::size_t t = 0; t < acc.size(); ++t) acc[t] += series[t];
  }
  for (std::size_t t = 0; t < acc.size(); t += 37) {
    EXPECT_NEAR(acc[t], total[t], 1e-9 * std::max(1.0, total[t]))
        << "hour " << t;
  }
}

TEST_F(TemporalModelTest, DayShapeValidatesArchetype) {
  EXPECT_THROW((void)TemporalModel::day_shape(9, Weekday::kMonday, false, 8.0),
               icn::util::PreconditionError);
}

TEST_F(TemporalModelTest, NoiseShapeValidation) {
  TemporalParams params;
  params.noise_shape = -1.0;
  EXPECT_THROW(TemporalModel(*demand_, params),
               icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::traffic
