#include "traffic/temporal.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace icn::traffic {
namespace {

using icn::util::DateRange;
using icn::util::Rng;
using icn::util::Weekday;

constexpr std::uint64_t kEventStream = 0x0E0E'0001ULL;
constexpr std::uint64_t kNoiseStream = 0x0E0E'0002ULL;

double gauss(double h, double mu, double sigma) {
  const double d = (h - mu) / sigma;
  return std::exp(-0.5 * d * d);
}

/// Smooth plateau between `rise` and `fall` hours.
double plateau(double h, double rise, double fall, double steepness = 1.5) {
  const double up = 1.0 / (1.0 + std::exp(-steepness * (h - rise)));
  const double down = 1.0 / (1.0 + std::exp(steepness * (h - fall)));
  return up * down;
}

/// All diurnal profile kinds, used to enumerate weight grids.
constexpr std::array<DiurnalProfile, 8> kAllProfiles = {
    DiurnalProfile::kFlat,     DiurnalProfile::kMorning,
    DiurnalProfile::kCommute,  DiurnalProfile::kWorkHours,
    DiurnalProfile::kDaytime,  DiurnalProfile::kEvening,
    DiurnalProfile::kNight,    DiurnalProfile::kPostEvent,
};

bool is_green(int archetype) {
  return archetype_group(archetype) == ClusterGroup::kGreen;
}

}  // namespace

double TemporalModel::day_shape(int archetype, Weekday wd, bool strike_day,
                                double hour) {
  ICN_REQUIRE(archetype >= 0 &&
                  archetype < static_cast<int>(kNumArchetypes),
              "archetype id");
  const bool weekend = icn::util::is_weekend(wd);
  double shape = 0.0;
  switch (archetype) {
    case 0:
    case 4:
    case 7: {
      // Commuter double peak (7:30-9:30 and 17:30-19:30), quiet weekends.
      if (!weekend) {
        shape = 0.05 + 1.0 * gauss(hour, 8.5, 1.0) +
                0.9 * gauss(hour, 18.5, 1.1);
      } else {
        shape = 0.04 + 0.18 * gauss(hour, 14.0, 3.5);
      }
      if (strike_day) {
        // 19 Jan 2023 general strike: transit collapse, milder outside Paris.
        shape *= archetype == 7 ? 0.5 : 0.08;
      }
      break;
    }
    case 5:
    case 6:
    case 8: {
      // Event venues: low ambient level; events are added separately.
      shape = 0.06 + 0.08 * plateau(hour, 10.0, 21.0);
      if (strike_day) shape *= 0.9;
      break;
    }
    case 1: {
      // General use: broad diurnal plateau with an evening shoulder,
      // weekends as active as weekdays.
      shape = 0.08 + 0.8 * plateau(hour, 9.5, 20.0) +
              0.35 * gauss(hour, 21.0, 1.5);
      if (strike_day) shape *= 0.85;
      break;
    }
    case 2: {
      // Retail & hospitality: shopping-hours plateau, higher night floor
      // (hotels, hospitals), Sunday dip (small MNO stores closed).
      shape = 0.20 + 0.8 * plateau(hour, 9.5, 19.5) +
              0.25 * gauss(hour, 22.0, 2.0);
      if (wd == Weekday::kSunday) shape *= 0.75;
      if (strike_day) shape *= 0.9;
      break;
    }
    case 3: {
      // Workspaces: office plateau, idle weekends and evenings.
      if (!weekend) {
        shape = 0.04 + 1.0 * plateau(hour, 8.7, 17.6, 2.0) *
                           (1.0 - 0.12 * gauss(hour, 13.0, 0.8));
      } else {
        shape = 0.04;
      }
      if (strike_day) shape *= 0.75;
      break;
    }
    default:
      break;
  }
  return shape;
}

double TemporalModel::profile_shape(DiurnalProfile p, Weekday wd,
                                    double hour) {
  const bool weekend = icn::util::is_weekend(wd);
  switch (p) {
    case DiurnalProfile::kFlat:
      return 1.0;
    case DiurnalProfile::kMorning:
      return 0.25 + 1.0 * gauss(hour, 8.0, 1.6);
    case DiurnalProfile::kCommute:
      if (weekend) return 0.3 + 0.3 * plateau(hour, 10.0, 20.0);
      return 0.2 + 1.0 * gauss(hour, 8.5, 1.1) + 0.9 * gauss(hour, 18.5, 1.2);
    case DiurnalProfile::kWorkHours:
      if (weekend) return 0.15;
      return 0.15 + 1.0 * plateau(hour, 8.8, 17.7, 2.0);
    case DiurnalProfile::kDaytime:
      return 0.25 + 1.0 * plateau(hour, 9.8, 20.2);
    case DiurnalProfile::kEvening:
      return 0.2 + 1.0 * gauss(hour, 20.5, 2.2);
    case DiurnalProfile::kNight:
      return 0.15 + 1.0 * gauss(hour, 22.0, 2.2) + 0.5 * gauss(hour, 1.0, 1.6);
    case DiurnalProfile::kPostEvent:
      // Driving navigation: evening commute + weekend daytime; the post-event
      // surge is added by the event machinery.
      return 0.25 + 0.8 * gauss(hour, 18.0, 1.6) +
             (weekend ? 0.5 * plateau(hour, 10.0, 19.0) : 0.0);
  }
  return 1.0;
}

TemporalModel::TemporalModel(const DemandModel& demand,
                             const TemporalParams& params)
    : demand_(&demand), params_(params), period_(icn::util::study_period()) {
  ICN_REQUIRE(params.noise_shape >= 0.0, "noise shape");
}

std::vector<VenueEvent> TemporalModel::site_events(
    std::size_t antenna) const {
  const auto& topo = demand_->topology();
  ICN_REQUIRE(antenna < topo.indoor().size(), "antenna index");
  const net::Antenna& ant = topo.indoor()[antenna];
  const int archetype = demand_->archetype_labels()[antenna];
  std::vector<VenueEvent> events;
  if (!is_green(archetype)) return events;
  const bool venue_env = ant.environment == net::Environment::kStadium ||
                         ant.environment == net::Environment::kExpo;
  if (!venue_env) return events;

  Rng rng(icn::util::derive_seed(params_.seed, kEventStream, ant.site_id));
  const std::int64_t days = period_.num_days();

  if (ant.environment == net::Environment::kStadium) {
    // Synchronized match evenings: every Saturday, plus every other
    // Wednesday; each site hosts ~75% of them. Paris arenas (archetype 8)
    // also host Friday-night shows and the 19 Jan NBA Paris Game.
    for (std::int64_t d = 0; d < days; ++d) {
      const Weekday wd = period_.weekday_at(d);
      const bool match_day =
          wd == Weekday::kSaturday ||
          (wd == Weekday::kWednesday && (d / 7) % 2 == 0);
      if (match_day && rng.bernoulli(0.75)) {
        events.push_back(VenueEvent{d, 20.0, 22.5, 14.0, "match"});
      }
      if (archetype == 8 && wd == Weekday::kFriday && rng.bernoulli(0.6)) {
        events.push_back(VenueEvent{d, 19.5, 23.0, 12.0, "arena show"});
      }
    }
    if (net::is_paris(ant.city)) {
      const std::int64_t nba = period_.index_of(icn::util::Date{2023, 1, 19});
      events.push_back(VenueEvent{nba, 19.0, 23.0, 18.0, "NBA Paris Game"});
    }
  } else {
    // Expo centres: one multi-day trade fair for ~60% of the sites; the Lyon
    // sites host the Sirha fair on 19-24 Jan 2023 (Sec. 6.0.1).
    if (ant.city == net::City::kLyon) {
      const std::int64_t first =
          period_.index_of(icn::util::Date{2023, 1, 19});
      for (std::int64_t d = first; d < days; ++d) {
        events.push_back(VenueEvent{d, 9.0, 19.0, 8.0, "Sirha Lyon"});
      }
    } else if (rng.bernoulli(0.6)) {
      const std::int64_t duration = rng.uniform_int(3, 5);
      const std::int64_t start = rng.uniform_int(0, days - duration);
      for (std::int64_t d = start; d < start + duration; ++d) {
        events.push_back(VenueEvent{d, 9.0, 19.0, 7.0, "trade fair"});
      }
    }
  }
  return events;
}

double TemporalModel::event_participation(ServiceCategory c) {
  using enum ServiceCategory;
  switch (c) {
    case kSocial:
    case kMessaging:
    case kSports:
      return 1.0;
    case kNews:
    case kNavigation:
      return 0.6;
    case kVideoStreaming:
    case kMusic:
    case kCloud:
    case kGaming:
      return 0.12;
    case kWork:
    case kMail:
      return 0.3;
    case kShopping:
    case kAppStore:
    case kEntertainment:
      return 0.5;
  }
  return 0.5;
}

std::vector<double> TemporalModel::profile_grid(
    std::size_t antenna, const std::vector<VenueEvent>& events,
    DiurnalProfile p, double participation) const {
  ICN_REQUIRE(participation >= 0.0 && participation <= 1.0,
              "event participation");
  const int archetype = demand_->archetype_labels()[antenna];
  const icn::util::Date strike = icn::util::strike_day();

  // day_shape x profile_shape depends on the day only through (weekday,
  // strike day): tabulate each key's 24 hours the first time it is seen.
  std::array<std::array<double, 24>, 14> shape{};
  std::array<bool, 14> shape_ready{};

  const std::int64_t hours = period_.num_hours();
  std::vector<double> grid(static_cast<std::size_t>(hours));
  Rng noise_rng(icn::util::derive_seed(
      params_.seed, kNoiseStream,
      icn::util::derive_seed(antenna, static_cast<std::uint64_t>(p),
                             static_cast<std::uint64_t>(
                                 participation * 1000.0))));

  for (std::int64_t d = 0; d < period_.num_days(); ++d) {
    const icn::util::Date date = period_.date_at(d);
    const Weekday wd = date.weekday();
    const bool strike_day = date == strike;
    const std::size_t key =
        static_cast<std::size_t>(wd) * 2 + (strike_day ? 1 : 0);
    auto& day = shape[key];
    if (!shape_ready[key]) {
      for (int h = 0; h < 24; ++h) {
        const double hour = static_cast<double>(h) + 0.5;
        day[static_cast<std::size_t>(h)] =
            day_shape(archetype, wd, strike_day, hour) *
            profile_shape(p, wd, hour);
      }
      shape_ready[key] = true;
    }
    for (int h = 0; h < 24; ++h) {
      const double hour = static_cast<double>(h) + 0.5;
      double w = day[static_cast<std::size_t>(h)];
      // Event boosts: crowd-driven services surge during the event (scaled
      // by their participation); the kPostEvent profile (vehicular
      // navigation) surges in the ~3h after it instead.
      for (const auto& ev : events) {
        if (p == DiurnalProfile::kPostEvent) {
          if (ev.day == d && hour >= ev.end_hour &&
              hour < ev.end_hour + 3.0) {
            w += 0.12 * ev.boost;  // ambient * boost, shifted
          }
        } else if (ev.day == d && hour >= ev.start_hour &&
                   hour < ev.end_hour) {
          w += 0.14 * ev.boost * participation;
        }
      }
      if (params_.noise_shape > 0.0) {
        w *= noise_rng.gamma(params_.noise_shape, 1.0 / params_.noise_shape);
      }
      grid[static_cast<std::size_t>(d * 24 + h)] = w;
    }
  }
  return grid;
}

std::vector<double> TemporalModel::hourly_service_series(
    std::size_t antenna, std::size_t service) const {
  const auto& catalog = demand_->archetypes().catalog();
  ICN_REQUIRE(service < catalog.size(), "service index");
  const Service& svc = catalog.at(service);
  const double total = demand_->traffic_matrix()(antenna, service);
  auto grid = profile_grid(antenna, site_events(antenna), svc.diurnal,
                           event_participation(svc.category));
  double sum = 0.0;
  for (const double w : grid) sum += w;
  ICN_REQUIRE(sum > 0.0, "degenerate temporal grid");
  for (auto& w : grid) w = total * w / sum;
  return grid;
}

std::vector<double> TemporalModel::hourly_total_series(
    std::size_t antenna) const {
  const auto& catalog = demand_->archetypes().catalog();
  const auto& traffic = demand_->traffic_matrix();
  const auto events = site_events(antenna);
  const std::size_t hours = static_cast<std::size_t>(period_.num_hours());
  std::vector<double> out(hours, 0.0);
  // A grid's noise seed and event boost see the category only through its
  // participation, so the categories of one profile that share a
  // participation share one grid: build each distinct grid (and its sum)
  // once, and fold the (profile, category) groups in their fixed order.
  struct Grid {
    double participation;
    std::vector<double> weights;
    double sum;
  };
  for (const DiurnalProfile p : kAllProfiles) {
    std::vector<Grid> grids;
    for (std::size_t c = 0; c < kNumServiceCategories; ++c) {
      const auto category = static_cast<ServiceCategory>(c);
      double group_total = 0.0;
      for (std::size_t j = 0; j < catalog.size(); ++j) {
        if (catalog.at(j).diurnal == p &&
            catalog.at(j).category == category) {
          group_total += traffic(antenna, j);
        }
      }
      if (group_total == 0.0) continue;
      const double participation = event_participation(category);
      auto grid = std::find_if(grids.begin(), grids.end(), [&](const Grid& g) {
        return g.participation == participation;
      });
      if (grid == grids.end()) {
        auto weights = profile_grid(antenna, events, p, participation);
        double sum = 0.0;
        for (const double w : weights) sum += w;
        ICN_REQUIRE(sum > 0.0, "degenerate temporal grid");
        grid = grids.insert(grids.end(),
                            Grid{participation, std::move(weights), sum});
      }
      const double scale = group_total / grid->sum;
      for (std::size_t t = 0; t < hours; ++t) {
        out[t] += scale * grid->weights[t];
      }
    }
  }
  return out;
}

}  // namespace icn::traffic
