// Hourly traffic dynamics (Sec. 6 of the paper).
//
// Every (antenna, service) pair gets an hourly weight curve over the study
// period, combining:
//  * an archetype day shape — commute double-peaks for the orange clusters,
//    office hours for cluster 3, retail/diurnal plateaus for clusters 1-2
//    (with cluster 2's Sunday dip and higher night floor), a low ambient
//    level for the event-driven green clusters;
//  * a per-service diurnal modulator (music peaks while commuting, Teams in
//    working hours, Netflix in the evening/night, Waze ~2h after events);
//  * calendar effects — weekends, the 19 Jan 2023 national strike (traffic
//    collapse for Paris commuter clusters, milder for provincial cluster 7);
//  * venue events for the green clusters: synchronized provincial match
//    evenings (cluster 6), Paris arena event nights incl. the 19 Jan NBA
//    game (cluster 8), multi-day trade fairs incl. Sirha Lyon 19-24 Jan
//    (cluster 5 venues);
//  * multiplicative gamma noise.
//
// Weights are normalized so each (antenna, service) hourly series sums to
// exactly the antenna's two-month total for that service from the demand
// model — the tensor is consistent with the T matrix by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/demand.h"
#include "util/calendar.h"

namespace icn::traffic {

/// Temporal model parameters.
struct TemporalParams {
  std::uint64_t seed = 77;
  /// Gamma noise shape (mean-1 multiplicative noise); 0 disables noise.
  double noise_shape = 25.0;
};

/// One venue event resolved for a site.
struct VenueEvent {
  std::int64_t day = 0;       ///< Day index into the study period.
  double start_hour = 0.0;    ///< Start hour of day [0, 24).
  double end_hour = 0.0;      ///< End hour of day (exclusive).
  double boost = 1.0;         ///< Multiplicative traffic boost while active.
  std::string label;          ///< e.g. "match", "NBA Paris Game", "Sirha Lyon".
};

/// Hourly traffic series generator on top of a DemandModel.
class TemporalModel {
 public:
  /// The demand model must outlive the temporal model.
  TemporalModel(const DemandModel& demand, const TemporalParams& params);

  /// How strongly a service category takes part in venue events: social,
  /// messaging and sports traffic surges with the crowd, long-form video /
  /// music / cloud traffic does not (the paper observes Netflix staying
  /// under-utilized in venues even at event peaks, Fig. 11d).
  [[nodiscard]] static double event_participation(ServiceCategory c);

  /// The modeled period (the paper's 21 Nov 2022 -> 24 Jan 2023).
  [[nodiscard]] const icn::util::DateRange& period() const { return period_; }

  /// Hourly MB of one service at one indoor antenna over the whole period;
  /// sums to the demand model's T(antenna, service).
  [[nodiscard]] std::vector<double> hourly_service_series(
      std::size_t antenna, std::size_t service) const;

  /// Hourly MB of all services combined at one indoor antenna; sums to the
  /// antenna's total volume.
  [[nodiscard]] std::vector<double> hourly_total_series(
      std::size_t antenna) const;

  /// The event schedule of the antenna's site (empty for non-venue
  /// environments or non-green archetypes).
  [[nodiscard]] std::vector<VenueEvent> site_events(std::size_t antenna) const;

  /// Archetype day shape at hour-of-day `hour` (continuous, [0, 24)).
  /// Exposed for tests and benches.
  [[nodiscard]] static double day_shape(int archetype, icn::util::Weekday wd,
                                        bool strike_day, double hour);

  /// Service diurnal modulator (kPostEvent handled via events; here it
  /// falls back to an evening-driving shape). Exposed for tests.
  [[nodiscard]] static double profile_shape(DiurnalProfile p,
                                            icn::util::Weekday wd,
                                            double hour);

  [[nodiscard]] const DemandModel& demand() const { return *demand_; }

 private:
  const DemandModel* demand_;
  TemporalParams params_;
  icn::util::DateRange period_;

  /// Unnormalized weight grid of one diurnal profile at one antenna
  /// (length = period().num_hours()); `events` is the antenna's
  /// site_events() and `participation` scales their boost for the services
  /// using this grid.
  [[nodiscard]] std::vector<double> profile_grid(
      std::size_t antenna, const std::vector<VenueEvent>& events,
      DiurnalProfile p, double participation) const;
};

}  // namespace icn::traffic
