#include "fault/plan.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "fault/seeded.h"
#include "util/error.h"

namespace icn::fault {
namespace {

struct KindInfo {
  const char* name;
  const char* site;  ///< Label of FaultEvent::site in a ledger line.
  const char* at;    ///< Label of FaultEvent::at.
};

/// Ledger vocabulary, indexed by FaultKind.
constexpr KindInfo kKinds[] = {
    {"dropout", "probe", "hour"},     {"transient", "probe", "hour"},
    {"duplicate", "probe", "hour"},   {"reorder", "probe", "hour"},
    {"skew", "probe", "hour"},        {"truncate", "probe", "hour"},
    {"bitflip", "probe", "hour"},     {"poison", "probe", "hour"},
    {"fieldfuzz", "probe", "hour"},   {"siteoutage", "probe", "hour"},
    {"restart", "probe", "hour"},     {"shortwrite", "file", "op"},
    {"writeerror", "file", "op"},     {"enospc", "file", "op"},
    {"fsyncfail", "file", "op"},      {"powercut", "file", "op"},
    {"crashdrop", "file", "op"},      {"crashtear", "file", "op"},
    {"partial_read", "conn", "tick"}, {"short_write", "conn", "tick"},
    {"stall", "conn", "tick"},        {"corrupt", "conn", "tick"},
    {"reset", "conn", "tick"},
};
static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(FaultKind::kReset) + 1);

const KindInfo& info(FaultKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

}  // namespace

std::string to_string(FaultKind kind) { return info(kind).name; }

std::string to_string(const FaultEvent& event) {
  const KindInfo& k = info(event.kind);
  return std::string(k.site) + "=" + std::to_string(event.site) + " " +
         k.at + "=" + std::to_string(event.at) + " " + k.name +
         " a=" + std::to_string(event.a) + " b=" + std::to_string(event.b);
}

std::string to_text(const FaultLedger& ledger) {
  std::string out;
  for (const auto& event : ledger) {
    out += to_string(event);
    out += '\n';
  }
  return out;
}

FaultPlan::FaultPlan(FaultPlanParams params) : params_(std::move(params)) {
  ICN_REQUIRE(params_.num_probes >= 1, "fault plan needs probes");
  ICN_REQUIRE(params_.num_hours > 0, "fault plan needs hours");
  ICN_REQUIRE(params_.dropout_max_hours >= 1, "dropout window length");
  ICN_REQUIRE(params_.transient_max_failures >= 1, "transient burst length");
  ICN_REQUIRE(params_.skew_max_delay >= 1, "skew delay");
  ICN_REQUIRE(params_.field_fuzz_max_records >= 1, "field fuzz batch budget");
  ICN_REQUIRE(params_.outage_max_hours >= 1, "outage window length");
  ICN_REQUIRE(params_.restart_min_ticks >= 1 &&
                  params_.restart_max_ticks >= params_.restart_min_ticks,
              "restart tick budget range");

  const std::size_t cells =
      params_.num_probes * static_cast<std::size_t>(params_.num_hours);
  dropout_start_len_.assign(cells, 0);
  dropped_.assign(cells, 0);
  transient_.assign(cells, 0);
  duplicate_.assign(cells, 0);
  reorder_.assign(cells, 0);
  skew_.assign(cells, 0);
  truncate_frac_.assign(cells, -1.0);
  bitflip_.assign(params_.num_probes, std::nullopt);
  fuzz_count_.assign(cells, 0);
  outage_idx_.assign(cells, -1);
  const auto draw = [this](std::size_t probe, std::int64_t hour, Tag tag) {
    return seeded(params_.seed, probe, static_cast<std::uint64_t>(hour), tag);
  };

  // Correlated site outages are scheduled first, from one global per-hour
  // substream, so every probe in the mask agrees on the shared window.
  // Windows are laid out sequentially and never overlap each other.
  if (params_.outage_rate > 0.0) {
    ICN_REQUIRE(params_.num_probes <= 64, "outage probe sets are 64-bit masks");
    ICN_REQUIRE(params_.outage_min_probes >= 1 &&
                    params_.outage_min_probes <= params_.num_probes,
                "outage probe set size");
    std::int64_t h = 0;
    while (h < params_.num_hours) {
      auto rng = draw(0, h, Tag::kOutage);
      if (const auto drawn = draw_count(
              rng, params_.outage_rate,
              static_cast<std::uint64_t>(params_.outage_max_hours))) {
        const std::int64_t len = std::min<std::int64_t>(
            static_cast<std::int64_t>(drawn), params_.num_hours - h);
        const std::size_t extra =
            params_.num_probes - params_.outage_min_probes;
        const std::size_t size =
            params_.outage_min_probes +
            static_cast<std::size_t>(rng.uniform_index(extra + 1));
        // Partial Fisher-Yates picks `size` distinct probes for the mask.
        std::vector<std::size_t> pool(params_.num_probes);
        std::iota(pool.begin(), pool.end(), std::size_t{0});
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < size; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng.uniform_index(pool.size() - i));
          std::swap(pool[i], pool[j]);
          mask |= std::uint64_t{1} << pool[i];
        }
        const auto idx = static_cast<std::int32_t>(outages_.size());
        outages_.push_back({h, len, mask});
        for (std::size_t p = 0; p < params_.num_probes; ++p) {
          if ((mask >> p & 1) == 0) continue;
          for (std::int64_t d = 0; d < len; ++d) {
            outage_idx_[cell(p, h + d)] = idx;
          }
        }
        h += len;
      } else {
        ++h;
      }
    }
  }

  for (std::size_t p = 0; p < params_.num_probes; ++p) {
    // Dropout windows are laid out sequentially per probe so they never
    // overlap, and are clamped so they never run into an outage window —
    // the feed's cursor must arrive exactly at each outage start. Every
    // other class is an independent per-cell draw.
    std::int64_t h = 0;
    while (h < params_.num_hours) {
      if (outage_idx_[cell(p, h)] >= 0) {  // site is down; no probe fault
        ++h;
        continue;
      }
      auto rng = draw(p, h, Tag::kDropout);
      if (const auto drawn = draw_count(
              rng, params_.dropout_rate,
              static_cast<std::uint64_t>(params_.dropout_max_hours))) {
        std::int64_t len = std::min<std::int64_t>(
            static_cast<std::int64_t>(drawn), params_.num_hours - h);
        for (std::int64_t d = 1; d < len; ++d) {
          if (outage_idx_[cell(p, h + d)] >= 0) {
            len = d;
            break;
          }
        }
        dropout_start_len_[cell(p, h)] = len;
        for (std::int64_t d = 0; d < len; ++d) dropped_[cell(p, h + d)] = 1;
        h += len;
      } else {
        ++h;
      }
    }
    for (h = 0; h < params_.num_hours; ++h) {
      // Dropped / outage hours have no batch to fault.
      if (dropped_[cell(p, h)] != 0 || outage_idx_[cell(p, h)] >= 0) continue;
      const std::size_t c = cell(p, h);
      auto transient = draw(p, h, Tag::kTransient);
      transient_[c] = static_cast<std::int64_t>(draw_count(
          transient, params_.transient_rate,
          static_cast<std::uint64_t>(params_.transient_max_failures)));
      duplicate_[c] =
          draw(p, h, Tag::kDuplicate).bernoulli(params_.duplicate_rate);
      reorder_[c] = draw(p, h, Tag::kReorder).bernoulli(params_.reorder_rate);
      auto skew = draw(p, h, Tag::kSkew);
      skew_[c] = static_cast<std::int64_t>(
          draw_count(skew, params_.skew_rate,
                     static_cast<std::uint64_t>(params_.skew_max_delay)));
      auto truncate = draw(p, h, Tag::kTruncate);
      if (truncate.bernoulli(params_.truncate_rate)) {
        truncate_frac_[c] = truncate.uniform(0.0, 0.95);
      }
      auto fuzz = draw(p, h, Tag::kFieldFuzz);
      fuzz_count_[c] = static_cast<std::int64_t>(draw_count(
          fuzz, params_.field_fuzz_rate,
          static_cast<std::uint64_t>(params_.field_fuzz_max_records)));
    }
    {
      auto rng = draw(p, 0, Tag::kBitFlip);
      if (rng.bernoulli(params_.bitflip_rate)) {
        BitFlipSpec spec;
        spec.section_frac = rng.uniform();
        spec.byte_frac = rng.uniform();
        spec.mask = static_cast<std::uint8_t>(1u << rng.uniform_index(8));
        bitflip_[p] = spec;
      }
    }
  }
}

std::size_t FaultPlan::cell(std::size_t probe, std::int64_t hour) const {
  ICN_REQUIRE(probe < params_.num_probes, "fault plan probe index");
  ICN_REQUIRE(hour >= 0 && hour < params_.num_hours, "fault plan hour index");
  return probe * static_cast<std::size_t>(params_.num_hours) +
         static_cast<std::size_t>(hour);
}

std::int64_t FaultPlan::dropout_starting_at(std::size_t probe,
                                            std::int64_t hour) const {
  return dropout_start_len_[cell(probe, hour)];
}

bool FaultPlan::dropped(std::size_t probe, std::int64_t hour) const {
  return dropped_[cell(probe, hour)] != 0;
}

std::int64_t FaultPlan::transient_failures(std::size_t probe,
                                           std::int64_t hour) const {
  return transient_[cell(probe, hour)];
}

bool FaultPlan::duplicated(std::size_t probe, std::int64_t hour) const {
  return duplicate_[cell(probe, hour)] != 0;
}

bool FaultPlan::reordered(std::size_t probe, std::int64_t hour) const {
  return reorder_[cell(probe, hour)] != 0;
}

std::int64_t FaultPlan::skew_delay(std::size_t probe,
                                   std::int64_t hour) const {
  return skew_[cell(probe, hour)];
}

std::optional<double> FaultPlan::truncate_keep_frac(std::size_t probe,
                                                    std::int64_t hour) const {
  const double frac = truncate_frac_[cell(probe, hour)];
  if (frac < 0.0) return std::nullopt;
  return frac;
}

bool FaultPlan::poisoned(std::size_t probe, std::int64_t hour) const {
  return params_.poison_probe && *params_.poison_probe == probe &&
         hour >= params_.poison_hour;
}

std::optional<BitFlipSpec> FaultPlan::bitflip(std::size_t probe) const {
  ICN_REQUIRE(probe < params_.num_probes, "fault plan probe index");
  return bitflip_[probe];
}

std::uint64_t FaultPlan::reorder_seed(std::size_t probe,
                                      std::int64_t hour) const {
  return icn::util::derive_seed(params_.seed, probe,
                                static_cast<std::uint64_t>(hour),
                                static_cast<std::uint64_t>(Tag::kReorderSeed));
}

std::int64_t FaultPlan::fuzz_record_count(std::size_t probe,
                                          std::int64_t hour) const {
  return fuzz_count_[cell(probe, hour)];
}

std::uint64_t FaultPlan::fuzz_seed(std::size_t probe,
                                   std::int64_t hour) const {
  return icn::util::derive_seed(
      params_.seed, probe, static_cast<std::uint64_t>(hour),
      static_cast<std::uint64_t>(Tag::kFieldFuzzSeed));
}

const OutageSpec* FaultPlan::outage_covering(std::size_t probe,
                                             std::int64_t hour) const {
  const std::int32_t idx = outage_idx_[cell(probe, hour)];
  if (idx < 0) return nullptr;
  return &outages_[static_cast<std::size_t>(idx)];
}

std::int64_t FaultPlan::restart_tick_budget(std::size_t epoch) const {
  ICN_REQUIRE(epoch < params_.restart_count, "restart epoch index");
  auto rng = seeded(params_.seed, epoch, 0, Tag::kRestart);
  const auto span = static_cast<std::uint64_t>(params_.restart_max_ticks -
                                               params_.restart_min_ticks + 1);
  return params_.restart_min_ticks +
         static_cast<std::int64_t>(rng.uniform_index(span));
}

}  // namespace icn::fault
