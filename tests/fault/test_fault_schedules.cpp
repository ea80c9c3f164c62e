// Pinned decision schedules of the three seeded fault plans (feed, disk,
// transport). Each test walks a small grid of queries at two fixed seeds,
// folds every decision tuple — not ledger text — into an FNV-1a digest, and
// compares it against a committed value. The equal-seed chaos suites only
// compare runs with each other, so a refactor that changed a draw would
// still pass them; these digests catch it.
//
// Rates sit strictly inside (0, 1) so a bernoulli trial always consumes one
// variate, plus a second disk and transport grid at rate 1.0. If a digest
// moves on purpose, record the one-time schedule change in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "fault/disk.h"
#include "fault/plan.h"
#include "fault/transport.h"

namespace icn::fault {
namespace {

/// FNV-1a over the little-endian bytes of each folded 64-bit word.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
  void add(const std::optional<T>& v) {
    add(v.has_value());
    if (v.has_value()) add(*v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr std::uint64_t kSeeds[] = {7, 2023};

std::string feed_digest(std::uint64_t seed) {
  FaultPlanParams params;
  params.seed = seed;
  params.num_probes = 5;
  params.num_hours = 60;
  params.dropout_rate = 0.08;
  params.dropout_max_hours = 4;
  params.transient_rate = 0.2;
  params.transient_max_failures = 3;
  params.duplicate_rate = 0.15;
  params.reorder_rate = 0.15;
  params.skew_rate = 0.1;
  params.skew_max_delay = 3;
  params.truncate_rate = 0.1;
  params.bitflip_rate = 0.6;
  params.poison_probe = 3;
  params.poison_hour = 40;
  params.field_fuzz_rate = 0.2;
  params.field_fuzz_max_records = 4;
  params.outage_rate = 0.05;
  params.outage_max_hours = 3;
  params.outage_min_probes = 2;
  params.restart_count = 4;
  params.restart_min_ticks = 3;
  params.restart_max_ticks = 40;
  const FaultPlan plan(params);

  Digest d;
  for (std::size_t p = 0; p < params.num_probes; ++p) {
    for (std::int64_t h = 0; h < params.num_hours; ++h) {
      d.add(plan.dropout_starting_at(p, h));
      d.add(plan.dropped(p, h));
      d.add(plan.transient_failures(p, h));
      d.add(plan.duplicated(p, h));
      d.add(plan.reordered(p, h));
      d.add(plan.skew_delay(p, h));
      d.add(plan.truncate_keep_frac(p, h));
      d.add(plan.poisoned(p, h));
      d.add(plan.reorder_seed(p, h));
      d.add(plan.fuzz_record_count(p, h));
      d.add(plan.fuzz_seed(p, h));
      const OutageSpec* outage = plan.outage_covering(p, h);
      d.add(outage != nullptr);
      if (outage != nullptr) d.add(outage->hour);
    }
    const std::optional<BitFlipSpec> flip = plan.bitflip(p);
    d.add(flip.has_value());
    if (flip.has_value()) {
      d.add(flip->section_frac);
      d.add(flip->byte_frac);
      d.add(std::uint64_t{flip->mask});
    }
  }
  for (const OutageSpec& outage : plan.outages()) {
    d.add(outage.hour);
    d.add(outage.len);
    d.add(outage.probes);
  }
  for (std::size_t e = 0; e < params.restart_count; ++e) {
    d.add(plan.restart_tick_budget(e));
  }
  return d.hex();
}

std::string disk_digest(std::uint64_t seed, double rate) {
  DiskFaultPlanParams params;
  params.seed = seed;
  params.short_write_rate = rate;
  params.write_error_rate = rate;
  params.enospc_rate = rate;
  params.enospc_max_run = 4;
  params.fsync_fail_rate = rate;
  params.crash_block_size = 64;
  params.crash_drop_rate = rate < 1.0 ? 0.35 : 0.5;
  params.crash_tear_rate = rate < 1.0 ? 0.25 : 0.5;
  const DiskFaultPlan plan(params);

  Digest d;
  for (std::uint64_t file = 0; file < 4; ++file) {
    for (std::uint64_t op = 0; op < 40; ++op) {
      d.add(plan.short_write_keep(file, op, 1 + op * 7));
      d.add(plan.write_error(file, op));
      d.add(plan.enospc_run_starting(file, op));
      d.add(plan.fsync_fails(file, op));
      const std::uint64_t block = op * params.crash_block_size;
      d.add(static_cast<std::uint64_t>(plan.crash_block_fate(file, block)));
      d.add(plan.crash_tear_keep(file, block,
                                 1 + op % params.crash_block_size));
    }
  }
  return d.hex();
}

std::string transport_digest(std::uint64_t seed, double rate) {
  ServeFaultPlanParams params;
  params.seed = seed;
  params.partial_read_rate = rate;
  params.partial_read_max = 48;
  params.short_write_rate = rate;
  params.short_write_max = 32;
  // A stall rate of 1.0 freezes every tick, which hides the budgets; the
  // rate-1.0 grid pins the stall draw on its own plan below.
  params.stall_rate = rate < 1.0 ? rate / 2 : 0.0;
  params.stall_max_ticks = 3;
  params.corrupt_rate = rate / 4;
  params.reset_rate = rate;
  params.reset_min_ticks = 2;
  params.reset_max_ticks = 30;
  const ServeFaultPlan plan(params);

  ServeFaultPlanParams stall_params = params;
  stall_params.stall_rate = rate;
  const ServeFaultPlan stall_plan(stall_params);

  Digest d;
  for (std::uint64_t conn = 0; conn < 6; ++conn) {
    for (std::uint64_t tick = 0; tick < 40; ++tick) {
      d.add(std::uint64_t{plan.rx_budget(conn, tick)});
      d.add(std::uint64_t{plan.tx_budget(conn, tick)});
      d.add(plan.stall_starting_at(conn, tick));
      d.add(plan.stalled(conn, tick));
      d.add(stall_plan.stall_starting_at(conn, tick));
      d.add(stall_plan.stalled(conn, tick));
    }
    for (std::uint64_t offset = 0; offset < 256; ++offset) {
      const std::optional<std::uint8_t> mask = plan.corrupt_mask(conn, offset);
      d.add(mask.has_value());
      if (mask.has_value()) d.add(std::uint64_t{*mask});
    }
    d.add(plan.reset_after(conn));
  }
  return d.hex();
}

TEST(FaultScheduleTest, FeedPlanDecisionsArePinned) {
  EXPECT_EQ(feed_digest(kSeeds[0]), "0x7bc280ba9981fc50");
  EXPECT_EQ(feed_digest(kSeeds[1]), "0xf960ad58d046ed66");
}

TEST(FaultScheduleTest, DiskPlanDecisionsArePinned) {
  EXPECT_EQ(disk_digest(kSeeds[0], 0.3), "0xf4f0b9a9b40af2f8");
  EXPECT_EQ(disk_digest(kSeeds[1], 0.3), "0x65fb901938e1dde1");
}

TEST(FaultScheduleTest, DiskPlanDecisionsArePinnedAtRateOne) {
  EXPECT_EQ(disk_digest(kSeeds[0], 1.0), "0x6e1efbec01edfbaa");
  EXPECT_EQ(disk_digest(kSeeds[1], 1.0), "0xcd04b5b69ab83875");
}

TEST(FaultScheduleTest, TransportPlanDecisionsArePinned) {
  EXPECT_EQ(transport_digest(kSeeds[0], 0.3), "0xd21470a93af13780");
  EXPECT_EQ(transport_digest(kSeeds[1], 0.3), "0x3c6bc2022d3a1426");
}

TEST(FaultScheduleTest, TransportPlanDecisionsArePinnedAtRateOne) {
  EXPECT_EQ(transport_digest(kSeeds[0], 1.0), "0x48b35db8798ce779");
  EXPECT_EQ(transport_digest(kSeeds[1], 1.0), "0x34ed7ce988da4262");
}

}  // namespace
}  // namespace icn::fault
