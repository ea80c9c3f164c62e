// FaultPlan: seeded determinism, schedule structure (non-overlapping dropout
// windows, per-class bounds, no faults inside dropped hours), the faulty-feed
// wrapper's delivery semantics, and ledger formatting.
#include "fault/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/feed.h"
#include "stream/feed.h"
#include "util/error.h"

namespace icn::fault {
namespace {

FaultPlanParams busy_params(std::uint64_t seed) {
  FaultPlanParams params;
  params.seed = seed;
  params.num_probes = 3;
  params.num_hours = 72;
  params.dropout_rate = 0.10;
  params.transient_rate = 0.15;
  params.duplicate_rate = 0.15;
  params.reorder_rate = 0.15;
  params.skew_rate = 0.10;
  params.truncate_rate = 0.10;
  params.bitflip_rate = 0.5;
  return params;
}

TEST(FaultPlanTest, EqualSeedsGiveIdenticalSchedules) {
  const FaultPlan a(busy_params(42));
  const FaultPlan b(busy_params(42));
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::int64_t h = 0; h < 72; ++h) {
      EXPECT_EQ(a.dropout_starting_at(p, h), b.dropout_starting_at(p, h));
      EXPECT_EQ(a.dropped(p, h), b.dropped(p, h));
      EXPECT_EQ(a.transient_failures(p, h), b.transient_failures(p, h));
      EXPECT_EQ(a.duplicated(p, h), b.duplicated(p, h));
      EXPECT_EQ(a.reordered(p, h), b.reordered(p, h));
      EXPECT_EQ(a.skew_delay(p, h), b.skew_delay(p, h));
      EXPECT_EQ(a.truncate_keep_frac(p, h), b.truncate_keep_frac(p, h));
      EXPECT_EQ(a.reorder_seed(p, h), b.reorder_seed(p, h));
    }
    EXPECT_EQ(a.bitflip(p).has_value(), b.bitflip(p).has_value());
  }
}

TEST(FaultPlanTest, DifferentSeedsGiveDifferentSchedules) {
  const FaultPlan a(busy_params(42));
  const FaultPlan b(busy_params(43));
  std::size_t differing = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::int64_t h = 0; h < 72; ++h) {
      if (a.dropped(p, h) != b.dropped(p, h) ||
          a.duplicated(p, h) != b.duplicated(p, h) ||
          a.reordered(p, h) != b.reordered(p, h)) {
        ++differing;
      }
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultPlanTest, DropoutWindowsAreBoundedAndNonOverlapping) {
  const FaultPlan plan(busy_params(7));
  for (std::size_t p = 0; p < 3; ++p) {
    std::int64_t inside = 0;  // hours remaining in the current window
    std::size_t windows = 0;
    for (std::int64_t h = 0; h < 72; ++h) {
      const std::int64_t len = plan.dropout_starting_at(p, h);
      if (len > 0) {
        ++windows;
        EXPECT_EQ(inside, 0) << "window starts inside another window";
        EXPECT_LE(len, 3);
        EXPECT_LE(h + len, 72);
        inside = len;
      }
      EXPECT_EQ(plan.dropped(p, h), inside > 0) << "probe " << p
                                                << " hour " << h;
      if (inside > 0) --inside;
    }
    EXPECT_GT(windows, 0u) << "rate 0.10 over 72 hours produced no window";
  }
}

TEST(FaultPlanTest, DroppedHoursCarryNoOtherFaults) {
  const FaultPlan plan(busy_params(7));
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::int64_t h = 0; h < 72; ++h) {
      if (!plan.dropped(p, h)) continue;
      EXPECT_EQ(plan.transient_failures(p, h), 0);
      EXPECT_FALSE(plan.duplicated(p, h));
      EXPECT_FALSE(plan.reordered(p, h));
      EXPECT_EQ(plan.skew_delay(p, h), 0);
      EXPECT_FALSE(plan.truncate_keep_frac(p, h).has_value());
    }
  }
}

TEST(FaultPlanTest, PerClassBoundsHold) {
  const FaultPlan plan(busy_params(11));
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::int64_t h = 0; h < 72; ++h) {
      const std::int64_t transients = plan.transient_failures(p, h);
      EXPECT_GE(transients, 0);
      EXPECT_LE(transients, 2);
      const std::int64_t skew = plan.skew_delay(p, h);
      EXPECT_GE(skew, 0);
      EXPECT_LE(skew, 2);
      if (const auto frac = plan.truncate_keep_frac(p, h)) {
        EXPECT_GE(*frac, 0.0);
        EXPECT_LT(*frac, 0.95);
      }
    }
    if (const auto flip = plan.bitflip(p)) {
      EXPECT_GE(flip->section_frac, 0.0);
      EXPECT_LT(flip->section_frac, 1.0);
      EXPECT_NE(flip->mask, 0);
      // Single-bit mask.
      EXPECT_EQ(flip->mask & (flip->mask - 1), 0);
    }
  }
}

TEST(FaultPlanTest, PoisonAppliesFromItsHourOn) {
  FaultPlanParams params;
  params.seed = 3;
  params.num_probes = 2;
  params.num_hours = 24;
  params.poison_probe = 1;
  params.poison_hour = 10;
  const FaultPlan plan(params);
  for (std::int64_t h = 0; h < 24; ++h) {
    EXPECT_FALSE(plan.poisoned(0, h));
    EXPECT_EQ(plan.poisoned(1, h), h >= 10);
  }
}

TEST(FaultPlanTest, PreconditionsEnforced) {
  FaultPlanParams bad;
  bad.num_probes = 0;
  bad.num_hours = 24;
  EXPECT_THROW(FaultPlan{bad}, icn::util::PreconditionError);
  bad.num_probes = 1;
  bad.num_hours = 0;
  EXPECT_THROW(FaultPlan{bad}, icn::util::PreconditionError);
  FaultPlanParams good;
  good.num_hours = 24;
  const FaultPlan plan(good);
  EXPECT_THROW((void)plan.dropped(1, 0), icn::util::PreconditionError);
  EXPECT_THROW((void)plan.dropped(0, 24), icn::util::PreconditionError);
}

TEST(FaultPlanTest, LedgerFormatsOneLinePerEvent) {
  const FaultLedger ledger = {{0, 5, FaultKind::kDropout, 2, 0},
                              {1, 9, FaultKind::kTruncate, 3, 7},
                              {2, 4, FaultKind::kShortWrite, 10, 64},
                              {3, 8, FaultKind::kPartialWrite, 16, 12}};
  const std::string text = to_text(ledger);
  EXPECT_NE(text.find("probe=0 hour=5 dropout a=2 b=0"), std::string::npos);
  EXPECT_NE(text.find("probe=1 hour=9 truncate a=3 b=7"), std::string::npos);
  // Disk and transport kinds label their site and position for what they
  // are: a Vfs file id and op index, a connection and tick.
  EXPECT_NE(text.find("file=2 op=4 shortwrite a=10 b=64"), std::string::npos);
  EXPECT_NE(text.find("conn=3 tick=8 short_write a=16 b=12"),
            std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(ReorderTest, PreservesPerAntennaOrderAndMultiset) {
  std::vector<probe::ServiceSession> records;
  for (std::size_t i = 0; i < 30; ++i) {
    probe::ServiceSession s;
    s.antenna_id = static_cast<std::uint32_t>(i % 3);
    s.service = i;  // unique marker
    s.hour = 0;
    records.push_back(s);
  }
  auto shuffled = records;
  reorder_preserving_antenna_order(shuffled, 99);
  ASSERT_EQ(shuffled.size(), records.size());
  // Same multiset of markers.
  std::multiset<std::size_t> a, b;
  for (const auto& s : records) a.insert(s.service);
  for (const auto& s : shuffled) b.insert(s.service);
  EXPECT_EQ(a, b);
  // Per-antenna relative order intact: markers ascend within each antenna.
  for (std::uint32_t id = 0; id < 3; ++id) {
    std::size_t last = 0;
    bool first = true;
    for (const auto& s : shuffled) {
      if (s.antenna_id != id) continue;
      if (!first) EXPECT_GT(s.service, last);
      last = s.service;
      first = false;
    }
  }
  // Deterministic: same seed, same permutation.
  auto again = records;
  reorder_preserving_antenna_order(again, 99);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].service, shuffled[i].service);
  }
}

TEST(FaultyFeedTest, HealthyPlanDeliversScriptVerbatim) {
  FaultPlanParams params;
  params.num_probes = 1;
  params.num_hours = 4;
  const FaultPlan plan(params);
  FaultLedger ledger;
  std::vector<stream::FeedBatch> script;
  for (std::int64_t h = 0; h < 4; ++h) {
    stream::FeedBatch batch;
    batch.sequence = static_cast<std::uint64_t>(h);
    batch.hour = h;
    script.push_back(batch);
  }
  FaultyFeed feed(0, script, &plan, &ledger);
  for (std::int64_t h = 0; h < 4; ++h) {
    const auto result = feed.pull();
    ASSERT_EQ(result.status, stream::PullStatus::kBatch);
    EXPECT_EQ(result.batch.hour, h);
  }
  EXPECT_EQ(feed.pull().status, stream::PullStatus::kEndOfStream);
  EXPECT_TRUE(ledger.empty());
}

}  // namespace
}  // namespace icn::fault
