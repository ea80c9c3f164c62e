#include "fault/transport.h"

#include <algorithm>

#include "fault/seeded.h"
#include "util/error.h"

namespace icn::fault {
namespace {

/// One direction's byte budget for (conn, tick): 0 when stalled,
/// kUnlimited when no fault, else a budget in [1, max].
std::size_t draw_budget(const ServeFaultPlan& plan, std::uint64_t conn,
                        std::uint64_t tick, Tag tag, double rate,
                        std::size_t max) {
  if (plan.stalled(conn, tick)) return 0;
  auto rng = seeded(plan.params().seed, conn, tick, tag);
  const std::uint64_t budget = draw_count(rng, rate, max);
  return budget == 0 ? ServeFaultPlan::kUnlimited
                     : static_cast<std::size_t>(budget);
}

}  // namespace

ServeFaultPlan::ServeFaultPlan(const ServeFaultPlanParams& params)
    : params_(params) {
  ICN_REQUIRE(params_.partial_read_max >= 1,
              "serve fault plan: partial_read_max >= 1");
  ICN_REQUIRE(params_.short_write_max >= 1,
              "serve fault plan: short_write_max >= 1");
  ICN_REQUIRE(params_.stall_max_ticks >= 1,
              "serve fault plan: stall_max_ticks >= 1");
  ICN_REQUIRE(params_.reset_min_ticks >= 1 &&
                  params_.reset_min_ticks <= params_.reset_max_ticks,
              "serve fault plan: 1 <= reset_min_ticks <= reset_max_ticks");
}

std::size_t ServeFaultPlan::rx_budget(std::uint64_t conn,
                                      std::uint64_t tick) const {
  return draw_budget(*this, conn, tick, Tag::kRx, params_.partial_read_rate,
                     params_.partial_read_max);
}

std::size_t ServeFaultPlan::tx_budget(std::uint64_t conn,
                                      std::uint64_t tick) const {
  return draw_budget(*this, conn, tick, Tag::kTx, params_.short_write_rate,
                     params_.short_write_max);
}

std::uint64_t ServeFaultPlan::stall_starting_at(std::uint64_t conn,
                                                std::uint64_t tick) const {
  if (params_.stall_rate <= 0.0) return 0;
  auto rng = seeded(params_.seed, conn, tick, Tag::kStall);
  return draw_count(rng, params_.stall_rate, params_.stall_max_ticks);
}

bool ServeFaultPlan::stalled(std::uint64_t conn, std::uint64_t tick) const {
  if (params_.stall_rate <= 0.0) return false;
  // A window of length L starting at t covers [t, t + L); scan every start
  // that could still cover `tick`.
  for (std::uint64_t back = 0; back < params_.stall_max_ticks; ++back) {
    if (back > tick) break;
    if (stall_starting_at(conn, tick - back) > back) return true;
  }
  return false;
}

std::optional<std::uint8_t> ServeFaultPlan::corrupt_mask(
    std::uint64_t conn, std::uint64_t offset) const {
  if (params_.corrupt_rate <= 0.0) return std::nullopt;
  auto rng = seeded(params_.seed, conn, offset, Tag::kCorrupt);
  if (!rng.bernoulli(params_.corrupt_rate)) return std::nullopt;
  return static_cast<std::uint8_t>(1u << rng.uniform_index(8));
}

std::optional<std::uint64_t> ServeFaultPlan::reset_after(
    std::uint64_t conn) const {
  if (params_.reset_rate <= 0.0) return std::nullopt;
  auto rng = seeded(params_.seed, conn, Tag::kReset);
  if (!rng.bernoulli(params_.reset_rate)) return std::nullopt;
  return params_.reset_min_ticks +
         rng.uniform_index(params_.reset_max_ticks - params_.reset_min_ticks +
                           1);
}

FaultyTransport::FaultyTransport(std::unique_ptr<icn::serve::Transport> inner,
                                 const ServeFaultPlan* plan,
                                 std::uint64_t conn, FaultLedger* ledger)
    : inner_(std::move(inner)), plan_(plan), conn_(conn), ledger_(ledger) {
  ICN_REQUIRE(inner_ != nullptr && plan_ != nullptr,
              "faulty transport: inner transport and plan required");
}

void FaultyTransport::log(FaultKind kind, std::uint64_t tick,
                          std::uint64_t a, std::uint64_t b) {
  if (ledger_ != nullptr) {
    ledger_->push_back({conn_, static_cast<std::int64_t>(tick), kind,
                        static_cast<std::int64_t>(a),
                        static_cast<std::int64_t>(b)});
  }
}

std::ptrdiff_t FaultyTransport::admit(Direction dir, std::size_t size,
                                      std::uint64_t tick) {
  if (reset_fired_) return -1;
  if (!birth_tick_.has_value()) birth_tick_ = tick;
  const std::optional<std::uint64_t> lifetime = plan_->reset_after(conn_);
  if (lifetime.has_value() && tick - *birth_tick_ >= *lifetime) {
    log(FaultKind::kReset, tick, *lifetime, 0);
    inner_->close();
    reset_fired_ = true;
    return -1;
  }
  if (cur_tick_ != tick) {
    cur_tick_ = tick;
    budget_[kRead] = {};
    budget_[kWrite] = {};
    stall_logged_ = false;
  }
  if (plan_->stalled(conn_, tick)) {
    if (!stall_logged_) {
      log(FaultKind::kStall, tick, 0, 0);
      stall_logged_ = true;
    }
    return 0;
  }
  Budget& budget = budget_[dir];
  budget.cap = dir == kRead ? plan_->rx_budget(conn_, tick)
                            : plan_->tx_budget(conn_, tick);
  if (budget.cap == ServeFaultPlan::kUnlimited) {
    return static_cast<std::ptrdiff_t>(size);
  }
  if (budget.used >= budget.cap) return 0;
  return static_cast<std::ptrdiff_t>(std::min(size, budget.cap - budget.used));
}

void FaultyTransport::charge(Direction dir, std::size_t n,
                             std::uint64_t tick) {
  Budget& budget = budget_[dir];
  if (budget.cap == ServeFaultPlan::kUnlimited) return;
  budget.used += n;
  if (!budget.logged) {
    log(dir == kRead ? FaultKind::kPartialRead : FaultKind::kPartialWrite,
        tick, budget.cap, n);
    budget.logged = true;
  }
}

std::ptrdiff_t FaultyTransport::read_some(std::span<std::uint8_t> buf,
                                          std::uint64_t tick) {
  const std::ptrdiff_t allowed = admit(kRead, buf.size(), tick);
  if (allowed <= 0) return allowed;
  const std::ptrdiff_t n = inner_->read_some(
      buf.first(static_cast<std::size_t>(allowed)), tick);
  if (n <= 0) return n;
  charge(kRead, static_cast<std::size_t>(n), tick);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::uint64_t offset = rx_offset_ + static_cast<std::uint64_t>(i);
    if (const auto mask = plan_->corrupt_mask(conn_, offset)) {
      buf[static_cast<std::size_t>(i)] ^= *mask;
      log(FaultKind::kCorrupt, tick, offset, *mask);
    }
  }
  rx_offset_ += static_cast<std::uint64_t>(n);
  return n;
}

std::ptrdiff_t FaultyTransport::write_some(std::span<const std::uint8_t> buf,
                                           std::uint64_t tick) {
  const std::ptrdiff_t allowed = admit(kWrite, buf.size(), tick);
  if (allowed <= 0) return allowed;
  const std::ptrdiff_t n = inner_->write_some(
      buf.first(static_cast<std::size_t>(allowed)), tick);
  if (n > 0) charge(kWrite, static_cast<std::size_t>(n), tick);
  return n;
}

}  // namespace icn::fault
