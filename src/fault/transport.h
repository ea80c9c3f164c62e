// Seeded network-fault injection under the serve layer's Transport seam
// (DESIGN.md §9.7).
//
// The ingest plant already survives a seeded fault::FaultPlan; this is the
// same philosophy pointed at the wire. A ServeFaultPlan turns one 64-bit
// seed into a complete deterministic schedule of transport hostility over
// (connection, tick) cells — partial reads, short writes, stall windows,
// per-byte corruption, abrupt resets — drawn by the shared core in
// fault/seeded.h, so equal seeds face byte-identical hostility and the
// injected-event FaultLedger replays verbatim.
//
// FaultyTransport applies the plan between Session and the socket. Partial
// reads and short writes are *per-tick byte budgets*, not per-call caps: the
// session's read loop retries until would-block, so a cap on one call would
// throttle nothing — a budget makes the remainder of the tick return 0, which
// is exactly how a congested link presents to a non-blocking socket.
//
// Corruption is keyed by (conn, absolute received-byte offset), not by tick:
// a test that knows the bytes it sent can recompute the corrupted stream
// offline and shadow-replay it through try_parse_frame + dispatch_request,
// keeping the byte-exactness oracle intact even for damaged streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "fault/plan.h"
#include "serve/transport.h"

namespace icn::fault {

struct ServeFaultPlanParams {
  std::uint64_t seed = 1;

  /// P[a (conn, tick) cell caps received bytes at a budget].
  double partial_read_rate = 0.0;
  std::size_t partial_read_max = 64;  ///< Budget in [1, max] bytes.

  /// P[a (conn, tick) cell caps written bytes at a budget].
  double short_write_rate = 0.0;
  std::size_t short_write_max = 64;  ///< Budget in [1, max] bytes.

  /// P[a stall window starts at a given (conn, tick)]. A stalled tick moves
  /// no bytes in either direction.
  double stall_rate = 0.0;
  std::uint64_t stall_max_ticks = 3;  ///< Window length in [1, max].

  /// P[one received byte is corrupted] — per byte, keyed by stream offset.
  double corrupt_rate = 0.0;

  /// P[the connection is reset]. A planned reset fires on the first I/O
  /// attempt at least `lifetime` ticks after the connection's first I/O,
  /// lifetime in [reset_min_ticks, reset_max_ticks].
  double reset_rate = 0.0;
  std::uint64_t reset_min_ticks = 1;
  std::uint64_t reset_max_ticks = 64;
};

/// The deterministic transport-fault schedule. Every query is pure: calling
/// it never changes what any other query returns, so shadow replays and the
/// live transport always agree.
class ServeFaultPlan {
 public:
  /// rx_budget / tx_budget value meaning "no cap this tick".
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  explicit ServeFaultPlan(const ServeFaultPlanParams& params);

  [[nodiscard]] const ServeFaultPlanParams& params() const { return params_; }

  /// Received-byte budget for (conn, tick): 0 when stalled, kUnlimited when
  /// no fault, else a budget in [1, partial_read_max].
  [[nodiscard]] std::size_t rx_budget(std::uint64_t conn,
                                      std::uint64_t tick) const;
  /// Written-byte budget, same shape as rx_budget.
  [[nodiscard]] std::size_t tx_budget(std::uint64_t conn,
                                      std::uint64_t tick) const;

  /// Length of the stall window starting exactly at (conn, tick), or 0.
  [[nodiscard]] std::uint64_t stall_starting_at(std::uint64_t conn,
                                                std::uint64_t tick) const;
  /// True when (conn, tick) lies inside any stall window.
  [[nodiscard]] bool stalled(std::uint64_t conn, std::uint64_t tick) const;

  /// XOR mask for the received byte at absolute stream offset `offset` of
  /// `conn`, or nullopt when the byte passes clean. Single-bit masks only.
  [[nodiscard]] std::optional<std::uint8_t> corrupt_mask(
      std::uint64_t conn, std::uint64_t offset) const;

  /// Planned lifetime of `conn` in ticks counted from its first I/O, or
  /// nullopt when the connection is never reset.
  [[nodiscard]] std::optional<std::uint64_t> reset_after(
      std::uint64_t conn) const;

 private:
  ServeFaultPlanParams params_;
};

/// Applies a ServeFaultPlan between a Session and its real transport.
/// Every injected event is appended to `ledger` (when non-null) in injection
/// order — the replayable audit trail equal-seed runs compare verbatim.
class FaultyTransport final : public icn::serve::Transport {
 public:
  /// `plan` (and `ledger`, when given) must outlive the transport.
  FaultyTransport(std::unique_ptr<icn::serve::Transport> inner,
                  const ServeFaultPlan* plan, std::uint64_t conn,
                  FaultLedger* ledger);

  std::ptrdiff_t read_some(std::span<std::uint8_t> buf,
                           std::uint64_t tick) override;
  std::ptrdiff_t write_some(std::span<const std::uint8_t> buf,
                            std::uint64_t tick) override;
  void close() override { inner_->close(); }
  [[nodiscard]] int fd() const override { return inner_->fd(); }

  /// Received bytes delivered so far (the corruption stream offset).
  [[nodiscard]] std::uint64_t rx_offset() const { return rx_offset_; }

 private:
  enum Direction : std::size_t { kRead, kWrite };

  /// The admission step both directions share: fires a planned reset (-1,
  /// logged once), rolls the per-tick budgets forward, freezes a stalled
  /// tick (0, logged once per tick), and clamps `size` to what is left of
  /// this tick's budget. Returns the byte count the inner transport may
  /// move, or the verdict to return without touching it: -1 (reset) or 0
  /// (stalled, budget spent, or an empty request).
  std::ptrdiff_t admit(Direction dir, std::size_t size, std::uint64_t tick);
  /// Charges `n` moved bytes to this tick's budget; logs the first capped
  /// transfer of the tick.
  void charge(Direction dir, std::size_t n, std::uint64_t tick);
  void log(FaultKind kind, std::uint64_t tick, std::uint64_t a,
           std::uint64_t b);

  /// Per-direction state of the current tick.
  struct Budget {
    std::size_t cap = ServeFaultPlan::kUnlimited;
    std::size_t used = 0;
    bool logged = false;  ///< One partial-transfer event per capped tick.
  };

  std::unique_ptr<icn::serve::Transport> inner_;
  const ServeFaultPlan* plan_;
  std::uint64_t conn_;
  FaultLedger* ledger_;  ///< May be null (bench mode: no audit trail).

  std::optional<std::uint64_t> birth_tick_;  ///< Tick of the first I/O.
  bool reset_fired_ = false;
  std::optional<std::uint64_t> cur_tick_;
  Budget budget_[2];
  bool stall_logged_ = false;  ///< One kStall event per stalled tick.
  std::uint64_t rx_offset_ = 0;
};

}  // namespace icn::fault
