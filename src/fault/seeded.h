// The seeded decision core shared by every fault plan in this module: feed
// (plan.h), disk (disk.h) and transport (transport.h). A decision is a pure
// function of (seed, site, at, tag): `site` is what is faulted (a probe, a
// Vfs file, a connection), `at` the position along it (an hour, an op index
// or block offset, a tick or stream offset), and `tag` the decision, so one
// fault class never perturbs another. No wall clock or global RNG enters.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace icn::fault {

/// Substream tag of every decision a plan draws. The numbers are part of
/// the replay contract: renumbering one re-rolls every schedule that uses
/// it, so each keeps the value its plan was first written with. That is
/// why the transport tags 1–5 share numbers with the feed tags 1–5, and
/// kReorderSeed (104) with kFsyncFail. The sharing is harmless: each family
/// keys its own kind of site (probe, connection, file), so no plan draws
/// two same-numbered tags over one cell.
enum class Tag : std::uint64_t {
  // Feed plan, keyed by (probe, event hour).
  kDropout = 1,
  kTransient = 2,
  kDuplicate = 3,
  kReorder = 4,
  kSkew = 5,
  kTruncate = 6,
  kBitFlip = 7,       ///< Per probe, at = 0.
  kFieldFuzz = 8,
  kOutage = 9,        ///< Site-wide, probe = 0.
  kRestart = 10,      ///< Per epoch, at = 0.
  kReorderSeed = 104,    ///< Seed handed to the reorder permutation.
  kFieldFuzzSeed = 108,  ///< Seed handed to the field mutations.

  // Transport plan, keyed by (conn, tick); corruption by (conn, offset).
  kRx = 1,
  kTx = 2,
  kStall = 3,
  kCorrupt = 4,
  kReset = 5,  ///< Per connection: seeded(seed, conn, tag).

  // Disk plan, keyed by (file id, per-file op) or (file id, block offset).
  kShortWrite = 101,
  kWriteError = 102,
  kNoSpace = 103,
  kFsyncFail = 104,
  kCrashFate = 105,
  kCrashTear = 106,
};

/// The decision stream of one (site, at) cell.
[[nodiscard]] inline icn::util::Rng seeded(std::uint64_t seed,
                                           std::uint64_t site,
                                           std::uint64_t at, Tag tag) {
  return icn::util::Rng(icn::util::derive_seed(
      seed, site, at, static_cast<std::uint64_t>(tag)));
}

/// The decision stream of a whole site (no position), e.g. a connection's
/// reset lifetime.
[[nodiscard]] inline icn::util::Rng seeded(std::uint64_t seed,
                                           std::uint64_t site, Tag tag) {
  return icn::util::Rng(
      icn::util::derive_seed(seed, site, static_cast<std::uint64_t>(tag)));
}

/// A fault that fires with probability `rate` and then draws its size:
/// 0 when it does not fire, else a count in [1, max]. Requires max >= 1.
[[nodiscard]] inline std::uint64_t draw_count(icn::util::Rng& rng,
                                              double rate,
                                              std::uint64_t max) {
  if (!rng.bernoulli(rate)) return 0;
  return 1 + rng.uniform_index(max);
}

}  // namespace icn::fault
