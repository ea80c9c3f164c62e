// Runtime SIMD dispatch policy for the vectorized kernels (squared-Euclidean
// distances, canonical-order accumulation, RSCA/labeled-sum kernels, hardware
// CRC32C).
//
// AVX2 support is probed once via cpuid at first use and every kernel
// dispatches through a function pointer picked from that probe, so one binary
// runs correctly on any x86 CPU: the AVX2 lane where the CPU has it, the
// scalar lane everywhere else (and on non-x86 builds). The ICN_SIMD
// environment variable pins the lane for A/B parity tests and benchmarks:
//
//   ICN_SIMD=scalar | avx2 | avx2fma
//
// A garbage value, or a level the CPU cannot execute, throws
// icn::util::EnvConfigError at first use — configuration typos fail loudly
// instead of silently benchmarking the wrong kernel. The scalar and avx2
// lanes keep the same canonical accumulation order (see ml/distance.h), so
// those two ICN_SIMD values change speed, never bits.
//
// `avx2fma` is the exception and is therefore strictly opt-in: it fuses
// multiply+add pairs into FMAs, which rounds once instead of twice and
// produces different (usually slightly more accurate) bits. Auto-detection
// NEVER selects it — an unset ICN_SIMD resolves to avx2 (or scalar) even on
// FMA-capable hardware — and requesting it on hardware without
// AVX2+FMA throws EnvConfigError. The FMA lane has its own re-baselined
// scalar reference (std::fma in the canonical order) that the parity tests
// compare against; see DESIGN.md §6.2.
#pragma once

#include <optional>

namespace icn::util {

/// Kernel lanes. kScalar < kAvx2 is the auto-detected order. kAvx2Fma sits
/// outside it — the opt-in fused multiply-add variant of kAvx2, gated
/// separately on the FMA cpuid bit and never chosen by auto-detection. The
/// values are stable: the SIMD benches name their runs by them.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 2,
  kAvx2Fma = 4,
};

/// Lower-case canonical name ("scalar", "avx2", "avx2fma").
[[nodiscard]] const char* simd_level_name(SimdLevel level);

/// kAvx2 when the CPU has AVX2 (probed via cpuid), else kScalar; kScalar on
/// non-x86 builds. Never returns kAvx2Fma: the FMA lane changes bits and must
/// be requested explicitly.
[[nodiscard]] SimdLevel max_supported_simd_level();

/// True when the CPU has the FMA3 instructions (vfmadd*). Probed separately:
/// the FMA lane additionally requires AVX2.
[[nodiscard]] bool cpu_supports_fma();

/// Parses an ICN_SIMD-style value: nullopt when unset/blank (auto-detect),
/// the level for one of the three canonical names (case-insensitive), and
/// EnvConfigError for anything else.
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(const char* value);

/// Pure resolution policy, exposed so the hardware-dependent rejection paths
/// are testable on any machine: returns `supported` when nothing was
/// requested; throws EnvConfigError (naming ICN_SIMD and the offending value)
/// when the request exceeds `supported`, or when kAvx2Fma is requested and
/// the CPU lacks AVX2 or FMA.
[[nodiscard]] SimdLevel resolve_simd_level(std::optional<SimdLevel> requested,
                                           SimdLevel supported, bool has_fma);

/// The level the dispatched kernels run at: ICN_SIMD when set (EnvConfigError
/// if it is garbage or exceeds what the CPU supports), else the probed
/// non-FMA level. Resolved once and cached for the process lifetime.
[[nodiscard]] SimdLevel simd_level();

/// True when the CPU has SSE4.2 (the crc32 instruction). Probed separately
/// from SimdLevel because CRC32C is an integer-lane feature, but the store's
/// dispatch still honours ICN_SIMD=scalar to force the table path.
[[nodiscard]] bool cpu_supports_crc32c();

}  // namespace icn::util
