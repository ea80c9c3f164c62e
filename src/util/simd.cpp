#include "util/simd.h"

#include <cstdlib>
#include <string>

#include "util/error.h"

#if defined(__x86_64__) || defined(__i386__)
#define ICN_SIMD_X86 1
#endif

namespace icn::util {

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx2Fma:
      return "avx2fma";
  }
  return "?";
}

SimdLevel max_supported_simd_level() {
#if defined(ICN_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool cpu_supports_fma() {
#if defined(ICN_SIMD_X86)
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::optional<SimdLevel> parse_simd_level(const char* value) {
  if (value == nullptr) return std::nullopt;
  std::string v;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p == ' ' || *p == '\t') continue;
    v += (*p >= 'A' && *p <= 'Z') ? static_cast<char>(*p - 'A' + 'a') : *p;
  }
  if (v.empty()) return std::nullopt;
  if (v == "scalar") return SimdLevel::kScalar;
  if (v == "avx2") return SimdLevel::kAvx2;
  if (v == "avx2fma") return SimdLevel::kAvx2Fma;
  throw EnvConfigError(std::string("ICN_SIMD=\"") + value +
                       "\" is not a SIMD level (expected scalar, avx2, or "
                       "avx2fma; unset = auto-detect)");
}

SimdLevel resolve_simd_level(std::optional<SimdLevel> requested,
                             SimdLevel supported, bool has_fma) {
  if (!requested.has_value()) return supported;
  if (*requested == SimdLevel::kAvx2Fma) {
    // The FMA lane sits outside the scalar < avx2 order: it needs AVX2
    // vectors plus the FMA3 cpuid bit, checked independently.
    if (supported < SimdLevel::kAvx2 || !has_fma) {
      throw EnvConfigError(
          "ICN_SIMD=avx2fma requested but this CPU lacks AVX2+FMA "
          "(auto-detected level: " +
          std::string(simd_level_name(supported)) + ")");
    }
    return SimdLevel::kAvx2Fma;
  }
  if (*requested > supported) {
    throw EnvConfigError(std::string("ICN_SIMD=") +
                         simd_level_name(*requested) +
                         " requested but this CPU only supports " +
                         simd_level_name(supported));
  }
  return *requested;
}

SimdLevel simd_level() {
  // Resolved once; a throwing resolution (garbage or unsupported ICN_SIMD)
  // is retried — and rethrown — on every call, so the error cannot be lost.
  static const SimdLevel level =
      resolve_simd_level(parse_simd_level(std::getenv("ICN_SIMD")),
                         max_supported_simd_level(), cpu_supports_fma());
  return level;
}

bool cpu_supports_crc32c() {
#if defined(ICN_SIMD_X86)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace icn::util
