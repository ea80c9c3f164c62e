#include "util/simd.h"

#include <cstdlib>
#include <string>
#include <string_view>

#include "util/env.h"
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
  }
  return "?";
}

SimdLevel max_supported_simd_level() {
#if defined(ICN_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

std::optional<SimdLevel> parse_simd_level(const char* value) {
  const std::optional<std::string_view> trimmed = trim_env_value(value);
  if (!trimmed.has_value()) return std::nullopt;
  std::string v;
  for (const char c : *trimmed) {
    v += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  if (v == "scalar") return SimdLevel::kScalar;
  if (v == "avx2") return SimdLevel::kAvx2;
  throw EnvConfigError(std::string("ICN_SIMD=\"") + value +
                       "\" is not a SIMD level (expected scalar or avx2; "
                       "unset = auto-detect)");
}

SimdLevel resolve_simd_level(std::optional<SimdLevel> requested,
                             SimdLevel supported) {
  if (!requested.has_value()) return supported;
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
  static const SimdLevel level = resolve_simd_level(
      parse_simd_level(std::getenv("ICN_SIMD")), max_supported_simd_level());
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
