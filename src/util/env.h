// The one parser for the integer-valued ICN_* environment knobs
// (ICN_THREADS, ICN_SERVE_*).
#pragma once

#include <cstdint>
#include <optional>

namespace icn::util {

/// Parses the value of integer knob `name`. Returns nullopt when `value` is
/// null or blank (unset). Otherwise the value, with spaces and tabs trimmed
/// from both ends only, must be a plain digit string within [min, max]; any
/// other value throws EnvConfigError naming the variable, so a typo fails
/// loudly instead of falling back to a default the operator did not choose.
[[nodiscard]] std::optional<std::uint64_t> parse_env_uint(const char* name,
                                                          const char* value,
                                                          std::uint64_t min,
                                                          std::uint64_t max);

}  // namespace icn::util
