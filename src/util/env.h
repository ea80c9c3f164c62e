// The one parser for the integer-valued ICN_* environment knobs
// (ICN_THREADS, ICN_SERVE_*), and the blank rule every ICN_* knob shares.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace icn::util {

/// `value` with spaces and tabs trimmed from both ends only; nullopt when
/// `value` is null or blank, which every ICN_* knob reads as unset. Blanks
/// inside the value are kept, so the knob's parser rejects them.
[[nodiscard]] std::optional<std::string_view> trim_env_value(const char* value);

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
