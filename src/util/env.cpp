#include "util/env.h"

#include <charconv>
#include <string>
#include <string_view>

#include "util/error.h"

namespace icn::util {

std::optional<std::uint64_t> parse_env_uint(const char* name,
                                            const char* value,
                                            std::uint64_t min,
                                            std::uint64_t max) {
  std::string_view v = value == nullptr ? "" : value;
  const std::size_t lo = v.find_first_not_of(" \t");
  if (lo == std::string_view::npos) return std::nullopt;  // blank = unset
  v = v.substr(lo, v.find_last_not_of(" \t") + 1 - lo);
  // from_chars into an unsigned takes no sign, so only a plain digit string
  // that it consumes whole is a valid count.
  std::uint64_t parsed = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc() || end != v.data() + v.size() || parsed < min ||
      parsed > max) {
    throw EnvConfigError(std::string(name) + "=\"" + value +
                         "\" is not an integer in [" + std::to_string(min) +
                         ", " + std::to_string(max) + "]");
  }
  return parsed;
}

}  // namespace icn::util
