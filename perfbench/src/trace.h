// Span tracing from the benchmark's side of each layer boundary.
//
// A Span wraps one public call into a workbench layer (core::, ml::, probe::,
// stream::, store::, serve::, traffic::). Spans are named "<layer>.<call>",
// carry their parent (the span open on the same thread when they started),
// and are kept in per-thread memory until the run ends, when the benchmark
// aggregates them into per-layer metrics and writes them out. With tracing
// off a Span costs one relaxed load: the untraced run is the end-to-end
// measurement, the traced run gives the per-layer breakdown, and the
// difference between the two is the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

void enable(bool on);
[[nodiscard]] bool enabled();

struct Record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based; 0 = no span.
  std::uint32_t parent = 0;  ///< Enclosing span on the same thread, or 0.
  std::uint32_t thread = 0;  ///< Recording thread, in first-use order.

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// RAII span. `name` must be a string literal (it is stored, not copied).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

/// Every span recorded so far, by id. Call only once every recording thread
/// has been joined.
[[nodiscard]] std::vector<Record> records();

/// Per-root totals: for every span named `root` (one per repetition), the
/// summed duration of its descendants named `name`, in seconds.
[[nodiscard]] std::vector<double> totals_under(
    const std::vector<Record>& records, std::string_view root,
    std::string_view name);

/// Writes every span plus a per-name summary (count, total and self seconds,
/// self = duration minus the time its child spans cover) as JSON.
void write_json(const std::vector<Record>& records, const std::string& path);

}  // namespace perfbench::trace
