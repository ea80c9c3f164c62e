#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench::trace {
namespace {

/// Spans beyond this many are summarized but not listed in the span file.
constexpr std::size_t kMaxListedSpans = 20000;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Record> spans;
};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // Guarded by g_logs_mutex.

thread_local ThreadLog* t_log = nullptr;
thread_local std::uint32_t t_current = 0;

ThreadLog& thread_log() {
  if (t_log == nullptr) {
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<std::uint32_t>(g_logs.size() - 1);
    t_log = g_logs.back().get();
  }
  return *t_log;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  ThreadLog& log = thread_log();
  log.spans.push_back({name_, start_ns_, end, id_, parent_, log.thread});
  t_current = parent_;
}

std::vector<Record> records() {
  std::vector<Record> all;
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
  return all;
}

std::vector<double> totals_under(const std::vector<Record>& records,
                                 std::string_view root,
                                 std::string_view name) {
  std::uint32_t max_id = 0;
  for (const auto& r : records) max_id = std::max(max_id, r.id);
  std::vector<const Record*> by_id(max_id + 1, nullptr);
  for (const auto& r : records) by_id[r.id] = &r;

  std::map<std::uint32_t, double> per_root;
  for (const auto& r : records) {
    if (root == r.name) per_root.emplace(r.id, 0.0);
  }
  for (const auto& r : records) {
    if (name != r.name) continue;
    for (std::uint32_t p = r.parent; p != 0 && by_id[p] != nullptr;
         p = by_id[p]->parent) {
      if (root == by_id[p]->name) {
        per_root[p] += r.seconds();
        break;
      }
    }
  }
  std::vector<double> totals;
  for (const auto& [id, total] : per_root) totals.push_back(total);
  return totals;
}

void write_json(const std::vector<Record>& records, const std::string& path) {
  struct Summary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::uint32_t, double> child_time;
  for (const auto& r : records) {
    if (r.parent != 0) child_time[r.parent] += r.seconds();
  }
  std::map<std::string, Summary> summary;
  for (const auto& r : records) {
    auto& s = summary[r.name];
    ++s.count;
    s.total_s += r.seconds();
    const auto child = child_time.find(r.id);
    s.self_s += r.seconds() - (child == child_time.end() ? 0.0 : child->second);
  }

  std::ofstream out(path);
  out.precision(9);
  out << "{\"summary\": {";
  bool first = true;
  for (const auto& [name, s] : summary) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << s.count << ", \"total_s\": " << s.total_s
        << ", \"self_s\": " << s.self_s << "}";
    first = false;
  }
  out << "}, \"spans_total\": " << records.size() << ", \"spans\": [";
  const std::size_t listed = std::min(records.size(), kMaxListedSpans);
  for (std::size_t i = 0; i < listed; ++i) {
    const auto& r = records[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"thread\": " << r.thread
        << ", \"name\": \"" << r.name << "\", \"start_ns\": " << r.start_ns
        << ", \"end_ns\": " << r.end_ns << "}";
  }
  out << "]}\n";
}

}  // namespace perfbench::trace
