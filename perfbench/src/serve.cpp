// Workload `serve`: the query server over a paper-shape snapshot — 4,762 x 73
// totals, 72 hourly windows (~200 MB, about twice the reference host's 105
// MiB L3) and analytics — driven over loopback by three connections, each on
// its own thread.
//
//  * Open loop: 20k req/s split evenly over the connections. Each request is
//    timed from the instant it was due, so a stall also charges the requests
//    queued behind it; how late the generator itself ran is reported too.
//  * Alongside the open loop, a publisher hot-swaps a new generation every
//    250 ms by alternating two pre-sealed files: writes beside the reads.
//  * Then a closed loop: the same connections with no think time
//    (saturation), the publisher idle so the figure is the read path's.
//
// Mix: 60% totals slices (cache-hot), 20% 72-hour all-service slices (one
// row across every window: misses L3), 14% cluster, 5% SHAP, 1% repin. Every
// reply is compared byte for byte with serve::dispatch_request on the file
// behind the generation it names. serve and the store read path (mmap) do
// the work.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/rca.h"
#include "core/scenario.h"
#include "serve/client.h"
#include "serve/command_table.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace icn;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kHours = 72;
constexpr std::size_t kConnections = 3;
constexpr double kOpenRate = 20000.0;  // Requests/s over all connections.
constexpr double kOpenShare = 0.6;     // Of the run; the rest is saturation.
/// Latency and throughput are taken per window, and the run reports the
/// median window: an episodic stall (a few hundred ms of the host or the
/// reactor going quiet) moves one or two windows, not the figure. The
/// whole-run tails are reported by the traced run (serve.p99_us, ...).
constexpr double kOpenWindowS = 0.5;
constexpr double kSatWindowS = 0.25;
/// Unrecorded open-loop lead-in (first-touch costs, idle vCPU wake-ups) and
/// the drain gap before saturation starts, so neither phase bleeds into the
/// other's figures.
constexpr auto kWarmUp = std::chrono::milliseconds(500);
constexpr auto kPhaseGap = std::chrono::milliseconds(50);
constexpr auto kPublishPeriod = std::chrono::milliseconds(250);
constexpr std::uint32_t kShapServices = 10;
constexpr std::size_t kDispatchSamples = 2000;
constexpr std::size_t kMaxGenerations = 1u << 16;
constexpr int kClusters = 9;

enum class Kind : std::uint8_t {
  kSliceTotals,
  kSliceHourly,
  kCluster,
  kShap,
  kRepin
};

struct Request {
  serve::Opcode opcode{};
  std::vector<std::uint8_t> body;
};

Request make_request(Kind kind, util::Rng& rng, std::size_t rows) {
  const auto row = static_cast<std::uint32_t>(rng.uniform_index(rows));
  switch (kind) {
    case Kind::kSliceTotals:
      return {serve::Opcode::kSlice,
              serve::make_slice_body(row, serve::kAllServices,
                                     serve::kTotalsHours, serve::kTotalsHours)};
    case Kind::kSliceHourly:
      return {serve::Opcode::kSlice,
              serve::make_slice_body(row, serve::kAllServices, 0, kHours)};
    case Kind::kCluster:
      return {serve::Opcode::kCluster, serve::make_cluster_body(row)};
    case Kind::kShap:
      return {serve::Opcode::kShap,
              serve::make_shap_body(
                  static_cast<std::uint32_t>(rng.uniform_index(kClusters)),
                  kShapServices)};
    case Kind::kRepin:
      break;
  }
  return {serve::Opcode::kRepin, {}};
}

Kind pick_kind(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.60) return Kind::kSliceTotals;
  if (u < 0.80) return Kind::kSliceHourly;
  if (u < 0.94) return Kind::kCluster;
  if (u < 0.99) return Kind::kShap;
  return Kind::kRepin;
}

/// Seals one study: kStreamMeta, 72 hourly windows derived from the T matrix
/// (the hourly mean of each cell under a diurnal weight, times seeded noise
/// in [0.5, 1.5)) and their totals as kMatrix. Crash-atomic, like every
/// production publish.
void seal_study(const std::string& path, const ml::Matrix& traffic,
                double period_hours, std::uint64_t seed) {
  const std::size_t rows = traffic.rows();
  const std::size_t cols = traffic.cols();
  store::write_snapshot_atomic(path, [&](store::SnapshotWriter& writer) {
    std::vector<std::uint32_t> ids(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      ids[i] = static_cast<std::uint32_t>(i);
    }
    writer.append_stream_meta(ids, cols, kHours);
    ml::Matrix totals(rows, cols);
    std::vector<double> cells(rows * cols);
    util::Rng rng(seed);
    const auto mean = traffic.data();
    auto sums = totals.data();
    for (std::int64_t h = 0; h < kHours; ++h) {
      const double diurnal =
          1.0 + 0.8 * std::sin(2.0 * std::numbers::pi * static_cast<double>(h % 24 - 9) /
                               24.0);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        cells[i] = mean[i] / period_hours * diurnal * rng.uniform(0.5, 1.5);
        sums[i] += cells[i];
      }
      writer.append_window(h, cells);
    }
    writer.append_matrix(totals);
  });
}

/// The served analytics: archetype labels, and per cluster the services
/// ranked by |mean RSCA| over its antennas as the SHAP section. A stand-in
/// for a forest's TreeSHAP ranking with the same shape (73 entries per
/// cluster), so kShap replies cost what they would in production while
/// set-up stays free of the cluster workload's cost.
serve::ServedAnalytics make_analytics(const core::Scenario& scenario) {
  const auto& labels = scenario.demand().archetype_labels();
  const ml::Matrix rsca = core::compute_rsca(scenario.demand().traffic_matrix());
  core::ShapSummary shap;
  shap.per_cluster.resize(kClusters);
  for (int c = 0; c < kClusters; ++c) {
    std::vector<double> mean(rsca.cols(), 0.0);
    std::size_t members = 0;
    for (std::size_t i = 0; i < rsca.rows(); ++i) {
      if (labels[i] != c) continue;
      ++members;
      for (std::size_t s = 0; s < rsca.cols(); ++s) mean[s] += rsca(i, s);
    }
    auto& ranked = shap.per_cluster[c];
    for (std::size_t s = 0; s < rsca.cols(); ++s) {
      const double m = mean[s] / static_cast<double>(std::max<std::size_t>(members, 1));
      ranked.push_back({s, std::fabs(m), m >= 0.0 ? 1.0 : -1.0, m});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.mean_abs_shap > b.mean_abs_shap;
                     });
  }
  return served_analytics(labels, kClusters, shap);
}

struct Study {
  std::array<std::string, 2> paths;
  serve::ServedAnalytics analytics;
  std::size_t rows = 0;
};

Study set_up(const Options& options) {
  core::ScenarioParams params;
  params.seed = options.seed;
  params.scale = 1.0;
  std::optional<core::Scenario> scenario;
  {
    const trace::Span span("traffic.scenario_build");
    scenario.emplace(core::Scenario::build(params));
  }
  Study study;
  study.rows = scenario->num_antennas();
  study.analytics = make_analytics(*scenario);
  const double period_hours =
      static_cast<double>(scenario->temporal().period().num_hours());
  for (std::size_t f = 0; f < study.paths.size(); ++f) {
    study.paths[f] = options.work_dir + "/serve-" + std::to_string(f) + ".snap";
    const trace::Span span("store.seal");
    seal_study(study.paths[f], scenario->demand().traffic_matrix(),
               period_hours, util::derive_seed(options.seed, 0x5EA1, f));
  }
  return study;
}

/// Replies are validated against these; generation -> file index.
struct Oracle {
  std::array<std::shared_ptr<serve::ServedSnapshot>, 2> refs;
  std::unique_ptr<std::atomic<int>[]> file_of =
      std::make_unique<std::atomic<int>[]>(kMaxGenerations);
};

struct ClientStats {
  // Open loop, one entry per request.
  std::vector<double> due_s;       ///< Due time since the loop started.
  std::vector<double> latency_us;  ///< Failures are +inf.
  std::vector<double> lag_us;      ///< Send time minus due time.
  /// Closed loop: successful replies per kSatWindowS window.
  std::vector<std::uint64_t> sat_ok;
  std::uint64_t warm_sent = 0;  ///< Unrecorded lead-in requests.
  std::uint64_t open_sent = 0;
  std::uint64_t sat_sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t reply_bytes = 0;
};

class Connection {
 public:
  Connection(std::uint16_t port, const Oracle& oracle)
      : port_(port), oracle_(oracle) {
    connect();
  }

  /// One round trip plus its validation; false when it failed in any way.
  bool issue(const Request& request, ClientStats& stats) {
    if (!client_) connect();
    if (!client_) return false;
    const std::uint32_t id = next_id_++;
    serve::Reply reply;
    try {
      const trace::Span span("serve.call");
      reply = client_->call(request.opcode, request.body, id);
    } catch (const serve::ClientError&) {
      client_.reset();
      return false;
    }
    stats.reply_bytes += serve::kReplyHeaderSize + reply.body.size();
    if (reply.status != serve::Status::kOk) return false;
    if (!matches(request, id, reply)) {
      ++stats.mismatches;
      return false;
    }
    return true;
  }

 private:
  void connect() {
    try {
      client_.emplace(port_);
    } catch (const serve::ClientError&) {
      client_.reset();
    }
  }

  bool matches(const Request& request, std::uint32_t id,
               const serve::Reply& reply) {
    if (reply.generation == 0 || reply.generation >= kMaxGenerations) {
      return false;
    }
    const int file =
        oracle_.file_of[reply.generation].load(std::memory_order_acquire);
    if (file < 0) return false;
    const auto frame = serve::build_request(id, request.opcode, request.body);
    expected_.clear();
    serve::dispatch_request(
        oracle_.refs[static_cast<std::size_t>(file)].get(),
        std::span<const std::uint8_t>(frame).subspan(serve::kFrameHeaderSize),
        expected_);
    const auto want = serve::decode_reply(
        std::span<const std::uint8_t>(expected_).subspan(
            serve::kFrameHeaderSize));
    return want && want->request_id == reply.request_id &&
           want->opcode == reply.opcode && want->status == reply.status &&
           want->body.size() == reply.body.size() &&
           std::memcmp(want->body.data(), reply.body.data(),
                       reply.body.size()) == 0;
  }

  std::uint16_t port_;
  const Oracle& oracle_;
  std::optional<serve::QueryClient> client_;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint8_t> expected_;
};

struct Phases {
  Clock::time_point warm_start;
  Clock::time_point open_start;
  Clock::time_point open_end;
  Clock::time_point sat_start;
  Clock::time_point sat_end;
};

void client_loop(std::size_t k, std::uint16_t port, const Oracle& oracle,
                 const Phases& phases, std::uint64_t seed, std::size_t rows,
                 ClientStats& stats) {
  // Sleep with 1 ns timer slack so the wake-up lands on the due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  util::Rng rng(util::derive_seed(seed, 0xC11E, k));
  Connection connection(port, oracle);
  const std::chrono::duration<double> interval(kConnections / kOpenRate);
  const auto stagger = interval * (static_cast<double>(k) / kConnections);
  constexpr double kFailed = std::numeric_limits<double>::infinity();
  for (std::uint64_t i = 0;; ++i) {
    const auto due = phases.warm_start +
                     std::chrono::duration_cast<Clock::duration>(
                         stagger + interval * static_cast<double>(i));
    if (due >= phases.open_end) break;
    const Request request = make_request(pick_kind(rng), rng, rows);
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const bool ok = connection.issue(request, stats);
    const auto done = Clock::now();
    if (due < phases.open_start) {
      ++stats.warm_sent;
      stats.failed += ok ? 0 : 1;
      continue;
    }
    ++stats.open_sent;
    stats.failed += ok ? 0 : 1;
    stats.due_s.push_back(
        std::chrono::duration<double>(due - phases.open_start).count());
    stats.latency_us.push_back(
        ok ? std::chrono::duration<double, std::micro>(done - due).count()
           : kFailed);
    stats.lag_us.push_back(
        std::chrono::duration<double, std::micro>(sent - due).count());
  }
  std::this_thread::sleep_until(phases.sat_start);
  for (auto now = Clock::now(); now < phases.sat_end; now = Clock::now()) {
    const Request request = make_request(pick_kind(rng), rng, rows);
    const bool ok = connection.issue(request, stats);
    ++stats.sat_sent;
    stats.failed += ok ? 0 : 1;
    const auto window = static_cast<std::size_t>(
        std::chrono::duration<double>(Clock::now() - phases.sat_start)
            .count() /
        kSatWindowS);
    if (ok && window < stats.sat_ok.size()) ++stats.sat_ok[window];
  }
}

/// Hot-swaps a fresh generation every kPublishPeriod until stopped.
class Publisher {
 public:
  Publisher(serve::SnapshotRegistry& registry, const Study& study,
            Oracle& oracle)
      : registry_(registry), study_(study), oracle_(oracle) {}
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;
  ~Publisher() { stop(); }

  /// Publishes `file` now; returns the generation (0 = quarantined).
  std::uint64_t publish(int file) {
    const std::uint64_t next = registry_.generation() + 1;
    if (next < kMaxGenerations) {
      oracle_.file_of[next].store(file, std::memory_order_release);
    }
    const double t0 = now_s();
    std::uint64_t generation = 0;
    {
      const trace::Span span("serve.publish");
      generation = registry_.try_publish_file(
          study_.paths[static_cast<std::size_t>(file)], study_.analytics);
    }
    publish_ms_.push_back(1e3 * (now_s() - t0));
    return generation;
  }

  /// Publishes every kPublishPeriod until `until` or stop().
  void start(Clock::time_point until) {
    thread_ = std::thread([this, until] {
      int file = 0;
      auto next = Clock::now() + kPublishPeriod;
      std::unique_lock<std::mutex> lock(mutex_);
      while (next < until &&
             !cv_.wait_until(lock, next, [this] { return stopping_; })) {
        lock.unlock();
        file = 1 - file;
        (void)publish(file);
        next += kPublishPeriod;
        lock.lock();
      }
    });
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Publish times; read after stop().
  [[nodiscard]] const std::vector<double>& publish_ms() const {
    return publish_ms_;
  }

 private:
  serve::SnapshotRegistry& registry_;
  const Study& study_;
  Oracle& oracle_;
  std::vector<double> publish_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  // Guarded by mutex_.
  std::thread thread_;     // Last: uses every member above.
};

/// The server's reactor thread; stops and joins on every exit path.
class Reactor {
 public:
  explicit Reactor(serve::Server& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;
  ~Reactor() {
    server_.stop();
    thread_.join();
  }

 private:
  serve::Server& server_;
  std::thread thread_;
};

/// Standalone serve::dispatch_request timings per request kind, off the
/// mapping of file 0 (median microseconds).
void report_dispatch(const Oracle& oracle, std::size_t rows,
                     std::uint64_t seed, Report& report) {
  const trace::Span replay("serve.replay");
  util::Rng rng(util::derive_seed(seed, 0xD15));
  std::vector<std::uint8_t> out;
  const std::pair<Kind, const char*> kinds[] = {
      {Kind::kSliceTotals, "serve.dispatch_us.slice_totals"},
      {Kind::kSliceHourly, "serve.dispatch_us.slice_hourly"},
      {Kind::kCluster, "serve.dispatch_us.cluster"},
      {Kind::kShap, "serve.dispatch_us.shap"}};
  for (const auto& [kind, name] : kinds) {
    std::vector<double> us;
    for (std::size_t i = 0; i < kDispatchSamples; ++i) {
      const Request request = make_request(kind, rng, rows);
      const auto frame = serve::build_request(1, request.opcode, request.body);
      out.clear();
      const double t0 = now_s();
      serve::dispatch_request(
          oracle.refs[0].get(),
          std::span<const std::uint8_t>(frame).subspan(serve::kFrameHeaderSize),
          out);
      us.push_back(1e6 * (now_s() - t0));
    }
    report.set_layer(name, median(us));
  }
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  std::optional<Study> study;
  const auto setup_times = time_setups([&] { study.reset(); },
                                       [&] { study.emplace(set_up(options)); });

  Oracle oracle;
  for (std::size_t g = 0; g < kMaxGenerations; ++g) oracle.file_of[g] = -1;
  for (std::size_t f = 0; f < oracle.refs.size(); ++f) {
    // Loading validates every section CRC: the page cache is warm after.
    oracle.refs[f] =
        serve::ServedSnapshot::load(study->paths[f], study->analytics);
  }
  serve::SnapshotRegistry registry;
  Publisher publisher(registry, *study, oracle);
  report.check(publisher.publish(0) == 1, "first publish is generation 1");

  const double open_seconds = kOpenShare * options.seconds;
  const double sat_seconds = (1.0 - kOpenShare) * options.seconds;
  const auto open_windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(open_seconds / kOpenWindowS)));
  const auto sat_windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(sat_seconds / kSatWindowS)));
  serve::Server server(serve::ServeConfig{}, registry);
  std::array<ClientStats, kConnections> stats;
  for (auto& s : stats) s.sat_ok.assign(sat_windows, 0);
  Phases phases;
  phases.warm_start = Clock::now() + std::chrono::milliseconds(100);
  phases.open_start = phases.warm_start + kWarmUp;
  phases.open_end = phases.open_start +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(open_seconds));
  phases.sat_start = phases.open_end + kPhaseGap;
  phases.sat_end = phases.sat_start +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(sat_seconds));
  {
    const Reactor reactor(server);
    publisher.start(phases.open_end);
    {
      std::vector<std::jthread> clients;
      for (std::size_t k = 0; k < kConnections; ++k) {
        clients.emplace_back([&, k] {
          client_loop(k, server.port(), oracle, phases, options.seed,
                      study->rows, stats[k]);
        });
      }
    }
    publisher.stop();
  }

  ClientStats all;
  all.sat_ok.assign(sat_windows, 0);
  std::vector<std::vector<double>> by_window(open_windows);
  for (auto& s : stats) {
    for (std::size_t i = 0; i < s.latency_us.size(); ++i) {
      const auto w = static_cast<std::size_t>(s.due_s[i] / kOpenWindowS);
      by_window[std::min(w, open_windows - 1)].push_back(s.latency_us[i]);
    }
    for (std::size_t w = 0; w < sat_windows; ++w) all.sat_ok[w] += s.sat_ok[w];
    all.latency_us.insert(all.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
    all.lag_us.insert(all.lag_us.end(), s.lag_us.begin(), s.lag_us.end());
    all.warm_sent += s.warm_sent;
    all.open_sent += s.open_sent;
    all.sat_sent += s.sat_sent;
    all.failed += s.failed;
    all.mismatches += s.mismatches;
    all.reply_bytes += s.reply_bytes;
  }
  const std::uint64_t attempted =
      all.warm_sent + all.open_sent + all.sat_sent;
  report.count(attempted, all.failed);
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (const auto& window : by_window) {
    if (window.empty()) continue;
    p50s.push_back(quantile(window, 0.5));
    p90s.push_back(quantile(window, 0.9));
  }
  std::vector<double> rates;
  for (const std::uint64_t ok : all.sat_ok) {
    rates.push_back(static_cast<double>(ok) / kSatWindowS);
  }
  const double p50_us = median(p50s);
  const double p90_us = median(p90s);
  const double sat_rps = median(rates);
  report.print("serve_p50_us", p50_us, "us");
  report.print("serve_p90_us", p90_us, "us");
  report.print("serve_sat_rps", sat_rps, "1/s");
  report.print("open_loop_samples", static_cast<double>(all.open_sent),
               "count");
  report.check(all.mismatches == 0,
               "every reply byte-identical to dispatch_request on the "
               "generation it names");
  report.check(all.failed == 0,
               "no error status, timeout, refusal or mismatch");
  report.check(!publisher.publish_ms().empty() &&
                   registry.degraded_publishes() == 0,
               "publisher swapped generations, none quarantined");

  report.set_end_to_end("setup_s", median(setup_times));
  report.set_end_to_end("peak_rss_mb", peak_rss_mb());
  report.set_end_to_end("op_p50_ms", p50_us / 1e3);
  report.set_layer("serve.p90_us", p90_us);
  report.set_layer("serve.sat_rps", sat_rps);
  if (!options.trace) return;

  const auto records = trace::records();
  report.set_layer("traffic.scenario_build_s",
                   layer_seconds(records, "setup", "traffic.scenario_build"));
  const auto& publish_ms = publisher.publish_ms();
  report.set_layer("serve.publish_ms_median", median(publish_ms));
  report.set_layer("serve.publish_ms_max",
                   *std::max_element(publish_ms.begin(), publish_ms.end()));
  report.set_layer("serve.publishes", static_cast<double>(publish_ms.size()));
  report.set_layer("serve.degraded_publishes",
                   static_cast<double>(registry.degraded_publishes()));
  const auto& server_stats = server.stats();
  report.set_layer("serve.frames_served",
                   static_cast<double>(server_stats.frames_served));
  report.set_layer("serve.connections_refused",
                   static_cast<double>(server_stats.connections_refused));
  report.set_layer("serve.sessions_evicted",
                   static_cast<double>(server_stats.sessions_evicted_idle +
                                       server_stats.sessions_evicted_deadline));
  report.set_layer("serve.reply_bytes", static_cast<double>(all.reply_bytes));
  report.set_layer("serve.ok_ratio",
                   static_cast<double>(attempted - all.failed) /
                       static_cast<double>(std::max<std::uint64_t>(attempted, 1)));
  report.set_layer("serve.gen_lag_us", quantile(all.lag_us, 0.99));
  report.set_layer("serve.p99_us", quantile(all.latency_us, 0.99));
  report.set_layer("serve.p999_us", quantile(all.latency_us, 0.999));
  report.set_layer("serve.max_us", *std::max_element(all.latency_us.begin(),
                                                     all.latency_us.end()));
  report.set_layer("serve.requests_open", static_cast<double>(all.open_sent));
  report.set_layer("serve.requests_closed", static_cast<double>(all.sat_sent));
  report.set_layer("serve.open_rate_per_s",
                   static_cast<double>(all.open_sent) / open_seconds);
  report_dispatch(oracle, study->rows, options.seed, report);
}

}  // namespace perfbench
