// Performance microbenches (google-benchmark) for the serving layer: query
// round-trip throughput over loopback against the epoll reactor, and the
// hot snapshot swap (mmap + validate + publish) that a seal hook performs
// while readers stay pinned. Emits BENCH_perf_serve.json via bench/report.h.
#include <benchmark/benchmark.h>

#include "report.h"

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fault/transport.h"
#include "serve/client.h"
#include "serve/command_table.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "store/snapshot.h"

namespace {

using namespace icn;

constexpr std::size_t kAntennas = 64;
constexpr std::size_t kServices = 73;
constexpr std::int64_t kHours = 48;

/// Seals a study-shaped snapshot (meta + hourly windows + totals matrix).
void write_bench_snapshot(const std::string& path, double scale) {
  store::SnapshotWriter writer(path);
  std::vector<std::uint32_t> ids(kAntennas);
  for (std::size_t i = 0; i < kAntennas; ++i) {
    ids[i] = static_cast<std::uint32_t>(i);
  }
  writer.append_stream_meta(ids, kServices, kHours);
  ml::Matrix totals(kAntennas, kServices);
  std::vector<double> cells(kAntennas * kServices);
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (std::size_t a = 0; a < kAntennas; ++a) {
      for (std::size_t s = 0; s < kServices; ++s) {
        const double mb =
            scale * static_cast<double>((h % 24) * 100 + a * 10 + s + 1);
        cells[a * kServices + s] = mb;
        totals(a, s) += mb;
      }
    }
    writer.append_window(h, cells);
  }
  writer.append_matrix(totals);
  writer.sync();
}

const std::string& bench_snapshot() {
  static const std::string path = [] {
    const std::string p = "bench_serve.snap";
    write_bench_snapshot(p, 1.0);
    return p;
  }();
  return path;
}

void BM_ServeQueryThroughput(benchmark::State& state) {
  // Full client round trips over loopback: frame build, socket write, epoll
  // wake, zero-copy dispatch off the mapping, reply flush, client read. The
  // arg selects the query mix entry (0 = ping, 1 = totals slice, 2 = hourly
  // all-service slice — ~28 KiB reply).
  serve::SnapshotRegistry registry;
  registry.publish_file(bench_snapshot());
  serve::Server server(serve::ServeConfig{}, registry);
  std::thread reactor([&server] { server.run(); });
  {
    serve::QueryClient client(server.port());
    std::uint32_t id = 1;
    std::vector<std::uint8_t> body;
    serve::Opcode opcode = serve::Opcode::kPing;
    switch (state.range(0)) {
      case 0:
        break;
      case 1:
        opcode = serve::Opcode::kSlice;
        body = serve::make_slice_body(7, serve::kAllServices,
                                      serve::kTotalsHours,
                                      serve::kTotalsHours);
        break;
      default:
        opcode = serve::Opcode::kSlice;
        body = serve::make_slice_body(7, serve::kAllServices, 0, kHours);
        break;
    }
    std::size_t reply_bytes = 0;
    for (auto _ : state) {
      const serve::Reply reply = client.call(opcode, body, id++);
      benchmark::DoNotOptimize(reply.generation);
      reply_bytes += serve::kReplyHeaderSize + reply.body.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(static_cast<std::int64_t>(reply_bytes));
  }
  server.stop();
  reactor.join();
}
BENCHMARK(BM_ServeQueryThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_ServeHotSwap(benchmark::State& state) {
  // The seal-to-live path: mmap + CRC-validate + pre-parse + atomically
  // publish a new generation, with a reader pinned to the previous one the
  // whole time (RCU: the swap never blocks or copies for readers).
  const std::string a = "bench_serve_swap_a.snap";
  const std::string b = "bench_serve_swap_b.snap";
  write_bench_snapshot(a, 1.0);
  write_bench_snapshot(b, 2.0);
  serve::SnapshotRegistry registry;
  registry.publish_file(a);
  const auto pinned = registry.acquire();  // Survives every swap below.
  bool flip = false;
  for (auto _ : state) {
    registry.publish_file(flip ? a : b);
    flip = !flip;
  }
  if (pinned->generation() != 1) {
    state.SkipWithError("pinned reader lost its generation");
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(a.c_str());
  std::remove(b.c_str());
}
BENCHMARK(BM_ServeHotSwap)->Unit(benchmark::kMicrosecond);

void BM_ServeFaultyThroughput(benchmark::State& state) {
  // Query round trips with a seeded FaultyTransport under every session:
  // per-tick rx/tx byte budgets (partial reads + short writes) but no
  // corruption or resets, so every call completes. The gap to
  // BM_ServeQueryThroughput is the cost of riding out a degraded link —
  // retried reads across ticks, fragmented reply flushes — with a resilient
  // client on the other end.
  serve::SnapshotRegistry registry;
  registry.publish_file(bench_snapshot());
  serve::Server server(serve::ServeConfig{}, registry);
  fault::ServeFaultPlanParams params;
  params.seed = 42;
  params.partial_read_rate = 0.25;
  params.partial_read_max = 64;
  params.short_write_rate = 0.25;
  params.short_write_max = 256;
  const fault::ServeFaultPlan plan(params);
  server.set_transport_factory(
      [&plan](std::unique_ptr<serve::Transport> inner, std::uint64_t conn) {
        // Null ledger: bench mode, no audit trail to grow unbounded.
        return std::make_unique<fault::FaultyTransport>(std::move(inner),
                                                        &plan, conn, nullptr);
      });
  std::thread reactor([&server] { server.run(); });
  {
    serve::ClientOptions options;
    options.max_attempts = 3;
    options.backoff_base_ms = 1;
    options.backoff_max_ms = 8;
    serve::QueryClient client(server.port(), options);
    const std::vector<std::uint8_t> body = serve::make_slice_body(
        7, serve::kAllServices, serve::kTotalsHours, serve::kTotalsHours);
    std::uint32_t id = 1;
    std::size_t reply_bytes = 0;
    for (auto _ : state) {
      const serve::Reply reply =
          client.call_idempotent(serve::Opcode::kSlice, body, id++);
      benchmark::DoNotOptimize(reply.generation);
      reply_bytes += serve::kReplyHeaderSize + reply.body.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(static_cast<std::int64_t>(reply_bytes));
  }
  server.begin_drain();
  reactor.join();
}
BENCHMARK(BM_ServeFaultyThroughput)->Unit(benchmark::kMicrosecond);

void BM_ServeDispatchOnly(benchmark::State& state) {
  // The deterministic core without sockets: one dispatch of an hourly
  // all-service slice straight off the mapping. The gap to
  // BM_ServeQueryThroughput/2 is the transport cost.
  const auto snap = serve::ServedSnapshot::load(bench_snapshot());
  const auto frame = serve::build_request(
      1, serve::Opcode::kSlice,
      serve::make_slice_body(7, serve::kAllServices, 0, kHours));
  const std::span<const std::uint8_t> payload{frame.data() + 4,
                                              frame.size() - 4};
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    serve::dispatch_request(snap.get(), payload, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDispatchOnly)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = icn::bench::trajectory_main("perf_serve", nullptr, argc, argv);
  std::remove("bench_serve.snap");
  return rc;
}
