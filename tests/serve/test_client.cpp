// QueryClient resilience: every transport failure mode surfaces as a typed
// ClientError (never a hang, crash, or garbage decode), backoff is a pure
// deterministic function of (options, attempt), call_idempotent() reconnects
// through injected resets, and the process survives writes into dead sockets
// (MSG_NOSIGNAL — no SIGPIPE).
#include "serve/client.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "fault/transport.h"
#include "serve/server.h"
#include "util/socket.h"

namespace icn::serve {
namespace {

using fault::FaultyTransport;
using fault::ServeFaultPlan;
using fault::ServeFaultPlanParams;

/// A raw listener the test scripts byte-by-byte: accept one connection, run
/// `script` against it on a background thread, close.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::function<void(int fd)> script)
      : listener_(0),
        thread_([this, script = std::move(script)] {
          icn::util::Fd conn = listener_.accept_nonblocking();
          // The listener is non-blocking; poll until the client arrives.
          for (int i = 0; i < 1000 && !conn.valid(); ++i) {
            (void)icn::util::poll_fd(listener_.fd(), POLLIN, 10);
            conn = listener_.accept_nonblocking();
          }
          if (conn.valid()) {
            // accept_nonblocking() hands out non-blocking fds; the scripts
            // below want plain blocking recv/send.
            const int flags = ::fcntl(conn.get(), F_GETFL, 0);
            ::fcntl(conn.get(), F_SETFL, flags & ~O_NONBLOCK);
            script(conn.get());
          }
        }) {}

  ~ScriptedServer() { thread_.join(); }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  icn::util::TcpListener listener_;
  std::thread thread_;
};

/// Reads and discards one full request frame so the client's write lands.
void swallow_request(int fd) {
  std::uint8_t header[4];
  std::size_t at = 0;
  while (at < 4) {
    const ssize_t n = ::recv(fd, header + at, 4 - at, 0);
    if (n <= 0) return;
    at += static_cast<std::size_t>(n);
  }
  std::uint32_t len = 0;
  std::memcpy(&len, header, 4);
  std::vector<std::uint8_t> body(len);
  at = 0;
  while (at < len) {
    const ssize_t n = ::recv(fd, body.data() + at, len - at, 0);
    if (n <= 0) return;
    at += static_cast<std::size_t>(n);
  }
}

ClientErrorKind call_and_catch(QueryClient& client) {
  try {
    (void)client.call(Opcode::kPing, {}, 1);
  } catch (const ClientError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ClientError";
  return ClientErrorKind::kMalformedReply;
}

TEST(QueryClientErrorTest, ConnectionRefusedIsTyped) {
  // Grab a port that is certainly closed: bind, note it, release it.
  std::uint16_t port = 0;
  {
    const icn::util::TcpListener probe(0);
    port = probe.port();
  }
  ClientOptions options;
  options.connect_timeout_ms = 500;
  try {
    QueryClient client(port, options);
    FAIL() << "expected a ClientError";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientErrorKind::kConnectFailed);
    EXPECT_NE(std::string(e.what()).find("connect"), std::string::npos);
  }
}

TEST(QueryClientErrorTest, ServerClosingMidPayloadIsTruncatedReply) {
  ScriptedServer server([](int fd) {
    swallow_request(fd);
    // A frame header promising 100 payload bytes, then only 10, then close.
    std::vector<std::uint8_t> bytes;
    put_u32(bytes, 100);
    bytes.resize(4 + 10, 0xAA);
    icn::util::write_all(fd, bytes);
  });
  ClientOptions options;
  options.read_timeout_ms = 2000;
  QueryClient client(server.port(), options);
  EXPECT_EQ(call_and_catch(client), ClientErrorKind::kTruncatedReply);
}

TEST(QueryClientErrorTest, ServerClosingMidHeaderIsTruncatedReply) {
  ScriptedServer server([](int fd) {
    swallow_request(fd);
    const std::uint8_t half_header[2] = {0x10, 0x00};  // 2 of 4 length bytes.
    icn::util::write_all(fd, half_header);
  });
  ClientOptions options;
  options.read_timeout_ms = 2000;
  QueryClient client(server.port(), options);
  EXPECT_EQ(call_and_catch(client), ClientErrorKind::kTruncatedReply);
}

TEST(QueryClientErrorTest, CleanCloseBeforeReplyIsClosedByServer) {
  ScriptedServer server([](int fd) { swallow_request(fd); });  // Just close.
  ClientOptions options;
  options.read_timeout_ms = 2000;
  QueryClient client(server.port(), options);
  EXPECT_EQ(call_and_catch(client), ClientErrorKind::kClosedByServer);
}

TEST(QueryClientErrorTest, SilenceUntilTheDeadlineIsReadTimeout) {
  std::atomic<bool> release{false};
  ScriptedServer server([&release](int fd) {
    swallow_request(fd);
    while (!release.load()) {  // Hold the socket open, say nothing.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    (void)fd;
  });
  ClientOptions options;
  options.read_timeout_ms = 100;
  QueryClient client(server.port(), options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(call_and_catch(client), ClientErrorKind::kReadTimeout);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_GE(waited, 90);    // Honored the deadline...
  EXPECT_LT(waited, 1900);  // ...instead of hanging forever.
  release.store(true);
}

TEST(QueryClientErrorTest, UndecodableReplyHeaderIsMalformedReply) {
  ScriptedServer server([](int fd) {
    swallow_request(fd);
    // A complete frame whose reply header has nonzero reserved bytes.
    std::vector<std::uint8_t> bytes;
    put_u32(bytes, kReplyHeaderSize);
    put_u32(bytes, 1);           // request_id
    put_u8(bytes, 1);            // opcode
    put_u8(bytes, 0);            // status
    put_u16(bytes, 0xDEAD);      // reserved: must be zero
    put_u64(bytes, 1);           // generation
    icn::util::write_all(fd, bytes);
  });
  ClientOptions options;
  options.read_timeout_ms = 2000;
  QueryClient client(server.port(), options);
  EXPECT_EQ(call_and_catch(client), ClientErrorKind::kMalformedReply);
}

TEST(QueryClientErrorTest, WriteIntoDeadSocketIsTypedNotSigpipe) {
  ScriptedServer server([](int fd) {
    // Close immediately without reading: the client's next writes hit a
    // dead peer. Absent MSG_NOSIGNAL the second write raises SIGPIPE and
    // kills the process — reaching the typed error IS the assertion.
    (void)fd;
  });
  QueryClient client(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Big enough that the kernel cannot buffer it past the reset. The first
  // call may also surface the close as a read-side error; either way it must
  // be a typed ClientError, never a signal.
  const std::vector<std::uint8_t> big(1u << 20, 0x55);
  for (int i = 0; i < 3; ++i) {
    try {
      (void)client.call(Opcode::kCluster, big, static_cast<std::uint32_t>(i));
    } catch (const ClientError&) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "writes into a dead socket never surfaced an error";
}

TEST(BackoffTest, DelayIsDeterministicCappedAndJittered) {
  ClientOptions options;
  options.backoff_base_ms = 4;
  options.backoff_max_ms = 100;
  options.jitter_seed = 7;
  for (std::uint32_t attempt = 0; attempt < 40; ++attempt) {
    const std::uint64_t raw = std::min<std::uint64_t>(
        options.backoff_max_ms,
        options.backoff_base_ms << std::min<std::uint32_t>(attempt, 20));
    const std::uint64_t delay = backoff_delay_ms(options, attempt);
    // Deterministic: the same (options, attempt) always gives the same
    // delay — seeded tests replay retry timing exactly.
    EXPECT_EQ(delay, backoff_delay_ms(options, attempt));
    EXPECT_GE(delay, raw / 2);
    EXPECT_LT(delay, std::max<std::uint64_t>(raw, 1));
    EXPECT_LE(delay, options.backoff_max_ms);
  }
  // Different seeds de-synchronize the jitter (retry storms spread out).
  ClientOptions other = options;
  other.jitter_seed = 8;
  bool differs = false;
  for (std::uint32_t attempt = 2; attempt < 20 && !differs; ++attempt) {
    differs = backoff_delay_ms(options, attempt) !=
              backoff_delay_ms(other, attempt);
  }
  EXPECT_TRUE(differs);
}

TEST(QueryClientResilienceTest, CallIdempotentReconnectsThroughReset) {
  SnapshotRegistry registry;
  Server server(ServeConfig{}, registry);

  // Only the first accepted connection is faulty: it dies one tick after
  // its first I/O. The reconnect lands on a clean transport.
  ServeFaultPlanParams params;
  params.seed = 5;
  params.reset_rate = 1.0;
  params.reset_min_ticks = 1;
  params.reset_max_ticks = 1;
  const auto plan = std::make_shared<ServeFaultPlan>(params);
  server.set_transport_factory(
      [plan](std::unique_ptr<Transport> inner, std::uint64_t conn) {
        if (conn == 0) {
          return std::unique_ptr<Transport>(std::make_unique<FaultyTransport>(
              std::move(inner), plan.get(), conn, nullptr));
        }
        return inner;
      });
  std::thread reactor([&server] { server.run(); });

  ClientOptions options;
  options.read_timeout_ms = 500;
  options.max_attempts = 4;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 4;
  QueryClient client(server.port(), options);
  // First call: served before the planned lifetime elapses.
  const Reply first = client.call_idempotent(Opcode::kPing, {}, 1);
  EXPECT_EQ(first.status, Status::kOk);
  // Let the reactor tick past the planned lifetime so the next I/O on the
  // faulty transport hits the injected reset.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const Reply second = client.call_idempotent(Opcode::kPing, {}, 2);
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_GE(client.reconnects(), 1u);

  server.begin_drain();
  reactor.join();
}

TEST(PollFdTest, SurvivesSignalStorm) {
  // poll_fd must absorb EINTR and keep honoring the remaining deadline.
  struct sigaction action{};
  action.sa_handler = [](int) {};
  sigaction(SIGUSR1, &action, nullptr);

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  std::atomic<bool> done{false};
  const pthread_t target = pthread_self();
  std::thread pinger([&done, target] {
    while (!done.load()) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  const short got = icn::util::poll_fd(pipe_fds[0], POLLIN, 200);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  done.store(true);
  pinger.join();
  EXPECT_EQ(got, 0) << "nothing was readable; expected a clean timeout";
  EXPECT_GE(waited, 180) << "EINTR cut the deadline short";
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  signal(SIGUSR1, SIG_DFL);
}

}  // namespace
}  // namespace icn::serve
