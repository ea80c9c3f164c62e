#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/error.h"

namespace icn::serve {
namespace {

[[noreturn]] void fail_errno(const char* op) {
  throw icn::util::IoError(std::string("serve: ") + op + " failed: " +
                           std::strerror(errno));
}

/// One integer ICN_SERVE_* knob: its variable, accepted range, and field.
struct EnvKnob {
  const char* name;
  std::uint64_t min;
  std::uint64_t max;
  void (*apply)(ServeConfig&, std::uint64_t);
};

constexpr std::uint64_t kKnobMax = 1u << 30;

// Floor of 64 on MAX_FRAME: below the reply header + a small error detail
// nothing could ever be answered.
constexpr EnvKnob kEnvKnobs[] = {
    {"ICN_SERVE_MAX_CONNS", 1, 1u << 20,
     [](ServeConfig& c, std::uint64_t v) { c.max_connections = v; }},
    {"ICN_SERVE_MAX_FRAME", 64, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) { c.max_frame = v; }},
    {"ICN_SERVE_WRITE_BUF", 4096, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) { c.write_high_water = v; }},
    {"ICN_SERVE_RATE", 0, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) {
       c.rate_tokens_per_tick = static_cast<std::uint32_t>(v);
     }},
    {"ICN_SERVE_RATE_BURST", 0, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) {
       c.rate_burst = static_cast<std::uint32_t>(v);
     }},
    {"ICN_SERVE_IDLE_TICKS", 0, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) { c.idle_deadline_ticks = v; }},
    {"ICN_SERVE_REQUEST_TICKS", 0, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) { c.request_deadline_ticks = v; }},
    {"ICN_SERVE_DRAIN_TICKS", 1, kKnobMax,
     [](ServeConfig& c, std::uint64_t v) { c.drain_deadline_ticks = v; }},
};

}  // namespace

ServeConfig ServeConfig::from_env() {
  ServeConfig config;
  for (const EnvKnob& knob : kEnvKnobs) {
    if (const auto v = icn::util::parse_env_uint(
            knob.name, std::getenv(knob.name), knob.min, knob.max)) {
      knob.apply(config, *v);
    }
  }
  if (config.rate_tokens_per_tick > 0 && config.rate_burst == 0) {
    config.rate_burst = config.rate_tokens_per_tick;
  }
  return config;
}

Server::Server(const ServeConfig& config, const SnapshotRegistry& registry)
    : config_(config), registry_(registry), listener_(config.port) {
  epoll_ = icn::util::Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) fail_errno("epoll_create1");
  wakeup_ = icn::util::Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wakeup_.valid()) fail_errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    fail_errno("epoll_ctl(listener)");
  }
  ev.data.fd = wakeup_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev) != 0) {
    fail_errno("epoll_ctl(wakeup)");
  }
}

Server::~Server() = default;

void Server::accept_pending(std::uint64_t tick) {
  while (true) {
    icn::util::Fd fd = listener_.accept_nonblocking();
    if (!fd.valid()) return;
    if (draining_ || sessions_.size() >= config_.max_connections) {
      // Typed refusal, best-effort (the socket buffer of a fresh connection
      // always fits one small frame), then close.
      const Status status =
          draining_ ? Status::kShuttingDown : Status::kServerFull;
      std::vector<std::uint8_t> reject;
      append_error_reply(
          reject, 0, Opcode::kPing, status, registry_.generation(),
          draining_ ? std::string("server draining")
                    : "connection limit of " +
                          std::to_string(config_.max_connections) +
                          " reached");
      (void)icn::util::write_some(fd.get(), reject);
      stats_.connections_refused += 1;
      continue;  // Fd closes on scope exit.
    }
    Session::Limits limits;
    limits.max_frame = config_.max_frame;
    limits.write_high_water = config_.write_high_water;
    limits.rate_tokens_per_tick = config_.rate_tokens_per_tick;
    limits.rate_burst = config_.rate_burst;
    limits.idle_deadline_ticks = config_.idle_deadline_ticks;
    limits.request_deadline_ticks = config_.request_deadline_ticks;
    std::unique_ptr<Transport> transport =
        std::make_unique<SocketTransport>(std::move(fd));
    if (transport_factory_) {
      transport = transport_factory_(std::move(transport),
                                     stats_.connections_accepted);
    }
    const int raw = transport->fd();
    auto session = std::make_unique<Session>(std::move(transport),
                                             registry_.acquire(), &registry_,
                                             limits, tick, &health_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = raw;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, raw, &ev) != 0) {
      fail_errno("epoll_ctl(session add)");
    }
    sessions_.emplace(raw, std::move(session));
    stats_.connections_accepted += 1;
  }
}

void Server::update_interest(Session& session) {
  epoll_event ev{};
  ev.events = (session.wants_read() ? EPOLLIN : 0u) |
              (session.wants_write() ? EPOLLOUT : 0u);
  ev.data.fd = session.fd();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, session.fd(), &ev) != 0) {
    fail_errno("epoll_ctl(session mod)");
  }
}

void Server::absorb_counters(Session& session) {
  stats_.frames_served += session.take_frames_delta();
  stats_.shutdown_rejects += session.take_shutdown_rejects_delta();
}

void Server::drop_closed(int fd) {
  // The Session already closed its descriptor, which removed it from the
  // epoll set implicitly.
  sessions_.erase(fd);
  stats_.connections_closed += 1;
}

void Server::refresh_health() {
  health_.open_sessions = static_cast<std::uint32_t>(sessions_.size());
  health_.latest_generation = registry_.generation();
  health_.degraded_publishes = registry_.degraded_publishes();
  health_.connections_accepted = stats_.connections_accepted;
  health_.connections_refused = stats_.connections_refused;
  health_.connections_closed = stats_.connections_closed;
  health_.frames_served = stats_.frames_served;
  health_.ticks = stats_.ticks;
  health_.evicted_idle = stats_.sessions_evicted_idle;
  health_.evicted_deadline = stats_.sessions_evicted_deadline;
  health_.shutdown_rejects = stats_.shutdown_rejects;
  health_.checkpoint_failures =
      checkpoint_failures_source_ ? checkpoint_failures_source_() : 0;
  health_.draining = draining_ ? 1 : 0;
}

void Server::sweep_sessions(std::uint64_t tick) {
  const bool drain_expired =
      draining_ && tick >= drain_started_tick_ &&
      tick - drain_started_tick_ >= config_.drain_deadline_ticks;
  // Collect first: evictions and drops mutate sessions_.
  std::vector<int> fds;
  fds.reserve(sessions_.size());
  for (const auto& [fd, session] : sessions_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    Session& session = *it->second;
    if (drain_expired) {
      session.force_close();
    } else if (draining_ && session.drain_idle() &&
               tick > drain_started_tick_) {
      // Graceful drain exit: replies flushed, nothing left to answer. The
      // one-tick grace lets in-flight pipelined bytes arrive and collect
      // their typed kShuttingDown rejects instead of a bare EOF.
      session.force_close();
    } else if (session.state() == SessionState::kOpen) {
      const TickEvent event = session.on_tick(tick);
      if (event == TickEvent::kEvictedIdle) {
        stats_.sessions_evicted_idle += 1;
      } else if (event == TickEvent::kEvictedDeadline) {
        stats_.sessions_evicted_deadline += 1;
      }
    }
    // Evictions and drain rejects queue reply bytes outside the event
    // loop; flush them now so a quiet socket still sees the typed close.
    if (session.state() != SessionState::kClosed && session.wants_write()) {
      session.on_writable(tick);
    }
    absorb_counters(session);
    if (session.state() == SessionState::kClosed) {
      drop_closed(fd);
    } else {
      update_interest(session);
    }
  }
}

int Server::step(int timeout_ms) {
  epoll_event events[128];
  int n;
  do {
    n = ::epoll_wait(epoll_.get(), events, 128, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) fail_errno("epoll_wait");

  stats_.ticks += 1;
  const std::uint64_t tick = stats_.ticks;

  if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
    draining_ = true;
    drain_started_tick_ = tick;
    for (auto& [fd, session] : sessions_) session->begin_drain(tick);
  }
  refresh_health();

  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == listener_.fd()) {
      accept_pending(tick);
      continue;
    }
    if (fd == wakeup_.get()) {
      std::uint64_t drain;
      while (::read(wakeup_.get(), &drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    const auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;  // Closed earlier this round.
    Session& session = *it->second;
    if ((events[i].events & (EPOLLOUT)) != 0) session.on_writable(tick);
    if (session.state() != SessionState::kClosed &&
        (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
      session.on_readable(tick);
    }
    // Greedy flush + backpressure replay. Flushing in the same round avoids
    // a second epoll round-trip per request, and every drain below the
    // high-water mark must re-parse the frames that were already buffered
    // when backpressure tripped: a pipelining client waiting on those
    // replies sends no new bytes, so level-triggered EPOLLIN alone would
    // strand them in read_buf_ forever.
    while (session.state() != SessionState::kClosed) {
      session.on_writable(tick);
      if (session.state() == SessionState::kClosed ||
          !session.serve_buffered(tick)) {
        break;
      }
    }
    absorb_counters(session);
    if (session.state() == SessionState::kClosed) {
      drop_closed(fd);
    } else {
      update_interest(session);
    }
  }

  // Deadline / drain enforcement walks every session, not just the ones
  // with events — a slow loris's whole point is to stay silent. Skipped
  // when nothing could fire, so the happy path stays O(events).
  if (draining_ || config_.idle_deadline_ticks > 0 ||
      config_.request_deadline_ticks > 0) {
    sweep_sessions(tick);
  }
  return n;
}

void Server::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    step(50);
    if (draining_ && sessions_.empty()) break;
  }
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)::write(wakeup_.get(), &one, sizeof(one));
}

void Server::begin_drain() {
  drain_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)::write(wakeup_.get(), &one, sizeof(one));
}

}  // namespace icn::serve
