// The byte-transport seam under Session (DESIGN.md §9.7).
//
// Session does all of its socket I/O through this interface so the serve
// chaos tests can slide a fault-injecting shim (fault/transport.h) between
// the state machine and the kernel without touching the state machine.
// The production path pays one virtual call per read/write — noise next to
// the syscall it wraps.
//
// Contract (mirrors icn::util::read_some / write_some):
//   > 0  bytes transferred
//   0    would block — try again on a later tick
//   -1   EOF, peer reset, or injected connection death
// Hard local errors still throw icn::util::IoError. `tick` is the reactor's
// virtual clock; a real socket ignores it, a faulty transport keys its
// per-tick budgets and stall windows off it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/socket.h"

namespace icn::serve {

class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual std::ptrdiff_t read_some(std::span<std::uint8_t> buf,
                                   std::uint64_t tick) = 0;
  virtual std::ptrdiff_t write_some(std::span<const std::uint8_t> buf,
                                    std::uint64_t tick) = 0;
  virtual void close() = 0;
  /// Underlying descriptor for epoll registration (-1 once closed).
  [[nodiscard]] virtual int fd() const = 0;
};

/// The production transport: a plain non-blocking socket.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(icn::util::Fd fd) : fd_(std::move(fd)) {}

  std::ptrdiff_t read_some(std::span<std::uint8_t> buf,
                           std::uint64_t tick) override;
  std::ptrdiff_t write_some(std::span<const std::uint8_t> buf,
                            std::uint64_t tick) override;
  void close() override { fd_.close(); }
  [[nodiscard]] int fd() const override { return fd_.get(); }

 private:
  icn::util::Fd fd_;
};

}  // namespace icn::serve
