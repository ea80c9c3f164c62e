#include "serve/client.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/rng.h"

namespace icn::serve {

const char* to_string(ClientErrorKind kind) {
  switch (kind) {
    case ClientErrorKind::kConnectFailed:
      return "connect failed";
    case ClientErrorKind::kConnectTimeout:
      return "connect timeout";
    case ClientErrorKind::kWriteFailed:
      return "write failed";
    case ClientErrorKind::kReadTimeout:
      return "read timeout";
    case ClientErrorKind::kClosedByServer:
      return "closed by server";
    case ClientErrorKind::kTruncatedReply:
      return "truncated reply";
    case ClientErrorKind::kMalformedReply:
      return "malformed reply";
  }
  return "?";
}

std::uint64_t backoff_delay_ms(const ClientOptions& options,
                               std::uint32_t attempt) {
  return icn::util::backoff_delay(options.backoff_base_ms,
                                  options.backoff_max_ms, attempt,
                                  options.jitter_seed, 0);
}

QueryClient::QueryClient(std::uint16_t port, const ClientOptions& options)
    : port_(port), options_(options) {
  connect_with_retries(port);
}

void QueryClient::connect_with_retries(std::uint16_t port) {
  const std::uint32_t attempts = std::max<std::uint32_t>(1, options_.max_attempts);
  int last_errno = 0;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff_delay_ms(options_, attempt - 1)));
    }
    const int timeout =
        options_.connect_timeout_ms == 0 ? -1 : options_.connect_timeout_ms;
    fd_ = icn::util::try_connect_loopback(port, timeout, &last_errno);
    if (fd_.valid()) return;
  }
  if (last_errno == 0) {
    throw ClientError(ClientErrorKind::kConnectTimeout,
                      "serve client: no connection to 127.0.0.1:" +
                          std::to_string(port) + " within " +
                          std::to_string(options_.connect_timeout_ms) + " ms");
  }
  throw ClientError(ClientErrorKind::kConnectFailed,
                    "serve client: connect to 127.0.0.1:" +
                        std::to_string(port) + " failed: " +
                        std::strerror(last_errno));
}

void QueryClient::read_exact_deadline(std::span<std::uint8_t> buf,
                                      bool mid_frame) {
  const auto started = std::chrono::steady_clock::now();
  std::size_t at = 0;
  while (at < buf.size()) {
    int remaining = -1;
    if (options_.read_timeout_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - started);
      remaining =
          options_.read_timeout_ms - static_cast<int>(elapsed.count());
      if (remaining <= 0 ||
          icn::util::poll_fd(fd_.get(), POLLIN, remaining) == 0) {
        throw ClientError(ClientErrorKind::kReadTimeout,
                          "serve client: no reply bytes within " +
                              std::to_string(options_.read_timeout_ms) +
                              " ms (" + std::to_string(at) + "/" +
                              std::to_string(buf.size()) + " read)");
      }
    }
    const ssize_t n = ::read(fd_.get(), buf.data() + at, buf.size() - at);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        throw ClientError(mid_frame || at > 0
                              ? ClientErrorKind::kTruncatedReply
                              : ClientErrorKind::kClosedByServer,
                          "serve client: connection reset by server");
      }
      throw ClientError(ClientErrorKind::kClosedByServer,
                        std::string("serve client: read failed: ") +
                            std::strerror(errno));
    }
    if (n == 0) {
      if (mid_frame || at > 0) {
        throw ClientError(ClientErrorKind::kTruncatedReply,
                          "serve client: connection closed mid-reply (" +
                              std::to_string(at) + "/" +
                              std::to_string(buf.size()) + " bytes)");
      }
      throw ClientError(ClientErrorKind::kClosedByServer,
                        "serve client: connection closed by server");
    }
    at += static_cast<std::size_t>(n);
  }
}

void QueryClient::read_frame() {
  std::uint8_t header[kFrameHeaderSize];
  read_exact_deadline(std::span<std::uint8_t>(header), /*mid_frame=*/false);
  std::uint32_t len = 0;
  std::memcpy(&len, header, sizeof(len));
  reply_payload_.resize(len);
  if (len > 0) {
    read_exact_deadline(
        std::span<std::uint8_t>(reply_payload_.data(), len),
        /*mid_frame=*/true);
  }
}

Reply QueryClient::call(Opcode opcode, std::span<const std::uint8_t> body,
                        std::uint32_t request_id) {
  request_scratch_ = build_request(request_id, opcode, body);
  try {
    icn::util::write_all(fd_.get(), request_scratch_);
  } catch (const icn::util::IoError& e) {
    throw ClientError(ClientErrorKind::kWriteFailed, e.what());
  }
  read_frame();
  const std::optional<Reply> reply = decode_reply(reply_payload_);
  if (!reply) {
    throw ClientError(ClientErrorKind::kMalformedReply,
                      "serve client: malformed reply frame (" +
                          std::to_string(reply_payload_.size()) +
                          " payload bytes)");
  }
  return *reply;
}

Reply QueryClient::call_idempotent(Opcode opcode,
                                   std::span<const std::uint8_t> body,
                                   std::uint32_t request_id) {
  const std::uint32_t attempts = std::max<std::uint32_t>(1, options_.max_attempts);
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return call(opcode, body, request_id);
    } catch (const ClientError&) {
      if (attempt + 1 >= attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_delay_ms(options_, attempt)));
    // Every query opcode is an idempotent read (kRepin re-pins to the same
    // head on a re-send), so tearing down and re-sending is safe.
    fd_.close();
    connect_with_retries(port_);
    ++reconnects_;
  }
}

std::vector<std::uint8_t> QueryClient::call_raw(
    std::span<const std::uint8_t> frame) {
  try {
    icn::util::write_all(fd_.get(), frame);
  } catch (const icn::util::IoError& e) {
    throw ClientError(ClientErrorKind::kWriteFailed, e.what());
  }
  read_frame();
  return reply_payload_;
}

std::vector<std::uint8_t> make_slice_body(std::uint32_t row,
                                          std::uint32_t service,
                                          std::int64_t hour_first,
                                          std::int64_t hour_last) {
  std::vector<std::uint8_t> body;
  put_u32(body, row);
  put_u32(body, service);
  put_i64(body, hour_first);
  put_i64(body, hour_last);
  return body;
}

std::vector<std::uint8_t> make_cluster_body(std::uint32_t row) {
  std::vector<std::uint8_t> body;
  put_u32(body, row);
  return body;
}

std::vector<std::uint8_t> make_shap_body(std::uint32_t cluster,
                                         std::uint32_t max_services) {
  std::vector<std::uint8_t> body;
  put_u32(body, cluster);
  put_u32(body, max_services);
  return body;
}

std::vector<std::uint8_t> make_coverage_body(std::uint32_t row) {
  std::vector<std::uint8_t> body;
  put_u32(body, row);
  return body;
}

}  // namespace icn::serve
