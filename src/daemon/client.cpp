#include "daemon/client.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace icsdiv::daemon {

Client Client::connect(const support::Endpoint& endpoint, ClientOptions options) {
  support::Socket socket = support::Socket::connect(endpoint, options.connect_timeout_ms);
  return Client(std::move(socket), endpoint, options);
}

void Client::ensure_connected() {
  if (socket_.valid()) return;
  socket_ = support::Socket::connect(endpoint_, options_.connect_timeout_ms);
  decoder_ = FrameDecoder();
}

void Client::backoff(std::size_t attempt, double floor_seconds, double remaining_seconds) {
  // The caller's overall budget wins over every backoff rule: sleeping
  // past it (on the exponential schedule, the jitter, or a server's
  // retry_after_seconds floor) would return DeadlineExceeded *after* the
  // deadline had long passed.  Out of budget → fail now; short on budget
  // → sleep only what is left and let the next attempt race the clock.
  if (remaining_seconds <= 0.0) {
    throw DeadlineExceededError("call budget of " + std::to_string(options_.call_timeout_ms) +
                                "ms exhausted after " + std::to_string(attempt) + " attempts");
  }
  double delay = options_.backoff_base_seconds;
  for (std::size_t i = 1; i < attempt && delay < options_.backoff_max_seconds; ++i) delay *= 2;
  delay = std::min(delay, options_.backoff_max_seconds);
  delay = std::max(delay, floor_seconds);
  // Equal jitter: half the delay is deterministic, half uniform — spreads
  // synchronised retry herds without ever halving below the server hint.
  delay *= 0.5 + 0.5 * jitter_.uniform();
  delay = std::max(delay, floor_seconds);
  delay = std::min(delay, remaining_seconds);
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

api::Response Client::call(const api::Request& request) {
  // One serialisation: every retry attempt sends identical bytes.
  const std::string payload = api::request_to_wire(request).dump();
  const std::size_t attempts = std::max<std::size_t>(options_.max_attempts, 1);
  const support::Stopwatch watch;
  const auto remaining = [this, &watch] {
    if (options_.call_timeout_ms <= 0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(options_.call_timeout_ms) / 1000.0 - watch.seconds();
  };
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      ensure_connected();
    } catch (const NotFound&) {
      // Connect failed (daemon restarting?) — bounded reconnect.  Only the
      // connect: a server's not_found reply also arrives as NotFound, and
      // that request has already run.
      if (attempt >= attempts) throw;
      backoff(attempt, 0.0, remaining());
      continue;
    }
    try {
      return api::response_from_wire(support::Json::parse(call_text(payload)));
    } catch (const api::SaturatedError& error) {
      // The server answered "try later": honour its hint as the floor.
      if (attempt >= attempts) throw;
      backoff(attempt, std::max(error.retry_after_seconds(), 0.0), remaining());
    } catch (const ConnectionLost&) {
      if (attempt >= attempts) throw;
      backoff(attempt, 0.0, remaining());
    }
    // Anything else — server-side request errors, read timeouts, parse
    // errors on a healthy connection — propagates: a retry would either
    // repeat the failure or double-execute a request that may still be
    // running.
  }
}

support::Json Client::call_raw(const support::Json& wire) {
  return support::Json::parse(call_text(wire.dump()));
}

std::string Client::call_text(std::string_view payload) {
  try {
    socket_.write_all(encode_frame(payload));
    std::vector<char> buffer(64u << 10);
    while (true) {
      if (std::optional<std::string> reply = decoder_.next()) return *reply;
      if (options_.read_timeout_ms > 0 &&
          socket_.wait_readable(options_.read_timeout_ms) == support::Socket::Wait::Timeout) {
        // Not a transport failure: the connection is healthy, the server
        // is just slower than the caller's patience.  Close anyway — a
        // late reply would desynchronise the next exchange.
        socket_.close();
        throw DeadlineExceededError("no reply within " +
                                    std::to_string(options_.read_timeout_ms) + "ms");
      }
      const std::size_t count = socket_.read_some(buffer.data(), buffer.size());
      if (count == 0) throw ConnectionLost("server closed the connection mid-reply");
      decoder_.feed({buffer.data(), count});
    }
  } catch (const DeadlineExceededError&) {
    throw;
  } catch (const ConnectionLost&) {
    socket_.close();
    throw;
  } catch (const Error& error) {
    // send/recv failures and corrupt frames poison the stream the same
    // way an EOF does.
    socket_.close();
    throw ConnectionLost(error.what());
  }
}

}  // namespace icsdiv::daemon
