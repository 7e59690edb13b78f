#include "daemon/server.hpp"

#include <atomic>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "support/annotations.hpp"
#include "support/error.hpp"
#include "support/mutex.hpp"

namespace icsdiv::daemon {

namespace {

/// Poll slice: the latency bound on noticing the stop flag.
constexpr int kPollSliceMs = 200;

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions options)
      : options_(std::move(options)), session_(options_.session) {}

  ~Impl() { shutdown(); }

  void start() {
    ensure(!started_, "Server::start", "server already started");
    listener_ = support::Listener::listen(options_.endpoint);
    started_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  [[nodiscard]] const support::Endpoint& endpoint() const {
    ensure(started_, "Server::endpoint", "server not started");
    return listener_.local();
  }

  void shutdown() {
    if (!started_ || shut_down_) return;
    shut_down_ = true;
    stop_.store(true, std::memory_order_relaxed);
    {
      const support::MutexLock lock(connections_mutex_);
      // Half-close every connection: a handler mid-request still writes
      // its response, then its next read reports EOF and the thread ends.
      for (const auto& connection : connections_) connection->socket.shutdown_read();
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::shared_ptr<Connection>> connections;
    {
      const support::MutexLock lock(connections_mutex_);
      connections.swap(connections_);
    }
    for (const auto& connection : connections) {
      if (connection->thread.joinable()) connection->thread.join();
    }
    listener_.close();
  }

  [[nodiscard]] api::Session& session() { return session_; }

 private:
  struct Connection {
    support::Socket socket;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      support::Socket socket = listener_.accept(kPollSliceMs);
      if (stop_.load(std::memory_order_relaxed)) return;
      reap_finished();
      if (!socket.valid()) continue;
      const support::MutexLock lock(connections_mutex_);
      if (connections_.size() >= options_.max_connections) {
        turn_away(socket);
        continue;
      }
      auto connection = std::make_shared<Connection>();
      connection->socket = std::move(socket);
      connections_.push_back(connection);
      connection->thread = std::thread([this, connection] {
        serve_connection(*connection);
        connection->finished.store(true, std::memory_order_release);
      });
    }
  }

  /// Joins and drops connections whose handler has returned, so a
  /// long-lived daemon does not accumulate dead threads.
  void reap_finished() {
    const support::MutexLock lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void turn_away(const support::Socket& socket) {
    api::ErrorBody body;
    body.code = api::StatusCode::Saturated;
    body.message = "too many connections (" + std::to_string(options_.max_connections) +
                   " active); retry later";
    body.detail = "icsdiv::api::SaturatedError";
    body.retry_after_seconds = options_.session.retry_after_seconds;
    try {
      socket.write_all(encode_frame(api::error_to_wire(body).dump()));
    } catch (const std::exception&) {
      // The peer is already gone; nothing to tell it.
    }
  }

  void serve_connection(Connection& connection) {
    FrameDecoder decoder;
    std::vector<char> buffer(64u << 10);
    double idle_seconds = 0.0;
    while (!stop_.load(std::memory_order_relaxed)) {
      if (connection.socket.wait_readable(kPollSliceMs) == support::Socket::Wait::Timeout) {
        idle_seconds += kPollSliceMs / 1000.0;
        if (idle_seconds >= options_.idle_timeout_seconds) return;
        continue;
      }
      idle_seconds = 0.0;
      std::size_t count = 0;
      try {
        count = connection.socket.read_some(buffer.data(), buffer.size());
      } catch (const std::exception&) {
        return;  // connection reset
      }
      if (count == 0) return;  // EOF — clean when decoder.idle(), else truncated
      decoder.feed({buffer.data(), count});
      while (true) {
        std::optional<std::string> payload;
        try {
          payload = decoder.next();
        } catch (const std::exception& error) {
          // Framing violation: the stream offset is lost, so answer once
          // and close.  (A malformed *payload* inside a good frame is
          // recoverable — serve_frame answers and the connection lives.)
          (void)write_reply(connection, api::error_to_wire(api::make_error_body(error)));
          return;
        }
        if (!payload) break;
        if (!serve_frame(connection, *payload)) return;
      }
    }
  }

  /// Executes one framed request; returns false when the reply cannot be
  /// written (peer vanished) and the connection should close.  The frame's
  /// text is freed only after its reply is written.
  bool serve_frame(Connection& connection, const std::string& payload) {
    try {
      connection.socket.write_all(encode_frame(session_.serve(payload)));
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  bool write_reply(Connection& connection, const support::Json& reply) {
    try {
      connection.socket.write_all(encode_frame(reply.dump()));
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  ServerOptions options_;
  api::Session session_;
  support::Listener listener_;
  std::thread accept_thread_;
  support::Mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_ ICSDIV_GUARDED_BY(connections_mutex_);
  std::atomic<bool> stop_{false};
  bool started_ = false;    ///< main-thread only (start/shutdown/endpoint)
  bool shut_down_ = false;  ///< main-thread only
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

void Server::start() { impl_->start(); }

const support::Endpoint& Server::endpoint() const { return impl_->endpoint(); }

void Server::shutdown() { impl_->shutdown(); }

api::Session& Server::session() { return impl_->session(); }

}  // namespace icsdiv::daemon
