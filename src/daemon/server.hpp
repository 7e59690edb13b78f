// The icsdivd server: a socket front-end over one api::Session
// (DESIGN.md §10).
//
// Threading model: one accept thread polling the listener in short
// slices, one thread per connection processing its frames serially.
// All request execution funnels through the shared Session, whose
// coalescing caches and admission gate provide cross-connection reuse
// and back-pressure; the server itself only frames and routes
// (Session::serve reads each frame).
//
// Graceful shutdown: shutdown() raises the stop flag and half-closes
// every connection's read side.  A handler mid-request finishes its
// work and writes the response (the in-flight drain), then its next
// read sees EOF and the thread exits; the accept thread notices the
// flag within one poll slice.  shutdown() joins everything, closes the
// listener, and unlinks a unix socket file.
#pragma once

#include <cstddef>
#include <memory>

#include "api/session.hpp"
#include "daemon/protocol.hpp"
#include "support/socket.hpp"

namespace icsdiv::daemon {

struct ServerOptions {
  support::Endpoint endpoint;
  /// Concurrent connections; above this, connects are turned away with a
  /// saturated error frame.
  std::size_t max_connections = 64;
  /// Idle connections (no complete request) are closed after this long.
  double idle_timeout_seconds = 300.0;
  api::SessionOptions session;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread.
  void start();

  /// The bound endpoint (TCP port 0 resolved); valid after start().
  [[nodiscard]] const support::Endpoint& endpoint() const;

  /// Graceful stop: drains in-flight requests, joins every thread,
  /// closes (and for unix sockets unlinks) the listener.  Idempotent.
  void shutdown();

  /// The shared execution context (for in-process callers and tests).
  [[nodiscard]] api::Session& session();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace icsdiv::daemon
