// End-to-end daemon tests: a Server over a real socket, driven by the
// typed Client — transport parity with in-process api::execute, error
// envelopes, graceful shutdown draining, and socket-file hygiene.
#include "daemon/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hpp"
#include "core/serialization.hpp"
#include "daemon/client.hpp"
#include "runner/workload.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace icsdiv::daemon {
namespace {

std::string unique_socket_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("icsdivd_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

ServerOptions unix_options(const std::string& socket_path) {
  ServerOptions options;
  options.endpoint = support::Endpoint::parse("unix:" + socket_path);
  return options;
}

api::OptimizeRequest small_optimize_request() {
  runner::WorkloadParams params;
  params.hosts = 12;
  params.average_degree = 4;
  params.services = 3;
  params.products_per_service = 3;
  params.seed = 11;
  const runner::WorkloadInstance workload = runner::make_workload(params);
  api::OptimizeRequest request;
  request.catalog = core::catalog_to_json(*workload.catalog);
  request.network = core::network_to_json(*workload.network);
  request.solver = "icm";
  return request;
}

TEST(DaemonServer, ServesTheSameBytesAsInProcessExecution) {
  const std::string socket_path = unique_socket_path("parity");
  Server server(unix_options(socket_path));
  server.start();
  EXPECT_TRUE(std::filesystem::exists(socket_path));

  const api::Request request = small_optimize_request();

  Client client = Client::connect(server.endpoint());
  const auto version = std::get<api::VersionResponse>(client.call(api::VersionRequest{}));
  EXPECT_EQ(version.protocol, api::kProtocolVersion);

  const auto remote = std::get<api::OptimizeResponse>(client.call(request));
  // The daemon solved it; a direct call against the same session now
  // coalesces onto the warm artifact — bit-identical by construction.
  const auto local = std::get<api::OptimizeResponse>(server.session().execute(request));
  EXPECT_FALSE(remote.cached);
  EXPECT_TRUE(local.cached);
  EXPECT_EQ(remote.assignment.dump(), local.assignment.dump());

  server.shutdown();
  EXPECT_FALSE(std::filesystem::exists(socket_path)) << "socket file leaked";
}

TEST(DaemonServer, ConcurrentClientsCoalesceOntoOneSolve) {
  const std::string socket_path = unique_socket_path("coalesce");
  Server server(unix_options(socket_path));
  server.start();

  const api::Request request = small_optimize_request();
  constexpr std::size_t kClients = 4;
  std::vector<std::future<std::string>> futures;
  futures.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      Client client = Client::connect(server.endpoint());
      return std::get<api::OptimizeResponse>(client.call(request)).assignment.dump();
    }));
  }
  std::set<std::string> dumps;
  for (auto& future : futures) dumps.insert(future.get());
  EXPECT_EQ(dumps.size(), 1u);

  const api::StatusResponse status = server.session().status();
  EXPECT_EQ(status.solve_cache.planned, kClients);
  EXPECT_EQ(status.solve_cache.executed, 1u);
  EXPECT_EQ(status.solve_cache.hits, kClients - 1);
  server.shutdown();
}

TEST(DaemonServer, MalformedPayloadGetsErrorEnvelopeAndConnectionSurvives) {
  const std::string socket_path = unique_socket_path("malformed");
  Server server(unix_options(socket_path));
  server.start();

  Client client = Client::connect(server.endpoint());
  const support::Json reply = support::Json::parse(client.call_text("{this is not json"));
  EXPECT_EQ(reply.as_object().at("status").as_string(), "parse_error");
  EXPECT_NE(reply.as_object().find("error"), nullptr);

  // A malformed payload inside a good frame is recoverable.
  const auto version = std::get<api::VersionResponse>(client.call(api::VersionRequest{}));
  EXPECT_EQ(version.protocol, api::kProtocolVersion);

  // call_raw hands back the envelope verbatim; call() rethrows typed.
  const support::Json unknown =
      client.call_raw(support::Json::parse(R"({"request":"frobnicate"})"));
  EXPECT_EQ(unknown.as_object().at("status").as_string(), "invalid_argument");
  try {
    (void)client.call(api::request_from_wire(
        support::Json::parse(R"({"request":"similarity","feed":{},"cpes":["a","b"]})")));
    FAIL() << "expected a parse failure from the empty feed";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()), "");
  }
  server.shutdown();
}

TEST(DaemonServer, DeeplyNestedFrameGetsParseErrorAndConnectionSurvives) {
  const std::string socket_path = unique_socket_path("nested");
  Server server(unix_options(socket_path));
  server.start();

  // 100,000 levels of '[' once overflowed the connection thread's stack.
  Client client = Client::connect(server.endpoint());
  const support::Json reply =
      support::Json::parse(client.call_text(std::string(100000, '[')));
  EXPECT_EQ(reply.as_object().at("status").as_string(), "parse_error");
  EXPECT_EQ(reply.as_object().at("error").as_object().at("message").as_string(),
            "JSON: nesting deeper than 512 levels (line 1, column 513)");

  // The same connection serves the next request.
  const auto remote = std::get<api::OptimizeResponse>(client.call(small_optimize_request()));
  EXPECT_FALSE(remote.cached);
  EXPECT_EQ(server.session().status().requests_failed, 0u);
  server.shutdown();
}

TEST(DaemonServer, TcpEphemeralPortRoundTrip) {
  ServerOptions options;
  options.endpoint = support::Endpoint::parse("tcp:127.0.0.1:0");
  Server server(options);
  server.start();
  EXPECT_NE(server.endpoint().port, 0) << "port 0 should resolve on bind";

  Client client = Client::connect(server.endpoint());
  const auto version = std::get<api::VersionResponse>(client.call(api::VersionRequest{}));
  EXPECT_EQ(version.server, std::string(api::kServerName));
  server.shutdown();
}

TEST(DaemonServer, ShutdownDrainsInFlightRequests) {
  const std::string socket_path = unique_socket_path("drain");
  ServerOptions options = unix_options(socket_path);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> blocking{false};
  options.session.on_batch_result = [&](const runner::ScenarioResult&) {
    blocking.store(true);
    released.wait();
  };
  Server server(std::move(options));
  server.start();

  auto in_flight = std::async(std::launch::async, [&] {
    Client client = Client::connect(support::Endpoint::parse("unix:" + socket_path));
    api::BatchRequest batch;
    batch.grid = support::Json::parse(R"({
      "name": "drain", "hosts": [8], "degrees": [3], "services": [2],
      "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
      "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
    })");
    batch.threads = 1;
    return std::get<api::BatchResponse>(client.call(batch));
  });
  while (!blocking.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Shutdown must wait for the in-flight batch and deliver its response.
  auto shutdown = std::async(std::launch::async, [&] { server.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  shutdown.get();

  const api::BatchResponse response = in_flight.get();
  EXPECT_EQ(response.cells, 1u);
  EXPECT_EQ(response.failed, 0u);
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

/// Tests that arm the (process-global) failpoint registry.
class DaemonDeadline : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::disarm_all(); }
};

TEST_F(DaemonDeadline, TimedOutOptimizeReturnsPromptlyAndFreesTheWorkerSlot) {
  const std::string socket_path = unique_socket_path("deadline");
  Server server(unix_options(socket_path));
  server.start();

  // Hold the compute past the deadline after the decode, before the
  // solver's first cancellation check: without the 100ms budget this
  // request would grind through five million sweeps.
  support::failpoint::arm("session.decode", {support::failpoint::Action::Delay, 1.0, 120});
  api::OptimizeRequest slow = small_optimize_request();
  slow.max_iterations = 5'000'000;
  slow.timeout_ms = 100;

  Client client = Client::connect(server.endpoint());
  const support::Stopwatch watch;
  const auto reply = std::get<api::OptimizeResponse>(client.call(slow));
  EXPECT_TRUE(reply.truncated) << "deadline must surface as a truncated best-so-far";
  EXPECT_LT(watch.seconds(), 2.0) << "the reply must arrive near the deadline, not the solve";
  support::failpoint::disarm_all();

  // The worker slot is free again: an ordinary request completes.
  const auto follow_up = std::get<api::OptimizeResponse>(client.call(small_optimize_request()));
  EXPECT_FALSE(follow_up.truncated);
  EXPECT_FALSE(follow_up.cached);
  const api::StatusResponse status = server.session().status();
  EXPECT_EQ(status.requests_admitted, 2u);
  EXPECT_EQ(status.in_flight, 0u);
  server.shutdown();
}

TEST(DaemonClient, RetriesSaturationWithBackoffAndHonoursTheHint) {
  const std::string socket_path = unique_socket_path("retry");
  ServerOptions options = unix_options(socket_path);
  options.session.max_concurrent = 1;
  options.session.max_queued = 0;
  options.session.retry_after_seconds = 0.03;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> blocking{false};
  options.session.on_batch_result = [&](const runner::ScenarioResult&) {
    blocking.store(true);
    released.wait();
  };
  Server server(std::move(options));
  server.start();

  auto occupant = std::async(std::launch::async, [&] {
    Client client = Client::connect(support::Endpoint::parse("unix:" + socket_path));
    api::BatchRequest batch;
    batch.grid = support::Json::parse(R"({
      "name": "occupy", "hosts": [8], "degrees": [3], "services": [2],
      "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
      "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
    })");
    batch.threads = 1;
    return std::get<api::BatchResponse>(client.call(batch));
  });
  while (!blocking.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // A single-attempt client surfaces the rejection with the server's hint.
  Client impatient = Client::connect(server.endpoint());
  try {
    (void)impatient.call(small_optimize_request());
    FAIL() << "expected SaturatedError while the slot is held";
  } catch (const api::SaturatedError& error) {
    EXPECT_DOUBLE_EQ(error.retry_after_seconds(), 0.03);
  }

  // A retrying client rides the backoff through the busy window.
  ClientOptions retry_options;
  retry_options.max_attempts = 6;
  retry_options.backoff_base_seconds = 0.03;
  retry_options.backoff_max_seconds = 0.2;
  Client patient = Client::connect(server.endpoint(), retry_options);
  auto releaser = std::async(std::launch::async, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    release.set_value();
  });
  const auto reply = std::get<api::OptimizeResponse>(patient.call(small_optimize_request()));
  EXPECT_FALSE(reply.assignment.dump().empty());
  releaser.get();
  EXPECT_EQ(occupant.get().failed, 0u);
  server.shutdown();
}

TEST(DaemonClient, ReconnectsAcrossAServerRestart) {
  const std::string socket_path = unique_socket_path("reconnect");
  auto first = std::make_unique<Server>(unix_options(socket_path));
  first->start();

  ClientOptions options;
  options.max_attempts = 4;
  options.backoff_base_seconds = 0.01;
  options.backoff_max_seconds = 0.05;
  Client client = Client::connect(support::Endpoint::parse("unix:" + socket_path), options);
  EXPECT_EQ(std::get<api::VersionResponse>(client.call(api::VersionRequest{})).protocol,
            api::kProtocolVersion);

  first->shutdown();
  first.reset();
  Server second(unix_options(socket_path));
  second.start();

  // The established connection died with the first server; the retry
  // policy reconnects to its successor transparently.
  EXPECT_EQ(std::get<api::VersionResponse>(client.call(api::VersionRequest{})).protocol,
            api::kProtocolVersion);

  // A single-attempt client connected to the successor: once that server
  // is gone too, its exchange surfaces the transport failure instead of
  // reconnecting or hanging.
  ClientOptions one_shot;
  one_shot.max_attempts = 1;
  Client single = Client::connect(support::Endpoint::parse("unix:" + socket_path), one_shot);
  second.shutdown();
  EXPECT_THROW((void)single.call(api::VersionRequest{}), Error);
}

TEST(DaemonClient, NotFoundReplyIsNeverRetried) {
  Server server(unix_options(unique_socket_path("not_found")));
  server.start();

  const api::OptimizeRequest optimize = small_optimize_request();
  api::EvaluateRequest evaluate;
  evaluate.catalog = optimize.catalog;
  evaluate.network = optimize.network;
  evaluate.assignment =
      std::get<api::OptimizeResponse>(server.session().execute(optimize)).assignment;
  evaluate.entry = "no-such-host";
  evaluate.target = "h0";
  const std::size_t before = server.session().status().requests_total;

  // Retries are for failed connects.  The server answered not_found, so
  // the request has run; a retry would run it again.
  ClientOptions options;
  options.max_attempts = 3;
  options.backoff_base_seconds = 0.001;
  Client client = Client::connect(server.endpoint(), options);
  EXPECT_THROW((void)client.call(evaluate), NotFound);
  EXPECT_EQ(server.session().status().requests_total, before + 1);
  server.shutdown();
}

TEST(DaemonClient, ReadTimeoutSurfacesAsDeadlineExceededAndNeverRetries) {
  const std::string socket_path = unique_socket_path("read_timeout");
  ServerOptions options = unix_options(socket_path);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> blocking{false};
  options.session.on_batch_result = [&](const runner::ScenarioResult&) {
    blocking.store(true);
    released.wait();
  };
  Server server(std::move(options));
  server.start();

  ClientOptions client_options;
  client_options.read_timeout_ms = 60;
  client_options.max_attempts = 5;  // must be ignored: a retry could double-execute
  Client client = Client::connect(server.endpoint(), client_options);
  api::BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "slow-reply", "hosts": [8], "degrees": [3], "services": [2],
    "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
    "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
  })");
  batch.threads = 1;
  const support::Stopwatch watch;
  EXPECT_THROW((void)client.call(batch), DeadlineExceededError);
  // One timeout window, not five: the client gave up, it did not retry.
  EXPECT_LT(watch.seconds(), 0.25);

  while (!blocking.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  release.set_value();
  server.shutdown();  // drains the abandoned batch; its reply write may fail, harmlessly
}

TEST(DaemonServer, StaleSocketFileIsReclaimed) {
  const std::string socket_path = unique_socket_path("stale");
  {
    // Crash simulation: a listener closed without unlink leaves the file…
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::snprintf(address.sun_path, sizeof(address.sun_path), "%s", socket_path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::exists(socket_path));

  Server server(unix_options(socket_path));
  server.start();  // …which a fresh daemon probes, unlinks, and rebinds
  Client client = Client::connect(server.endpoint());
  EXPECT_EQ(std::get<api::VersionResponse>(client.call(api::VersionRequest{})).protocol,
            api::kProtocolVersion);
  server.shutdown();

  // A *live* socket is not usurped.
  Server first(unix_options(socket_path));
  first.start();
  Server second(unix_options(socket_path));
  EXPECT_THROW(second.start(), InvalidArgument);
  first.shutdown();
}

TEST(DaemonServer, StaleSocketReclaimRaceAdmitsExactlyOneListener) {
  // The regression this pins down: two listeners racing for one stale
  // socket file used to interleave check-then-unlink-then-bind, so the
  // loser could unlink the winner's *fresh* socket — both "listening",
  // one unreachable.  The flock'd sidecar serializes the sequence: one
  // winner, every loser told the socket is in use.
  const std::string socket_path = unique_socket_path("stale_race");
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::snprintf(address.sun_path, sizeof(address.sun_path), "%s", socket_path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
    ::close(fd);  // crash simulation: bound file left behind, nobody listening
  }

  constexpr std::size_t kRacers = 8;
  const support::Endpoint endpoint = support::Endpoint::parse("unix:" + socket_path);
  std::vector<std::future<std::optional<support::Listener>>> racers;
  racers.reserve(kRacers);
  std::promise<void> start;
  std::shared_future<void> go(start.get_future());
  for (std::size_t i = 0; i < kRacers; ++i) {
    racers.push_back(std::async(std::launch::async, [&]() -> std::optional<support::Listener> {
      go.wait();
      try {
        return support::Listener::listen(endpoint);
      } catch (const InvalidArgument&) {
        return std::nullopt;  // probed a live winner — the correct refusal
      }
    }));
  }
  start.set_value();

  std::optional<support::Listener> winner;
  std::size_t winners = 0;
  for (auto& racer : racers) {
    std::optional<support::Listener> listener = racer.get();
    if (listener.has_value()) {
      ++winners;
      winner = std::move(listener);
    }
  }
  ASSERT_EQ(winners, 1u);

  // The survivor is reachable: the losers did not unlink its socket.
  auto accepted = std::async(std::launch::async, [&] { return winner->accept(2000); });
  const support::Socket probe = support::Socket::connect(endpoint);
  EXPECT_TRUE(accepted.get().valid());
  winner->close();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(DaemonClient, CallBudgetCapsBackoffAndFailsFast) {
  const std::string socket_path = unique_socket_path("budget");
  Server server(unix_options(socket_path));
  server.start();

  // Every client write fails, so a retrying call can only burn attempts.
  // Without the budget, backoff_base_seconds = 5 would sleep minutes
  // before max_attempts ran out; the 250 ms budget must cap the first
  // sleep and fail the next retry with DeadlineExceededError.
  struct FailpointGuard {
    ~FailpointGuard() { support::failpoint::disarm_all(); }
  } guard;
  support::failpoint::arm_from_spec("socket.write=error");

  ClientOptions options;
  options.max_attempts = 1000;
  options.backoff_base_seconds = 5.0;
  options.backoff_max_seconds = 5.0;
  options.call_timeout_ms = 250;
  Client client = Client::connect(server.endpoint(), options);
  const support::Stopwatch watch;
  EXPECT_THROW((void)client.call(api::VersionRequest{}), DeadlineExceededError);
  const double elapsed = watch.seconds();
  EXPECT_GE(elapsed, 0.2);  // the capped sleep still honoured the budget window
  EXPECT_LT(elapsed, 2.0);  // nowhere near one uncapped 5 s backoff

  // With the fault cleared the same client works again (the budget is
  // per call, not a poisoned state).
  support::failpoint::disarm_all();
  EXPECT_EQ(std::get<api::VersionResponse>(client.call(api::VersionRequest{})).protocol,
            api::kProtocolVersion);
  server.shutdown();
}

}  // namespace
}  // namespace icsdiv::daemon
