// Session semantics: cross-request caching, in-flight coalescing of
// identical requests, admission control, and the status counters that
// make all of it observable.
#include "api/session.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hpp"
#include "core/serialization.hpp"
#include "mrf/solver.hpp"
#include "runner/workload.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace icsdiv::api {
namespace {

/// A small synthetic deployment, serialised the way a client would send it.
struct Documents {
  support::Json catalog;
  support::Json network;
};

Documents make_documents(std::size_t hosts = 16, std::uint64_t seed = 7) {
  runner::WorkloadParams params;
  params.hosts = hosts;
  params.average_degree = 4;
  params.services = 3;
  params.products_per_service = 3;
  params.seed = seed;
  const runner::WorkloadInstance workload = runner::make_workload(params);
  return {core::catalog_to_json(*workload.catalog), core::network_to_json(*workload.network)};
}

OptimizeRequest optimize_request(const Documents& documents, std::string solver = "icm") {
  OptimizeRequest request;
  request.catalog = documents.catalog;
  request.network = documents.network;
  request.solver = std::move(solver);
  return request;
}

TEST(Session, ConcurrentIdenticalOptimizesExecuteOneSolve) {
  const Documents documents = make_documents();
  Session session;
  const Request request = optimize_request(documents);

  constexpr std::size_t kClients = 8;
  std::vector<std::future<OptimizeResponse>> futures;
  futures.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return std::get<OptimizeResponse>(session.execute(request));
    }));
  }
  std::vector<OptimizeResponse> responses;
  responses.reserve(kClients);
  for (auto& future : futures) responses.push_back(future.get());

  // Bit-identical assignments for every caller...
  std::set<std::string> dumps;
  std::size_t executions = 0;
  for (const OptimizeResponse& response : responses) {
    dumps.insert(response.assignment.dump());
    executions += response.cached ? 0 : 1;
  }
  EXPECT_EQ(dumps.size(), 1u);
  // ...from exactly one execution (the rest coalesced or hit warm).
  EXPECT_EQ(executions, 1u);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.planned, kClients);
  EXPECT_EQ(status.solve_cache.executed, 1u);
  EXPECT_EQ(status.solve_cache.hits, kClients - 1);
  EXPECT_EQ(status.requests_total, kClients);
  EXPECT_EQ(status.requests_failed, 0u);
  EXPECT_GT(status.solve_seconds_total, 0.0);
}

TEST(Session, WarmCacheServesRepeatsAndDistinguishesSolvers) {
  const Documents documents = make_documents();
  Session session;

  const auto first = std::get<OptimizeResponse>(session.execute(optimize_request(documents)));
  EXPECT_FALSE(first.cached);
  const auto again = std::get<OptimizeResponse>(session.execute(optimize_request(documents)));
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.assignment.dump(), first.assignment.dump());
  EXPECT_EQ(again.solve_seconds, first.solve_seconds);  // the solving run's duration

  const auto trws =
      std::get<OptimizeResponse>(session.execute(optimize_request(documents, "trws")));
  EXPECT_FALSE(trws.cached);

  EXPECT_EQ(session.status().solve_cache.executed, 2u);  // icm once, trws once
}

TEST(Session, OptimizeRejectsUnknownSolversBeforeTheCaches) {
  // The retired solvers are unknown names like any other, rejected with the
  // registry's message before the model is parsed or a solve is planned.
  const Documents documents = make_documents();
  Session session;
  for (const std::string solver : {"bp", "multilevel"}) {
    try {
      (void)session.execute(optimize_request(documents, solver));
      ADD_FAILURE() << solver << " was accepted";
    } catch (const InvalidArgument& error) {
      EXPECT_EQ(error.what(), "unknown solver: " + solver + " (registered: exhaustive, icm, trws)");
    }
  }
  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.planned, 0u);
  EXPECT_EQ(status.requests_failed, 2u);
}

TEST(Session, OmittedMaxIterationsSharesTheDefaultsCacheKey) {
  const Documents documents = make_documents();
  Session session;
  const OptimizeRequest omitted = optimize_request(documents);
  OptimizeRequest spelled_out = omitted;
  spelled_out.max_iterations = mrf::SolveOptions{}.max_iterations;

  const auto first = std::get<OptimizeResponse>(session.execute(omitted));
  EXPECT_FALSE(first.cached);
  const auto second = std::get<OptimizeResponse>(session.execute(spelled_out));
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.assignment.dump(), first.assignment.dump());
  EXPECT_EQ(session.status().solve_cache.executed, 1u);
}

/// `documents` with `edit` applied to copies of its network's "hosts" and
/// "links" arrays.
template <typename Edit>
Documents with_network_edit(const Documents& documents, Edit&& edit) {
  Documents copy = documents;
  support::JsonObject& network = copy.network.as_object();
  support::JsonArray hosts = network.at("hosts").as_array();
  support::JsonArray links = network.at("links").as_array();
  edit(hosts, links);
  network.set("hosts", support::Json(std::move(hosts)));
  network.set("links", support::Json(std::move(links)));
  return copy;
}

/// Edits of `documents` that each leave a network that decodes, yet is one
/// a session that solved `documents` has not solved: a renamed host, a
/// dropped candidate, a moved link endpoint and two swapped keys.
std::vector<std::pair<std::string, Documents>> network_edits(const Documents& documents) {
  using support::JsonArray;
  std::vector<std::pair<std::string, Documents>> edits;
  edits.emplace_back("host name", with_network_edit(documents, [](JsonArray& hosts,
                                                                  JsonArray& links) {
    const std::string old_name = hosts[3].as_object().at("name").as_string();
    hosts[3].as_object().set("name", support::Json("renamed"));
    for (support::Json& link : links) {
      for (support::Json& end : link.as_array()) {
        if (end.as_string() == old_name) end = support::Json("renamed");
      }
    }
  }));
  edits.emplace_back("candidate", with_network_edit(documents, [](JsonArray& hosts, JsonArray&) {
    support::JsonObject& host = hosts[0].as_object();
    JsonArray services = host.at("services").as_array();
    support::JsonObject& instance = services[0].as_object();
    JsonArray candidates = instance.at("candidates").as_array();
    ASSERT_GT(candidates.size(), 1u);
    candidates.pop_back();
    instance.set("candidates", support::Json(std::move(candidates)));
    host.set("services", support::Json(std::move(services)));
  }));
  edits.emplace_back("link endpoint", with_network_edit(documents, [](JsonArray& hosts,
                                                                      JsonArray& links) {
    const std::string from = links[0].as_array()[0].as_string();
    const std::string to = links[0].as_array()[1].as_string();
    // The first host that is neither end and not yet linked to `from`.
    for (const support::Json& host : hosts) {
      const std::string& name = host.as_object().at("name").as_string();
      const bool linked = std::any_of(links.begin(), links.end(), [&](const support::Json& link) {
        const JsonArray& ends = link.as_array();
        return (ends[0].as_string() == from && ends[1].as_string() == name) ||
               (ends[0].as_string() == name && ends[1].as_string() == from);
      });
      if (name != from && name != to && !linked) {
        links[0].as_array()[1] = support::Json(name);
        return;
      }
    }
    FAIL() << "no free endpoint";
  }));
  edits.emplace_back("key order", with_network_edit(documents, [](JsonArray& hosts, JsonArray&) {
    support::JsonObject swapped;
    swapped.set("services", hosts[0].as_object().at("services"));
    swapped.set("name", hosts[0].as_object().at("name"));
    hosts[0] = support::Json(std::move(swapped));
  }));
  return edits;
}

TEST(Session, SolveKeysFollowTheDocumentsNotTheirWhitespace) {
  const Documents documents = make_documents();
  Session session;
  EXPECT_FALSE(std::get<OptimizeResponse>(session.execute(optimize_request(documents))).cached);

  // The same documents read back from indented text are the same documents.
  const Documents reread{support::Json::parse(documents.catalog.dump_pretty()),
                         support::Json::parse(documents.network.dump_pretty())};
  EXPECT_TRUE(std::get<OptimizeResponse>(session.execute(optimize_request(reread))).cached);

  // Each edit leaves a network that decodes, yet is one the session has
  // not solved.
  const auto edits = network_edits(documents);
  for (const auto& [what, edited] : edits) {
    ASSERT_NE(edited.network.dump(), documents.network.dump()) << what;
    EXPECT_FALSE(std::get<OptimizeResponse>(session.execute(optimize_request(edited))).cached)
        << what;
  }
  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.executed, 1 + edits.size());
  EXPECT_EQ(status.solve_cache.hits, 1u);
  EXPECT_EQ(status.requests_failed, 0u);
}

TEST(Session, SolveCacheEvictsTheLeastRecentlyUsedReply) {
  // The session keeps 128 solve replies.  One request repeated between
  // distinct cold ones stays the most recently used, so each insertion past
  // the capacity evicts the oldest cold reply instead.
  constexpr std::size_t kCapacity = 128;
  constexpr std::size_t kCold = kCapacity + 2;
  Session session;
  const OptimizeRequest warm = optimize_request(make_documents(8, 1));
  EXPECT_FALSE(std::get<OptimizeResponse>(session.execute(warm)).cached);
  std::vector<OptimizeRequest> cold;
  for (std::size_t i = 0; i < kCold; ++i) {
    cold.push_back(optimize_request(make_documents(8, 1000 + i)));
    EXPECT_FALSE(std::get<OptimizeResponse>(session.execute(cold.back())).cached) << i;
    EXPECT_TRUE(std::get<OptimizeResponse>(session.execute(warm)).cached) << i;
  }
  const std::size_t overflow = 1 + kCold - kCapacity;
  StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.executed, 1 + kCold);
  EXPECT_EQ(status.solve_cache.hits, kCold);
  EXPECT_EQ(status.solve_cache.evicted, overflow);

  // The oldest cold reply was evicted and executes again; the newest is
  // still served warm.
  EXPECT_FALSE(std::get<OptimizeResponse>(session.execute(cold.front())).cached);
  EXPECT_TRUE(std::get<OptimizeResponse>(session.execute(cold.back())).cached);
  status = session.status();
  EXPECT_EQ(status.solve_cache.executed, 2 + kCold);
  EXPECT_EQ(status.solve_cache.evicted, overflow + 1);
}

TEST(Session, TimeoutPastTheClocksRangeNeverExpires) {
  // 10^13 ms is past what the deadline clock can represent: the request
  // runs without a deadline instead of failing at admission.
  const Documents documents = make_documents(8);
  Session session;
  OptimizeRequest request = optimize_request(documents);
  request.timeout_ms = 10'000'000'000'000;
  const auto response = std::get<OptimizeResponse>(session.execute(request));
  EXPECT_FALSE(response.truncated);
  EXPECT_EQ(session.status().requests_deadline, 0u);
}

TEST(Session, OversizedExhaustiveOptimizeIsInfeasible) {
  // 40 hosts, 3 products per slot: each service's component has far more
  // than the oracle's 16M labelings.  A well-formed request the solver
  // cannot run maps to Infeasible, not to a usage error.
  const Documents documents = make_documents(40);
  Session session;
  try {
    (void)session.execute(optimize_request(documents, "exhaustive"));
    FAIL() << "expected Infeasible";
  } catch (const std::exception& error) {
    EXPECT_EQ(status_code_for(error), StatusCode::Infeasible) << error.what();
  }
}

TEST(Session, EvaluateIsCachedAndChecksHosts) {
  const Documents documents = make_documents();
  Session session;
  const auto assignment =
      std::get<OptimizeResponse>(session.execute(optimize_request(documents))).assignment;

  EvaluateRequest evaluate;
  evaluate.catalog = documents.catalog;
  evaluate.network = documents.network;
  evaluate.assignment = assignment;
  const auto first = std::get<EvaluateResponse>(session.execute(evaluate));
  EXPECT_FALSE(first.cached);
  EXPECT_FALSE(first.pair_evaluated);
  EXPECT_GT(first.edge_similarity, 0.0);
  const auto second = std::get<EvaluateResponse>(session.execute(evaluate));
  EXPECT_TRUE(second.cached);

  evaluate.entry = "no-such-host";
  evaluate.target = "h0";
  EXPECT_THROW((void)session.execute(evaluate), NotFound);
  EXPECT_EQ(session.status().requests_failed, 1u);
}

TEST(Session, MetricPairComesFromTheBayesNet) {
  const Documents documents = make_documents(12);
  Session session;
  const auto assignment =
      std::get<OptimizeResponse>(session.execute(optimize_request(documents))).assignment;

  MetricRequest metric;
  metric.catalog = documents.catalog;
  metric.network = documents.network;
  metric.assignment = assignment;
  metric.entry = "h0";
  metric.target = "h5";
  const auto first = std::get<MetricResponse>(session.execute(metric));
  EXPECT_GT(first.d_bn, 0.0);
  EXPECT_LE(first.d_bn, 1.0 + 1e-9);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(std::get<MetricResponse>(session.execute(metric)).cached);
}

TEST(Session, IdenticalBatchRequestsCoalesce) {
  Session session;
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "session-batch",
    "hosts": [12], "degrees": [3], "services": [2], "products_per_service": [3],
    "solvers": ["icm"], "constraints": ["none"], "seeds": [1, 2],
    "max_iterations": 20, "tolerance": 1e-6
  })");
  batch.threads = 1;

  constexpr std::size_t kClients = 4;
  std::vector<std::future<BatchResponse>> futures;
  futures.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return std::get<BatchResponse>(session.execute(batch));
    }));
  }
  std::set<std::string> dumps;
  std::size_t executions = 0;
  for (auto& future : futures) {
    const BatchResponse response = future.get();
    EXPECT_EQ(response.cells, 2u);
    EXPECT_EQ(response.failed, 0u);
    dumps.insert(response.report.dump());
    executions += response.cached ? 0 : 1;
  }
  EXPECT_EQ(dumps.size(), 1u);
  EXPECT_EQ(executions, 1u);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.batch_cache.planned, kClients);
  EXPECT_EQ(status.batch_cache.executed, 1u);
  // The executed batch ran its cells once; coalesced callers added none.
  EXPECT_EQ(status.batch_stages.solve.planned, 2u);
  EXPECT_GT(status.batch_wall_seconds_total, 0.0);
}

TEST(Session, StatusFoldsTheDiskTierCountersOfStoreBackedBatches) {
  const std::string store_name = "icsdiv_session_store_" + std::to_string(::getpid());
  const std::filesystem::path store = std::filesystem::temp_directory_path() / store_name;
  std::filesystem::remove_all(store);
  Session session;
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "session-store",
    "hosts": [12], "degrees": [3], "services": [2], "products_per_service": [3],
    "solvers": ["icm"], "constraints": ["none"], "seeds": [1, 2],
    "max_iterations": 20, "tolerance": 1e-6
  })");
  batch.store_dir = store.string();

  // Cold, then warm: the thread count is part of the batch cache key, so
  // the second request runs again and reads its stages from the store.
  runner::StageStats reported;
  for (const std::size_t threads : {1u, 2u}) {
    batch.threads = threads;
    const BatchResponse response = std::get<BatchResponse>(session.execute(batch));
    ASSERT_FALSE(response.cached);
    reported += runner::StageStats::from_json(response.report.as_object().at("stage_stats"));
    EXPECT_EQ(session.status().batch_stages.to_json().dump(), reported.to_json().dump())
        << threads << " threads";
  }
  std::filesystem::remove_all(store);

  const runner::StageCounters solve = session.status().batch_stages.solve;
  EXPECT_EQ(solve.disk_writes, 2u);  // the cold pass publishes both solves
  EXPECT_EQ(solve.disk_hits, 2u);    // the warm pass reads them back
  EXPECT_EQ(solve.planned, solve.executed + solve.hits + solve.disk_hits);
}

TEST(Session, BatchValidatesGridBeforeRunning) {
  // runner::expand_validated, shared with icsdiv_cli's local batch paths:
  // one typo in an axis list fails the whole request, and the valid cells
  // beside it never run.
  std::atomic<std::size_t> cells_run{0};
  SessionOptions options;
  options.on_batch_result = [&](const runner::ScenarioResult&) { ++cells_run; };
  Session session(options);
  const auto rejection = [&](const char* solvers, const char* constraints) -> std::string {
    BatchRequest batch;
    batch.grid = support::Json::parse(R"({
      "hosts": [8], "degrees": [3], "services": [2], "products_per_service": [2], "seeds": [1]
    })");
    batch.grid.as_object().set("solvers", support::Json::parse(solvers));
    batch.grid.as_object().set("constraints", support::Json::parse(constraints));
    try {
      (void)session.execute(batch);
    } catch (const InvalidArgument& error) {
      return error.what();
    }
    return "accepted";
  };

  const std::string bad_solver = rejection(R"(["icm", "warp-drive"])", R"(["none"])");
  EXPECT_NE(bad_solver.find("unknown solver in grid: warp-drive"), std::string::npos) << bad_solver;
  const std::string bad_recipe = rejection(R"(["icm"])", R"(["none", "no-such-recipe"])");
  EXPECT_NE(bad_recipe.find("unknown constraint recipe in grid: no-such-recipe"), std::string::npos)
      << bad_recipe;
  EXPECT_EQ(cells_run.load(), 0u);
  EXPECT_EQ(session.status().batch_stages.solve.planned, 0u);
}

TEST(Session, BatchRejectsThreadsPastTheCeiling) {
  Session session;
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "hosts": [8], "degrees": [3], "services": [2], "products_per_service": [2],
    "solvers": ["icm"], "constraints": ["none"], "seeds": [1]
  })");
  batch.threads = runner::kMaxBatchThreads + 1;
  try {
    (void)session.execute(batch);
    FAIL() << "expected InvalidArgument";
  } catch (const std::exception& error) {
    EXPECT_EQ(status_code_for(error), StatusCode::InvalidArgument) << error.what();
  }
  EXPECT_EQ(session.status().batch_stages.solve.planned, 0u);
}

TEST(Session, SaturationRejectsWithRetryAfterAndKeepsStatusObservable) {
  SessionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 0;
  options.retry_after_seconds = 2.5;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> blocking{false};
  options.on_batch_result = [&](const runner::ScenarioResult&) {
    blocking.store(true);
    released.wait();
  };
  Session session(options);

  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "blocker", "hosts": [8], "degrees": [3], "services": [2],
    "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
    "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
  })");
  batch.threads = 1;
  auto blocked = std::async(std::launch::async, [&] { return session.execute(batch); });
  while (!blocking.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The single admission slot is held: the next request is rejected...
  const Documents documents = make_documents(8);
  try {
    (void)session.execute(optimize_request(documents));
    FAIL() << "expected SaturatedError";
  } catch (const SaturatedError& error) {
    EXPECT_DOUBLE_EQ(error.retry_after_seconds(), 2.5);
  }
  // ...while status (bypassing admission) still reports the load.
  StatusResponse status = session.status();
  EXPECT_EQ(status.in_flight, 1u);
  EXPECT_EQ(status.requests_rejected, 1u);

  release.set_value();
  EXPECT_EQ(std::get<BatchResponse>(blocked.get()).failed, 0u);
  EXPECT_FALSE(
      std::get<OptimizeResponse>(session.execute(optimize_request(documents))).cached);
  EXPECT_EQ(session.status().in_flight, 0u);
}

TEST(AdmissionGate, QueuesUpToLimitThenRejects) {
  AdmissionGate gate(1, 1, 0.5);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> holding{false};
  auto holder = std::async(std::launch::async, [&] {
    const AdmissionGate::Ticket ticket = gate.admit();
    holding.store(true);
    released.wait();
  });
  while (!holding.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(gate.running(), 1u);

  std::atomic<bool> queued_done{false};
  auto queued = std::async(std::launch::async, [&] {
    const AdmissionGate::Ticket ticket = gate.admit();  // waits in the queue
    queued_done.store(true);
  });
  while (gate.queued() != 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  EXPECT_THROW((void)gate.admit(), SaturatedError);  // queue full
  EXPECT_EQ(gate.rejected_total(), 1u);

  release.set_value();
  holder.get();
  queued.get();
  EXPECT_TRUE(queued_done.load());
  EXPECT_EQ(gate.running(), 0u);
  EXPECT_EQ(gate.queued(), 0u);
}

/// Deadline tests lean on failpoint delays to make "the compute is slow"
/// deterministic; the registry is global, so always leave it clean.
class SessionDeadline : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::disarm_all(); }
};

TEST_F(SessionDeadline, OptimizeDeadlineReturnsTruncatedBestSoFarAndSkipsTheCache) {
  // Hold the compute past the request deadline after the decode, before
  // the solver starts: ICM's first cancellation check sees an expired
  // token and returns the initial labels tagged truncated instead of
  // throwing.  The deadline leaves the 8-host decode ample time.
  support::failpoint::arm("session.decode", {support::failpoint::Action::Delay, 1.0, 150});
  const Documents documents = make_documents(8);
  Session session;
  OptimizeRequest request = optimize_request(documents);
  request.timeout_ms = 50;

  const auto truncated = std::get<OptimizeResponse>(session.execute(request));
  EXPECT_TRUE(truncated.truncated);
  EXPECT_FALSE(truncated.cached);
  EXPECT_FALSE(truncated.assignment.dump().empty());  // best-so-far, not empty
  EXPECT_EQ(session.status().requests_failed, 0u);    // truncation is a success

  // Truncated values are timing artifacts and must never be served from
  // cache: the same solve re-executes and this time completes.
  support::failpoint::disarm_all();
  request.timeout_ms = 0;
  const auto full = std::get<OptimizeResponse>(session.execute(request));
  EXPECT_FALSE(full.cached);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(session.status().solve_cache.executed, 2u);  // truncated, full
}

TEST_F(SessionDeadline, DeadlineDuringDecodeFailsAndCachesNothing) {
  // The delay outlasts the deadline before the documents are decoded; the
  // decode's first check("model.decode") sees the expired token.
  support::failpoint::arm("session.compute", {support::failpoint::Action::Delay, 1.0, 60});
  const Documents documents = make_documents(8);
  Session session;
  OptimizeRequest request = optimize_request(documents);
  request.timeout_ms = 20;
  EXPECT_THROW((void)session.execute(request), DeadlineExceededError);
  EXPECT_EQ(session.status().requests_deadline, 1u);

  // The failed solve was not cached: the same request without a deadline
  // decodes the documents again and completes.
  support::failpoint::disarm_all();
  request.timeout_ms = 0;
  const auto full = std::get<OptimizeResponse>(session.execute(request));
  EXPECT_FALSE(full.cached);
  EXPECT_FALSE(full.truncated);
  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.executed, 2u);
  EXPECT_EQ(status.requests_failed, 1u);
}

TEST_F(SessionDeadline, JoinerWithoutDeadlineOutlivesAColdDecodesFirstDeadline) {
  // The impatient request starts a cold optimize, held before its decode
  // past its deadline.  A request without a deadline joins the solve
  // meanwhile, which removes the entry token's deadline: the decode and
  // the solve that poll that token run to the end, and both callers get
  // the full reply.
  support::failpoint::arm("session.compute", {support::failpoint::Action::Delay, 1.0, 300});
  const Documents documents = make_documents(8);
  SessionOptions options;
  options.max_concurrent = 4;  // both callers must be *executing* to coalesce
  Session session(options);
  OptimizeRequest impatient = optimize_request(documents);
  impatient.timeout_ms = 40;
  auto first = std::async(std::launch::async, [&] {
    return std::get<OptimizeResponse>(session.execute(impatient));
  });
  // Join only once the impatient request's compute is being held.
  while (support::failpoint::hits("session.compute") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto joined = std::get<OptimizeResponse>(session.execute(optimize_request(documents)));
  EXPECT_FALSE(joined.truncated);
  EXPECT_TRUE(joined.cached);  // coalesced onto the impatient request's solve
  const OptimizeResponse executed = first.get();
  EXPECT_FALSE(executed.truncated);
  EXPECT_FALSE(executed.cached);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.planned, 2u);
  EXPECT_EQ(status.solve_cache.executed, 1u);
  EXPECT_EQ(status.requests_failed, 0u);
  EXPECT_EQ(status.requests_deadline, 0u);
}

TEST_F(SessionDeadline, BatchDeadlineSurfacesAsDeadlineExceededAndIsNotCached) {
  SessionOptions options;
  // Per-cell hook sleeps past the deadline, so the report would be built
  // under an expired token — the session must refuse to cache it.
  options.on_batch_result = [](const runner::ScenarioResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  };
  Session session(options);
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "deadline-batch", "hosts": [8], "degrees": [3], "services": [2],
    "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
    "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
  })");
  batch.threads = 1;
  batch.timeout_ms = 40;
  EXPECT_THROW((void)session.execute(batch), DeadlineExceededError);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.requests_failed, 1u);
  EXPECT_EQ(status.requests_deadline, 1u);
  EXPECT_EQ(status.requests_admitted, 1u);

  // Same grid without the deadline: re-executed from scratch, succeeds.
  batch.timeout_ms = 0;
  EXPECT_EQ(std::get<BatchResponse>(session.execute(batch)).failed, 0u);
  EXPECT_EQ(session.status().requests_admitted, 2u);
}

TEST_F(SessionDeadline, CoalescedWaiterLeavesAtItsDeadlineWithoutKillingTheCompute) {
  support::failpoint::arm("session.compute", {support::failpoint::Action::Delay, 1.0, 150});
  const Documents documents = make_documents(8);
  SessionOptions options;
  options.max_concurrent = 4;  // both callers must be *executing* to coalesce
  Session session(options);
  const Request patient_request = optimize_request(documents);
  auto patient = std::async(std::launch::async, [&] {
    return std::get<OptimizeResponse>(session.execute(patient_request));
  });
  // Join only once the patient request's compute is in flight.
  while (session.status().solve_cache.planned == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The impatient caller coalesces onto the same entry, then leaves at its
  // own deadline.  The entry token stays at the max over participants
  // (the patient has none), so the shared compute keeps running.
  OptimizeRequest impatient = optimize_request(documents);
  impatient.timeout_ms = 40;
  EXPECT_THROW((void)session.execute(impatient), DeadlineExceededError);

  const OptimizeResponse response = patient.get();
  EXPECT_FALSE(response.truncated);
  EXPECT_FALSE(response.cached);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.planned, 2u);
  EXPECT_EQ(status.solve_cache.executed, 1u);
  EXPECT_EQ(status.requests_deadline, 1u);

  // The completed value was cached despite the abandoned waiter.
  impatient.timeout_ms = 0;
  EXPECT_TRUE(std::get<OptimizeResponse>(session.execute(impatient)).cached);
}

TEST(AdmissionGate, QueueWaitersExpireAtTheirDeadline) {
  AdmissionGate gate(1, 1, 0.5);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> holding{false};
  auto holder = std::async(std::launch::async, [&] {
    const AdmissionGate::Ticket ticket = gate.admit();
    holding.store(true);
    released.wait();
  });
  while (!holding.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Queue wait counts against the deadline: the waiter leaves on its own.
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW((void)gate.admit(support::CancelToken::after_ms(50)),
               DeadlineExceededError);
  EXPECT_GE(std::chrono::steady_clock::now() - started, std::chrono::milliseconds(40));
  EXPECT_EQ(gate.queued(), 0u);  // the abandoned waiter rolled back its slot

  // An already-expired token is rejected before touching the queue.
  EXPECT_THROW((void)gate.admit(support::CancelToken::with_deadline(
                   support::CancelToken::Clock::now() - std::chrono::milliseconds(1))),
               DeadlineExceededError);

  release.set_value();
  holder.get();
  const AdmissionGate::Ticket ticket = gate.admit();  // the slot is free again
  EXPECT_EQ(gate.running(), 1u);
  EXPECT_EQ(gate.admitted_total(), 2u);  // holder + this ticket; expired waiters don't count
}

TEST(Session, FailedComputationsAreNotCached) {
  Session session;
  const Documents documents = make_documents(8);
  EvaluateRequest evaluate;
  evaluate.catalog = documents.catalog;
  evaluate.network = documents.network;
  evaluate.assignment = support::Json::parse(R"({"broken": true})");
  EXPECT_THROW((void)session.execute(evaluate), Error);
  // Same key again: recomputed (and fails again), not served from cache.
  EXPECT_THROW((void)session.execute(evaluate), Error);
  EXPECT_EQ(session.status().eval_cache.executed, 2u);
}

// ---------------------------------------------------------------------------
// Frames: Session::serve scans a frame's documents instead of building them.
// Its replies, errors and cache keys are those of parsing the frame and
// executing the request it holds.

/// A request's frame text, compact or indented.
std::string frame_of(const Request& request, bool indented = false) {
  const support::Json wire = request_to_wire(request);
  return indented ? wire.dump_pretty() : wire.dump();
}

std::string reply_text(Response response) { return response_to_wire(std::move(response)).dump(); }

/// The reply text of parsing `frame` whole and executing it on `session`.
std::string parsed_reply(Session& session, const std::string& frame) {
  try {
    return reply_text(session.execute(request_from_wire(support::Json::parse(frame))));
  } catch (const std::exception& error) {
    return error_to_wire(make_error_body(error)).dump();
  }
}

TEST(SessionFrames, FramesAndInProcessRequestsShareKeys) {
  const Documents documents = make_documents();
  Session session;
  Response expected = session.execute(optimize_request(documents));
  std::get<OptimizeResponse>(expected).cached = true;
  // The same documents hit from a frame, compact or indented.
  EXPECT_EQ(session.serve(frame_of(optimize_request(documents))), reply_text(expected));
  EXPECT_EQ(session.serve(frame_of(optimize_request(documents), true)), reply_text(expected));

  const auto edits = network_edits(documents);
  for (const auto& [what, edited] : edits) {
    const Response reply =
        response_from_wire(support::Json::parse(session.serve(frame_of(optimize_request(edited)))));
    EXPECT_FALSE(std::get<OptimizeResponse>(reply).cached) << what;
    EXPECT_TRUE(std::get<OptimizeResponse>(session.execute(optimize_request(edited))).cached)
        << what;
  }
  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.executed, 1 + edits.size());
  EXPECT_EQ(status.solve_cache.hits, 2 + edits.size());
  EXPECT_EQ(status.requests_failed, 0u);
}

TEST(SessionFrames, EveryDocumentRequestRepliesAsWhenParsed) {
  const Documents documents = make_documents(12);
  Session solver;
  const auto solved = std::get<OptimizeResponse>(solver.execute(optimize_request(documents)));
  EvaluateRequest evaluate{documents.catalog, documents.network, solved.assignment, "h0", "h5"};
  ReportRequest report{documents.catalog, documents.network, solved.assignment};
  MetricRequest metric{documents.catalog, documents.network, solved.assignment, "h1", "h7"};
  Session framed;
  Session parsed;
  for (const Request& request : {Request(evaluate), Request(report), Request(metric)}) {
    const std::string frame = frame_of(request);
    EXPECT_EQ(framed.serve(frame), parsed_reply(parsed, frame)) << request_name(request);
    // A second frame, indented, is served from the cache.
    EXPECT_EQ(framed.serve(frame_of(request, true)), parsed_reply(parsed, frame))
        << request_name(request);
  }
  EXPECT_EQ(framed.status().eval_cache.executed, 3u);
  EXPECT_EQ(framed.status().eval_cache.hits, 3u);
}

TEST(SessionFrames, MalformedFramesGetTheErrorsOfParseAndDecode) {
  const Documents documents = make_documents(8);
  const std::string catalog = documents.catalog.dump();
  const std::string network = documents.network.dump();
  const std::string optimize = R"({"request":"optimize","catalog":)" + catalog + R"(,"network":)";
  const std::string frames[] = {
      "",
      "{",
      "nope",
      std::string(100000, '['),
      R"({"request":"optimize","catalog":{}})",
      R"({})",
      R"({"request":"version","bogus":1})",
      R"({"request":"report","catalog":{},"network":{},"assignment":{},"solver":"icm"})",
      R"({"request":"optimize","catalog":{},"network":{},"max_iterations":-1})",
      R"({"request":"batch","grid":{},"threads":-2})",
      R"({"request":"evaluate","catalog":{},"network":{},"assignment":{},"entry":"h0"})",
      R"({"request":"similarity","feed":{},"cpes":["cpe:2.3:o:a:b"]})",
      R"({"request":"frobnicate","catalog":[1,2]})",
      R"({"icsdivd":2,"request":"version"})",
      R"([1,2,3])",
      R"({"request":7})",
      R"({"request":"optimize","catalog":{},"network":{},"solver":7})",
      R"({"request":"status","network":{"hosts":[]}})",
      // Faults inside a digested document, at their own line and column.
      optimize + "{\"hosts\":[1,]}}",
      optimize + "{\n\"hosts\": [\"\\ud83d\"]}}",
      optimize + network,
      // Documents that scan but do not decode, read only on the miss.
      optimize + "{\"hosts\":7}}",
      R"({"request":"optimize","catalog":[],"network":)" + network + "}",
      optimize + network + R"(,"solver":"bp"})",
      R"({"request":"batch","grid":{"solvers":["bp"]}})",
      R"({"request":"evaluate","catalog":)" + catalog + R"(,"network":)" + network +
          R"(,"assignment":{"broken":true}})",
      R"({"request":"similarity","feed":{"cves":7},"cpes":["cpe:2.3:o:a:b","cpe:2.3:o:a:c"]})",
  };
  Session framed;
  Session parsed;
  for (const std::string& frame : frames) {
    const std::string expected = parsed_reply(parsed, frame);
    ASSERT_NE(expected.find("\"error\""), std::string::npos) << frame.substr(0, 120);
    EXPECT_EQ(framed.serve(frame), expected) << frame.substr(0, 120);
  }
  EXPECT_EQ(framed.status().requests_failed, parsed.status().requests_failed);
}

}  // namespace
}  // namespace icsdiv::api
