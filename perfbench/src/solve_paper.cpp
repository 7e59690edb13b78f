// solve_paper: Table VII's largest mid-density cell (6000 hosts, degree 20,
// 15 services × 5 products, TRW-S at 50 iterations) as one cold in-process
// api::execute per operation, each on a fresh api::Session.
#include <memory>
#include <optional>

#include "api/session.hpp"
#include "bench.hpp"
#include "core/assignment.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "mrf/compiled.hpp"
#include "mrf/decompose.hpp"
#include "mrf/registry.hpp"
#include "runner/artifact_cache.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace api = icsdiv::api;
namespace core = icsdiv::core;
namespace mrf = icsdiv::mrf;
namespace runner = icsdiv::runner;

mrf::SolveResult replay_decomposed_solve(Tracer& tracer, const mrf::Mrf& model,
                                         const std::string& solver_name,
                                         const mrf::SolveOptions& options, SolveWork& work) {
  const std::unique_ptr<mrf::Solver> solver = mrf::SolverRegistry::instance().create(solver_name);
  const char* solve_span = solver_name == "trws"  ? "mrf.trws"
                           : solver_name == "icm" ? "mrf.icm"
                                                  : "mrf.solve";
  std::vector<std::vector<mrf::VariableId>> components;
  {
    const auto span = tracer.span("mrf.extract");
    components = mrf::mrf_components(model);
  }

  mrf::SolveResult merged;
  merged.labels.assign(model.variable_count(), 0);
  merged.energy = 0;
  merged.lower_bound = 0;
  merged.converged = true;
  std::vector<mrf::SolveResult> results(components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    std::optional<mrf::SubProblem> sub;
    {
      const auto span = tracer.span("mrf.extract");
      sub.emplace(mrf::extract_subproblem(model, components[c]));
    }
    std::optional<mrf::CompiledMrf> compiled;
    {
      const auto span = tracer.span("mrf.compile");
      compiled.emplace(sub->mrf);
    }
    {
      const auto span = tracer.span(solve_span);
      results[c] = solver->solve_compiled(*compiled, options);
    }
    std::size_t matrix_cells = 0;
    for (const mrf::MrfEdge& edge : sub->mrf.edges()) {
      const mrf::CostMatrix& matrix = sub->mrf.matrix(edge.matrix);
      matrix_cells += matrix.rows * matrix.cols;
    }
    work.edge_updates += results[c].iterations * 2 * matrix_cells;
    work.msg_bytes += (compiled->message_size() + compiled->unary_size() + 2 * matrix_cells) *
                      sizeof(mrf::Cost);
    for (std::size_t i = 0; i < sub->parent_variable.size(); ++i) {
      merged.labels[sub->parent_variable[i]] = results[c].labels[i];
    }
    const auto span = tracer.span("mrf.free");
    compiled.reset();
    sub.reset();
  }
  for (const mrf::SolveResult& r : results) {
    merged.energy += r.energy;
    merged.lower_bound += r.lower_bound;
    merged.iterations = std::max(merged.iterations, r.iterations);
    merged.converged = merged.converged && r.converged;
    merged.truncated = merged.truncated || r.truncated;
  }
  work.iterations += merged.iterations;
  return merged;
}

api::OptimizeResponse replay_optimize(Tracer& tracer, const api::OptimizeRequest& request,
                                      SolveWork& work) {
  // Session: the solve key hashes the model key, which dumps both documents;
  // on the miss, the model cache's own lookup dumps them again.
  const auto model_key = [&] {
    const auto key_span = tracer.span("api.cache_key");
    runner::KeyHasher hasher;
    hasher.mix(std::uint64_t{101});
    for (const Json* document : {&request.catalog, &request.network}) {
      std::string dump;
      {
        const auto span = tracer.span("support.json_dump");
        dump = document->dump();
      }
      const auto span = tracer.span("runner.key_hash");
      hasher.mix(dump);
    }
    return hasher.key();
  };
  if (!(model_key() == model_key())) throw icsdiv::LogicError("model key is not stable");

  std::unique_ptr<core::ProductCatalog> catalog;
  std::unique_ptr<core::Network> network;
  {
    const auto span = tracer.span("core.model_parse");
    catalog = std::make_unique<core::ProductCatalog>(core::catalog_from_json(request.catalog));
    network = std::make_unique<core::Network>(core::network_from_json(*catalog, request.network));
  }
  const Clock::time_point solve_start = Clock::now();  // as Session times its solves
  std::optional<core::DiversificationProblem> problem;
  {
    const auto span = tracer.span("core.problem");
    problem.emplace(*network);
  }
  mrf::SolveOptions options;
  if (request.max_iterations != 0) options.max_iterations = request.max_iterations;
  const std::string solver = request.solver.empty() ? core::OptimizeOptions{}.solver
                                                    : request.solver;
  const mrf::SolveResult solved =
      replay_decomposed_solve(tracer, problem->mrf(), solver, options, work);
  std::optional<core::Assignment> assignment;
  {
    const auto span = tracer.span("core.decode");
    assignment.emplace(problem->decode(solved.labels));
  }
  api::OptimizeResponse response;
  {
    const auto span = tracer.span("core.similarity");
    response.pairwise_similarity = core::total_edge_similarity(*assignment);
    (void)problem->constraints().satisfied_by(*assignment);
  }
  {
    const auto span = tracer.span("core.problem_free");
    problem.reset();
  }
  {
    const auto span = tracer.span("core.decode");
    response.assignment = assignment->to_json();
  }
  const auto span = tracer.span("api.response");
  response.energy = solved.energy;
  response.iterations = solved.iterations;
  response.converged = solved.converged;
  response.truncated = solved.truncated;
  response.solve_seconds = seconds_between(solve_start, Clock::now());
  return response;
}

namespace {

/// Everything one set-up builds: the generated model, the request that
/// carries its documents, and the problem the replies are checked against.
struct State {
  GeneratedModel model;
  api::Request request;
  std::unique_ptr<core::DiversificationProblem> problem;
  std::string reference;  ///< comparable form of the warm-up reply
};

api::SessionOptions one_request_session() {
  api::SessionOptions options;
  options.max_concurrent = 1;
  return options;
}

std::unique_ptr<State> make_state(std::uint64_t seed, Tracer& tracer) {
  auto state = std::make_unique<State>();
  state->model = generate_model(solve_paper_params(seed), tracer);
  state->request = optimize_request(std::move(state->model.catalog),
                                    std::move(state->model.network));
  state->problem = std::make_unique<core::DiversificationProblem>(*state->model.instance.network);
  return state;
}

/// One cold optimize on a fresh session.  Returns the seconds api::execute
/// took, or nullopt (after recording why) when it failed or its reply does
/// not check out.  The first call sets the reference reply.
std::optional<double> cold_optimize(State& state, RawResult& result,
                                    api::Response* keep = nullptr) {
  ++result.attempted;
  try {
    api::Session session(one_request_session());
    const Clock::time_point start = Clock::now();
    api::Response response = api::execute(state.request, session);
    const double seconds = seconds_between(start, Clock::now());

    const auto& reply = std::get<api::OptimizeResponse>(response);
    const std::string comparable = comparable_reply(api::response_to_wire(response));
    if (state.reference.empty()) state.reference = comparable;
    std::string why;
    if (reply.cached || reply.truncated) {
      why = "reply is cached or truncated";
    } else if (comparable != state.reference) {
      why = "reply differs from the warm-up reply";
    } else {
      why = check_assignment(*state.problem, reply.assignment, reply.energy);
    }
    if (!why.empty()) {
      result.fail("solve_paper: " + why);
      return std::nullopt;
    }
    if (keep != nullptr) *keep = std::move(response);
    return seconds;
  } catch (const std::exception& error) {
    result.fail(std::string("solve_paper: ") + error.what());
    return std::nullopt;
  }
}

void timed(const Options& options, RawResult& result) {
  Tracer tracer(false);
  std::unique_ptr<State> state;
  for (std::size_t k = 0; k < kSetups; ++k) {
    state.reset();
    const Clock::time_point start = k == 0 ? options.started : Clock::now();
    state = make_state(options.seed, tracer);
    (void)cold_optimize(*state, result);  // the untimed warm-up operation
    result.setup_s.push_back(seconds_between(start, Clock::now()));
  }

  std::vector<double> op_s;
  const Clock::time_point start = Clock::now();
  while (op_s.size() < 3 || seconds_between(start, Clock::now()) < options.seconds) {
    if (const std::optional<double> seconds = cold_optimize(*state, result)) {
      op_s.push_back(*seconds);
    }
    if (result.attempted > 1000) break;
  }
  result.samples.set("op_s", number_array(op_s));
  result.peak_rss_mb = peak_rss_mb();
}

void traced(const Options& options, RawResult& result) {
  Tracer tracer(options.replay);
  tracer.begin_op("setup");
  const std::unique_ptr<State> state = make_state(options.seed, tracer);
  tracer.end_op();
  api::Response reference;
  if (!cold_optimize(*state, result, &reference)) return;
  const auto& expected = std::get<api::OptimizeResponse>(reference);

  const auto& request = std::get<api::OptimizeRequest>(state->request);
  const std::string expected_assignment = expected.assignment.dump();
  SolveWork work;
  const auto replay = [&] {
    ++result.attempted;
    work = SolveWork{};
    tracer.begin_op("replay");
    const api::OptimizeResponse replayed = replay_optimize(tracer, request, work);
    tracer.end_op();
    if (replayed.assignment.dump() != expected_assignment || replayed.energy != expected.energy) {
      result.fail("solve_paper: replay differs from api::execute");
    }
  };
  // Each untraced operation runs next to its replay, so drift in machine
  // speed reaches both alike; which runs first alternates, so a drift within
  // a pair or an effect of running second cancels over the pairs.
  std::vector<double> e2e_s;
  for (std::size_t i = 0; i < options.reps; ++i) {
    const bool replay_first = options.replay && i % 2 == 1;
    if (replay_first) replay();
    if (const std::optional<double> seconds = cold_optimize(*state, result)) {
      e2e_s.push_back(*seconds);
    }
    if (options.replay && !replay_first) replay();
  }
  result.samples.set("e2e_s", number_array(e2e_s));
  if (options.replay) {
    JsonObject counts;
    counts.set("mrf.iterations", Json(work.iterations));
    counts.set("mrf.edge_updates", Json(work.edge_updates));
    counts.set("mrf.msg_bytes", Json(work.msg_bytes));
    result.samples.set("counts", Json(std::move(counts)));
    result.samples.set("trace", tracer.to_json());
  }
  result.peak_rss_mb = peak_rss_mb();
}

}  // namespace

void run_solve_paper(const Options& options, RawResult& result) {
  if (options.mode == "timed") {
    timed(options, result);
  } else {
    traced(options, result);
  }
}

}  // namespace perfbench
