// Shared pieces of the benchmark binary: the span recorder, process probes,
// seeded inputs, output checks and the raw-result document.
//
// The binary has one entry per workload and mode.  It writes
// raw samples (operation times, latencies, spans, counts) as JSON; run.py
// turns them into the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/requests.hpp"
#include "core/problem.hpp"
#include "mrf/solver.hpp"
#include "runner/workload.hpp"
#include "support/json.hpp"

namespace perfbench {

using icsdiv::support::Json;
using icsdiv::support::JsonArray;
using icsdiv::support::JsonObject;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Set-ups per timed run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;

/// Command-line settings shared by every workload.  The defaults here are
/// the only ones; main.cpp requires the settings that have none.
struct Options {
  std::string mode;      ///< timed | traced | inputs
  std::string workload;  ///< solve_paper | eval_grid | daemon_loop
  std::uint64_t seed = 0;
  double seconds = 0.0;         ///< timed window of a timed run
  std::size_t threads = 2;      ///< compute-thread budget of this process
  std::size_t reps = 2;         ///< operations per traced phase
  bool replay = true;           ///< traced mode: also run the traced replay
  std::string out;              ///< raw result file (timed, traced) or directory (inputs)
  std::string icsdivd;          ///< daemon binary (daemon_loop)
  std::string socket;           ///< unix socket path for the daemon (daemon_loop)
  Clock::time_point started;    ///< process start, for the first setup_s
};

/// Spans recorded from benchmark code around each call into a library
/// layer.  The replay runs on one thread, so the stack of open spans gives
/// every span its parent.  A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Opens a span that closes when the returned object is destroyed.
  [[nodiscard]] Span span(const char* name) { return {enabled_ ? this : nullptr, name}; }

  /// Starts a new operation: spans opened until end_op() carry its id.
  void begin_op(std::string label);
  void end_op();

  /// {"ops": [{label, start_us, end_us}], "spans": [{name, id, parent, op,
  /// start_us, end_us}]}.  Span ids start at 1; parent 0 is "no parent";
  /// op indexes "ops".
  [[nodiscard]] Json to_json() const;

 private:
  struct Record {
    const char* name;
    std::size_t parent;
    std::size_t op;
    double start_us;
    double end_us;
  };

  [[nodiscard]] double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
  struct Op {
    std::string label;
    double start_us;
    double end_us;
  };
  std::vector<Op> ops_;
};

/// Peak resident set (VmHWM) of `pid`, or of this process when pid is 0, in
/// MB (10^6 bytes).  Returns 0 when /proc does not report it.
[[nodiscard]] double peak_rss_mb(long pid = 0);

/// Independent 64-bit seed for input stream `stream` of benchmark seed `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Random network documents, generated from `params` (span runner.generate
/// around the generator, core.serialize around the JSON conversion).
struct GeneratedModel {
  icsdiv::runner::WorkloadInstance instance;
  Json catalog;
  Json network;
};
[[nodiscard]] GeneratedModel generate_model(const icsdiv::runner::WorkloadParams& params,
                                            Tracer& tracer);

/// The solve_paper model: Table VII's 6000-host, degree-20 cell.
[[nodiscard]] icsdiv::runner::WorkloadParams solve_paper_params(std::uint64_t seed);

/// The optimize request of solve_paper and daemon_loop: TRW-S, 50 iterations.
[[nodiscard]] icsdiv::api::OptimizeRequest optimize_request(Json catalog, Json network);

/// The eval_grid scenario grid document.
[[nodiscard]] Json eval_grid_document(std::uint64_t seed);

/// The daemon_loop networks: warm ones are re-sent, cold ones never repeat
/// within the solve cache's capacity.
inline constexpr std::size_t kWarmNetworks = 8;
inline constexpr std::size_t kColdNetworks = 300;
[[nodiscard]] icsdiv::runner::WorkloadParams daemon_params(std::uint64_t seed, bool warm,
                                                           std::size_t index);
/// The length-prefixed wire frame of a daemon_loop optimize request.
[[nodiscard]] std::string daemon_frame(std::uint64_t seed, bool warm, std::size_t index,
                                       Tracer& tracer, GeneratedModel* keep = nullptr);

/// The response as its wire envelope without the fields that differ
/// between equal solves (`cached`, `solve_seconds`), dumped.
[[nodiscard]] std::string comparable_reply(const Json& wire);

/// Empty when `assignment_json` is a complete assignment of `network` whose
/// energy under `problem` matches `energy` to a relative 1e-9; otherwise
/// the reason it does not.
[[nodiscard]] std::string check_assignment(const icsdiv::core::DiversificationProblem& problem,
                                           const Json& assignment_json, double energy);

/// Work counts of a replayed decomposed solve.
struct SolveWork {
  std::size_t iterations = 0;    ///< Σ SolveResult::iterations over replayed solves
  std::size_t edge_updates = 0;  ///< Σ iterations × directed edges × labels²
  std::size_t msg_bytes = 0;     ///< messages + unaries + cost rows touched per sweep
};

/// Replays core::Optimizer's decomposed solve as its calls into the mrf
/// layer (components, extraction, compilation, solver), one component at a
/// time, with a span per call.  Returns the merged result exactly as
/// mrf::DecomposedSolver computes it.
[[nodiscard]] icsdiv::mrf::SolveResult replay_decomposed_solve(
    Tracer& tracer, const icsdiv::mrf::Mrf& mrf, const std::string& solver,
    const icsdiv::mrf::SolveOptions& options, SolveWork& work);

/// api::execute(OptimizeRequest) on a fresh session, replayed as the calls
/// Session and core::Optimizer make, with a span per call.  Returns the
/// response Session would give (not cached; solve_seconds is the replayed
/// solve's duration).
[[nodiscard]] icsdiv::api::OptimizeResponse replay_optimize(
    Tracer& tracer, const icsdiv::api::OptimizeRequest& request, SolveWork& work);

/// Raw samples of one run; written as JSON for run.py.
struct RawResult {
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  JsonObject samples;                 ///< workload-specific samples and counts

  void fail(std::string reason);
  [[nodiscard]] Json to_json(const Options& options) const;
};

[[nodiscard]] Json number_array(const std::vector<double>& values);

void write_file(const std::string& path, std::string_view bytes);

/// The workloads; each fills `result` (timed and traced modes) and returns
/// normally unless the run cannot continue.
void run_solve_paper(const Options& options, RawResult& result);
void run_eval_grid(const Options& options, RawResult& result);
void run_daemon_loop(const Options& options, RawResult& result);

/// Writes the workload's generated input documents under options.out.
void write_inputs(const Options& options);

}  // namespace perfbench
