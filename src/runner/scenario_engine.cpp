// The staged scenario engine behind BatchRunner::run (DESIGN.md §9).
//
// A grid wastes work when every cell regenerates its workload, rebuilds
// its problem, re-solves and re-evaluates: cells differing only in the
// attack-strategy, detection or metric axis share their entire
// workload/problem/solve prefix, and cells differing only in the solver
// share workload/problem.  The engine makes the pipeline explicit:
//
//   workload -> problem -> solve -+-> channels -> attack -+
//                                 +--> metric ------------+
//                                 +--> finalize <---------+
//
// Each stage's output is an immutable, shared-ownership artifact keyed by
// a content hash of exactly the spec fields the stage depends on (see
// artifact_cache.hpp).  Planning walks the expanded specs once,
// deduplicates stage tasks by key, records payload consumer counts for
// refcount eviction, and wires a dependency DAG; scheduling then runs
// *stage tasks* (not whole cells) across the batch pool with dependency
// counting — a solve for one prefix overlaps the generation of another.
//
// Each stage definition below states only what is its own: the spec
// fields its key hashes, its compute body, its summary's field list and,
// for the stages whose records carry a payload (workload, solve,
// channels), the payload codec.  `BatchRun` does everything else once for
// all six: interning, the disk probe, payload-wanted propagation,
// compute-or-decode task wiring, publishing, parent-error propagation
// with release, and counter folding.
//
// Determinism: every stage computes exactly what the uncached per-cell
// path computed, with the same per-cell/per-entry seed formulas, so
// sharing the result across cells is bit-identical by construction — at
// any thread count, with reuse on or off (`BatchOptions::reuse_artifacts`;
// the engine test pins cached-vs-uncached equality of every deterministic
// report column at 1/2/8 threads).
//
// Ownership: artifacts co-own their ancestors (problem → network via
// DiversificationProblem's shared-ownership ctor, solve → problem, since
// the decoded Assignment points into the network).  The store evicts a
// payload when its last planned consumer releases it, so peak memory
// follows the in-flight frontier, not the grid size.
#include <algorithm>
#include <array>
#include <exception>
#include <limits>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "bayes/compiled.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "runner/batch_runner.hpp"
#include "runner/disk_store.hpp"
#include "runner/shard.hpp"
#include "sim/compiled.hpp"
#include "support/bytes.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::runner {

namespace {

// ---------------------------------------------------------------------------
// Summary records (DESIGN.md §13.1): the small scalar block each stage
// keeps after its payload is evicted, and the summary section of its disk
// record.  Every summary lists its fields once, in record order, in
// `fields`; the codec below walks that list — `std::size_t` as u64,
// `double` as raw-bit f64 (so the all-censored attack stage's NaN
// round-trips, which the JSON writer cannot carry), `bool` as one byte.
// The decoder throws on malformed input (records are checksummed before
// decoding, so a throw means a format bug, and the task catches it into
// the cell error).  Changing any list changes the record bytes, which is
// what DiskArtifactStore::kFormatVersion guards.

void put(support::ByteWriter& out, std::size_t value) { out.u64(value); }
void put(support::ByteWriter& out, double value) { out.f64(value); }
void put(support::ByteWriter& out, bool value) { out.boolean(value); }
void take(support::ByteReader& in, std::size_t& value) { value = in.u64(); }
void take(support::ByteReader& in, double& value) { value = in.f64(); }
void take(support::ByteReader& in, bool& value) { value = in.boolean(); }

template <typename Summary>
std::string encode_summary(const Summary& summary) {
  support::ByteWriter out;
  Summary::fields(summary, [&](const auto&... field) { (put(out, field), ...); });
  return out.take();
}

template <typename Summary>
Summary decode_summary(std::string_view data) {
  support::ByteReader in(data);
  Summary summary;
  Summary::fields(summary, [&](auto&... field) { (take(in, field), ...); });
  require(in.exhausted(), "decode_summary", "trailing bytes");
  return summary;
}

// ---------------------------------------------------------------------------
// Stage definitions.  Each names its tag (hash domain and disk record
// stage), its `stage.<name>` cancel label (the workload and solve bodies
// also evaluate the failpoint of that name), its counters block, its
// parent stage, its payload and summary types, the spec fields its key
// mixes onto the parent key, and its compute body — which runs after the
// generic task has checked cancellation and the parent's error, and whose
// throw becomes the slot's error.  Optional members: `applies` (the stage
// only exists for some cells), `encode_payload` / `decode_payload` (the
// record carries the payload), `Source` (decoding the payload needs that
// stage's payload instead of the parent's).

enum class StageTag : std::uint64_t { Workload = 1, Problem, Solve, Channels, Attack, Metric };
constexpr std::size_t kStageCount = 6;

/// What a compute body reads besides its parent's payload.
struct StageInput {
  const ScenarioSpec& spec;  ///< the first cell to intern the slot
  bool parallel;             ///< in-cell fan-out
  const support::CancelToken& cancel;
};

struct NoPayload {};

template <typename T>
using Shared = std::shared_ptr<const T>;

struct WorkloadStage {
  static constexpr StageTag kTag = StageTag::Workload;
  static constexpr std::string_view kLabel = "stage.workload";
  using Parent = void;
  using Payload = WorkloadInstance;
  struct Summary {
    std::size_t links = 0;
    std::size_t variables = 0;
    double seconds = 0.0;
    template <typename Self, typename Visit>
    static void fields(Self& s, Visit&& visit) { visit(s.links, s.variables, s.seconds); }
  };

  static StageCounters& stats(StageStats& all) { return all.workload; }

  static void mix_key(KeyHasher& hasher, const ScenarioSpec& spec) {
    const WorkloadParams& w = spec.workload;
    hasher.mix(w.hosts)
        .mix(w.average_degree)
        .mix(w.services)
        .mix(w.products_per_service)
        .mix(w.similar_pair_fraction)
        .mix(w.max_similarity)
        .mix(spec.seed);  // the scenario seed is the cell's generation stream
  }

  static Shared<Payload> compute(const StageInput& in, Summary& summary) {
    support::failpoint::evaluate("stage.workload");
    WorkloadParams seeded = in.spec.workload;
    seeded.seed = in.spec.seed;  // the scenario seed is the cell's RNG stream
    auto instance = std::make_shared<WorkloadInstance>(make_workload(seeded));
    summary.links = instance->network->topology().edge_count();
    summary.variables = instance->network->instance_count();
    return instance;
  }

  static std::string encode_payload(const Payload& workload) {
    support::JsonObject doc;
    doc.set("catalog", core::catalog_to_json(*workload.catalog));
    doc.set("network", core::network_to_json(*workload.network));
    return support::Json(doc).dump();
  }
  static Shared<Payload> decode_payload(std::string_view record) {
    const support::Json doc = support::Json::parse(record);
    auto instance = std::make_shared<WorkloadInstance>();
    instance->catalog = std::make_unique<core::ProductCatalog>(
        core::catalog_from_json(doc.as_object().at("catalog")));
    instance->network = std::make_unique<core::Network>(
        core::network_from_json(*instance->catalog, doc.as_object().at("network")));
    return instance;
  }
};

struct ProblemStage {
  static constexpr StageTag kTag = StageTag::Problem;
  static constexpr std::string_view kLabel = "stage.problem";
  using Parent = WorkloadStage;
  struct Payload {
    /// Co-owns the network through DiversificationProblem's
    /// shared-ownership ctor (aliased into the workload artifact), so the
    /// problem — and the assignments decoded from it — stay valid after
    /// the workload slot evicts.
    Payload(std::shared_ptr<const core::Network> network, core::ConstraintSet constraints)
        : problem(std::move(network), std::move(constraints)) {}

    core::DiversificationProblem problem;
  };
  /// Summary-only record: a problem whose payload is wanted recomputes.
  struct Summary {
    double seconds = 0.0;
    template <typename Self, typename Visit>
    static void fields(Self& s, Visit&& visit) { visit(s.seconds); }
  };

  static StageCounters& stats(StageStats& all) { return all.problem; }

  static void mix_key(KeyHasher& hasher, const ScenarioSpec& spec) { hasher.mix(spec.constraints); }

  static Shared<Payload> compute(const StageInput& in, const Shared<Parent::Payload>& workload,
                                 Summary&) {
    // Aliased shared_ptr: the network pointer, the workload's lifetime.
    std::shared_ptr<const core::Network> network(workload, workload->network.get());
    core::ConstraintSet constraints = apply_constraint_recipe(in.spec.constraints, *network);
    return std::make_shared<Payload>(std::move(network), std::move(constraints));
  }
};

struct SolveStage {
  static constexpr StageTag kTag = StageTag::Solve;
  static constexpr std::string_view kLabel = "stage.solve";
  using Parent = ProblemStage;
  /// A solve record materialises its assignment onto the workload's
  /// network directly (no problem artifact exists on that path).
  using Source = WorkloadStage;
  struct Payload {
    Shared<ProblemStage::Payload> problem;  ///< compute path: the assignment's keepalive
    Shared<WorkloadInstance> workload;      ///< disk path: the assignment's keepalive
    core::OptimizeOutcome outcome;
  };
  struct Summary {
    double energy = 0.0;
    double lower_bound = 0.0;
    std::size_t iterations = 0;
    bool converged = false;
    bool constraints_satisfied = false;
    double total_similarity = 0.0;
    double average_similarity = 0.0;
    double normalized_richness = 0.0;
    double seconds = 0.0;
    template <typename Self, typename Visit>
    static void fields(Self& s, Visit&& visit) {
      visit(s.energy, s.lower_bound, s.iterations, s.converged, s.constraints_satisfied,
            s.total_similarity, s.average_similarity, s.normalized_richness, s.seconds);
    }
  };

  static StageCounters& stats(StageStats& all) { return all.solve; }

  static void mix_key(KeyHasher& hasher, const ScenarioSpec& spec) {
    // The three constants stand where the key once hashed a time limit, a
    // warm start's length and a decompose flag (options since removed), so
    // --store directories written before keep hitting and --shard keeps
    // assigning every cell to the same shard.
    hasher.mix(spec.solver)
        .mix(spec.solve.max_iterations)
        .mix(spec.solve.tolerance)
        .mix(0.0)
        .mix(std::uint64_t{0})
        .mix(true);
    // The in-cell fan-out is deliberately absent: the decomposed solve is
    // bit-identical at any fan-out (pinned by the batch determinism
    // tests), so cells differing only in it share the artifact.
  }

  static Shared<Payload> compute(const StageInput& in, const Shared<Parent::Payload>& problem,
                                 Summary& summary) {
    support::failpoint::evaluate("stage.solve");
    core::OptimizeOptions options;
    options.solver = in.spec.solver;
    options.solve = in.spec.solve;
    options.solve.cancel = in.cancel;
    options.parallel = in.parallel;

    // Shared-ownership optimizer: aliases the problem artifact, so the
    // network cannot die under it however long the solve runs.
    const core::Optimizer optimizer(
        std::shared_ptr<const core::Network>(problem, &problem->problem.network()));
    core::OptimizeOutcome outcome = optimizer.optimize_problem(problem->problem, options);
    // Truncated artifacts are timing-dependent: cells sharing this slot
    // would silently consume a partial solve, so fail the cell instead.
    if (outcome.solve.truncated) in.cancel.check("stage.solve");
    ensure(outcome.assignment.complete(), "solve stage",
           "solver returned an incomplete assignment");

    summary.energy = outcome.solve.energy;
    summary.lower_bound = outcome.solve.lower_bound;
    summary.iterations = outcome.solve.iterations;
    summary.converged = outcome.solve.converged;
    summary.constraints_satisfied = outcome.constraints_satisfied;
    summary.total_similarity = outcome.pairwise_similarity;
    summary.average_similarity = core::average_edge_similarity(outcome.assignment);
    summary.normalized_richness = core::normalized_effective_richness(outcome.assignment);
    return std::make_shared<Payload>(Payload{problem, nullptr, std::move(outcome)});
  }

  static std::string encode_payload(const Payload& solve) {
    return solve.outcome.assignment.to_json().dump();
  }
  static Shared<Payload> decode_payload(std::string_view record, const Summary& summary,
                                        const Shared<WorkloadInstance>& workload) {
    core::OptimizeOutcome outcome{
        core::Assignment::from_json(*workload->network, support::Json::parse(record)),
        {},
        summary.total_similarity,
        summary.constraints_satisfied};
    outcome.solve.energy = summary.energy;
    outcome.solve.lower_bound = summary.lower_bound;
    outcome.solve.iterations = summary.iterations;
    outcome.solve.converged = summary.converged;
    return std::make_shared<Payload>(Payload{nullptr, workload, std::move(outcome)});
  }
};

/// The attack stage's shared similarity-channel-pool build.  The pools
/// depend on the propagation model only, so every strategy / detection /
/// horizon combination of a solve shares them.
struct ChannelsStage {
  static constexpr StageTag kTag = StageTag::Channels;
  static constexpr std::string_view kLabel = "stage.channels";
  using Parent = SolveStage;
  using Payload = sim::PropagationChannels;
  struct Summary {
    double seconds = 0.0;
    template <typename Self, typename Visit>
    static void fields(Self& s, Visit&& visit) { visit(s.seconds); }
  };

  static StageCounters& stats(StageStats& all) { return all.channels; }
  static bool applies(const ScenarioSpec& spec) { return spec.attack.has_value(); }

  static void mix_key(KeyHasher& hasher, const ScenarioSpec&) {
    const bayes::PropagationModel model = sim::SimulationParams{}.model;
    hasher.mix(model.p_avg).mix(model.similarity_weight).mix(model.consider_similarity);
  }

  static Shared<Payload> compute(const StageInput&, const Shared<Parent::Payload>& solve,
                                 Summary&) {
    // The channel pools only read the assignment during construction, so
    // they need no keepalive of the solve artifact afterwards.
    return std::make_shared<const Payload>(solve->outcome.assignment,
                                           sim::SimulationParams{}.model);
  }

  static std::string encode_payload(const Payload& channels) { return channels.serialize(); }
  static Shared<Payload> decode_payload(std::string_view record) {
    return std::make_shared<const Payload>(Payload::deserialize(record));
  }
};

sim::SimulationParams attack_params(const AttackSpec& attack) {
  sim::SimulationParams params;
  if (attack.strategy == "sophisticated") {
    params.strategy = sim::AttackerStrategy::Sophisticated;
  } else if (attack.strategy == "uniform") {
    params.strategy = sim::AttackerStrategy::Uniform;
  } else {
    throw InvalidArgument("unknown attacker strategy: " + attack.strategy +
                          " (known: sophisticated, uniform)");
  }
  params.detection_probability = attack.detection;
  params.max_ticks = attack.max_ticks;
  return params;
}

/// The attack block's MTTC aggregation over the entry hosts — a per-cell
/// leaf whose summary carries the MTTC columns.
struct AttackStage {
  static constexpr StageTag kTag = StageTag::Attack;
  static constexpr std::string_view kLabel = "stage.attack";
  using Parent = ChannelsStage;
  using Payload = NoPayload;
  struct Summary {
    std::size_t runs = 0;
    double mean = 0.0;
    double uncensored_mean = 0.0;
    std::size_t censored = 0;
    double seconds = 0.0;
    template <typename Self, typename Visit>
    static void fields(Self& s, Visit&& visit) {
      visit(s.runs, s.mean, s.uncensored_mean, s.censored, s.seconds);
    }
  };

  static StageCounters& stats(StageStats& all) { return all.attack; }
  static bool applies(const ScenarioSpec& spec) { return spec.attack.has_value(); }

  static void mix_key(KeyHasher& hasher, const ScenarioSpec& spec) {
    const AttackSpec& attack = *spec.attack;
    hasher.mix_range(attack.entries)
        .mix(static_cast<std::uint64_t>(attack.target))
        .mix(attack.strategy)
        .mix(attack.detection)
        .mix(attack.runs)
        .mix(attack.max_ticks)
        .mix(attack.seed);
  }

  static Shared<Payload> compute(const StageInput& in, const Shared<Parent::Payload>& channels,
                                 Summary& summary) {
    const AttackSpec& attack = *in.spec.attack;
    require(!attack.entries.empty(), "run_attack", "attack block needs at least one entry");
    require(attack.runs > 0, "run_attack", "attack block needs at least one run");

    sim::SimulationParams params = attack_params(attack);
    params.cancel = in.cancel;
    const sim::CompiledPropagation propagation(channels, params);
    double mean_sum = 0.0;
    double uncensored_sum = 0.0;
    std::size_t uncensored_runs = 0;
    for (std::size_t e = 0; e < attack.entries.size(); ++e) {
      // Distinct deterministic seed per entry — Table VI's historical
      // per-entry formula (bench_table6_mttc uses the same one).
      const std::uint64_t entry_seed = attack.seed + 1000003ULL * e;
      const sim::MttcResult mttc = propagation.mttc(attack.entries[e], attack.target,
                                                    attack.runs, entry_seed, in.parallel);
      mean_sum += mttc.mean;
      summary.censored += mttc.censored;
      const std::size_t reached = attack.runs - mttc.censored;
      if (reached > 0) {
        uncensored_sum += mttc.uncensored_mean * static_cast<double>(reached);
        uncensored_runs += reached;
      }
    }
    summary.runs = attack.runs * attack.entries.size();
    summary.mean = mean_sum / static_cast<double>(attack.entries.size());
    summary.uncensored_mean = uncensored_runs > 0
                                  ? uncensored_sum / static_cast<double>(uncensored_runs)
                                  : std::numeric_limits<double>::quiet_NaN();
    return nullptr;
  }
};

/// The metrics block's Def. 6 aggregation over entry × target pairs —
/// deterministic given the spec (the sharded sampler is bit-identical at
/// any thread count).
struct MetricStage {
  static constexpr StageTag kTag = StageTag::Metric;
  static constexpr std::string_view kLabel = "stage.metric";
  using Parent = SolveStage;
  using Payload = NoPayload;
  struct Summary {
    std::size_t pairs = 0;
    double d_bn_mean = 0.0;
    double d_bn_min = 0.0;
    double p_with_mean = 0.0;
    double p_without_mean = 0.0;
    double seconds = 0.0;
    template <typename Self, typename Visit>
    static void fields(Self& s, Visit&& visit) {
      visit(s.pairs, s.d_bn_mean, s.d_bn_min, s.p_with_mean, s.p_without_mean, s.seconds);
    }
  };

  static StageCounters& stats(StageStats& all) { return all.metric; }
  static bool applies(const ScenarioSpec& spec) { return spec.metrics.has_value(); }

  static void mix_key(KeyHasher& hasher, const ScenarioSpec& spec) {
    const MetricsSpec& metrics = *spec.metrics;
    hasher.mix_range(metrics.entries)
        .mix_range(metrics.targets)
        .mix(metrics.engine)
        .mix(metrics.samples)
        .mix(metrics.exact_max_edges)
        .mix(metrics.seed);
  }

  static Shared<Payload> compute(const StageInput& in, const Shared<Parent::Payload>& solve,
                                 Summary& summary) {
    const MetricsSpec& metrics = *in.spec.metrics;
    require(!metrics.entries.empty(), "run_metrics", "metrics block needs at least one entry");
    require(!metrics.targets.empty(), "run_metrics", "metrics block needs at least one target");

    const core::Assignment& assignment = solve->outcome.assignment;
    bayes::InferenceOptions inference;
    inference.engine = bayes::inference_engine_from_name(metrics.engine);
    inference.mc_samples = metrics.samples;
    inference.exact_max_edges = metrics.exact_max_edges;
    inference.parallel = in.parallel;
    inference.cancel = in.cancel;

    double d_bn_sum = 0.0;
    double with_sum = 0.0;
    double without_sum = 0.0;
    double d_bn_min = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < metrics.entries.size(); ++e) {
      // Distinct deterministic stream per entry — the attack block's
      // per-entry formula.
      inference.seed = metrics.seed + 1000003ULL * e;
      const bayes::CompiledReliability compiled(assignment, metrics.entries[e],
                                                bayes::PropagationModel{});
      const bayes::ReliabilitySweep sweep = compiled.solve_targets(metrics.targets, inference);
      for (const core::HostId target : metrics.targets) {
        const double p_with = sweep.p[target];
        const double p_without = sweep.p_baseline[target];
        require(p_with > 0.0, "run_metrics",
                "metrics target " + std::to_string(target) + " is unreachable from entry " +
                    std::to_string(metrics.entries[e]) + " (d_bn is undefined)");
        const double d_bn = p_without / p_with;
        d_bn_sum += d_bn;
        with_sum += p_with;
        without_sum += p_without;
        d_bn_min = std::min(d_bn_min, d_bn);
      }
    }
    const auto pairs = static_cast<double>(metrics.entries.size() * metrics.targets.size());
    summary.pairs = metrics.entries.size() * metrics.targets.size();
    summary.d_bn_mean = d_bn_sum / pairs;
    summary.d_bn_min = d_bn_min;
    summary.p_with_mean = with_sum / pairs;
    summary.p_without_mean = without_sum / pairs;
    return nullptr;
  }
};

template <typename Def>
constexpr bool kHasParent = !std::is_void_v<typename Def::Parent>;
template <typename Def>
constexpr bool kHasSource = requires { typename Def::Source; };
template <typename Def>
constexpr bool kPayloadRecord = requires { &Def::encode_payload; };

/// Position of a stage in pipeline order (the per-cell slot and key arrays).
template <typename Def>
constexpr std::size_t kIndex = static_cast<std::size_t>(Def::kTag) - 1;

/// The stage's key: its tag and its parent's key (a distinct tag per
/// stage separates the hash domains), then the spec fields it reads.
template <typename Def>
ArtifactKey stage_key(const ArtifactKey& parent, const ScenarioSpec& spec) {
  KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(Def::kTag)).mix(parent.hi).mix(parent.lo);
  Def::mix_key(hasher, spec);
  return hasher.key();
}

std::size_t resolve_batch_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// The task DAG and its scheduler.

struct Task {
  std::function<void()> body;  ///< never throws (stage tasks catch)
  std::atomic<std::size_t> pending{0};
  std::vector<std::size_t> dependents;
};

/// Runs the DAG: ready tasks are dispatched to the pool, and completing
/// tasks unlock their dependents (dependency counting).  Stage tasks
/// catch their own failures into slot errors, so a throwing body can only
/// be infrastructure or a user `on_result` callback — the DAG still
/// drains (dependents must run to keep refcounts and the report sound)
/// and the first exception is rethrown afterwards, the parallel_for
/// contract ("exceptions propagate, first wins").
void run_dag(std::deque<Task>& tasks, std::size_t threads) {
  if (tasks.empty()) return;
  support::Mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex until the joins below
  const auto run_body = [&](Task& task) {
    try {
      task.body();
    } catch (...) {
      const support::MutexLock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (threads <= 1) {
    // Deterministic topological worklist (FIFO, seeded in plan order).
    std::vector<std::size_t> ready;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks[t].pending.load(std::memory_order_relaxed) == 0) ready.push_back(t);
    }
    for (std::size_t next = 0; next < ready.size(); ++next) {
      Task& task = tasks[ready[next]];
      run_body(task);
      for (const std::size_t dependent : task.dependents) {
        if (tasks[dependent].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          ready.push_back(dependent);
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // Snapshot the initially-ready set BEFORE any worker runs: once tasks
  // execute, dependents start reaching pending == 0 through the dependency
  // path, and a live scan here would submit those a second time.
  std::vector<std::size_t> ready;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].pending.load(std::memory_order_relaxed) == 0) ready.push_back(t);
  }

  support::Mutex mutex;
  support::CondVar done;
  std::size_t remaining = tasks.size();  // guarded by mutex
  std::function<void(std::size_t)> execute;
  // The pool is declared after everything `execute` captures, so its
  // destructor (which joins the workers) runs first — no worker can still
  // be inside `execute` when the function object is destroyed.
  support::ThreadPool pool(threads);

  // Self-referential dispatch: each finished task submits the dependents
  // it unlocked from its own worker thread.
  execute = [&](std::size_t index) {
    Task& task = tasks[index];
    run_body(task);
    for (const std::size_t dependent : task.dependents) {
      if (tasks[dependent].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        try {
          pool.submit([&execute, dependent] { execute(dependent); });
        } catch (...) {
          // submit() allocates; under memory pressure the exception would
          // otherwise vanish into the discarded future and strand the
          // dependent (and `remaining`) forever.  Degrade to inline
          // execution — the DAG must drain for run() to return.
          execute(dependent);
        }
      }
    }
    {
      const support::MutexLock lock(mutex);
      --remaining;
    }
    done.notify_one();
  };

  for (const std::size_t t : ready) {
    pool.submit([&execute, t] { execute(t); });
  }
  {
    const support::MutexLock lock(mutex);
    while (remaining != 0) done.wait(mutex);
  }
  if (first_error) std::rethrow_exception(first_error);
}

constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);

/// Planning-time disposition of one freshly interned store slot: the
/// wiring its task needs (the first-interning cell's spec, parent slots),
/// whether its result comes from a validated on-disk record or a
/// computation, and whether any consumer needs the payload materialised.
struct SlotPlan {
  const ScenarioSpec* spec = nullptr;
  bool parallel = false;
  std::size_t parent = kNoStage;  ///< slot in the parent stage's store
  std::size_t source = kNoStage;  ///< slot in the `Source` stage's store
  bool from_disk = false;
  bool payload_wanted = false;
  DiskArtifactStore::Record record;  ///< validated mapping when from_disk
};

/// One stage's run state: its store, and per slot the plan and the task
/// that produces it.
template <typename Def>
struct StageState {
  ArtifactStore<typename Def::Payload, typename Def::Summary> store;
  std::deque<SlotPlan> plans;      ///< parallel to the store's slots (task bodies hold references)
  std::vector<std::size_t> tasks;  ///< filled in stage order by wiring
};

/// Per-cell wiring: which slot of each stage feeds this cell's report row
/// (kNoStage for stages the cell does not have).
using CellSlots = std::array<std::size_t, kStageCount>;

/// The state of one BatchRunner::run call: plan, wire, execute, report.
class BatchRun {
 public:
  BatchRun(const BatchOptions& options, std::size_t threads, const DiskArtifactStore* disk)
      : options_(options), threads_(threads), disk_(disk) {}

  BatchReport run(const std::vector<ScenarioSpec>& specs) {
    BatchReport report;
    report.threads = threads_;
    report.results.resize(specs.size());

    // Phase A: walk the cells once, interning slots and probing the disk
    // tier for each freshly interned key.  A probe maps and fully
    // validates the record here, at plan time — execution can only
    // decode, not discover corruption.
    cells_.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioSpec& spec = specs[i];
      // A lone worker may as well let each stage fan out, unless the
      // batch-wide override is set.
      const bool parallel = options_.inner_parallel.value_or(threads_ == 1);
      std::array<ArtifactKey, kStageCount> keys{};
      cells_[i].fill(kNoStage);
      for_each_stage([&](auto& state) { intern(state, spec, parallel, cells_[i], keys); });
    }

    // Whether a slot's task computes or decodes (and so which parent
    // payloads it needs) is only known once every cell is planned.
    // Wants only flow upstream, so one downstream-first pass settles them.
    for_each_stage<true>([&](auto& state) { settle(state); });

    // Phase B: one producing task per slot, created in stage order, then
    // one finalize task per cell.
    for_each_stage([&]<typename Def>(StageState<Def>& state) {
      state.tasks.resize(state.plans.size());
      for (std::size_t s = 0; s < state.plans.size(); ++s) {
        state.tasks[s] = state.plans[s].from_disk ? add_decode_task(state, s)
                                                  : add_compute_task(state, s);
      }
    });
    for (std::size_t i = 0; i < specs.size(); ++i) add_finalize_task(specs[i], i, report);

    support::Stopwatch watch;
    run_dag(tasks_, threads_);
    report.wall_seconds = watch.seconds();
    for_each_stage([&]<typename Def>(StageState<Def>& state) {
      Def::stats(report.stage_stats) = state.store.counters();
    });
    return report;
  }

 private:
  template <typename Def>
  StageState<Def>& stage() { return std::get<StageState<Def>>(stages_); }

  /// Calls `f` on every stage's state in pipeline order, or reversed.
  template <bool kReversed = false, typename F>
  void for_each_stage(F&& f) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (f(std::get<kReversed ? kStageCount - 1 - I : I>(stages_)), ...);
    }(std::make_index_sequence<kStageCount>{});
  }

  std::size_t add_task(std::function<void()> body, const std::vector<std::size_t>& parents) {
    const std::size_t index = tasks_.size();
    Task& task = tasks_.emplace_back();
    task.body = std::move(body);
    task.pending.store(parents.size(), std::memory_order_relaxed);
    for (const std::size_t parent : parents) tasks_[parent].dependents.push_back(index);
    return index;
  }

  template <typename Def>
  void intern(StageState<Def>& state, const ScenarioSpec& spec, bool parallel, CellSlots& cell,
              std::array<ArtifactKey, kStageCount>& keys) {
    if constexpr (requires { Def::applies(spec); }) {
      if (!Def::applies(spec)) return;
    }
    SlotPlan plan;
    plan.spec = &spec;
    plan.parallel = parallel;
    ArtifactKey parent_key;
    if constexpr (kHasParent<Def>) {
      plan.parent = cell[kIndex<typename Def::Parent>];
      parent_key = keys[kIndex<typename Def::Parent>];
    }
    if constexpr (kHasSource<Def>) plan.source = cell[kIndex<typename Def::Source>];
    const ArtifactKey key = stage_key<Def>(parent_key, spec);
    keys[kIndex<Def>] = key;

    bool fresh = false;
    cell[kIndex<Def>] = state.store.intern(key, options_.reuse_artifacts, fresh);
    if (!fresh) return;
    if (disk_ != nullptr) {
      if (auto record = disk_->load(static_cast<std::uint32_t>(Def::kTag), key)) {
        plan.from_disk = true;
        plan.record = std::move(*record);
      }
    }
    state.plans.push_back(std::move(plan));
  }

  /// Final disposition of each slot, downstream first: a stage that will
  /// compute wants its parent's payload; a disk-served stage whose payload
  /// is wanted wants its `Source` payload to decode onto.  A record
  /// without a payload section cannot serve a wanted payload, so such a
  /// slot (a problem under a computing solve) upgrades back to compute.
  template <typename Def>
  void settle(StageState<Def>& state) {
    for (SlotPlan& plan : state.plans) {
      if (plan.from_disk && plan.payload_wanted && !kPayloadRecord<Def>) {
        plan.from_disk = false;
        plan.record.file.reset();
      }
      if constexpr (kHasParent<Def>) {
        SlotPlan& parent = stage<typename Def::Parent>().plans[plan.parent];
        if (!plan.from_disk) parent.payload_wanted = true;
      }
      if constexpr (kHasSource<Def>) {
        if (plan.from_disk && plan.payload_wanted) {
          stage<typename Def::Source>().plans[plan.source].payload_wanted = true;
        }
      }
      if (plan.from_disk) state.store.note_disk_load();
    }
  }

  /// Runs the stage body into `slot` (checked cancellation, timed, any
  /// throw captured as the slot's error).
  template <typename Def, typename Slot, typename... Parent>
  void run_stage(Slot& slot, const SlotPlan& plan, const Parent&... parent) {
    try {
      options_.cancel.check(Def::kLabel);
      support::Stopwatch watch;
      slot.payload = Def::compute(StageInput{*plan.spec, plan.parallel, options_.cancel},
                                  parent..., slot.summary);
      slot.summary.seconds = watch.seconds();
    } catch (const std::exception& error) {
      slot.error = error.what();
    }
  }

  /// Computes the slot from its parent's payload (propagating the
  /// parent's error instead when it failed), releases the parent, and
  /// publishes the record.  Consumer refcounts are registered here, from
  /// the final dispositions — a disk-served stage holds no reference to
  /// its parent's payload.
  template <typename Def>
  std::size_t add_compute_task(StageState<Def>& state, std::size_t s) {
    SlotPlan& plan = state.plans[s];
    auto& slot = state.store.at(s);
    std::vector<std::size_t> parents;
    if constexpr (kHasParent<Def>) {
      auto& parent = stage<typename Def::Parent>();
      parent.store.add_consumer(plan.parent);
      parents.push_back(parent.tasks[plan.parent]);
    }
    return add_task(
        [this, &state, &slot, &plan] {
          if constexpr (kHasParent<Def>) {
            auto& parent = stage<typename Def::Parent>().store;
            const auto& input = parent.at(plan.parent);
            if (!input.error.empty()) {
              slot.error = input.error;
            } else {
              run_stage<Def>(slot, plan, input.payload);
            }
            parent.release(plan.parent);
          } else {
            run_stage<Def>(slot, plan);
          }
          if (disk_ == nullptr || !slot.error.empty()) return;
          std::string payload;
          if constexpr (kPayloadRecord<Def>) payload = Def::encode_payload(*slot.payload);
          if (disk_->publish(static_cast<std::uint32_t>(Def::kTag), slot.key,
                             encode_summary(slot.summary), payload)) {
            state.store.note_disk_write();
          }
        },
        parents);
  }

  /// Decodes the plan-time-validated record, materialising the payload
  /// only when a consumer wants it.
  template <typename Def>
  std::size_t add_decode_task(StageState<Def>& state, std::size_t s) {
    SlotPlan& plan = state.plans[s];
    auto& slot = state.store.at(s);
    std::vector<std::size_t> parents;
    if constexpr (kHasSource<Def>) {
      if (plan.payload_wanted) {
        // Materialising the payload needs the source's (and keeps it
        // alive for the artifact's lifetime).
        auto& source = stage<typename Def::Source>();
        source.store.add_consumer(plan.source);
        parents.push_back(source.tasks[plan.source]);
      }
    }
    return add_task(
        [this, &slot, &plan] {
          try {
            options_.cancel.check(Def::kLabel);
            slot.summary = decode_summary<typename Def::Summary>(plan.record.summary);
            if constexpr (kPayloadRecord<Def>) {
              if (plan.payload_wanted) {
                if constexpr (kHasSource<Def>) {
                  const auto& input = stage<typename Def::Source>().store.at(plan.source);
                  if (!input.error.empty()) throw Error(input.error);
                  slot.payload = Def::decode_payload(plan.record.payload, slot.summary,
                                                     input.payload);
                } else {
                  slot.payload = Def::decode_payload(plan.record.payload);
                }
              }
            }
          } catch (const std::exception& error) {
            slot.error = error.what();
          }
          plan.record.file.reset();
          if constexpr (kHasSource<Def>) {
            if (plan.payload_wanted) stage<typename Def::Source>().store.release(plan.source);
          }
        },
        parents);
  }

  template <typename Def>
  const auto& slot_of(const CellSlots& cell) { return stage<Def>().store.at(cell[kIndex<Def>]); }

  /// Assembles the report row from the stage summaries and fires
  /// on_result from the completing thread — a cell "completes" when its
  /// last stage does.  The row reads every stage slot of the cell, so it
  /// waits for every one of their tasks, not only the leaves: a workload
  /// that recomputes under disk-served problem and solve records is no
  /// other task's parent.
  void add_finalize_task(const ScenarioSpec& spec, std::size_t i, BatchReport& report) {
    const CellSlots& cell = cells_[i];
    std::vector<std::size_t> stage_tasks;
    for_each_stage([&]<typename Def>(StageState<Def>& state) {
      const std::size_t slot = cell[kIndex<Def>];
      if (slot != kNoStage) stage_tasks.push_back(state.tasks[slot]);
    });
    // Every cell's finalize releases the solve payload once, so solve
    // artifacts with no evaluation consumers (plain solve grids) still
    // evict as their cells complete instead of accumulating for the whole
    // batch.
    stage<SolveStage>().store.add_consumer(cell[kIndex<SolveStage>]);
    const auto body = [this, &spec, &cell, &result = report.results[i]] {
      finalize(spec, cell, result);
    };
    add_task(body, stage_tasks);
  }

  void finalize(const ScenarioSpec& spec, const CellSlots& cell, ScenarioResult& result) {
    result.name = spec.name.empty() ? spec.derive_name() : spec.name;
    result.hosts = spec.workload.hosts;
    result.degree = spec.workload.average_degree;
    result.services = spec.workload.services;
    result.products_per_service = spec.workload.products_per_service;
    result.solver = spec.solver;
    result.constraints = spec.constraints;
    result.seed = spec.seed;
    if (spec.attack) {
      // Axis echo like solver/constraints: spec-derived, so a failed cell
      // still lands in its (strategy, detection) aggregate group.
      result.attack_strategy = spec.attack->strategy;
      result.attack_detection = spec.attack->detection;
    }
    if (spec.metrics) result.metric_engine = spec.metrics->engine;

    // First failing stage (in pipeline order) fails the cell; every other
    // field but the axis echo is then meaningless.
    const auto& workload = slot_of<WorkloadStage>(cell);
    const auto& problem = slot_of<ProblemStage>(cell);
    const auto& solve = slot_of<SolveStage>(cell);
    if (!workload.error.empty()) {
      result.error = workload.error;
    } else if (!problem.error.empty()) {
      result.error = problem.error;
    } else if (!solve.error.empty()) {
      result.error = solve.error;
    } else {
      result.links = workload.summary.links;
      result.variables = workload.summary.variables;
      result.build_seconds = workload.summary.seconds + problem.summary.seconds;
      result.energy = solve.summary.energy;
      result.lower_bound = solve.summary.lower_bound;
      result.iterations = solve.summary.iterations;
      result.converged = solve.summary.converged;
      result.constraints_satisfied = solve.summary.constraints_satisfied;
      result.total_similarity = solve.summary.total_similarity;
      result.average_similarity = solve.summary.average_similarity;
      result.normalized_richness = solve.summary.normalized_richness;
      result.solve_seconds = solve.summary.seconds;
      if (spec.attack) {
        const auto& attack = slot_of<AttackStage>(cell);
        if (!attack.error.empty()) {
          result.error = attack.error;
        } else {
          result.attacked = true;
          result.mttc_runs = attack.summary.runs;
          result.mttc_mean = attack.summary.mean;
          result.mttc_uncensored_mean = attack.summary.uncensored_mean;
          result.mttc_censored = attack.summary.censored;
          result.attack_seconds =
              slot_of<ChannelsStage>(cell).summary.seconds + attack.summary.seconds;
        }
      }
      if (result.error.empty() && spec.metrics) {
        const auto& metric = slot_of<MetricStage>(cell);
        if (!metric.error.empty()) {
          result.error = metric.error;
        } else {
          result.metrics_evaluated = true;
          result.metric_pairs = metric.summary.pairs;
          result.d_bn_mean = metric.summary.d_bn_mean;
          result.d_bn_min = metric.summary.d_bn_min;
          result.p_with_mean = metric.summary.p_with_mean;
          result.p_without_mean = metric.summary.p_without_mean;
          result.metric_seconds = metric.summary.seconds;
        }
      }
    }
    stage<SolveStage>().store.release(cell[kIndex<SolveStage>]);
    if (options_.on_result) options_.on_result(result);
  }

  const BatchOptions& options_;
  const std::size_t threads_;
  const DiskArtifactStore* const disk_;
  std::tuple<StageState<WorkloadStage>, StageState<ProblemStage>, StageState<SolveStage>,
             StageState<ChannelsStage>, StageState<AttackStage>, StageState<MetricStage>>
      stages_;
  std::vector<CellSlots> cells_;
  std::deque<Task> tasks_;
};

}  // namespace

ArtifactKey scenario_solve_key(const ScenarioSpec& spec) {
  return stage_key<SolveStage>(
      stage_key<ProblemStage>(stage_key<WorkloadStage>({}, spec), spec), spec);
}

BatchRunner::BatchRunner(BatchOptions options) : options_(std::move(options)) {}

BatchReport BatchRunner::run(const std::vector<ScenarioSpec>& specs) const {
  require(options_.threads <= kMaxBatchThreads, "BatchRunner::run",
          "threads must be at most " + std::to_string(kMaxBatchThreads) + ", got " +
              std::to_string(options_.threads));
  const std::size_t threads = std::min(resolve_batch_threads(options_.threads),
                                       std::max<std::size_t>(1, specs.size()));
  // The optional persistent tier (DESIGN.md §13).  A manifest from a
  // different format version disables it — every probe then misses.
  std::optional<DiskArtifactStore> disk;
  if (!options_.store_dir.empty()) disk.emplace(options_.store_dir);
  return BatchRun(options_, threads, disk && disk->usable() ? &*disk : nullptr).run(specs);
}

}  // namespace icsdiv::runner
