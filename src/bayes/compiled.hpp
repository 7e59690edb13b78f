// CompiledReliability: the §VI attack Bayesian network as a flat
// substrate, behind the d_bn diversity metric, mirroring mrf::CompiledMrf
// and sim::CompiledPropagation one pillar over.
//
// Given a diversified network and an entry host, the undirected topology
// is unrolled into a BFS-layered attack DAG (attack steps move away from
// the entry; see graph/layered_dag.hpp) whose edges carry the infection
// rates of the propagation model.  The probability of any host being
// compromised is then a two-terminal reliability query on that DAG.
//
// The seed-era path rebuilt the layered attack DAG per (entry, target)
// query, `bn_diversity_metric` constructed *two* full BNs per evaluation
// (with-similarity and flat-baseline rates), and the Monte-Carlo engine ran
// 400k single-threaded BFS trials per target.  The compiled layout resolves
// an (assignment, entry, model) triple once:
//
//   * Flat CSR attack DAG — vertices renumbered by topological rank
//     (LayeredDag's (depth, id) order), out-edges packed per rank in the
//     DAG's deterministic edge order.  Every DAG edge goes strictly
//     rank-upward, which is what makes the coupled sampler below correct.
//   * Dual per-edge rate pool — the model's noisy-OR rates *and* the flat
//     P_avg baseline (Def. 6's P' net) resolved in one build, so d_bn
//     needs one compile instead of two BN constructions.  Probabilities
//     are precompiled to integer acceptance thresholds (ceil(p·2^53), the
//     CompiledPropagation discipline): a Bernoulli draw is one integer
//     compare against a raw generator word.
//   * Multi-target inference — one pass answers *all* targets.  Exact
//     factoring runs per target on the reduced DAG when small; otherwise
//     one Monte-Carlo pass samples the requested targets' ancestor cone
//     (irrelevant branches are pruned exactly as the factoring reducer
//     prunes them): because every baseline rate P_avg is ≤ its model rate
//     (noisy-OR only adds channels), one uniform word per examined edge
//     decides both nets, and the baseline-reached set is a subset of the
//     model-reached set — so a single BFS sweep yields P and P' for every
//     host simultaneously (common random numbers; each marginal estimator
//     stays unbiased).  Each sample records its model-fired edges with
//     their baseline bits and settles baseline reachability in a drawless
//     replay over that (small) record, keeping the RNG hot loop a plain
//     FIFO scan.
//   * Sharded sampling — samples split into fixed-size chunks, each chunk
//     seeded via support::stream_rng (the PR-3 per-run discipline); chunk
//     hit counters are integers, so the estimate is bit-identical at any
//     support::ThreadPool width, the sequential path included.
//
// Callers construct it directly for single queries and multi-target
// sweeps; bn_diversity_metric (metric.hpp) is the one-pair Def. 6
// convenience over it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bayes/propagation.hpp"
#include "bayes/reliability.hpp"
#include "graph/layered_dag.hpp"
#include "support/cancel.hpp"

namespace icsdiv::bayes {

enum class InferenceEngine {
  Auto,        ///< exact when the reduced DAG is small enough, else MC
  Exact,       ///< factoring; throws Infeasible on oversized problems
  MonteCarlo,  ///< sampling
};

struct InferenceOptions {
  InferenceEngine engine = InferenceEngine::Auto;
  std::size_t exact_max_edges = 40;
  std::size_t mc_samples = 400'000;
  std::uint64_t seed = 99;
  /// Shard the Monte-Carlo pass across the global thread pool (`threads`
  /// caps the worker count; 0 = pool width).  Per-chunk seeded streams
  /// make the estimate bit-identical for every setting, the sequential
  /// path included.
  bool parallel = true;
  std::size_t threads = 0;
  /// Cooperative cancellation, polled between Monte-Carlo sample chunks.
  /// A partial estimate has no principled error bars, so expiry throws
  /// (DeadlineExceededError / CancelledError).  Never affects results and
  /// is excluded from artifact keys.
  support::CancelToken cancel;
};

/// Boundary validation: an options block that cannot produce a meaningful
/// estimate (zero samples, a zero exact-edge budget) is rejected with
/// Infeasible before any inference runs — not silently degraded.
void validate_inference_options(const InferenceOptions& options);

/// "auto" / "exact" / "montecarlo" (the scenario-grid spellings).
[[nodiscard]] InferenceEngine inference_engine_from_name(const std::string& name);

/// One multi-target inference pass: per-host compromise probabilities
/// under the model's rates (P) and under the flat P_avg baseline (P', the
/// Def. 6 numerator).  Hosts that were not requested — or are unreachable
/// from the entry — hold 0; the entry holds 1 in both.
struct ReliabilitySweep {
  std::vector<double> p;
  std::vector<double> p_baseline;
};

/// Thread safety: a CompiledReliability is immutable after construction —
/// every const member function (solve_targets included: its samplers use
/// per-chunk state seeded from the options) may be called concurrently
/// from any number of threads.  The batch engine relies on this when a
/// metric evaluation is shared across cells.
class CompiledReliability {
 public:
  /// Builds the layered DAG from `entry` and resolves both rate pools.
  /// The assignment is only read during construction (a temporary is
  /// fine); the underlying Network must outlive the substrate.
  CompiledReliability(const core::Assignment& assignment, core::HostId entry,
                      PropagationModel model = {});

  [[nodiscard]] const graph::LayeredDag& dag() const noexcept { return dag_; }
  [[nodiscard]] const PropagationModel& model() const noexcept { return model_; }
  [[nodiscard]] core::HostId entry() const noexcept { return entry_; }
  [[nodiscard]] std::size_t host_count() const noexcept { return host_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return rates_.size(); }
  [[nodiscard]] bool reachable(core::HostId host) const { return dag_.reachable(host); }

  /// Infection rate of the k-th DAG edge under the model.
  [[nodiscard]] double edge_rate(std::size_t dag_edge_index) const;
  /// The flat baseline rate P_avg shared by every edge of the P' net.
  [[nodiscard]] double baseline_rate() const noexcept { return model_.p_avg; }

  /// P(target compromised | entry compromised) under the model's rates.
  [[nodiscard]] double compromise_probability(core::HostId target,
                                              const InferenceOptions& options = {}) const;

  /// Both nets for the selected targets: exact per target when the reduced
  /// DAG fits `exact_max_edges`, otherwise (or on engine::MonteCarlo) one
  /// shared sampling pass fills every Monte-Carlo target.  A target's P
  /// and P' always come from the same engine, so their ratio (d_bn) never
  /// mixes an exact numerator with a sampled denominator.  The sampling
  /// pass prunes the DAG to the targets' ancestor cone (the exact engine's
  /// irrelevant-branch reduction, applied to sampling), so a Monte-Carlo
  /// estimate is a deterministic function of (seed, requested target set):
  /// querying a target alongside different companions realigns the stream
  /// within the statistical error band.
  [[nodiscard]] ReliabilitySweep solve_targets(std::span<const core::HostId> targets,
                                               const InferenceOptions& options = {}) const;

  /// Every reachable host in one pass (the scenario grid's unit).
  [[nodiscard]] ReliabilitySweep solve_all(const InferenceOptions& options = {}) const;

  /// The two-terminal reliability problem for a target (exposed for the
  /// exact engine, tests and benches); `baseline` selects the P' rates.
  [[nodiscard]] ReliabilityProblem reliability_problem(core::HostId target,
                                                       bool baseline = false) const;

 private:
  /// Runs the sharded coupled sampling pass over the targets' ancestor
  /// cone and writes both estimates for every requested target into
  /// `sweep` (all targets must be reachable and distinct from the entry).
  void monte_carlo_fill(std::span<const core::HostId> targets, const InferenceOptions& options,
                        ReliabilitySweep& sweep) const;

  core::HostId entry_;
  std::size_t host_count_ = 0;
  PropagationModel model_;
  graph::LayeredDag dag_;
  std::vector<double> rates_;  ///< aligned with dag_.edges()

  // Rank-compacted CSR over the reachable cone (sampling layout).
  static constexpr std::uint32_t kNoRank = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> rank_of_;       ///< host → rank (kNoRank if unreachable)
  std::vector<core::HostId> host_of_rank_;   ///< = dag_.topological_order()
  std::vector<std::uint32_t> out_offsets_;   ///< rank_count+1
  std::vector<std::uint32_t> out_to_;        ///< per CSR edge, head rank
  std::vector<std::uint64_t> out_threshold_; ///< ceil(rate·2^53) per CSR edge
  std::uint64_t baseline_threshold_ = 0;     ///< ceil(P_avg·2^53), every edge
};

}  // namespace icsdiv::bayes
