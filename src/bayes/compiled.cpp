#include "bayes/compiled.hpp"

#include <algorithm>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::bayes {

namespace {

/// Samples per seeded chunk.  The chunk grid depends only on mc_samples,
/// never on the worker count, so every sharding draws the same streams.
constexpr std::size_t kMcChunkSamples = 8192;

/// Reusable per-worker sampling scratch (the CompiledPropagation::SimState
/// discipline — a sample boundary is a counter bump, not an O(R) clear):
/// epoch-stamped reachability marks for both nets, the model-net BFS
/// frontier, the per-vertex burst bounds into the fired-edge record, and
/// the baseline replay frontier.
struct McState {
  std::vector<std::uint32_t> mark_model;
  std::vector<std::uint32_t> mark_baseline;
  std::vector<std::uint32_t> frontier;           ///< model-reached, BFS order
  std::vector<std::uint32_t> baseline_frontier;  ///< baseline-reached
  /// Fired-edge record of the current sample: (head << 1) | fired_baseline
  /// per model-fired edge, bursts contiguous per source vertex.
  std::vector<std::uint32_t> fired;
  std::vector<std::uint32_t> burst_begin;  ///< per rank; valid for this
  std::vector<std::uint32_t> burst_end;    ///< sample's frontier vertices only
  /// One vertex's fired-edge records before they join `fired`, sized to
  /// the cone's widest out-fan.
  std::vector<std::uint32_t> records;
  std::uint32_t epoch = 0;

  McState(std::size_t ranks, std::size_t max_burst)
      : mark_model(ranks, 0),
        mark_baseline(ranks, 0),
        burst_begin(ranks, 0),
        burst_end(ranks, 0),
        records(max_burst, 0) {
    frontier.reserve(ranks);
    baseline_frontier.reserve(ranks);
    fired.reserve(ranks);
  }

  void begin_sample() {
    if (++epoch == 0) {  // u32 wrap: marks from ~4G samples ago would alias
      std::fill(mark_model.begin(), mark_model.end(), 0);
      std::fill(mark_baseline.begin(), mark_baseline.end(), 0);
      epoch = 1;
    }
    frontier.clear();
    baseline_frontier.clear();
    fired.clear();
  }
};

}  // namespace

void validate_inference_options(const InferenceOptions& options) {
  if (options.mc_samples == 0) {
    throw Infeasible(
        "InferenceOptions: mc_samples must be positive — a zero-sample "
        "Monte-Carlo estimate is meaningless");
  }
  if (options.exact_max_edges == 0) {
    throw Infeasible(
        "InferenceOptions: exact_max_edges must be positive — no reduced "
        "DAG fits a zero-edge factoring budget");
  }
}

InferenceEngine inference_engine_from_name(const std::string& name) {
  if (name == "auto") return InferenceEngine::Auto;
  if (name == "exact") return InferenceEngine::Exact;
  if (name == "montecarlo") return InferenceEngine::MonteCarlo;
  throw InvalidArgument("unknown inference engine: " + name +
                        " (known: auto, exact, montecarlo)");
}

CompiledReliability::CompiledReliability(const core::Assignment& assignment, core::HostId entry,
                                         PropagationModel model)
    : entry_(entry),
      host_count_(assignment.network().host_count()),
      model_(model),
      dag_(assignment.network().topology(), entry) {
  require(model_.p_avg >= 0.0 && model_.p_avg <= 1.0, "CompiledReliability",
          "p_avg must be in [0,1]");

  const core::SharedServices shared(assignment);
  const auto& edges = dag_.edges();
  rates_.reserve(edges.size());
  for (const graph::DagEdge& edge : edges) {
    rates_.push_back(edge_infection_rate(shared, edge.from, edge.to, model_));
  }

  baseline_threshold_ = support::acceptance_threshold(model_.p_avg);
  host_of_rank_ = dag_.topological_order();
  rank_of_.assign(host_count_, kNoRank);
  for (std::size_t r = 0; r < host_of_rank_.size(); ++r) {
    rank_of_[host_of_rank_[r]] = static_cast<std::uint32_t>(r);
  }

  // Rank-compacted CSR: out-edges packed per rank in the DAG's outgoing
  // order, so every sample draws the RNG in one fixed order.  The model
  // threshold is clamped to at least the baseline one — mathematically the
  // noisy-OR rate is ≥ P_avg already (channels only add), the clamp just
  // keeps the subset coupling immune to a last-ulp rounding dip.
  out_offsets_.assign(host_of_rank_.size() + 1, 0);
  out_to_.reserve(edges.size());
  out_threshold_.reserve(edges.size());
  for (std::size_t r = 0; r < host_of_rank_.size(); ++r) {
    for (const std::size_t edge_index : dag_.outgoing()[host_of_rank_[r]]) {
      out_to_.push_back(rank_of_[edges[edge_index].to]);
      out_threshold_.push_back(
          std::max(support::acceptance_threshold(rates_[edge_index]), baseline_threshold_));
    }
    out_offsets_[r + 1] = static_cast<std::uint32_t>(out_to_.size());
  }
}

double CompiledReliability::edge_rate(std::size_t dag_edge_index) const {
  require(dag_edge_index < rates_.size(), "CompiledReliability::edge_rate",
          "edge index out of range");
  return rates_[dag_edge_index];
}

ReliabilityProblem CompiledReliability::reliability_problem(core::HostId target,
                                                            bool baseline) const {
  require(target < host_count_, "CompiledReliability", "unknown target host");
  ReliabilityProblem problem;
  problem.node_count = host_count_;
  problem.source = entry_;
  problem.target = target;
  const auto& dag_edges = dag_.edges();
  problem.edges.reserve(dag_edges.size());
  for (std::size_t i = 0; i < dag_edges.size(); ++i) {
    problem.edges.push_back(ReliabilityEdge{dag_edges[i].from, dag_edges[i].to,
                                            baseline ? model_.p_avg : rates_[i]});
  }
  return problem;
}

void CompiledReliability::monte_carlo_fill(std::span<const core::HostId> targets,
                                           const InferenceOptions& options,
                                           ReliabilitySweep& sweep) const {
  // Ancestor-cone pruning: a vertex that cannot reach any requested target
  // cannot influence its marginal, so its edges never need a coin — the
  // exact engine's irrelevant-branch reduction, applied to sampling.  The
  // cone keeps the full-DAG rank order, so sub-ranks stay topological.
  std::vector<bool> relevant(host_of_rank_.size(), false);
  {
    std::vector<std::uint32_t> stack;
    for (const core::HostId target : targets) {
      const std::uint32_t rank = rank_of_[target];
      if (!relevant[rank]) {
        relevant[rank] = true;
        stack.push_back(rank);
      }
    }
    while (!stack.empty()) {
      const std::uint32_t rank = stack.back();
      stack.pop_back();
      for (const std::size_t edge_index : dag_.incoming()[host_of_rank_[rank]]) {
        const std::uint32_t from = rank_of_[dag_.edges()[edge_index].from];
        if (!relevant[from]) {
          relevant[from] = true;
          stack.push_back(from);
        }
      }
    }
  }

  // Single-target queries exploit the s↔t symmetry of two-terminal
  // reliability: P(entry→target) equals the probability that a *backward*
  // walk from the target reaches the entry over the same open edges.  The
  // walk then starts from the target's in-fan instead of re-examining the
  // entry's out-fan every sample — much cheaper when the entry is a hub —
  // so the cheaper orientation is picked by comparing the two fans.  The
  // choice is a deterministic function of the query, like the cone itself.
  const std::uint32_t entry_rank = 0;  // the entry tops the topological order
  bool reversed = false;
  if (targets.size() == 1) {
    const std::size_t target_in_fan = dag_.incoming()[targets[0]].size();
    std::size_t entry_out_fan = 0;
    for (std::uint32_t e = out_offsets_[entry_rank]; e < out_offsets_[entry_rank + 1]; ++e) {
      if (relevant[out_to_[e]]) ++entry_out_fan;
    }
    reversed = target_in_fan < entry_out_fan;
  }

  // Compact sub-CSR over the cone; built once per query, amortised over
  // every sample.  Rank 0 (the entry) is always relevant — each requested
  // target is reachable, so some path back to the entry survives.  The
  // walk's start vertex gets sub-rank 0: ascending rank order forward,
  // descending when reversed (the target tops its own ancestor cone).
  std::vector<std::uint32_t> sub_rank(host_of_rank_.size(), kNoRank);
  std::vector<std::uint32_t> cone_ranks;
  for (std::uint32_t r = 0; r < host_of_rank_.size(); ++r) {
    if (relevant[r]) cone_ranks.push_back(r);
  }
  if (reversed) std::reverse(cone_ranks.begin(), cone_ranks.end());
  for (std::uint32_t s = 0; s < cone_ranks.size(); ++s) sub_rank[cone_ranks[s]] = s;
  const std::size_t ranks = cone_ranks.size();
  std::vector<std::uint32_t> cone_offsets(ranks + 1, 0);
  std::vector<std::uint32_t> cone_to;
  std::vector<std::uint64_t> cone_threshold;
  for (std::size_t s = 0; s < ranks; ++s) {
    const std::uint32_t r = cone_ranks[s];
    if (reversed) {
      // In-edges of a cone vertex always originate inside the cone (an
      // ancestor of an ancestor of a target is itself one).
      for (const std::size_t edge_index : dag_.incoming()[host_of_rank_[r]]) {
        cone_to.push_back(sub_rank[rank_of_[dag_.edges()[edge_index].from]]);
        cone_threshold.push_back(
            std::max(support::acceptance_threshold(rates_[edge_index]), baseline_threshold_));
      }
    } else {
      for (std::uint32_t e = out_offsets_[r]; e < out_offsets_[r + 1]; ++e) {
        const std::uint32_t to = sub_rank[out_to_[e]];
        if (to == kNoRank) continue;
        cone_to.push_back(to);
        cone_threshold.push_back(out_threshold_[e]);
      }
    }
    cone_offsets[s + 1] = static_cast<std::uint32_t>(cone_to.size());
  }
  std::size_t max_burst = 0;
  for (std::size_t s = 0; s < ranks; ++s) {
    max_burst = std::max<std::size_t>(max_burst, cone_offsets[s + 1] - cone_offsets[s]);
  }

  std::vector<std::uint64_t> hits_model(ranks, 0);
  std::vector<std::uint64_t> hits_baseline(ranks, 0);
  const std::size_t samples = options.mc_samples;
  const std::size_t chunk_count = (samples + kMcChunkSamples - 1) / kMcChunkSamples;

  // One coupled sample, two phases.  Phase 1 explores the model net's
  // reachability cone by plain FIFO BFS — one uniform word per examined
  // edge decides *both* nets (baseline fires ⊆ model fires, since every
  // baseline threshold is ≤ its model threshold) and each model-fired
  // edge is recorded with its baseline bit.  Phase 2 replays the recorded
  // sub-graph to settle baseline reachability: drawless, and order-
  // independent, so the replay costs only the (small) fired-edge record
  // instead of a rank heap in the hot loop.
  const auto run_chunks = [&](std::size_t chunk_lo, std::size_t chunk_hi, McState& state,
                              std::uint64_t* model_hits, std::uint64_t* baseline_hits) {
    for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
      // Chunk-granular poll: 8192 samples between checks keeps the
      // overhead invisible while bounding the cancel latency.
      options.cancel.check("bayes.mc");
      support::Rng rng = support::stream_rng(options.seed, c);
      const std::size_t chunk_samples =
          std::min(kMcChunkSamples, samples - c * kMcChunkSamples);
      for (std::size_t s = 0; s < chunk_samples; ++s) {
        state.begin_sample();
        const std::uint32_t epoch = state.epoch;
        state.mark_model[0] = epoch;
        state.frontier.push_back(0);
        for (std::size_t head = 0; head < state.frontier.size(); ++head) {
          const std::uint32_t v = state.frontier[head];
          state.burst_begin[v] = static_cast<std::uint32_t>(state.fired.size());
          // The burst: one word per out-edge, drawn in cone-edge order (the
          // seed-era sequence); each model-fired edge is recorded with its
          // baseline bit.
          std::size_t fired_count = 0;
          const std::uint32_t burst_end_edge = cone_offsets[v + 1];
          for (std::uint32_t e = cone_offsets[v]; e < burst_end_edge; ++e) {
            const std::uint64_t word = rng() >> 11;
            if (word >= cone_threshold[e]) continue;
            state.records[fired_count++] =
                (cone_to[e] << 1) | (word < baseline_threshold_ ? 1u : 0u);
          }
          for (std::size_t f = 0; f < fired_count; ++f) {
            const std::uint32_t record = state.records[f];
            state.fired.push_back(record);
            const std::uint32_t to = record >> 1;
            if (state.mark_model[to] != epoch) {
              state.mark_model[to] = epoch;
              state.frontier.push_back(to);
            }
          }
          state.burst_end[v] = static_cast<std::uint32_t>(state.fired.size());
        }
        state.mark_baseline[0] = epoch;
        state.baseline_frontier.push_back(0);
        for (std::size_t head = 0; head < state.baseline_frontier.size(); ++head) {
          const std::uint32_t v = state.baseline_frontier[head];
          const std::uint32_t end = state.burst_end[v];
          for (std::uint32_t i = state.burst_begin[v]; i < end; ++i) {
            const std::uint32_t record = state.fired[i];
            const std::uint32_t to = record >> 1;
            if ((record & 1u) != 0 && state.mark_baseline[to] != epoch) {
              state.mark_baseline[to] = epoch;
              state.baseline_frontier.push_back(to);
            }
          }
        }
        for (const std::uint32_t v : state.frontier) ++model_hits[v];
        for (const std::uint32_t v : state.baseline_frontier) ++baseline_hits[v];
      }
    }
  };

  std::size_t workers = 1;
  if (options.parallel && chunk_count > 1) {
    workers =
        options.threads != 0 ? options.threads : support::global_thread_pool().size();
    workers = std::clamp<std::size_t>(workers, 1, chunk_count);
  }
  if (workers <= 1) {
    McState state(ranks, max_burst);
    run_chunks(0, chunk_count, state, hits_model.data(), hits_baseline.data());
  } else {
    // Contiguous chunk ranges per worker; integer hit counters make the
    // cross-worker sum exact, so any chunking yields identical totals.
    std::vector<std::vector<std::uint64_t>> partial_model(workers);
    std::vector<std::vector<std::uint64_t>> partial_baseline(workers);
    const std::size_t per_worker = (chunk_count + workers - 1) / workers;
    support::global_thread_pool().parallel_for(workers, [&](std::size_t w) {
      const std::size_t lo = w * per_worker;
      const std::size_t hi = std::min(chunk_count, lo + per_worker);
      if (lo >= hi) return;
      partial_model[w].assign(ranks, 0);
      partial_baseline[w].assign(ranks, 0);
      McState state(ranks, max_burst);
      run_chunks(lo, hi, state, partial_model[w].data(), partial_baseline[w].data());
    });
    for (std::size_t w = 0; w < workers; ++w) {
      if (partial_model[w].empty()) continue;
      for (std::size_t r = 0; r < ranks; ++r) {
        hits_model[r] += partial_model[w][r];
        hits_baseline[r] += partial_baseline[w][r];
      }
    }
  }

  const double inverse_samples = 1.0 / static_cast<double>(samples);
  if (reversed) {
    // The walk ran target→entry; reaching the entry is the hit.
    const std::uint32_t rank = sub_rank[entry_rank];
    sweep.p[targets[0]] = static_cast<double>(hits_model[rank]) * inverse_samples;
    sweep.p_baseline[targets[0]] = static_cast<double>(hits_baseline[rank]) * inverse_samples;
  } else {
    for (const core::HostId target : targets) {
      const std::uint32_t rank = sub_rank[rank_of_[target]];
      sweep.p[target] = static_cast<double>(hits_model[rank]) * inverse_samples;
      sweep.p_baseline[target] = static_cast<double>(hits_baseline[rank]) * inverse_samples;
    }
  }
}

double CompiledReliability::compromise_probability(core::HostId target,
                                                   const InferenceOptions& options) const {
  validate_inference_options(options);
  require(target < host_count_, "CompiledReliability", "unknown target host");
  if (target == entry_) return 1.0;
  if (!dag_.reachable(target)) return 0.0;

  if (options.engine != InferenceEngine::MonteCarlo) {
    try {
      return reliability_exact(reliability_problem(target), options.exact_max_edges);
    } catch (const Infeasible&) {
      if (options.engine == InferenceEngine::Exact) throw;
    }
  }
  ReliabilitySweep sweep;
  sweep.p.assign(host_count_, 0.0);
  sweep.p_baseline.assign(host_count_, 0.0);
  const core::HostId targets[] = {target};
  monte_carlo_fill(targets, options, sweep);
  return sweep.p[target];
}

ReliabilitySweep CompiledReliability::solve_targets(std::span<const core::HostId> targets,
                                                    const InferenceOptions& options) const {
  validate_inference_options(options);
  ReliabilitySweep sweep;
  sweep.p.assign(host_count_, 0.0);
  sweep.p_baseline.assign(host_count_, 0.0);

  std::vector<core::HostId> mc_targets;
  for (const core::HostId target : targets) {
    require(target < host_count_, "CompiledReliability", "unknown target host");
    if (target == entry_) {
      sweep.p[target] = 1.0;
      sweep.p_baseline[target] = 1.0;
      continue;
    }
    if (!dag_.reachable(target)) continue;
    if (options.engine == InferenceEngine::MonteCarlo) {
      mc_targets.push_back(target);
      continue;
    }
    try {
      const double p = reliability_exact(reliability_problem(target), options.exact_max_edges);
      const double p_baseline = reliability_exact(reliability_problem(target, /*baseline=*/true),
                                                  options.exact_max_edges);
      sweep.p[target] = p;
      sweep.p_baseline[target] = p_baseline;
    } catch (const Infeasible&) {
      if (options.engine == InferenceEngine::Exact) throw;
      mc_targets.push_back(target);  // Auto: the shared sampling pass fills it
    }
  }

  if (!mc_targets.empty()) monte_carlo_fill(mc_targets, options, sweep);
  return sweep;
}

ReliabilitySweep CompiledReliability::solve_all(const InferenceOptions& options) const {
  return solve_targets(host_of_rank_, options);
}

}  // namespace icsdiv::bayes
