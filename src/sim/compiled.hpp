// Agent-based worm propagation simulator — the NetLogo substitute (§VII-C2).
//
// Discrete-tick SI dynamics on the diversified network: every tick, each
// infected host attacks each of its uninfected neighbours once.  The
// attacker picks which exploit to fire across the link:
//
//  * Sophisticated (the paper's default): reconnaissance first — always
//    the channel with the highest success probability.
//  * Uniform: "when multiple exploits are feasible, attackers evenly
//    choose one to use" (the paper's BN assumption).
//
// Channels and probabilities come from bayes::PropagationModel; the
// simulator's default similarity weight is per-*attempt* (an exploit that
// targets a shared vulnerability usually works) while the baseline channel
// stays the slow generic fallback, so mono-cultures fall in a few ticks
// and diversified deployments hold out an order of magnitude longer —
// Table VI's contrast.  Mean-Time-To-Compromise (MTTC) aggregates ticks
// until the target falls over many runs (the paper uses 1 000).
//
// CompiledPropagation is the flat simulation substrate that runs these
// dynamics, mirroring mrf::CompiledMrf one pillar over.  The seed-era
// simulator kept a `vector<vector<DirectedLink>>` whose per-link records
// each embedded their own `vector<double>` of channel probabilities —
// three pointer hops per attack attempt — and every Monte-Carlo run
// allocated two `vector<bool>(host_count)` marks plus the active list from
// scratch.  The compiled layout resolves all of it once per
// (assignment, params):
//
//   * CSR adjacency — `offsets_[host_count+1]` into packed per-link
//     arrays, filled by a stable counting sort over the topology's edge
//     list so per-host link order matches the historical push_back order
//     exactly (both traversal directions of an edge are appended as the
//     edge is scanned).  Attack attempts therefore draw from the RNG in
//     the seed-era order and every run stays bit-identical.  The arrays
//     are struct-of-arrays: the Sophisticated scan touches only
//     `link_to_` + `link_best_threshold_`, keeping the hot loop dense.
//   * Integer acceptance thresholds — every per-attempt probability p is
//     precompiled to ceil(p·2^53), so a Bernoulli draw is one integer
//     compare `(rng() >> 11) < threshold`.  This is *exactly*
//     `Rng::uniform() < p`: uniform() is (x>>11)·2⁻⁵³ and scaling a
//     double by 2⁵³ is exact, so the threshold form accepts precisely the
//     same raw words from the same single RNG step.
//   * Flat channel-threshold pool — each link's uniform-pick table is a
//     contiguous `pick_pool_` slice `[p_avg, channel...]` in CSR link
//     order (`pick_begin_` holds the E+1 prefix offsets), so the Uniform
//     attacker's draw is one indexed load with no branch on the
//     baseline-vs-channel split.  The channels come from one
//     core::SharedServices table per build and are written straight in
//     CSR order, the pool sized exactly by a counting walk first.
//   * Per-link best table — the Sophisticated attacker's
//     `max(p_avg, channels...)` is precomputed per directed link.
//
// The tick scan is two phases per attacker: a branchless gather of the
// susceptible link indices over the host-mark bitset (the susceptibility
// test is data-random and would otherwise mispredict on every other
// neighbour), then the RNG draws over the gathered frontier in CSR order
// with a branchless success compaction.  Marks only change after all
// attackers scanned (synchronous update), so gather-then-draw sees
// exactly the state the seed-era fused loop saw and consumes the RNG
// identically.
//
// Per-run state lives in a reusable SimState: one mark *bit* per host
// (a run boundary is a word-parallel clear of host_count/32 words —
// 12.5 KB at 100k hosts, L1-resident during the scan).  A single mark
// covers both "infected" and "remediated" — every reader only ever asks
// "still susceptible?", which both states answer the same way.  `mttc()`
// is an allocation-free chunked parallel loop over the historical
// per-run splitmix64 streams.
//
// Two exits spare the seed-era busy-spin to `max_ticks`:
//
//   * Saturation pruning (defender off only): a host whose neighbours are
//     all non-susceptible can never contribute an RNG draw again —
//     susceptibility only shrinks — so it is dropped from the active scan
//     with zero effect on the draw sequence.  With a defender the active
//     list doubles as the detection-roll list, so it is left intact.
//   * Dead-state detection: a tick in which no active host saw a
//     susceptible neighbour ends the run (`RunResult::extinct`) — a
//     walled-off or fully-remediated worm terminates immediately.
//     Censoring fields are unchanged (`ticks` still reports the horizon).
//
// The adjacency and threshold pools depend only on (assignment, model) —
// not on the attacker strategy, the detection probability or the horizon —
// so they live in their own immutable `PropagationChannels` object that
// any number of `CompiledPropagation` instances (and threads) share via
// `shared_ptr`.  A strategy/detection sweep over one solved assignment
// pays the channel-table build once (the batch engine's attack stage
// plans exactly that sharing).
//
// Thread safety: `PropagationChannels` and `CompiledPropagation` are
// immutable after construction; every const member function is safe to
// call concurrently from any number of threads, provided each caller uses
// its own `SimState` and `Rng` (the only mutable state, always
// caller-supplied).  `mttc()` relies on this internally when it shards
// runs across the global pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bayes/propagation.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace icsdiv::sim {

enum class AttackerStrategy { Sophisticated, Uniform };

struct SimulationParams {
  bayes::PropagationModel model{/*p_avg=*/0.04, /*similarity_weight=*/0.30,
                                /*consider_similarity=*/true};
  AttackerStrategy strategy = AttackerStrategy::Sophisticated;
  /// Censoring horizon per run.
  std::size_t max_ticks = 100'000;
  /// Defender model (§IX's defensive-evaluation extension): each infected
  /// host other than the attacker's entry foothold is detected per tick
  /// with this probability and remediated — cleaned, patched and immune
  /// for the rest of the run.  0 disables the defender (the paper's
  /// setting).  With an active defender the worm can be eradicated before
  /// reaching the target, so MTTC runs may censor at `max_ticks`.
  double detection_probability = 0.0;
  /// Cooperative cancellation, polled between Monte-Carlo runs in mttc().
  /// There is no meaningful partial MTTC estimate, so expiry throws
  /// (DeadlineExceededError / CancelledError) instead of truncating.
  /// Excluded from artifact keys: it never affects results.
  support::CancelToken cancel;
};

struct RunResult {
  bool target_reached = false;
  /// Propagation died out before the horizon: no active host had a
  /// susceptible neighbour left, so no further infection was possible.
  bool extinct = false;
  std::size_t ticks = 0;  ///< tick at which the target fell (or horizon)
  /// Hosts ever infected during the run (the entry included).  Counts a
  /// host even after the defender remediates it — remediation undoes the
  /// infection, not the compromise that happened.
  std::size_t infected_count = 0;
};

struct MttcResult {
  double mean = 0.0;  ///< over all runs, censored runs counted at max_ticks
  /// Mean over the target-reaching runs only — the censoring-bias-free
  /// companion of `mean` (which clamps censored runs to the horizon and
  /// so underestimates the true MTTC).  NaN when every run censored.
  double uncensored_mean = 0.0;
  double std_dev = 0.0;
  double ci95_half_width = 0.0;
  std::size_t runs = 0;
  std::size_t censored = 0;  ///< runs that hit max_ticks without compromise
};

/// Reusable per-thread scratch for simulation runs.  First use sizes the
/// buffers; every following run is a word-parallel bitset clear plus list
/// clears.
struct SimState {
  /// Host-mark bitset (32-bit words): bit set ⇔ the host was infected
  /// this run (and possibly remediated since) — i.e. no longer
  /// susceptible.  One bit per host instead of the earlier epoch-stamped
  /// u32: a 100k-host network's marks fit in 12.5 KB (L1-resident for the
  /// tick scan).
  std::vector<std::uint32_t> marked;
  std::vector<core::HostId> active;
  /// Scratch for this tick's new infections (sized to the link count; the
  /// logical length lives inside the tick).
  std::vector<core::HostId> fresh;
  std::vector<std::uint32_t> gather;  ///< scratch: one attacker's frontier links
  std::size_t ever_infected = 0;
  core::HostId entry = 0;

  /// Starts a run: clears the mark bitset (word-parallel — at one bit per
  /// host this is cheaper than the old epoch bookkeeping ever was) and
  /// resets the lists.
  void begin_run(std::size_t host_count, core::HostId entry_host);
};

/// The strategy-independent half of a compiled propagation: CSR adjacency
/// plus the per-link channel threshold pools, a pure function of
/// (assignment, PropagationModel).  Immutable after construction and
/// therefore freely shareable across CompiledPropagation instances and
/// threads — cells of a {strategy × detection} sweep reuse one build.
class PropagationChannels {
 public:
  /// Compiles the tables for `assignment` under `model`; the assignment is
  /// only read during construction (a temporary is fine).
  PropagationChannels(const core::Assignment& assignment, const bayes::PropagationModel& model);

  [[nodiscard]] const bayes::PropagationModel& model() const noexcept { return model_; }
  [[nodiscard]] std::size_t host_count() const noexcept { return host_count_; }
  [[nodiscard]] std::size_t link_count() const noexcept { return link_to_.size(); }

  /// Flat relocatable encoding of the compiled tables (support::ByteWriter
  /// format) — the payload the on-disk artifact store persists for the
  /// channels stage.  deserialize() round-trips bit-identically.
  [[nodiscard]] std::string serialize() const;

  /// Rebuilds a channel table from serialize() output.  Throws
  /// InvalidArgument on malformed input (the store checksums records
  /// before decoding, so this indicates a format bug).
  [[nodiscard]] static PropagationChannels deserialize(std::string_view data);

 private:
  friend class CompiledPropagation;

  PropagationChannels() = default;  ///< deserialize() fills the fields

  bayes::PropagationModel model_;
  std::size_t host_count_ = 0;
  std::size_t max_degree_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< host_count+1 CSR offsets
  std::vector<core::HostId> link_to_;   ///< per directed link
  /// ceil(max(p_avg, channels)·2^53) per link — Sophisticated's draw.
  std::vector<std::uint64_t> link_best_threshold_;
  std::vector<std::uint32_t> pick_begin_;  ///< E+1 offsets into pick_pool_
  /// Per link [p_avg, channel...] as acceptance thresholds.
  std::vector<std::uint64_t> pick_pool_;
};

class CompiledPropagation {
 public:
  /// Precomputes the CSR adjacency and per-link channel tables for
  /// `assignment`; the assignment is only read during construction.
  CompiledPropagation(const core::Assignment& assignment, SimulationParams params);

  /// Shares an existing channel build: `params.model` must equal the model
  /// the channels were compiled for (throws InvalidArgument otherwise).
  /// Strategy, detection probability and the horizon are free to differ —
  /// they are resolved per instance, not per channel table.
  CompiledPropagation(std::shared_ptr<const PropagationChannels> channels,
                      SimulationParams params);

  [[nodiscard]] const SimulationParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t host_count() const noexcept { return channels_->host_count(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return channels_->link_count(); }
  [[nodiscard]] const std::shared_ptr<const PropagationChannels>& channels() const noexcept {
    return channels_;
  }

  /// One simulation run; deterministic given `rng`'s state.  `state` is
  /// caller-provided scratch, reusable across runs and simulators.
  RunResult run_once(core::HostId entry, core::HostId target, support::Rng& rng,
                     SimState& state) const;

  /// Cumulative infected-host counts per tick for one run (tick 0 = the
  /// entry foothold), `ticks + 1` entries.
  [[nodiscard]] std::vector<std::size_t> epidemic_curve(core::HostId entry, std::size_t ticks,
                                                        support::Rng& rng,
                                                        SimState& state) const;

  /// MTTC over `runs` independent runs.  When `parallel`, the runs are
  /// split into `threads` contiguous chunks (0 = the global pool's width)
  /// with one SimState per chunk; per-run seeded streams make the result
  /// bit-identical for every chunking, including the sequential path.
  [[nodiscard]] MttcResult mttc(core::HostId entry, core::HostId target, std::size_t runs,
                                std::uint64_t seed, bool parallel = true,
                                std::size_t threads = 0) const;

 private:
  /// Starts a run on this substrate: epoch bump, entry marked and active.
  void start_run(SimState& state, core::HostId entry) const;

  /// Advances one tick; returns true when the target was infected.  Sets
  /// `dead` when no active host saw a susceptible neighbour this tick.
  bool tick(SimState& state, core::HostId target, support::Rng& rng, bool& dead) const;

  SimulationParams params_;
  std::shared_ptr<const PropagationChannels> channels_;
  std::uint64_t detection_threshold_ = 0;
};

}  // namespace icsdiv::sim
