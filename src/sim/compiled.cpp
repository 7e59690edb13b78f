#include "sim/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/bytes.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::sim {

using support::acceptance_threshold;

namespace {

// The host-mark bitset behind SimState::marked: one bit per host in
// 32-bit words.
[[nodiscard]] constexpr std::size_t bitset_words(std::size_t bits) noexcept {
  return (bits + 31) / 32;
}

[[nodiscard]] bool bit_test(const std::uint32_t* words, std::uint32_t bit) noexcept {
  return ((words[bit >> 5] >> (bit & 31u)) & 1u) != 0;
}

void bit_set(std::uint32_t* words, std::uint32_t bit) noexcept {
  words[bit >> 5] |= (1u << (bit & 31u));
}

}  // namespace

void SimState::begin_run(std::size_t host_count, core::HostId entry_host) {
  const std::size_t word_count = bitset_words(host_count);
  if (marked.size() != word_count) {
    marked.assign(word_count, 0);
  } else {
    std::fill(marked.begin(), marked.end(), 0);
  }
  active.clear();
  ever_infected = 0;
  entry = entry_host;
}

PropagationChannels::PropagationChannels(const core::Assignment& assignment,
                                         const bayes::PropagationModel& model)
    : model_(model) {
  require(model_.p_avg >= 0.0 && model_.p_avg <= 1.0, "PropagationChannels",
          "p_avg must be in [0,1]");

  const core::Network& network = assignment.network();
  host_count_ = network.host_count();
  const auto& edges = network.topology().edges();

  // Counting sort over the edge list: stable, so each host's links appear
  // in the order the historical per-host push_back produced (both
  // directions of an edge appended while that edge is scanned).
  offsets_.assign(host_count_ + 1, 0);
  for (const graph::Edge& link : edges) {
    ++offsets_[link.u + 1];
    ++offsets_[link.v + 1];
  }
  for (std::size_t h = 0; h < host_count_; ++h) {
    offsets_[h + 1] += offsets_[h];
    max_degree_ = std::max<std::size_t>(max_degree_, offsets_[h + 1] - offsets_[h]);
  }

  const std::size_t link_count = offsets_[host_count_];
  link_to_.resize(link_count);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const graph::Edge& link : edges) {
    link_to_[cursor[link.u]++] = link.v;
    link_to_[cursor[link.v]++] = link.u;
  }

  // Each link's uniform-pick table [p_avg, channel...] goes straight into
  // the pool in CSR link order, so a host's tables are contiguous during
  // the tick scan.  A counting walk sizes the pool exactly first.
  const core::SharedServices shared(assignment);
  const auto for_each_link = [&](auto&& visit) {
    for (core::HostId from = 0; from < host_count_; ++from) {
      for (std::uint32_t l = offsets_[from]; l < offsets_[from + 1]; ++l) visit(from, l);
    }
  };
  pick_begin_.resize(link_count + 1);
  std::uint32_t picks = 0;
  for_each_link([&](core::HostId from, std::uint32_t l) {
    pick_begin_[l] = picks++;  // pick 0: the baseline channel
    if (model_.consider_similarity) {
      shared.for_each(from, link_to_[l], [&](double, bool) { ++picks; });
    }
  });
  pick_begin_[link_count] = picks;

  pick_pool_.resize(picks);
  link_best_threshold_.resize(link_count);
  const std::uint64_t baseline = acceptance_threshold(model_.p_avg);
  for_each_link([&](core::HostId from, std::uint32_t l) {
    std::uint32_t pick = pick_begin_[l];
    pick_pool_[pick++] = baseline;
    double best = model_.p_avg;
    if (model_.consider_similarity) {
      shared.for_each(from, link_to_[l], [&](double similarity, bool) {
        const double probability = model_.similarity_weight * similarity;
        pick_pool_[pick++] = acceptance_threshold(probability);
        best = std::max(best, probability);
      });
    }
    link_best_threshold_[l] = acceptance_threshold(best);
  });
}

std::string PropagationChannels::serialize() const {
  support::ByteWriter writer;
  writer.f64(model_.p_avg);
  writer.f64(model_.similarity_weight);
  writer.boolean(model_.consider_similarity);
  writer.u64(host_count_);
  writer.u64(max_degree_);
  writer.u32_span(offsets_);
  writer.u32_span(link_to_);
  writer.u64_span(link_best_threshold_);
  writer.u32_span(pick_begin_);
  writer.u64_span(pick_pool_);
  return writer.take();
}

PropagationChannels PropagationChannels::deserialize(std::string_view data) {
  support::ByteReader reader(data);
  PropagationChannels channels;
  channels.model_.p_avg = reader.f64();
  channels.model_.similarity_weight = reader.f64();
  channels.model_.consider_similarity = reader.boolean();
  channels.host_count_ = reader.u64();
  channels.max_degree_ = reader.u64();
  channels.offsets_ = reader.u32_span<std::uint32_t>();
  channels.link_to_ = reader.u32_span<core::HostId>();
  channels.link_best_threshold_ = reader.u64_span();
  channels.pick_begin_ = reader.u32_span<std::uint32_t>();
  channels.pick_pool_ = reader.u64_span();
  require(reader.exhausted(), "PropagationChannels::deserialize", "trailing bytes");
  require(channels.offsets_.size() == channels.host_count_ + 1,
          "PropagationChannels::deserialize", "offset table size mismatch");
  require(channels.pick_begin_.size() == channels.link_to_.size() + 1,
          "PropagationChannels::deserialize", "pick table size mismatch");
  require(channels.link_best_threshold_.size() == channels.link_to_.size(),
          "PropagationChannels::deserialize", "threshold table size mismatch");
  return channels;
}

namespace {

void validate_run_params(const SimulationParams& params) {
  require(params.max_ticks > 0, "CompiledPropagation", "max_ticks must be positive");
  require(params.detection_probability >= 0.0 && params.detection_probability <= 1.0,
          "CompiledPropagation", "detection probability must be in [0,1]");
}

}  // namespace

CompiledPropagation::CompiledPropagation(const core::Assignment& assignment,
                                         SimulationParams params)
    // Fail fast on bad run params (the historical order) — the O(V+E)
    // channel compilation only starts once every knob validated.
    : CompiledPropagation((validate_run_params(params),
                           std::make_shared<const PropagationChannels>(assignment, params.model)),
                          params) {}

CompiledPropagation::CompiledPropagation(std::shared_ptr<const PropagationChannels> channels,
                                         SimulationParams params)
    : params_(params), channels_(std::move(channels)) {
  require(channels_ != nullptr, "CompiledPropagation", "channels must not be null");
  const bayes::PropagationModel& compiled = channels_->model();
  require(compiled.p_avg == params_.model.p_avg &&
              compiled.similarity_weight == params_.model.similarity_weight &&
              compiled.consider_similarity == params_.model.consider_similarity,
          "CompiledPropagation", "params.model differs from the shared channels' model");
  validate_run_params(params_);
  detection_threshold_ = acceptance_threshold(params_.detection_probability);
}

bool CompiledPropagation::tick(SimState& state, core::HostId target, support::Rng& rng,
                               bool& dead) const {
  const PropagationChannels& ch = *channels_;
  const bool sophisticated = params_.strategy == AttackerStrategy::Sophisticated;
  // With the defender off, a host whose neighbours are all marked can
  // never draw from the RNG again (susceptibility only shrinks), so the
  // scan may drop it with a bit-identical stream.  With the defender on,
  // `active` is also the detection-roll list and must stay complete.
  const bool prune = params_.detection_probability == 0.0;
  if (state.gather.size() < ch.max_degree_) state.gather.resize(ch.max_degree_);
  if (state.fresh.size() < ch.link_to_.size()) state.fresh.resize(ch.link_to_.size());
  std::uint32_t* const marks = state.marked.data();
  std::uint32_t* const gather = state.gather.data();
  core::HostId* const fresh = state.fresh.data();
  std::size_t fresh_count = 0;
  bool any_susceptible = false;
  // Synchronous update: infections land after all of this tick's attempts,
  // so iteration order cannot bias the dynamics.
  const std::size_t attacker_count = state.active.size();
  std::size_t kept = 0;
  for (std::size_t a = 0; a < attacker_count; ++a) {
    const core::HostId attacker = state.active[a];
    const std::uint32_t begin = ch.offsets_[attacker];
    const std::uint32_t end = ch.offsets_[attacker + 1];
    // Phase 1: branchless compaction of this attacker's susceptible links
    // over the mark bitset (the test is data-random mid-epidemic, so a
    // skip branch here would mispredict constantly).
    std::size_t frontier = 0;
    for (std::uint32_t l = begin; l < end; ++l) {
      gather[frontier] = l;
      frontier += bit_test(marks, ch.link_to_[l]) ? 0u : 1u;
    }
    if (frontier == 0) continue;  // saturated (this tick): no draws either way
    any_susceptible = true;
    if (prune) state.active[kept++] = attacker;
    if (sophisticated) {
      // Phase 2: one acceptance draw per gathered link in CSR link order —
      // exactly the attempts the seed-era fused loop made, in its order;
      // successes compact into `fresh` (a success is too rare to predict,
      // too common to eat the mispredict).
      for (std::size_t i = 0; i < frontier; ++i) {
        const std::uint32_t l = gather[i];
        const std::uint64_t word = rng() >> 11;
        fresh[fresh_count] = ch.link_to_[l];
        fresh_count += word < ch.link_best_threshold_[l] ? 1u : 0u;
      }
    } else {
      // Uniform attacker: a uniform choice among the feasible exploits
      // (baseline included), then its acceptance draw.  The pick is
      // rejection-sampled — how many words it consumes depends on the
      // words — so this path cannot batch without changing the stream.
      // It stays serial, branchless on the success compaction.
      for (std::size_t i = 0; i < frontier; ++i) {
        const std::uint32_t l = gather[i];
        const std::uint32_t picks = ch.pick_begin_[l];
        const std::uint64_t threshold =
            ch.pick_pool_[picks + rng.index(ch.pick_begin_[l + 1] - picks)];
        fresh[fresh_count] = ch.link_to_[l];
        fresh_count += (rng() >> 11) < threshold ? 1 : 0;
      }
    }
  }
  if (prune) state.active.resize(kept);
  bool hit_target = false;
  for (std::size_t f = 0; f < fresh_count; ++f) {
    const core::HostId host = fresh[f];
    if (!bit_test(marks, host)) {
      bit_set(marks, host);
      state.active.push_back(host);
      ++state.ever_infected;
      hit_target = hit_target || host == target;
    }
  }
  // Defender pass: detected hosts are remediated and become immune.  The
  // entry foothold is assumed to persist (the attacker controls it through
  // an out-of-band channel).  Remediated hosts stay marked — they are no
  // longer infectious, but not susceptible either.
  if (params_.detection_probability > 0.0) {
    std::erase_if(state.active, [&](core::HostId host) {
      return host != state.entry && (rng() >> 11) < detection_threshold_;
    });
  }
  // No susceptible neighbour anywhere ⇒ nothing can ever change again
  // (remediation only shrinks the susceptible set).
  dead = !any_susceptible;
  return hit_target;
}

void CompiledPropagation::start_run(SimState& state, core::HostId entry) const {
  state.begin_run(host_count(), entry);
  bit_set(state.marked.data(), entry);
  state.active.push_back(entry);
  state.ever_infected = 1;
}

RunResult CompiledPropagation::run_once(core::HostId entry, core::HostId target,
                                        support::Rng& rng, SimState& state) const {
  require(entry < host_count() && target < host_count(), "CompiledPropagation::run_once",
          "unknown entry/target host");
  start_run(state, entry);

  RunResult result;
  if (entry == target) {
    result.target_reached = true;
    result.infected_count = 1;
    return result;
  }
  for (std::size_t t = 1; t <= params_.max_ticks; ++t) {
    bool dead = false;
    if (tick(state, target, rng, dead)) {
      result.target_reached = true;
      result.ticks = t;
      result.infected_count = state.ever_infected;
      return result;
    }
    if (dead) {
      result.extinct = true;
      break;
    }
  }
  // Censored: the horizon is reported whether the run spun there or the
  // worm died out early (identical MTTC accounting either way).
  result.ticks = params_.max_ticks;
  result.infected_count = state.ever_infected;
  return result;
}

std::vector<std::size_t> CompiledPropagation::epidemic_curve(core::HostId entry,
                                                             std::size_t ticks,
                                                             support::Rng& rng,
                                                             SimState& state) const {
  require(entry < host_count(), "CompiledPropagation::epidemic_curve", "unknown entry host");
  start_run(state, entry);

  std::vector<std::size_t> curve;
  curve.reserve(ticks + 1);
  curve.push_back(state.ever_infected);
  constexpr core::HostId kNoTarget = static_cast<core::HostId>(-1);
  // No dead-state exit here: the curve has a fixed length, and ticking on
  // keeps the caller-visible RNG stream identical to the seed-era code
  // (a dead tick draws nothing).
  for (std::size_t t = 0; t < ticks; ++t) {
    bool dead = false;
    tick(state, kNoTarget, rng, dead);
    curve.push_back(state.ever_infected);
  }
  return curve;
}

MttcResult CompiledPropagation::mttc(core::HostId entry, core::HostId target, std::size_t runs,
                                     std::uint64_t seed, bool parallel,
                                     std::size_t threads) const {
  require(runs > 0, "CompiledPropagation::mttc", "need at least one run");

  std::vector<double> ticks(runs, 0.0);
  std::vector<std::uint8_t> censored(runs, 0);
  const auto run_range = [&](std::size_t lo, std::size_t hi, SimState& state) {
    for (std::size_t r = lo; r < hi; ++r) {
      // Per-run streams mean a cancel between runs never perturbs the
      // draws of runs that did complete (determinism under cancellation).
      params_.cancel.check("sim.mttc");
      // Independent deterministic stream per run — the historical formula,
      // so every chunking (and the sequential path) is bit-identical.
      support::Rng rng = support::stream_rng(seed, r);
      const RunResult result = run_once(entry, target, rng, state);
      ticks[r] = static_cast<double>(result.ticks);
      censored[r] = result.target_reached ? 0 : 1;
    }
  };

  std::size_t workers = 1;
  if (parallel && runs > 1) {
    workers = threads != 0 ? threads : support::global_thread_pool().size();
    workers = std::clamp<std::size_t>(workers, 1, runs);
  }
  if (workers <= 1) {
    SimState state;
    run_range(0, runs, state);
  } else {
    const std::size_t chunk = (runs + workers - 1) / workers;
    support::global_thread_pool().parallel_for(workers, [&](std::size_t w) {
      const std::size_t lo = w * chunk;
      const std::size_t hi = std::min(runs, lo + chunk);
      if (lo >= hi) return;
      SimState state;  // one scratch per chunk, reused across its runs
      run_range(lo, hi, state);
    });
  }

  MttcResult result;
  result.runs = runs;
  double sum = 0.0;
  double uncensored_sum = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sum += ticks[r];
    result.censored += censored[r];
    if (!censored[r]) uncensored_sum += ticks[r];
  }
  result.mean = sum / static_cast<double>(runs);
  const std::size_t reached = runs - result.censored;
  result.uncensored_mean = reached > 0 ? uncensored_sum / static_cast<double>(reached)
                                       : std::numeric_limits<double>::quiet_NaN();
  double sum_squared_error = 0.0;
  for (double t : ticks) sum_squared_error += (t - result.mean) * (t - result.mean);
  if (runs > 1) {
    result.std_dev = std::sqrt(sum_squared_error / static_cast<double>(runs - 1));
    result.ci95_half_width = 1.96 * result.std_dev / std::sqrt(static_cast<double>(runs));
  }
  return result;
}

}  // namespace icsdiv::sim
