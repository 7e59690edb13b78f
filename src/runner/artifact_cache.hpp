// Content-addressed artifact keys and the refcounted per-stage store
// behind BatchRunner::run (the staged engine in scenario_engine.cpp).
//
// Every stage of the staged pipeline (workload → problem → solve →
// channels → attack, and solve → metric) keys its output by a 128-bit
// content hash of exactly the spec fields the stage's computation depends
// on, chained onto the parent stage's key.  Two cells whose specs agree
// on those fields therefore share one execution — the planner
// deduplicates by key, the scheduler runs each unique stage task once,
// and the store hands the immutable result to every consumer.
//
// Eviction is planned, not heuristic: the planner counts how many
// downstream stage tasks consume each artifact's payload, and the last
// consumer to finish releases it (`ArtifactStore::release`).  A large
// grid therefore holds at most the artifacts its in-flight frontier
// needs, not one workload/problem/solve per cell.  Small per-stage
// summaries (report scalars) survive eviction — only the heavy payload
// (network, MRF, assignment, channel pools) is dropped.
//
// `StageCounters`/`StageStats` surface the per-stage execution/hit/evict
// counts in `BatchReport::to_json()` ("stage_stats") and the CLI.  All
// counts are deterministic functions of (specs, BatchOptions::reuse_artifacts):
// planned/executed/hits come from the single-threaded planning pass, and
// the evicted total is order-independent (each consumer releases exactly
// once, and whether a payload exists at refcount zero depends only on
// whether its producer failed — itself deterministic).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/json.hpp"

namespace icsdiv::runner {

/// 128-bit content hash identifying one stage artifact.
struct ArtifactKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ArtifactKey&, const ArtifactKey&) = default;

  struct Hash {
    [[nodiscard]] std::size_t operator()(const ArtifactKey& key) const noexcept {
      return static_cast<std::size_t>(key.lo ^ (key.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
};

/// Incremental field hasher: feed the exact fields a stage depends on (in
/// a fixed order) and take the resulting key.  Two independent splitmix64
/// lanes with distinct seeds give 128 bits — collisions across a grid's
/// handful of distinct specs are not a practical concern, and a collision
/// could only ever merge two cells that also collide in every mixed
/// field's hash, never corrupt a report silently in a detectable way.
class KeyHasher {
 public:
  /// Integers (bool included) widen to one 64-bit word.
  template <std::integral T>
  KeyHasher& mix(T value) noexcept {
    const auto word = static_cast<std::uint64_t>(value);
    hi_ = step(hi_ ^ word);
    lo_ = step(lo_ ^ (word * 0xff51afd7ed558ccdULL));
    return *this;
  }
  KeyHasher& mix(double value) noexcept {
    // Bit pattern; +0.0 and -0.0 normalise to one key (they compare equal
    // everywhere downstream, so they must share an artifact).
    if (value == 0.0) value = 0.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return mix(bits);
  }
  KeyHasher& mix(const std::string& value) noexcept {
    mix(static_cast<std::uint64_t>(value.size()));
    std::size_t offset = 0;
    for (; offset + 8 <= value.size(); offset += 8) {
      std::uint64_t chunk = 0;
      std::memcpy(&chunk, value.data() + offset, 8);
      mix(chunk);
    }
    std::uint64_t tail = 0;
    if (offset < value.size()) {
      std::memcpy(&tail, value.data() + offset, value.size() - offset);
      mix(tail);
    }
    return *this;
  }
  template <typename T>
  KeyHasher& mix_range(const std::vector<T>& values) noexcept {
    mix(static_cast<std::uint64_t>(values.size()));
    for (const T& value : values) mix(value);
    return *this;
  }

  [[nodiscard]] ArtifactKey key() const noexcept { return {hi_, lo_}; }

 private:
  [[nodiscard]] static std::uint64_t step(std::uint64_t x) noexcept {
    // splitmix64 finaliser.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t hi_ = 0x243f6a8885a308d3ULL;  // pi digits: arbitrary, fixed
  std::uint64_t lo_ = 0x13198a2e03707344ULL;
};

/// Per-stage cache counters (all deterministic, see the header comment).
struct StageCounters {
  std::size_t planned = 0;   ///< references in the plan (executed + hits + disk_hits)
  std::size_t executed = 0;  ///< unique stage tasks run
  std::size_t hits = 0;      ///< references served by an already-planned task
  std::size_t evicted = 0;   ///< payloads released after their last planned consumer
  std::size_t disk_hits = 0;    ///< unique tasks served from the on-disk store
  std::size_t disk_writes = 0;  ///< records published to the on-disk store

  /// Adds every counter of `other` (api::Session folds batch reports).
  StageCounters& operator+=(const StageCounters& other);
  [[nodiscard]] support::Json to_json() const;
  /// Inverse of to_json(); throws on a missing or mistyped field.
  [[nodiscard]] static StageCounters from_json(const support::Json& json);
};

/// One counter block per pipeline stage ("channels" is the attack stage's
/// shared similarity-channel-pool build, see sim::PropagationChannels).
struct StageStats {
  StageCounters workload;
  StageCounters problem;
  StageCounters solve;
  StageCounters channels;
  StageCounters attack;
  StageCounters metric;

  StageStats& operator+=(const StageStats& other);
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static StageStats from_json(const support::Json& json);
};

/// The per-stage artifact store: planning interns keys into slots
/// (single-threaded), execution fills each slot exactly once and releases
/// payload references concurrently.  `Payload` is the heavy shared object
/// (evicted by refcount); `Summary` is the small scalar block that
/// outlives it for report assembly.
template <typename Payload, typename Summary>
class ArtifactStore {
 public:
  struct Slot {
    ArtifactKey key;
    std::shared_ptr<const Payload> payload;
    Summary summary{};
    /// Non-empty when the producing stage (or an ancestor) failed; the
    /// payload is then null and every consumer propagates the message.
    std::string error;
    std::atomic<std::size_t> consumers{0};
  };

  /// Planning: returns the slot for `key`, creating it on first sight.
  /// `reuse` off forces a fresh slot per call (the uncached reference
  /// path).  `fresh` reports whether a new stage task must be planned.
  std::size_t intern(const ArtifactKey& key, bool reuse, bool& fresh) {
    ++counters_.planned;
    if (reuse) {
      if (const auto it = index_.find(key); it != index_.end()) {
        ++counters_.hits;
        fresh = false;
        return it->second;
      }
    }
    const std::size_t slot = slots_.size();
    slots_.emplace_back().key = key;
    if (reuse) index_.emplace(key, slot);
    ++counters_.executed;
    fresh = true;
    return slot;
  }

  /// Planning: one more downstream task will read `slot`'s payload (and
  /// must call release() exactly once when done).
  void add_consumer(std::size_t slot) noexcept {
    slots_[slot].consumers.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] Slot& at(std::size_t slot) noexcept { return slots_[slot]; }
  [[nodiscard]] const Slot& at(std::size_t slot) const noexcept { return slots_[slot]; }

  /// Execution: a consumer is done with `slot`'s payload; the last one
  /// evicts it.  Safe from any thread.
  void release(std::size_t slot) noexcept {
    Slot& s = slots_[slot];
    if (s.consumers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (s.payload) {
        s.payload.reset();
        evicted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Planning: a freshly interned task will be served from the on-disk
  /// store instead of executing — reclassifies it executed → disk_hit.
  void note_disk_load() noexcept {
    --counters_.executed;
    ++counters_.disk_hits;
  }

  /// Execution: a stage task's record was published to the on-disk store.
  /// Safe from any thread.
  void note_disk_write() noexcept { disk_writes_.fetch_add(1, std::memory_order_relaxed); }

  /// Post-run counter snapshot (folds the concurrent tallies in).
  [[nodiscard]] StageCounters counters() const noexcept {
    StageCounters counters = counters_;
    counters.evicted = evicted_.load(std::memory_order_relaxed);
    counters.disk_writes = disk_writes_.load(std::memory_order_relaxed);
    return counters;
  }

 private:
  std::deque<Slot> slots_;  ///< deque: slots are pinned (atomics don't move)
  std::unordered_map<ArtifactKey, std::size_t, ArtifactKey::Hash> index_;
  StageCounters counters_;
  std::atomic<std::size_t> evicted_{0};
  std::atomic<std::size_t> disk_writes_{0};
};

}  // namespace icsdiv::runner
