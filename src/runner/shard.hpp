// Sharded multi-process batch (DESIGN.md §13.3).
//
// N processes split one grid by a deterministic ownership rule over the
// cells' solve-stage content addresses: shard K of N owns the cells whose
// solve key satisfies (hi ^ lo) % N == K.  Keying ownership on the solve
// stage (not the cell index) puts every cell of a shared solve prefix in
// the same process, so no prefix is computed twice across the fleet.
//
// The shards meet in one on-disk store (disk_store.hpp): each computes
// the cells it owns into it, and the store deduplicates the coarser
// workload/problem prefixes between processes too.  The fleet's report
// is a final deterministic pass over that store, which serves every stage
// a shard published and computes only what none did, so its bytes equal
// a single-process run over the same grid.
#pragma once

#include <string_view>

#include "runner/artifact_cache.hpp"
#include "runner/scenario.hpp"

namespace icsdiv::runner {

struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses "K/N" with K < N, N >= 1, both within size_t.  Throws
/// InvalidArgument otherwise.
[[nodiscard]] ShardSpec parse_shard(std::string_view text);

/// The cell's solve-stage content address (the workload → problem → solve
/// key chain, defined with the stage keys in scenario_engine.cpp): cells
/// with equal keys share their entire solve prefix, so this is the
/// ownership key below and the name solve records carry in the on-disk
/// store.
[[nodiscard]] ArtifactKey scenario_solve_key(const ScenarioSpec& spec);

/// The ownership rule: does `shard` own the cell with this solve key?
[[nodiscard]] bool shard_owns(const ShardSpec& shard, const ArtifactKey& solve_key) noexcept;

}  // namespace icsdiv::runner
