// Sharded multi-process batch (DESIGN.md §13).
//
// N processes split one grid by a deterministic ownership rule over the
// cells' solve-stage content addresses: shard K of N owns the cells whose
// solve key satisfies (hi ^ lo) % N == K.  Keying ownership on the solve
// stage (not the cell index) puts every cell of a shared solve prefix in
// the same process, so no prefix is computed twice across the fleet; a
// shared --store directory then deduplicates the coarser workload/problem
// prefixes between processes too.
//
// Each process writes a shard document — the owned cells' results tagged
// with their original grid indices, plus an envelope (format version,
// grid fingerprint, K/N, total cell count) — and `--merge` stitches the
// documents back into one BatchReport after validating that exactly the
// declared shards are present, they agree on the grid, and every cell is
// covered exactly once.  Merged deterministic reports (`write_csv(out,
// false)` / `to_json(false)`) are byte-identical to a single-process run
// over the same grid: results are reassembled in grid order, and the
// shard codec round-trips every value bit-exactly — non-finite doubles
// (the all-censored MTTC cells) travel as "nan"/"inf"/"-inf" strings
// because the JSON writer refuses non-finite numbers, and finite ones use
// the writer's shortest-round-trip formatting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "runner/batch_runner.hpp"

namespace icsdiv::runner {

struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses "K/N" with K < N, N >= 1.  Throws InvalidArgument otherwise.
[[nodiscard]] ShardSpec parse_shard(std::string_view text);

/// The cell's solve-stage content address (the workload → problem → solve
/// key chain, defined with the stage keys in scenario_engine.cpp): cells
/// with equal keys share their entire solve prefix, so this is the
/// ownership key below and the name solve records carry in the on-disk
/// store.
[[nodiscard]] ArtifactKey scenario_solve_key(const ScenarioSpec& spec);

/// The ownership rule: does `shard` own the cell with this solve key?
[[nodiscard]] bool shard_owns(const ShardSpec& shard, const ArtifactKey& solve_key) noexcept;

/// One shard's results (cells this shard owns, `ScenarioResult::index`
/// already rewritten to the original grid position) as a shard document.
[[nodiscard]] support::Json shard_to_json(const ShardSpec& shard, const std::string& grid_key,
                                          std::size_t total_cells,
                                          const std::vector<ScenarioResult>& results);

/// Merges shard documents into one report (results in grid order).
/// Throws InvalidArgument when the envelopes disagree, a shard is missing
/// or duplicated, or the cells do not cover the grid exactly once.
[[nodiscard]] BatchReport merge_shards(const std::vector<support::Json>& shards);

}  // namespace icsdiv::runner
