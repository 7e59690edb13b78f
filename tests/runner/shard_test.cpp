// Sharded multi-process batch (DESIGN.md §13): the K/N parser, the
// ownership partition (every cell in exactly one shard), and the merge —
// deterministic reports reassembled from shard documents must be
// byte-identical to an unsharded run, including the all-censored MTTC
// cells whose NaN means travel as "nan" strings and render as empty CSV
// cells / JSON nulls.
#include "runner/shard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "runner/batch_runner.hpp"
#include "support/error.hpp"

namespace icsdiv::runner {
namespace {

/// 2 solvers × 2 entries over a 12-host workload, with max_ticks too low
/// for any run to reach the target: every attack cell is fully censored,
/// so mttc_uncensored_mean is NaN in every row — the codec's worst case.
ScenarioGrid censored_grid() {
  ScenarioGrid grid;
  grid.name = "censored";
  grid.hosts = {12};
  grid.degrees = {3.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"trws", "icm"};
  grid.constraints = {"none"};
  grid.seeds = {5};
  grid.solve.max_iterations = 15;
  AttackGrid attack;
  attack.entries = {0, 1};
  attack.target = 11;
  attack.strategies = {"sophisticated"};
  attack.detections = {0.0};
  attack.runs = 5;
  attack.max_ticks = 1;
  grid.attack = attack;
  return grid;
}

std::string deterministic_csv(const BatchReport& report) {
  std::ostringstream out;
  report.write_csv(out, /*include_timings=*/false);
  return out.str();
}

TEST(Shard, ParseAcceptsKOverNAndRejectsEverythingElse) {
  const ShardSpec shard = parse_shard("2/5");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 5u);
  EXPECT_EQ(parse_shard("0/1").count, 1u);

  for (const char* bad : {"", "3", "/4", "3/", "4/4", "5/4", "-1/4", "1/0", "a/b", "1/2/3"}) {
    EXPECT_THROW((void)parse_shard(bad), InvalidArgument) << bad;
  }
}

TEST(Shard, OwnershipPartitionsEveryCellExactlyOnce) {
  const std::vector<ScenarioSpec> specs = censored_grid().expand();
  ASSERT_FALSE(specs.empty());
  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (const ScenarioSpec& spec : specs) {
      std::size_t owners = 0;
      for (std::size_t index = 0; index < count; ++index) {
        if (shard_owns({index, count}, scenario_solve_key(spec))) ++owners;
      }
      EXPECT_EQ(owners, 1u) << spec.name << " N=" << count;
    }
  }
}

TEST(Shard, SameSolvePrefixLandsInTheSameShard) {
  // Cells differing only in attack axes share a solve key — the ownership
  // rule must keep them in one process so the prefix is computed once.
  ScenarioGrid grid = censored_grid();
  grid.attack->detections = {0.0, 0.1};
  const std::vector<ScenarioSpec> specs = grid.expand();
  for (const ScenarioSpec& a : specs) {
    for (const ScenarioSpec& b : specs) {
      const ArtifactKey ka = scenario_solve_key(a);
      const ArtifactKey kb = scenario_solve_key(b);
      if (ka.hi == kb.hi && ka.lo == kb.lo) {
        EXPECT_EQ(shard_owns({0, 3}, ka), shard_owns({0, 3}, kb));
      }
    }
  }
}

TEST(Shard, MergedReportIsByteIdenticalToUnshardedIncludingCensoredNaN) {
  const ScenarioGrid grid = censored_grid();
  const std::vector<ScenarioSpec> specs = grid.expand();

  BatchOptions options;
  options.threads = 1;
  const BatchReport reference = BatchRunner(options).run(specs);
  ASSERT_EQ(reference.failed_count(), 0u) << reference.results[0].error;
  // The premise: all-censored cells exist, so NaN really is on the wire.
  bool saw_nan = false;
  for (const ScenarioResult& r : reference.results) {
    if (r.attacked && std::isnan(r.mttc_uncensored_mean)) saw_nan = true;
  }
  ASSERT_TRUE(saw_nan);

  constexpr std::size_t kShards = 2;
  std::vector<support::Json> documents;
  for (std::size_t index = 0; index < kShards; ++index) {
    const ShardSpec shard{index, kShards};
    std::vector<ScenarioSpec> owned;
    std::vector<std::size_t> original;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (shard_owns(shard, scenario_solve_key(specs[i]))) {
        owned.push_back(specs[i]);
        original.push_back(i);
      }
    }
    BatchReport partial;
    if (!owned.empty()) partial = BatchRunner(options).run(owned);
    for (std::size_t i = 0; i < partial.results.size(); ++i) {
      partial.results[i].index = original[i];
    }
    documents.push_back(shard_to_json(shard, "grid-key", specs.size(), partial.results));
  }

  // Round-trip through dumped text: exactly what crosses process
  // boundaries via the shard files.
  std::vector<support::Json> reparsed;
  reparsed.reserve(documents.size());
  for (const support::Json& document : documents) {
    reparsed.push_back(support::Json::parse(document.dump()));
  }
  const BatchReport merged = merge_shards(reparsed);

  EXPECT_EQ(deterministic_csv(merged), deterministic_csv(reference));
  EXPECT_EQ(merged.to_json(false).dump(), reference.to_json(false).dump());

  // The all-censored convention: empty CSV cell, JSON null.
  const std::string csv = deterministic_csv(merged);
  EXPECT_NE(csv.find(",,"), std::string::npos);
  const std::string json = merged.to_json(false).dump();
  EXPECT_NE(json.find("\"mttc_uncensored_mean\":null"), std::string::npos);
}

TEST(Shard, MergeRejectsInconsistentDocuments) {
  const ShardSpec s0{0, 2};
  const ShardSpec s1{1, 2};
  ScenarioResult cell0;
  cell0.index = 0;
  ScenarioResult cell1;
  cell1.index = 1;

  const support::Json d0 = shard_to_json(s0, "key", 2, {cell0});
  const support::Json d1 = shard_to_json(s1, "key", 2, {cell1});

  EXPECT_THROW((void)merge_shards({}), InvalidArgument);
  // Wrong number of documents.
  EXPECT_THROW((void)merge_shards({d0}), InvalidArgument);
  // The same shard twice.
  EXPECT_THROW((void)merge_shards({d0, d0}), InvalidArgument);
  // Grids disagree.
  EXPECT_THROW((void)merge_shards({d0, shard_to_json(s1, "other", 2, {cell1})}),
               InvalidArgument);
  // A cell claimed by both shards.
  EXPECT_THROW((void)merge_shards({d0, shard_to_json(s1, "key", 2, {cell0})}),
               InvalidArgument);
  // A missing cell.
  EXPECT_THROW((void)merge_shards({d0, shard_to_json(s1, "key", 2, {})}), InvalidArgument);
  // A declared cell count the rows do not back up is rejected before
  // anything is sized from it, however large it is.
  for (const std::size_t declared : {std::size_t{5'000'000}, std::size_t{1'000'000'000'000}}) {
    EXPECT_THROW((void)merge_shards({shard_to_json({0, 1}, "key", declared, {cell0})}),
                 InvalidArgument)
        << declared;
  }
  // Not a shard document at all.
  support::JsonObject stray;
  stray.set("hello", 1);
  EXPECT_THROW((void)merge_shards({support::Json(stray), d1}), InvalidArgument);

  // The valid pair still merges.
  const BatchReport merged = merge_shards({d0, d1});
  EXPECT_EQ(merged.results.size(), 2u);
}

}  // namespace
}  // namespace icsdiv::runner
