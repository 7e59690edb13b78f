// Sharded multi-process batch (DESIGN.md §13.3): the K/N parser, the
// ownership partition (every cell in exactly one shard), and the store
// protocol.  Shards publish into one store, or into stores joined later
// by copying record files, and a final pass over the store must report
// bytes identical to an unsharded run, including the all-censored MTTC
// cells whose NaN means render as empty CSV cells / JSON nulls.  That
// pass executes no stage when the shards published everything, and
// recomputes exactly what failed publishes left out.
#include "runner/shard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "runner/batch_runner.hpp"
#include "store_dir.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace icsdiv::runner {
namespace {

/// 2 solvers × 2 entries over a 12-host workload, with max_ticks too low
/// for any run to reach the target: every attack cell is fully censored,
/// so mttc_uncensored_mean is NaN in every row.
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

constexpr std::size_t kShards = 2;

std::string deterministic_csv(const BatchReport& report) {
  std::ostringstream out;
  report.write_csv(out, /*include_timings=*/false);
  return out.str();
}

/// The cells `batch --shard K/N` computes.
std::vector<ScenarioSpec> owned_by(const ShardSpec& shard, const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioSpec> owned;
  for (const ScenarioSpec& spec : specs) {
    if (shard_owns(shard, scenario_solve_key(spec))) owned.push_back(spec);
  }
  return owned;
}

/// One process's run over `store` (a shard's cells, or the whole grid for
/// the final pass).
BatchReport run_into(const std::string& store, const std::vector<ScenarioSpec>& specs) {
  BatchOptions options;
  options.threads = 1;
  options.store_dir = store;
  return BatchRunner(options).run(specs);
}

/// Stage executions over all six stages.
std::size_t executed(const StageStats& stats) {
  return stats.workload.executed + stats.problem.executed + stats.solve.executed +
         stats.channels.executed + stats.attack.executed + stats.metric.executed;
}

/// Record files under the store's objects/ directory.
std::size_t record_count(const std::string& store) {
  std::size_t records = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store + "/objects")) {
    if (entry.path().extension() == ".art") ++records;
  }
  return records;
}

void expect_same_bytes(const BatchReport& report, const BatchReport& reference) {
  EXPECT_EQ(deterministic_csv(report), deterministic_csv(reference));
  EXPECT_EQ(report.to_json(false).dump(), reference.to_json(false).dump());
}

/// The store-less single-process run every sharded report must equal.
BatchReport unsharded(const std::vector<ScenarioSpec>& specs) {
  BatchOptions options;
  options.threads = 1;
  return BatchRunner(options).run(specs);
}

TEST(Shard, ParseAcceptsKOverNAndRejectsEverythingElse) {
  const ShardSpec shard = parse_shard("2/5");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 5u);
  EXPECT_EQ(parse_shard("0/1").count, 1u);

  // The last two are 2^64 + 1 and 2^64 + 2: wrapped, they would run as
  // shard 1/2 and shard 0/2.
  for (const char* bad : {"", "3", "/4", "3/", "4/4", "5/4", "-1/4", "1/0", "a/b", "1/2/3",
                          "18446744073709551617/2", "0/18446744073709551618"}) {
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

TEST(Shard, FinalStorePassIsByteIdenticalToUnshardedIncludingCensoredNaN) {
  const std::vector<ScenarioSpec> specs = censored_grid().expand();
  const BatchReport reference = unsharded(specs);
  ASSERT_EQ(reference.failed_count(), 0u) << reference.results[0].error;
  // The premise: all-censored cells exist, so NaN really is in the store.
  bool saw_nan = false;
  for (const ScenarioResult& r : reference.results) {
    if (r.attacked && std::isnan(r.mttc_uncensored_mean)) saw_nan = true;
  }
  ASSERT_TRUE(saw_nan);

  const ScopedDir store(unique_store_dir("shared"));
  for (std::size_t index = 0; index < kShards; ++index) {
    const std::vector<ScenarioSpec> owned = owned_by({index, kShards}, specs);
    ASSERT_FALSE(owned.empty()) << "shard " << index << " owns no cell";
    EXPECT_EQ(run_into(store.path, owned).failed_count(), 0u) << "shard " << index;
  }

  // The final pass serves every stage from the shards' records.
  const BatchReport final_pass = run_into(store.path, specs);
  expect_same_bytes(final_pass, reference);
  EXPECT_EQ(executed(final_pass.stage_stats), 0u);

  // The all-censored convention: empty CSV cell, JSON null.
  EXPECT_NE(deterministic_csv(final_pass).find(",,"), std::string::npos);
  EXPECT_NE(final_pass.to_json(false).dump().find("\"mttc_uncensored_mean\":null"),
            std::string::npos);
}

TEST(Shard, StoresFilledApartJoinByCopyingRecordFiles) {
  // A fleet without a shared filesystem: each shard fills its own store,
  // and one store's record files are copied into the other.
  const std::vector<ScenarioSpec> specs = censored_grid().expand();
  const BatchReport reference = unsharded(specs);
  ASSERT_EQ(reference.failed_count(), 0u) << reference.results[0].error;

  const ScopedDir first(unique_store_dir("first"));
  const ScopedDir second(unique_store_dir("second"));
  ASSERT_EQ(run_into(first.path, owned_by({0, kShards}, specs)).failed_count(), 0u);
  ASSERT_EQ(run_into(second.path, owned_by({1, kShards}, specs)).failed_count(), 0u);

  // Both shards build the shared workload, so some names exist in both
  // stores; the copy keeps the first store's record under such a name.
  const std::filesystem::path objects = std::filesystem::path(first.path) / "objects";
  std::size_t shared = 0;
  for (const auto& entry : std::filesystem::directory_iterator(second.path + "/objects")) {
    if (entry.path().extension() != ".art") continue;
    const std::filesystem::path target = objects / entry.path().filename();
    if (std::filesystem::exists(target)) {
      ++shared;
    } else {
      std::filesystem::copy_file(entry.path(), target);
    }
  }
  EXPECT_GT(shared, 0u);

  const BatchReport final_pass = run_into(first.path, specs);
  expect_same_bytes(final_pass, reference);
  EXPECT_EQ(executed(final_pass.stage_stats), 0u);
}

TEST(Shard, FinalPassRecomputesWhatFailedPublishesLeftOut) {
  // A failed publish leaves no record under its final name, which is what
  // a shard killed before its rename leaves behind.
  const std::vector<ScenarioSpec> specs = censored_grid().expand();
  const BatchReport reference = unsharded(specs);
  ASSERT_EQ(reference.failed_count(), 0u) << reference.results[0].error;

  struct DisarmAtExit {
    ~DisarmAtExit() { support::failpoint::disarm_all(); }
  } disarm;
  const ScopedDir store(unique_store_dir("publish"));
  support::failpoint::set_seed(19);
  support::failpoint::arm("store.publish", {support::failpoint::Action::Error, 0.5});
  for (std::size_t index = 0; index < kShards; ++index) {
    // The store is an accelerator: a shard that cannot persist completes.
    EXPECT_EQ(run_into(store.path, owned_by({index, kShards}, specs)).failed_count(), 0u)
        << "shard " << index;
  }
  EXPECT_GT(support::failpoint::hits("store.publish"), 0u);
  support::failpoint::disarm_all();
  const std::size_t published = record_count(store.path);

  const BatchReport healed = run_into(store.path, specs);
  expect_same_bytes(healed, reference);
  EXPECT_GT(executed(healed.stage_stats), 0u);
  EXPECT_GT(record_count(store.path), published);

  const BatchReport again = run_into(store.path, specs);
  expect_same_bytes(again, reference);
  EXPECT_EQ(executed(again.stage_stats), 0u);
}

}  // namespace
}  // namespace icsdiv::runner
