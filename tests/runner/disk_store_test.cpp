// The persistent artifact store (DESIGN.md §13): record round-trips,
// crash/corruption fallbacks (truncated, bit-flipped, version-mismatched
// records are misses, never errors), concurrent writers vs readers, GC
// under a capacity budget, and the engine-level contract — a warm run
// over a shared store executes zero stages, reports identical
// deterministic bytes, and accounts every slot as planned = executed +
// hits + disk_hits, including over a committed format-version-1 store
// (tests/runner/fixtures) and over stores missing one stage's records.
#include "runner/disk_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/batch_runner.hpp"
#include "store_dir.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace icsdiv::runner {
namespace {

ArtifactKey key_of(std::uint64_t hi, std::uint64_t lo) { return ArtifactKey{hi, lo}; }

std::string file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << bytes;
}

TEST(DiskArtifactStore, RoundTripsSummaryAndPayload) {
  const ScopedDir dir(unique_store_dir("roundtrip"));
  const DiskArtifactStore store(dir.path);
  ASSERT_TRUE(store.usable());

  const ArtifactKey key = key_of(0x1234, 0xabcd);
  const std::string summary = "summary-bytes";
  const std::string payload(100'000, 'x');
  ASSERT_TRUE(store.publish(3, key, summary, payload));

  const auto record = store.load(3, key);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->summary, summary);
  EXPECT_EQ(record->payload, payload);

  // Same key, different stage — and a different key — both miss.
  EXPECT_FALSE(store.load(4, key).has_value());
  EXPECT_FALSE(store.load(3, key_of(0x1234, 0xabce)).has_value());

  // A second store over the same directory sees the published record.
  const DiskArtifactStore reopened(dir.path);
  EXPECT_TRUE(reopened.load(3, key).has_value());
}

TEST(DiskArtifactStore, TruncatedAndCorruptRecordsAreMissesNotErrors) {
  const ScopedDir dir(unique_store_dir("corrupt"));
  const DiskArtifactStore store(dir.path);
  const ArtifactKey key = key_of(7, 9);
  ASSERT_TRUE(store.publish(1, key, "sum", "payload-payload-payload"));
  const std::string path = store.object_path(1, key);
  const std::string intact = file_bytes(path);
  ASSERT_FALSE(intact.empty());

  // Truncations at every interesting boundary: mid-magic, mid-header,
  // mid-summary, one byte short of complete.
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{4}, std::size_t{40}, intact.size() - 5, intact.size() - 1}) {
    write_bytes(path, intact.substr(0, size));
    EXPECT_FALSE(store.load(1, key).has_value()) << "truncated to " << size;
  }

  // A flipped payload bit fails the checksum.
  std::string flipped = intact;
  flipped[flipped.size() - 3] = static_cast<char>(flipped[flipped.size() - 3] ^ 0x40);
  write_bytes(path, flipped);
  EXPECT_FALSE(store.load(1, key).has_value());

  // A record written by a future format version is skipped unread.
  std::string future = intact;
  future[8] = 99;  // version field follows the 8-byte magic (little-endian)
  write_bytes(path, future);
  EXPECT_FALSE(store.load(1, key).has_value());

  // Restoring the original bytes restores the hit.
  write_bytes(path, intact);
  EXPECT_TRUE(store.load(1, key).has_value());
}

TEST(DiskArtifactStore, VersionMismatchedManifestDisablesTheStore) {
  const ScopedDir dir(unique_store_dir("manifest"));
  // A store not created yet would be usable, and probing creates nothing.
  EXPECT_EQ(DiskArtifactStore::unusable_reason(dir.path), "");
  EXPECT_FALSE(std::filesystem::exists(dir.path));
  {
    const DiskArtifactStore store(dir.path);
    ASSERT_TRUE(store.publish(2, key_of(1, 2), "s", ""));
  }
  EXPECT_EQ(DiskArtifactStore::unusable_reason(dir.path), "");
  write_bytes(dir.path + "/MANIFEST", "icsdiv-store 999\n");
  EXPECT_EQ(DiskArtifactStore::unusable_reason(dir.path),
            "store " + dir.path +
                " has MANIFEST line \"icsdiv-store 999\"; this build reads and writes only "
                "\"icsdiv-store 1\"");
  const DiskArtifactStore store(dir.path);
  EXPECT_FALSE(store.usable());
  EXPECT_FALSE(store.load(2, key_of(1, 2)).has_value());
  EXPECT_FALSE(store.publish(2, key_of(3, 4), "s", ""));
  // The foreign-version manifest is left alone for its own format to read.
  EXPECT_EQ(file_bytes(dir.path + "/MANIFEST"), "icsdiv-store 999\n");
}

TEST(DiskArtifactStore, ConcurrentWritersAndReadersNeverObserveTornRecords) {
  const ScopedDir dir(unique_store_dir("race"));
  const DiskArtifactStore store(dir.path);
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kRounds = 40;

  const auto summary_for = [](std::size_t k) { return "summary-" + std::to_string(k); };
  const auto payload_for = [](std::size_t k) {
    return std::string(1000 + k, static_cast<char>('a' + k));
  };

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          const auto record = store.load(5, key_of(k, k * 3 + 1));
          if (!record.has_value()) continue;  // not yet published — fine
          if (record->summary != summary_for(k) || record->payload != payload_for(k)) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(2);
  for (std::size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          store.publish(5, key_of(k, k * 3 + 1), summary_for(k), payload_for(k));
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0u);
  for (std::size_t k = 0; k < kKeys; ++k) {
    const auto record = store.load(5, key_of(k, k * 3 + 1));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->summary, summary_for(k));
  }
}

TEST(DiskArtifactStore, OpenCollectsAbandonedTempFilesAndKeepsRecords) {
  const ScopedDir dir(unique_store_dir("gc"));
  {
    const DiskArtifactStore store(dir.path);
    ASSERT_TRUE(store.publish(2, key_of(1, 1), "old", ""));
    const std::string old_record = store.object_path(2, key_of(1, 1));
    std::filesystem::last_write_time(
        old_record, std::filesystem::last_write_time(old_record) - std::chrono::hours(10));
  }
  // A crashed writer's leftover from long ago, and a live writer's
  // in-flight temp file.
  const std::string abandoned = dir.path + "/objects/.tmp-1-0";
  const std::string in_flight = dir.path + "/objects/.tmp-2-0";
  write_bytes(abandoned, "partial");
  write_bytes(in_flight, "partial");
  std::filesystem::last_write_time(
      abandoned, std::filesystem::last_write_time(abandoned) - std::chrono::hours(1));

  const DiskArtifactStore reopened(dir.path);
  EXPECT_FALSE(std::filesystem::exists(abandoned));
  EXPECT_TRUE(std::filesystem::exists(in_flight));
  // Records are never evicted, however old.
  EXPECT_TRUE(reopened.load(2, key_of(1, 1)).has_value());
}

TEST(DiskArtifactStore, ManifestIsTheVersionLineWrittenOnce) {
  const ScopedDir dir(unique_store_dir("manifest-once"));
  {
    const DiskArtifactStore store(dir.path);
    ASSERT_TRUE(store.publish(2, key_of(1, 2), "s", ""));
  }
  EXPECT_EQ(file_bytes(dir.path + "/MANIFEST"), "icsdiv-store 1\n");
  // An existing same-version manifest (older builds listed the records
  // after the version line) is left as it is.
  write_bytes(dir.path + "/MANIFEST", "icsdiv-store 1\n2-00000000000000010000000000000002.art\n");
  const DiskArtifactStore reopened(dir.path);
  EXPECT_TRUE(reopened.usable());
  EXPECT_TRUE(reopened.load(2, key_of(1, 2)).has_value());
  EXPECT_EQ(file_bytes(dir.path + "/MANIFEST"),
            "icsdiv-store 1\n2-00000000000000010000000000000002.art\n");
}

// ---------------------------------------------------------------------------
// Engine-level integration: BatchOptions::store_dir as the second cache
// tier.

ScenarioGrid small_attack_grid() {
  ScenarioGrid grid;
  grid.name = "store-grid";
  grid.hosts = {16};
  grid.degrees = {4.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"trws", "icm"};
  grid.constraints = {"none"};
  grid.seeds = {7};
  grid.solve.max_iterations = 20;
  AttackGrid attack;
  attack.entries = {0, 1};
  attack.target = 15;
  attack.strategies = {"sophisticated"};
  attack.detections = {0.0};
  attack.runs = 10;
  attack.max_ticks = 300;
  grid.attack = attack;
  return grid;
}

std::string deterministic_csv(const BatchReport& report) {
  std::ostringstream out;
  report.write_csv(out, /*include_timings=*/false);
  return out.str();
}

void expect_balanced(const StageCounters& counters, const char* stage) {
  EXPECT_EQ(counters.planned, counters.executed + counters.hits + counters.disk_hits) << stage;
}

TEST(DiskArtifactStore, WarmEngineRunExecutesNothingAndMatchesColdBytes) {
  const ScopedDir dir(unique_store_dir("engine"));
  const ScenarioGrid grid = small_attack_grid();

  BatchOptions bare;
  bare.threads = 1;
  const BatchReport reference = BatchRunner(bare).run(grid);
  ASSERT_EQ(reference.failed_count(), 0u) << reference.results[0].error;

  BatchOptions cold = bare;
  cold.store_dir = dir.path;
  const BatchReport first = BatchRunner(cold).run(grid);
  EXPECT_EQ(deterministic_csv(first), deterministic_csv(reference));
  EXPECT_GT(first.stage_stats.workload.disk_writes, 0u);
  EXPECT_GT(first.stage_stats.solve.disk_writes, 0u);
  EXPECT_EQ(first.stage_stats.solve.disk_hits, 0u);

  const BatchReport warm = BatchRunner(cold).run(grid);
  EXPECT_EQ(deterministic_csv(warm), deterministic_csv(reference));
  // The warm-run contract: zero generate/problem/solve executions.
  EXPECT_EQ(warm.stage_stats.workload.executed, 0u);
  EXPECT_EQ(warm.stage_stats.problem.executed, 0u);
  EXPECT_EQ(warm.stage_stats.solve.executed, 0u);
  EXPECT_EQ(warm.stage_stats.channels.executed, 0u);
  EXPECT_EQ(warm.stage_stats.attack.executed, 0u);
  EXPECT_GT(warm.stage_stats.solve.disk_hits, 0u);
  EXPECT_EQ(warm.stage_stats.solve.disk_writes, 0u);
  expect_balanced(warm.stage_stats.workload, "workload");
  expect_balanced(warm.stage_stats.problem, "problem");
  expect_balanced(warm.stage_stats.solve, "solve");
  expect_balanced(warm.stage_stats.channels, "channels");
  expect_balanced(warm.stage_stats.attack, "attack");

  // Corrupt every record: the engine falls back to recompute and still
  // reports the same bytes.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path + "/objects")) {
    write_bytes(entry.path().string(), "garbage");
  }
  const BatchReport recovered = BatchRunner(cold).run(grid);
  EXPECT_EQ(deterministic_csv(recovered), deterministic_csv(reference));
  EXPECT_EQ(recovered.stage_stats.solve.disk_hits, 0u);
  EXPECT_GT(recovered.stage_stats.solve.executed, 0u);
}

// tests/runner/fixtures/store_v1 was written by an earlier build of the
// engine over a 4-cell grid with attack and metrics blocks, so all six
// stages have records in it.
const std::string kFixtures = ICSDIV_TEST_FIXTURES;

ScenarioGrid fixture_grid() {
  return ScenarioGrid::from_json(
      support::Json::parse(file_bytes(kFixtures + "/store_v1_grid.json")));
}

/// A private copy of the fixture store (runs write records and rewrite
/// the manifest).
void copy_fixture_store(const std::string& dir) {
  std::filesystem::copy(kFixtures + "/store_v1", dir, std::filesystem::copy_options::recursive);
}

/// Removes every record of one stage; record files are named
/// "<stage tag>-<key>.art" (tags 1..6 in pipeline order).
void drop_stage_records(const std::string& dir, int tag) {
  const std::string prefix = std::to_string(tag) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/objects")) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
}

/// The counter blocks in pipeline order (index + 1 is the stage tag).
std::array<const StageCounters*, 6> pipeline_counters(const StageStats& s) {
  return {&s.workload, &s.problem, &s.solve, &s.channels, &s.attack, &s.metric};
}

TEST(DiskArtifactStore, CommittedVersionOneStoreServesEveryStage) {
  // Serving the fixture pins the record bytes: a codec change that alters
  // any summary or payload layout without bumping kFormatVersion fails
  // here, not in a user's warm store.
  ASSERT_EQ(DiskArtifactStore::kFormatVersion, 1u);
  const ScopedDir dir(unique_store_dir("fixture"));
  copy_fixture_store(dir.path);

  BatchOptions options;
  options.threads = 1;
  options.store_dir = dir.path;
  const BatchReport report = BatchRunner(options).run(fixture_grid());

  const auto counters = pipeline_counters(report.stage_stats);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_GT(counters[i]->planned, 0u) << "tag " << i + 1;
    EXPECT_EQ(counters[i]->executed, 0u) << "tag " << i + 1;
    EXPECT_EQ(counters[i]->disk_hits, counters[i]->planned - counters[i]->hits) << "tag " << i + 1;
  }
  EXPECT_EQ(deterministic_csv(report), file_bytes(kFixtures + "/store_v1_report.csv"));
}

TEST(DiskArtifactStore, StoreMissingOneStageRecomputesItFromDecodedPayloads) {
  // Without one stage's records that stage recomputes, so its parent's
  // payload must be materialised: decoded from the parent's record
  // (workload, solve, channels), or recomputed when the record carries
  // only a summary (problem).  The report must not notice.  A workload
  // recomputed under disk-served problem and solve records is no other
  // task's parent, yet every cell's row reads it: the delay makes a row
  // that does not wait for it lose that race every time.
  struct DisarmAtExit {
    ~DisarmAtExit() { support::failpoint::disarm_all(); }
  } disarm;
  support::failpoint::arm("stage.workload", {support::failpoint::Action::Delay, 1.0, 200});
  for (int tag = 1; tag <= 6; ++tag) {
    const ScopedDir dir(unique_store_dir("partial"));
    copy_fixture_store(dir.path);
    drop_stage_records(dir.path, tag);

    BatchOptions options;
    options.threads = 2;
    options.store_dir = dir.path;
    const BatchReport report = BatchRunner(options).run(fixture_grid());
    EXPECT_EQ(report.failed_count(), 0u) << "tag " << tag << ": " << report.results[0].error;
    EXPECT_GT(pipeline_counters(report.stage_stats)[tag - 1]->executed, 0u) << "tag " << tag;
    EXPECT_EQ(deterministic_csv(report), file_bytes(kFixtures + "/store_v1_report.csv"))
        << "tag " << tag;
  }
}

TEST(DiskArtifactStore, UnusableStoreDegradesToPlainComputation) {
  const ScopedDir dir(unique_store_dir("degrade"));
  std::filesystem::create_directories(dir.path);
  write_bytes(dir.path + "/MANIFEST", "icsdiv-store 999\n");

  ScenarioGrid grid = small_attack_grid();
  grid.attack.reset();  // solve-only keeps this fast
  BatchOptions options;
  options.threads = 1;
  options.store_dir = dir.path;
  const BatchReport report = BatchRunner(options).run(grid);
  EXPECT_EQ(report.failed_count(), 0u);
  EXPECT_EQ(report.stage_stats.solve.disk_hits, 0u);
  EXPECT_EQ(report.stage_stats.solve.disk_writes, 0u);
  EXPECT_GT(report.stage_stats.solve.executed, 0u);
}

}  // namespace
}  // namespace icsdiv::runner
