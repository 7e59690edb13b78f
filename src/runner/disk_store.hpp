// DiskArtifactStore: the persistent second cache tier under the staged
// scenario engine (DESIGN.md §13).
//
// Stage artifacts — summaries plus, for the reusable prefix stages, the
// relocatable payload substrates — are stored one record per file under
// `<dir>/objects/`, named by stage tag and the 128-bit KeyHasher content
// address the in-memory tier already uses.  Records are read through a
// memory mapping and validated end to end (magic, format version, stage
// tag, key echo, section sizes, content checksum) before a single byte is
// decoded; any mismatch — truncation, corruption, a record written by a
// different format version — is a cache miss that falls back to
// recompute, never an error and never torn data.
//
// Publishing is crash-atomic: the record is written to a same-directory
// temp file, fsync'ed, renamed over the final name, and the directory
// fsync'ed — a reader can only ever observe a complete record or none.
// Publish failures (disk full, permissions) are swallowed: the store is
// an accelerator, so a run that cannot persist still completes.
//
// The per-store MANIFEST holds one line, the store format version,
// written when the store is first opened.  Openings serialize on the
// flock'd `LOCK` sidecar (support::FileLock — the same primitive the
// unix-socket reclaim uses) and collect the temp files crashed writers
// left behind.  Records are never evicted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "runner/artifact_cache.hpp"
#include "support/mapped_file.hpp"

namespace icsdiv::runner {

class DiskArtifactStore {
 public:
  /// Bumped whenever the record layout or any stage codec changes; a
  /// version-mismatched record or manifest is a miss, not an error.
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Opens (creating as needed) the store in `dir` and collects abandoned
  /// temp files under the store lock.  Throws NotFound when the
  /// directories cannot be created; a manifest from a different format
  /// version disables the store (every load misses, every publish no-ops)
  /// instead of failing the run.
  explicit DiskArtifactStore(std::string dir);

  /// One validated on-disk record: the summary and payload sections point
  /// into the held mapping (valid for the Record's lifetime).
  struct Record {
    support::MappedFile file;
    std::string_view summary;
    std::string_view payload;  ///< empty for summary-only stages
  };

  /// Probes `key` for `stage`; nullopt on missing, truncated, corrupt or
  /// version-mismatched records (the recompute fallback).  Never throws.
  [[nodiscard]] std::optional<Record> load(std::uint32_t stage,
                                           const ArtifactKey& key) const noexcept;

  /// Atomically publishes a record (write temp + fsync + rename + dir
  /// fsync).  Returns false — and leaves no partial file — on any
  /// failure.  Never throws.
  bool publish(std::uint32_t stage, const ArtifactKey& key, std::string_view summary,
               std::string_view payload) const noexcept;

  /// False when the manifest belongs to a different format version.
  [[nodiscard]] bool usable() const noexcept { return usable_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Why a store opened on `dir` would not be usable — its MANIFEST names
  /// another format version — or empty when it would be (a store not yet
  /// created included).  Reads the manifest only and creates nothing.
  [[nodiscard]] static std::string unusable_reason(const std::string& dir);

  /// The record file for (stage, key) — exposed for tests that corrupt,
  /// truncate or backdate records.
  [[nodiscard]] std::string object_path(std::uint32_t stage, const ArtifactKey& key) const;

 private:
  void open_manifest();

  std::string dir_;
  std::string objects_dir_;
  bool usable_ = true;
};

}  // namespace icsdiv::runner
