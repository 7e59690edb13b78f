// Scratch directories for the tests that write an on-disk artifact store.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <utility>

namespace icsdiv::runner {

/// A fresh path under the temp directory, unique per process and call.
inline std::string unique_store_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("icsdiv_store_" + tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

/// Removes the store directory at scope exit so /tmp stays clean even
/// when an assertion fires mid-test.
struct ScopedDir {
  explicit ScopedDir(std::string path_in) : path(std::move(path_in)) {}
  ~ScopedDir() { std::filesystem::remove_all(path); }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  std::string path;
};

}  // namespace icsdiv::runner
