#include "runner/disk_store.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <string_view>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/file_lock.hpp"

namespace icsdiv::runner {

namespace {

constexpr std::string_view kMagic = "ICSDIVAS";  // 8 bytes
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
constexpr std::string_view kManifestVersionLine = "icsdiv-store 1";
/// Orphaned temp files (crashed writers) older than this are collected.
constexpr double kTempFileTtlSeconds = 600.0;

/// FNV-1a over the record content — torn-write detection, not security.
std::uint64_t checksum(std::string_view summary, std::string_view payload) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  };
  fold(summary);
  fold(payload);
  return hash;
}

std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

/// A manifest line from another format version; an empty line is a store
/// not initialised yet.
bool foreign_manifest(std::string_view version_line) {
  return !version_line.empty() && version_line != kManifestVersionLine;
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw NotFound("cannot create store directory " + path + ": " + std::strerror(errno));
  }
}

bool write_file_durably(const std::string& path, std::string_view content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t count = ::write(fd, content.data() + written, content.size() - written);
    if (count < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    written += static_cast<std::size_t>(count);
  }
  const bool synced = ::fsync(fd) == 0;
  return (::close(fd) == 0) && synced;
}

bool sync_dir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

/// write temp + fsync + rename + fsync(dir): a reader sees all or nothing.
bool publish_file(const std::string& dir, const std::string& temp_name,
                  const std::string& final_name, std::string_view content) {
  const std::string temp_path = dir + "/" + temp_name;
  if (!write_file_durably(temp_path, content)) {
    ::unlink(temp_path.c_str());
    return false;
  }
  if (::rename(temp_path.c_str(), (dir + "/" + final_name).c_str()) != 0) {
    ::unlink(temp_path.c_str());
    return false;
  }
  return sync_dir(dir);
}

/// Removes the temp files crashed writers left in `dir` more than
/// kTempFileTtlSeconds ago; a live writer's temp file is far younger.
void collect_abandoned_temp_files(const std::string& dir) {
  const double now =
      static_cast<double>(::time(nullptr));  // lint:allow ambient-randomness -- GC compares temp-file mtimes against the wall clock; results never depend on it
  std::vector<std::string> abandoned;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind(".tmp-", 0) != 0) continue;
    const std::string path = dir + "/" + name;
    struct stat status {};
    if (::stat(path.c_str(), &status) != 0 || !S_ISREG(status.st_mode)) continue;
    if (now - static_cast<double>(status.st_mtime) > kTempFileTtlSeconds) {
      abandoned.push_back(path);
    }
  }
  ::closedir(handle);
  for (const std::string& path : abandoned) ::unlink(path.c_str());
}

std::string read_first_line(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  char buffer[128];
  const ssize_t count = ::read(fd, buffer, sizeof buffer);
  ::close(fd);
  if (count <= 0) return {};
  const std::string_view view(buffer, static_cast<std::size_t>(count));
  return std::string(view.substr(0, view.find('\n')));
}

}  // namespace

DiskArtifactStore::DiskArtifactStore(std::string dir) : dir_(std::move(dir)) {
  require(!dir_.empty(), "DiskArtifactStore", "store directory must not be empty");
  make_dir(dir_);
  objects_dir_ = dir_ + "/objects";
  make_dir(objects_dir_);
  open_manifest();
}

void DiskArtifactStore::open_manifest() {
  const support::FileLock lock = support::FileLock::acquire(dir_ + "/LOCK");
  const std::string version_line = read_first_line(dir_ + "/MANIFEST");
  if (foreign_manifest(version_line)) {
    // A store written by a different format version: refuse to read or
    // write it (fall back to recompute) rather than mixing layouts.
    usable_ = false;
    return;
  }
  if (version_line.empty()) {
    (void)publish_file(dir_, ".MANIFEST.tmp-" + std::to_string(::getpid()), "MANIFEST",
                       std::string(kManifestVersionLine) + "\n");
  }
  collect_abandoned_temp_files(objects_dir_);
}

std::string DiskArtifactStore::unusable_reason(const std::string& dir) {
  const std::string version_line = read_first_line(dir + "/MANIFEST");
  if (!foreign_manifest(version_line)) return {};
  std::string reason = "store ";
  reason.append(dir).append(" has MANIFEST line \"").append(version_line);
  reason.append("\"; this build reads and writes only \"").append(kManifestVersionLine);
  return reason.append("\"");
}

std::string DiskArtifactStore::object_path(std::uint32_t stage, const ArtifactKey& key) const {
  return objects_dir_ + "/" + std::to_string(stage) + "-" + hex16(key.hi) + hex16(key.lo) +
         ".art";
}

std::optional<DiskArtifactStore::Record> DiskArtifactStore::load(
    std::uint32_t stage, const ArtifactKey& key) const noexcept {
  if (!usable_) return std::nullopt;
  try {
    Record record;
    record.file = support::MappedFile::open(object_path(stage, key));
    const std::string_view view = record.file.view();
    if (view.size() < kHeaderSize) return std::nullopt;
    if (view.substr(0, kMagic.size()) != kMagic) return std::nullopt;
    support::ByteReader header(view.substr(kMagic.size(), kHeaderSize - kMagic.size()));
    if (header.u32() != kFormatVersion) return std::nullopt;
    if (header.u32() != stage) return std::nullopt;
    if (header.u64() != key.hi || header.u64() != key.lo) return std::nullopt;
    const std::uint64_t summary_size = header.u64();
    const std::uint64_t payload_size = header.u64();
    const std::uint64_t expected_checksum = header.u64();
    if (summary_size > view.size() - kHeaderSize ||
        payload_size != view.size() - kHeaderSize - summary_size) {
      return std::nullopt;  // truncated or padded record
    }
    record.summary = view.substr(kHeaderSize, summary_size);
    record.payload = view.substr(kHeaderSize + summary_size, payload_size);
    if (checksum(record.summary, record.payload) != expected_checksum) return std::nullopt;
    return record;
  } catch (...) {
    return std::nullopt;  // missing file, mmap failure, bounds throw
  }
}

bool DiskArtifactStore::publish(std::uint32_t stage, const ArtifactKey& key,
                                std::string_view summary,
                                std::string_view payload) const noexcept {
  if (!usable_) return false;
  try {
    support::failpoint::evaluate("store.publish");
    support::ByteWriter record;
    record.raw(kMagic);
    record.u32(kFormatVersion);
    record.u32(stage);
    record.u64(key.hi);
    record.u64(key.lo);
    record.u64(summary.size());
    record.u64(payload.size());
    record.u64(checksum(summary, payload));
    record.raw(summary);
    record.raw(payload);

    // Distinct temp names per (process, publish): two engines sharing the
    // store never clobber each other's in-flight writes.
    static std::atomic<std::uint64_t> sequence{0};
    const std::string temp_name =
        ".tmp-" + std::to_string(::getpid()) + "-" +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    const std::string final_name = std::to_string(stage) + "-" + hex16(key.hi) + hex16(key.lo) +
                                   ".art";
    return publish_file(objects_dir_, temp_name, final_name, record.str());
  } catch (...) {
    return false;  // the store is an accelerator; the run must not fail
  }
}

}  // namespace icsdiv::runner
