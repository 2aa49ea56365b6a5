#ifndef CCE_IO_ENV_H_
#define CCE_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cce::io {

/// A sequential-write file handle. All durability-sensitive writers in the
/// repo (WAL, atomic snapshot writes) go through this interface instead of
/// raw POSIX so tests can substitute a fault-injecting implementation
/// (LevelDB's Env discipline).
///
/// Not thread-safe; callers serialise access per file.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the current end of file. On failure the file may
  /// hold a prefix of `data` (a torn write) — callers that need frame
  /// atomicity must roll back via Truncate.
  virtual Status Append(std::string_view data) = 0;

  /// fsync(2): flushes data (and metadata needed to read it) to stable
  /// storage. A failure means previously appended bytes may never reach
  /// disk — see ContextWal poisoning for how callers must react.
  virtual Status Sync() = 0;

  /// Truncates the file to `size` bytes. Later appends continue from the
  /// new end.
  virtual Status Truncate(uint64_t size) = 0;

  /// Closes the handle (no implicit sync). Idempotent; the destructor
  /// closes too.
  virtual Status Close() = 0;
};

/// The I/O surface the storage layer runs on. Production code uses
/// Env::Default() (POSIX); tests wrap it in a FaultInjectingEnv to inject
/// torn writes, EIO, ENOSPC, short reads and failed fsyncs on a seeded
/// schedule — the I/O analogue of serving's FaultInjectingModel.
///
/// Thread safety: an Env must be usable from several threads at once
/// (distinct files); individual WritableFiles are single-threaded.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for appending, creating it when absent. The write
  /// position is the current end of file.
  virtual Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) = 0;

  /// Opens `path` truncated to empty, creating it when absent.
  virtual Result<std::unique_ptr<WritableFile>> NewTruncatedFile(
      const std::string& path) = 0;

  /// Reads the whole file into `out`. kNotFound when the file does not
  /// exist; kIoError for read failures.
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  /// rename(2): atomic within a filesystem.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// unlink(2); OK when the file is already gone.
  virtual Status RemoveFile(const std::string& path) = 0;

  /// Creates `path` as a directory if missing (parents must exist); OK
  /// when already present, kIoError when `path` is a non-directory.
  virtual Status CreateDir(const std::string& path) = 0;

  /// fsyncs the directory entry metadata (best effort where directory
  /// fsync is unsupported).
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Names (not paths) of the entries in `dir`, excluding "." / "..".
  virtual Status ListDir(const std::string& dir,
                         std::vector<std::string>* names) = 0;

  /// The process-wide POSIX environment. Never deleted.
  static Env* Default();
};

}  // namespace cce::io

#endif  // CCE_IO_ENV_H_
