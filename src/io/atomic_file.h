#ifndef CCE_IO_ATOMIC_FILE_H_
#define CCE_IO_ATOMIC_FILE_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"
#include "io/env.h"

namespace cce::io {

/// Atomically replaces the file at `path` with whatever `writer` streams:
/// the content goes to a unique temp file in the same directory, which is
/// flushed, fsync(2)ed, closed and rename(2)d over `path`; the directory
/// entry is fsynced as well so the rename itself survives a power cut. On
/// any failure (including a full disk surfacing at the write or sync) the
/// temp file is removed, `path` keeps its previous content, and the
/// writer's error or an IoError is returned.
///
/// Every file writer in the repo routes through this helper: a reader can
/// never observe a half-written snapshot, model or dataset. All I/O goes
/// through `env`, so tests can inject ENOSPC/EIO on the snapshot path.
Status AtomicWriteFile(Env* env, const std::string& path,
                       const std::function<Status(std::ostream*)>& writer);

/// As above with the whole content already in memory (a binary snapshot,
/// a shipped segment).
Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view content);

/// As above on Env::Default() — the common production spelling.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer);

/// Creates `path` as a directory if it does not exist (parents must
/// already exist). OK when the directory is already present; IoError when
/// creation fails or `path` exists but is not a directory.
Status EnsureDirectory(const std::string& path);

/// Flushes the directory entry metadata of `dir` to disk (fsync on the
/// directory fd). Best effort on platforms without directory fsync.
Status SyncDirectory(const std::string& dir);

/// True when `name` (a bare file name, not a path) matches the temp-file
/// pattern AtomicWriteFile uses ("<target>.tmp.<pid>.<counter>") — the
/// startup sweep uses this to unlink orphans a crashed writer left between
/// create and rename.
bool IsAtomicTempName(const std::string& name);

}  // namespace cce::io

#endif  // CCE_IO_ATOMIC_FILE_H_
