#include "io/atomic_file.h"

#include <atomic>
#include <ostream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace cce::io {
namespace {

/// Directory part of `path` ("." when there is no separator).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool IsAtomicTempName(const std::string& name) {
  // "<target>.tmp.<suffix>" with a non-empty target and suffix; the suffix
  // layout (pid.counter) is deliberately not parsed so orphans from older
  // naming schemes still match.
  const size_t marker = name.find(".tmp.");
  return marker != std::string::npos && marker > 0 &&
         marker + 5 < name.size();
}

Status SyncDirectory(const std::string& dir) {
  return Env::Default()->SyncDir(dir);
}

Status EnsureDirectory(const std::string& path) {
  return Env::Default()->CreateDir(path);
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  // The writer streams into memory first; all disk I/O then goes through
  // the env so fault injection sees every byte.
  std::ostringstream buffer;
  CCE_RETURN_IF_ERROR(writer(&buffer));
  return AtomicWriteFile(env, path, buffer.view());
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view content) {
  if (path.empty()) return Status::InvalidArgument("empty file path");
  if (env == nullptr) env = Env::Default();
  // Unique per process + call so concurrent writers to different targets
  // (or a crashed predecessor's leftovers) never collide.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." +
#ifndef _WIN32
      std::to_string(::getpid()) + "." +
#endif
      std::to_string(counter.fetch_add(1));

  auto opened = env->NewTruncatedFile(tmp);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<WritableFile> file = std::move(opened).value();
  Status written = file->Append(content);
  if (written.ok()) written = file->Sync();
  if (written.ok()) written = file->Close();
  if (!written.ok()) {
    file.reset();
    (void)env->RemoveFile(tmp);
    return written;
  }
  Status renamed = env->RenameFile(tmp, path);
  if (!renamed.ok()) {
    (void)env->RemoveFile(tmp);
    return renamed;
  }
  return env->SyncDir(DirName(path));
}

Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  return AtomicWriteFile(Env::Default(), path, writer);
}

}  // namespace cce::io
