#include "io/env.h"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace cce::io {
namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

#ifndef _WIN32

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::FailedPrecondition("file is closed");
    size_t written = 0;
    while (written < data.size()) {
      const ssize_t n =
          ::write(fd_, data.data() + written, data.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(ErrnoMessage("write to", path_));
      }
      written += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("file is closed");
    if (::fsync(fd_) != 0) {
      return Status::IoError(ErrnoMessage("fsync of", path_));
    }
    return Status::Ok();
  }

  Status Truncate(uint64_t size) override {
    if (fd_ < 0) return Status::FailedPrecondition("file is closed");
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IoError(ErrnoMessage("truncate of", path_));
    }
    // Reposition so the next write lands at the new end even on handles
    // opened without O_APPEND (no-op for O_APPEND ones).
    if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
      return Status::IoError(ErrnoMessage("seek in", path_));
    }
    return Status::Ok();
  }

  Status Close() override {
    if (fd_ < 0) return Status::Ok();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Status::IoError(ErrnoMessage("close of", path_));
    return Status::Ok();
  }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    return OpenWritable(path, O_WRONLY | O_CREAT | O_APPEND);
  }

  Result<std::unique_ptr<WritableFile>> NewTruncatedFile(
      const std::string& path) override {
    return OpenWritable(path, O_WRONLY | O_CREAT | O_TRUNC);
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) {
        return Status::NotFound("no such file: '" + path + "'");
      }
      return Status::IoError(ErrnoMessage("cannot open", path));
    }
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status failed = Status::IoError(ErrnoMessage("read of", path));
        ::close(fd);
        return failed;
      }
      if (n == 0) break;
      out->append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return Status::Ok();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IoError(ErrnoMessage("rename to", to));
    }
    return Status::Ok();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError(ErrnoMessage("remove of", path));
    }
    return Status::Ok();
  }

  Status CreateDir(const std::string& path) override {
    if (path.empty()) return Status::InvalidArgument("empty directory path");
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      if (S_ISDIR(st.st_mode)) return Status::Ok();
      return Status::IoError("'" + path + "' exists and is not a directory");
    }
    if (::mkdir(path.c_str(), 0775) != 0 && errno != EEXIST) {
      return Status::IoError(ErrnoMessage("cannot create directory", path));
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Status::IoError(ErrnoMessage("cannot open dir", dir));
    const int rc = ::fsync(fd);
    ::close(fd);
    // Some filesystems reject fsync on directories (EINVAL); the rename is
    // still atomic there, only the power-cut guarantee weakens.
    if (rc != 0 && errno != EINVAL) {
      return Status::IoError(ErrnoMessage("fsync failed for dir", dir));
    }
    return Status::Ok();
  }

  Status ListDir(const std::string& dir,
                 std::vector<std::string>* names) override {
    names->clear();
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) {
      return Status::IoError(ErrnoMessage("cannot list dir", dir));
    }
    while (struct dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names->push_back(name);
    }
    ::closedir(handle);
    return Status::Ok();
  }

 private:
  Result<std::unique_ptr<WritableFile>> OpenWritable(const std::string& path,
                                                     int flags) {
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::IoError(ErrnoMessage("cannot open", path));
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(path, fd));
  }
};

#endif  // !_WIN32

}  // namespace

Env* Env::Default() {
#ifndef _WIN32
  static PosixEnv* env = new PosixEnv();  // intentionally leaked singleton
  return env;
#else
  return nullptr;
#endif
}

}  // namespace cce::io
