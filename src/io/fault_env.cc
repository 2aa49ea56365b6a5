#include "io/fault_env.h"

#include <algorithm>
#include <utility>

namespace cce::io {
namespace {

/// Wraps a base WritableFile; every mutating call first consults the env's
/// fault schedule. Keeps no fault state of its own so arming calls made
/// after the file was opened still apply to it.
class FaultingWritableFile : public WritableFile {
 public:
  FaultingWritableFile(FaultInjectingEnv* env,
                       std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    const FaultInjectingEnv::AppendPlan plan = env_->PlanAppend(data.size());
    if (!plan.fail) return base_->Append(data);
    if (plan.keep_bytes > 0) {
      // The torn prefix really lands in the base file: recovery sees the
      // same bytes a crash mid-write would have left.
      Status torn = base_->Append(data.substr(0, plan.keep_bytes));
      if (!torn.ok()) return torn;
    }
    if (plan.disk_full) {
      return Status::IoError("injected ENOSPC: no space left on device");
    }
    return Status::IoError("injected append failure (EIO)");
  }

  Status Sync() override {
    CCE_RETURN_IF_ERROR(env_->PlanSync());
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override {
    CCE_RETURN_IF_ERROR(env_->PlanTruncate());
    return base_->Truncate(size);
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

}  // namespace

FaultInjectingEnv::FaultInjectingEnv(Env* base)
    : FaultInjectingEnv(base, Options()) {}

FaultInjectingEnv::FaultInjectingEnv(Env* base, const Options& options)
    : base_(base), options_(options), rng_(options.seed) {}

void FaultInjectingEnv::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

void FaultInjectingEnv::FailNextAppend() {
  std::lock_guard<std::mutex> lock(mu_);
  ++armed_append_failures_;
}

void FaultInjectingEnv::TearNextAppend(uint64_t keep_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_tear_keep_bytes_ = keep_bytes;
}

void FaultInjectingEnv::FailNextSync() {
  std::lock_guard<std::mutex> lock(mu_);
  ++armed_sync_failures_;
}

void FaultInjectingEnv::FailNextTruncate() {
  std::lock_guard<std::mutex> lock(mu_);
  ++armed_truncate_failures_;
}

void FaultInjectingEnv::FailNextRename() {
  std::lock_guard<std::mutex> lock(mu_);
  ++armed_rename_failures_;
}

void FaultInjectingEnv::FailNextRead() {
  std::lock_guard<std::mutex> lock(mu_);
  ++armed_read_failures_;
}

void FaultInjectingEnv::ShortenNextRead(uint64_t drop_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_short_read_drop_ = drop_bytes;
}

void FaultInjectingEnv::ExhaustSpaceAfter(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  space_budget_ = bytes;
}

void FaultInjectingEnv::ReplenishSpace() {
  std::lock_guard<std::mutex> lock(mu_);
  space_budget_.reset();
}

FaultInjectingEnv::Stats FaultInjectingEnv::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FaultInjectingEnv::AppendPlan FaultInjectingEnv::PlanAppend(uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendPlan plan;
  if (!enabled_ || size == 0) return plan;
  if (armed_append_failures_ > 0) {
    --armed_append_failures_;
    ++stats_.append_errors;
    plan.fail = true;
    return plan;
  }
  if (armed_tear_keep_bytes_.has_value()) {
    plan.fail = true;
    plan.keep_bytes = std::min(*armed_tear_keep_bytes_, size - 1);
    armed_tear_keep_bytes_.reset();
    ++stats_.torn_appends;
    return plan;
  }
  if (space_budget_.has_value()) {
    if (*space_budget_ < size) {
      plan.fail = true;
      plan.disk_full = true;
      plan.keep_bytes = *space_budget_;  // partial landing, like real ENOSPC
      *space_budget_ = 0;
      ++stats_.space_exhausted_errors;
      return plan;
    }
    *space_budget_ -= size;
  }
  if (options_.write_error_probability > 0.0 &&
      rng_.Bernoulli(options_.write_error_probability)) {
    ++stats_.append_errors;
    plan.fail = true;
    return plan;
  }
  if (options_.torn_write_probability > 0.0 &&
      rng_.Bernoulli(options_.torn_write_probability)) {
    plan.fail = true;
    plan.keep_bytes = size > 1 ? rng_.Uniform(size - 1) + 1 : 0;
    ++stats_.torn_appends;
    return plan;
  }
  return plan;
}

Status FaultInjectingEnv::PlanSync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return Status::Ok();
  if (armed_sync_failures_ > 0) {
    --armed_sync_failures_;
    ++stats_.sync_errors;
    return Status::IoError("injected fsync failure");
  }
  if (options_.sync_error_probability > 0.0 &&
      rng_.Bernoulli(options_.sync_error_probability)) {
    ++stats_.sync_errors;
    return Status::IoError("injected fsync failure");
  }
  return Status::Ok();
}

Status FaultInjectingEnv::PlanTruncate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return Status::Ok();
  if (armed_truncate_failures_ > 0) {
    --armed_truncate_failures_;
    ++stats_.truncate_errors;
    return Status::IoError("injected truncate failure");
  }
  if (options_.truncate_error_probability > 0.0 &&
      rng_.Bernoulli(options_.truncate_error_probability)) {
    ++stats_.truncate_errors;
    return Status::IoError("injected truncate failure");
  }
  return Status::Ok();
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewAppendableFile(
    const std::string& path) {
  CCE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->NewAppendableFile(path));
  return std::unique_ptr<WritableFile>(
      new FaultingWritableFile(this, std::move(base)));
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewTruncatedFile(
    const std::string& path) {
  CCE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->NewTruncatedFile(path));
  return std::unique_ptr<WritableFile>(
      new FaultingWritableFile(this, std::move(base)));
}

Status FaultInjectingEnv::ReadFileToString(const std::string& path,
                                           std::string* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (enabled_) {
      if (armed_read_failures_ > 0) {
        --armed_read_failures_;
        ++stats_.read_errors;
        return Status::IoError("injected read failure (EIO)");
      }
      if (options_.read_error_probability > 0.0 &&
          rng_.Bernoulli(options_.read_error_probability)) {
        ++stats_.read_errors;
        return Status::IoError("injected read failure (EIO)");
      }
    }
  }
  CCE_RETURN_IF_ERROR(base_->ReadFileToString(path, out));
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_ || out->empty()) return Status::Ok();
  uint64_t drop = 0;
  if (armed_short_read_drop_.has_value()) {
    drop = std::min<uint64_t>(*armed_short_read_drop_, out->size());
    armed_short_read_drop_.reset();
  } else if (options_.short_read_probability > 0.0 &&
             rng_.Bernoulli(options_.short_read_probability)) {
    drop = rng_.Uniform(out->size()) + 1;
  }
  if (drop > 0) {
    out->resize(out->size() - static_cast<size_t>(drop));
    ++stats_.short_reads;
  }
  return Status::Ok();
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (enabled_) {
      if (armed_rename_failures_ > 0) {
        --armed_rename_failures_;
        ++stats_.rename_errors;
        return Status::IoError("injected rename failure");
      }
      if (options_.rename_error_probability > 0.0 &&
          rng_.Bernoulli(options_.rename_error_probability)) {
        ++stats_.rename_errors;
        return Status::IoError("injected rename failure");
      }
    }
  }
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}

Status FaultInjectingEnv::SyncDir(const std::string& dir) {
  return base_->SyncDir(dir);
}

Status FaultInjectingEnv::ListDir(const std::string& dir,
                                  std::vector<std::string>* names) {
  return base_->ListDir(dir, names);
}

}  // namespace cce::io
