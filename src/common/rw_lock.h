#ifndef CCE_COMMON_RW_LOCK_H_
#define CCE_COMMON_RW_LOCK_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace cce {

/// A reader/writer lock that admits no new reader while a writer waits.
/// Satisfies SharedMutex for std::shared_lock / std::unique_lock.
///
/// std::shared_mutex on glibc prefers readers: with two readers whose
/// critical sections overlap back to back, a writer can wait forever. Here
/// a waiting writer closes the door, so it waits only for the readers
/// already inside — at most one read section each.
class WriterPriorityMutex {
 public:
  void lock() {
    std::unique_lock<std::mutex> guard(mu_);
    ++waiting_writers_;
    cv_.wait(guard, [this] { return !writer_ && readers_ == 0; });
    --waiting_writers_;
    writer_ = true;
  }

  void unlock() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      writer_ = false;
    }
    cv_.notify_all();
  }

  void lock_shared() {
    std::unique_lock<std::mutex> guard(mu_);
    cv_.wait(guard, [this] { return !writer_ && waiting_writers_ == 0; });
    ++readers_;
  }

  void unlock_shared() {
    bool last = false;
    {
      std::lock_guard<std::mutex> guard(mu_);
      last = --readers_ == 0;
    }
    if (last) cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t readers_ = 0;
  size_t waiting_writers_ = 0;
  bool writer_ = false;
};

}  // namespace cce

#endif  // CCE_COMMON_RW_LOCK_H_
