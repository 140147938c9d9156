#include "common/fork_join.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace lhrs {

namespace {

/// Worker threads 1, 2, ..., parked between jobs. Never destroyed, so a
/// parked worker may outlive main() without touching freed state.
class Workers {
 public:
  /// Claimed by the one caller that may run a job at a time.
  std::atomic<bool> busy{false};
  /// The process that created the workers; a forked child has none.
  const pid_t owner = getpid();

  /// Runs one job; the caller has claimed `busy`.
  void Run(size_t parts, const std::function<void(size_t)>& part) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (threads_ + 1 < parts) {
        std::thread(&Workers::Work, this, ++threads_).detach();
      }
      job_ = &part;
      parts_ = parts;
      pending_ = parts - 1;
      ++generation_;
    }
    wake_.notify_all();
    part(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void Work(size_t index) {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (index >= parts_) continue;  // Not needed for this job.
      const std::function<void(size_t)>& part = *job_;
      lock.unlock();
      part(index);
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  size_t threads_ = 0;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t parts_ = 0;
  size_t pending_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace

size_t ForkJoinWidth() {
  static const size_t width =
      std::max(1u, std::thread::hardware_concurrency());
  return width;
}

void ForkJoin(size_t parts, const std::function<void(size_t)>& part) {
  LHRS_CHECK_LE(parts, ForkJoinWidth());
  if (parts > 1) {
    static Workers* const workers = new Workers();
    if (workers->owner == getpid() &&
        !workers->busy.exchange(true, std::memory_order_acquire)) {
      workers->Run(parts, part);
      workers->busy.store(false, std::memory_order_release);
      return;
    }
  }
  for (size_t p = 0; p < parts; ++p) part(p);
}

}  // namespace lhrs
