// Clean lock-discipline fixture: the blessed acquisition patterns from
// SchedulerService must produce zero violations.
#include <mutex>
#include <shared_mutex>

class GoodService {
 public:
  // Ascending ranks: dispatch mutex (10), then inference mutex (20).
  void dispatch_wave() {
    std::lock_guard lock(dispatch_mutex_);
    std::lock_guard inference_lock(inference_mutex_);
  }

  // The index lock (30) is a leaf, taken on top of the dispatch mutex only
  // around an index write, and released before anything else.
  void refresh() {
    std::lock_guard lock(dispatch_mutex_);
    {
      std::unique_lock index_lock(index_mutex_);
    }
    std::lock_guard inference_lock(inference_mutex_);
  }

  // Routing holds the index lock shared, alone.
  void route() const { std::shared_lock lock(index_mutex_); }

  // defer_lock acquires nothing, so no ordering fact is recorded.
  void deferred(std::mutex& m) {
    std::unique_lock lock(m, std::defer_lock);
  }

 private:
  std::mutex dispatch_mutex_;
  std::mutex inference_mutex_;
  mutable std::shared_mutex index_mutex_;
};
