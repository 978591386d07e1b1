// Lock-discipline fixture: each marked line must fire exactly its rule.
// Linted as src/serve/lock_discipline.cpp, but the lock rules are tree-wide;
// the shapes below mirror SchedulerService locking.
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

class BadService {
 public:
  // Rank inversion: the inference mutex (rank 20) may only be taken after
  // the dispatch mutex (rank 10) it coordinates with.
  void inference_then_dispatch() {
    std::lock_guard inference_lock(inference_mutex_);
    std::lock_guard dispatch_lock(dispatch_mutex_);  // VIOLATION lock-order
  }

  // Same mutex twice on one path self-deadlocks a non-recursive mutex.
  void dispatch_twice() {
    std::lock_guard first(dispatch_mutex_);
    std::lock_guard again(dispatch_mutex_);  // VIOLATION lock-double
  }

  // Guards accumulated in a container are acquisitions too.
  void accumulated() {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.emplace_back(inference_mutex_);
    locks.emplace_back(dispatch_mutex_);  // VIOLATION lock-order
  }

  // The index lock is a leaf: nothing may be acquired under it.
  void under_leaf() {
    std::shared_lock lock(index_mutex_);
    std::lock_guard inference_lock(inference_mutex_);  // VIOLATION lock-order
  }

  // Bare calls bypass RAII: an early return or exception leaks the lock.
  void bare_calls() {
    inference_mutex_.lock();    // VIOLATION bare-lock
    inference_mutex_.unlock();  // VIOLATION bare-lock
  }

 private:
  std::mutex dispatch_mutex_;
  std::mutex inference_mutex_;
  mutable std::shared_mutex index_mutex_;
};
