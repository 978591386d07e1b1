// Fix-sized warm resource pool (paper Sec. III): idle containers are parked
// here between executions; admission may evict (LRU / FaasCache greedy-dual)
// or be rejected (KeepAlive) when capacity is exceeded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "containers/container.hpp"

namespace mlcr::obs {
class Tracer;
}

namespace mlcr::containers {

class WarmPool;

/// Strategy invoked when an admission would exceed the pool's memory budget.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Pick the container to evict; nullopt means "evict nothing" which forces
  /// the admission to be rejected. `idle` is never empty.
  [[nodiscard]] virtual ContainerId choose_victim(
      const std::vector<const Container*>& idle, double now) = 0;

  /// If true the pool rejects admissions that do not fit instead of evicting
  /// (the paper's KeepAlive baseline rejects keep-warm requests when full).
  [[nodiscard]] virtual bool reject_when_full() const { return false; }

  /// Hook called after a container is admitted (FaasCache refreshes its
  /// greedy-dual priority here).
  virtual void on_admit(Container& container, double now) {
    (void)container;
    (void)now;
  }

  /// Hook called when a container leaves the pool for reuse.
  virtual void on_take(const Container& container, double now) {
    (void)container;
    (void)now;
  }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Evicts the least recently used idle container (paper default, Sec. III).
class LruEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] ContainerId choose_victim(
      const std::vector<const Container*>& idle, double now) override;
  [[nodiscard]] const char* name() const override { return "LRU"; }
};

/// FaasCache (Fuerst & Sharma, ASPLOS'21) greedy-dual keep-alive: each
/// container carries priority = clock + frequency * cost / size; the minimum
/// priority is evicted and its priority becomes the new clock.
class FaasCacheEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] ContainerId choose_victim(
      const std::vector<const Container*>& idle, double now) override;
  void on_admit(Container& container, double now) override;
  [[nodiscard]] const char* name() const override { return "FaasCache"; }

  [[nodiscard]] double clock() const noexcept { return clock_; }

 private:
  [[nodiscard]] double frequency(FunctionTypeId fn) const;

  double clock_ = 0.0;
  std::unordered_map<FunctionTypeId, std::uint64_t> admit_counts_;
};

/// KeepAlive baseline: never evicts on admission (rejects instead); idle
/// containers expire after a fixed TTL via WarmPool::expire_older_than.
class RejectWhenFull final : public EvictionPolicy {
 public:
  [[nodiscard]] ContainerId choose_victim(
      const std::vector<const Container*>& idle, double now) override;
  [[nodiscard]] bool reject_when_full() const override { return true; }
  [[nodiscard]] const char* name() const override { return "KeepAlive"; }
};

/// The pool itself. Owns idle containers; containers executing on workers
/// live outside (the simulator moves them in/out). Tracks peak usage and
/// eviction counts for the Fig. 10 experiment.
class WarmPool {
 public:
  /// `max_count` additionally caps how many containers the pool may hold
  /// (this is the scheduler's slot count n, paper Sec. IV-B); 0 = unlimited.
  WarmPool(double capacity_mb, std::unique_ptr<EvictionPolicy> eviction,
           std::size_t max_count = 0);

  enum class AdmitOutcome : std::uint8_t {
    kAdmitted,  ///< now idle in the pool (possibly after evictions)
    kRejected,  ///< did not fit and the policy declined to evict
  };

  /// Park an idle container. The container's state must be kIdle and
  /// last_idle_at set to `now` by the caller's environment; the pool asserts
  /// the former. A container larger than the whole pool is always rejected.
  AdmitOutcome admit(Container container, double now);

  /// Remove a container for reuse. Returns nullopt if absent.
  [[nodiscard]] std::optional<Container> take(ContainerId id, double now);

  [[nodiscard]] const Container* find(ContainerId id) const;

  /// Idle containers in ascending last_idle_at (LRU first). Pointers are
  /// invalidated by any mutation of the pool.
  [[nodiscard]] std::vector<const Container*> idle_containers() const;

  /// Call `visit(const Container&)` on every idle container, in an order
  /// callers must not rely on, without allocating. `visit` must not mutate
  /// the pool.
  template <typename Visit>
  void for_each_idle(Visit&& visit) const {
    for (const auto& entry : by_id_) visit(entry.second);
  }

  /// Evict every container idle since before now - ttl (KeepAlive TTL).
  /// Returns the number evicted.
  std::size_t expire_older_than(double now, double ttl_s);

  /// last_idle_at of the longest-idle container, or nullopt when empty.
  /// The earliest time any TTL expiry can fire — the event-driven fleet
  /// derives per-node expiry deadlines from it (DESIGN.md §10).
  [[nodiscard]] std::optional<double> oldest_idle_at() const;

  /// Crash support (DESIGN.md §9): drop every idle container at once — the
  /// node's warm memory is gone. Not counted as evictions (the caller
  /// records the crash itself); peak statistics are preserved. Returns the
  /// number of containers dropped.
  std::size_t invalidate_all(double now);

  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }
  [[nodiscard]] bool empty() const noexcept { return by_id_.empty(); }
  [[nodiscard]] double capacity_mb() const noexcept { return capacity_mb_; }
  /// Container-count cap; 0 means unlimited.
  [[nodiscard]] std::size_t max_count() const noexcept { return max_count_; }
  [[nodiscard]] double used_mb() const noexcept { return used_mb_; }
  [[nodiscard]] double free_mb() const noexcept {
    return capacity_mb_ - used_mb_;
  }

  [[nodiscard]] std::size_t eviction_count() const noexcept {
    return evictions_;
  }
  [[nodiscard]] std::size_t rejection_count() const noexcept {
    return rejections_;
  }
  [[nodiscard]] double peak_used_mb() const noexcept { return peak_used_mb_; }

  [[nodiscard]] const EvictionPolicy& eviction_policy() const {
    return *eviction_;
  }

  /// Attach a tracer: admissions/rejections/evictions/expiries become
  /// instants and occupancy becomes counters on (obs::Tracer::kSimPid,
  /// `track`), timestamped with the caller-supplied simulated `now`. The
  /// pool does not own the tracer; nullptr detaches.
  void set_tracer(obs::Tracer* tracer, std::uint32_t track = 0) noexcept {
    tracer_ = tracer;
    track_ = track;
  }

  /// Invariant auditor: byte accounting matches the summed container sizes,
  /// every pooled container is idle with a consistent id, and capacity /
  /// count caps hold. Throws util::CheckError on violation. Called after
  /// every mutation in audit-enabled builds (see util/audit.hpp); tests call
  /// it directly on corrupted state.
  void audit() const;

 private:
  friend struct PoolTestPeer;  ///< test-only corruption hook (tests/sim)

  void erase(ContainerId id);
  [[nodiscard]] bool traced() const noexcept;
  void trace_instant(double now, const char* name, const Container& c) const;
  void trace_occupancy(double now) const;

  double capacity_mb_ = 0.0;
  std::size_t max_count_ = 0;
  std::unique_ptr<EvictionPolicy> eviction_;
  /// Ordered by id: every scan over the pool (idle listing, TTL expiry,
  /// audit) is deterministic by construction. simlint bans iterating
  /// unordered containers into metrics/eviction decisions.
  std::map<ContainerId, Container> by_id_;
  double used_mb_ = 0.0;
  double peak_used_mb_ = 0.0;
  std::size_t evictions_ = 0;
  std::size_t rejections_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
};

}  // namespace mlcr::containers
