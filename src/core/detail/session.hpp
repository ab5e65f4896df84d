// The two layers the old Runtime singleton was split into (ROADMAP item 2):
//
//  * SharedDeviceState — everything that is genuinely per *machine*: the
//    platform/context, one in-order command queue per device, the kernel
//    compile cache and host-program cache, the device blacklist and the
//    simulated clock.  One instance per process, shared by every tenant.
//
//  * Session — everything that is per *tenant*: partition weights and their
//    epoch, the trace stream tag, a VRAM quota and the fair-share weight the
//    admission scheduler (core/service.hpp) uses.  Skeleton execution, the
//    ExecGraph engine and VectorData all take an explicit Session& instead
//    of reaching for a global.
//
// Concurrency model: sessions may live on different threads.  All device
// state — queues, timelines, caches, the blacklist — is guarded by one
// recursive mutex on SharedDeviceState, acquired by ExecGraph::run, the
// VectorData host-sync paths and the skelcl free functions; per-session
// counters that outlive the lock (VRAM, device time) are atomics.  See
// docs/SERVICE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/distribution.hpp"
#include "kernelc/value.hpp"
#include "ocl/ocl.hpp"

namespace skelcl::detail {

class SharedDeviceState {
 public:
  explicit SharedDeviceState(sim::SystemConfig config);

  SharedDeviceState(const SharedDeviceState&) = delete;
  SharedDeviceState& operator=(const SharedDeviceState&) = delete;

  ocl::Platform& platform() { return *platform_; }
  ocl::Context& context() { return *context_; }
  sim::System& system() { return platform_->system(); }
  int deviceCount() const { return platform_->deviceCount(); }
  ocl::Device& device(int id) { return platform_->device(id); }
  ocl::CommandQueue& queue(int device);

  /// The lock every device-touching execution path holds (recursive: the
  /// skeleton entry points, ExecGraph::run and the blacklist/recovery path
  /// nest freely on one thread).
  std::recursive_mutex& mutex() const { return mutex_; }

  /// Reset the simulated clock *and* every queue's in-order watermark.  The
  /// two must move together (a queue with a pre-reset watermark would give
  /// post-reset commands completion times of a dead clock).
  void resetClock();

  // --- device blacklisting (fault tolerance, shared by all sessions) --------
  /// Permanently remove `device` from skeleton execution: bump the device
  /// epoch so every session's cached partition plans replan over the
  /// survivors, and record a redistribution trace event.  Idempotent; throws
  /// when the last device would die.
  void blacklistDevice(int device, const std::string& reason);
  const std::vector<int>& aliveDevices() const { return alive_; }
  int aliveDeviceCount() const { return static_cast<int>(alive_.size()); }
  bool deviceAlive(int device) const;

  /// Bumped by blacklistDevice; a component of every session's partition
  /// epoch, so one device death invalidates all tenants' partition plans.
  std::uint64_t deviceEpoch() const { return device_epoch_; }

  // --- cluster topology (docl, docs/CLUSTER.md) -----------------------------
  /// device id -> cluster node id, from the system config (all zeros on a
  /// single machine).  Immutable over the state's lifetime.
  const std::vector<int>& deviceNodes() const { return device_nodes_; }
  /// True when devices span more than one cluster node: node-aware
  /// partitioning and tree collectives apply.
  bool multiNode() const { return multi_node_; }

  // --- degraded devices (gray failures, docs/ROBUSTNESS.md) -----------------
  /// Demote `device` after a watchdog timeout: its partition-plan health
  /// drops to kDegradedHealth (every session's unweighted block split shifts
  /// work away from it), the device epoch bumps so cached plans replan, and
  /// a Degrade trace record is emitted.  The kDegradeStrikes-th demotion
  /// escalates to blacklistDevice — a device that keeps timing out is dead
  /// for scheduling purposes.  The middle state between healthy and
  /// blacklisted: unlike death, data on the device stays valid.
  void degradeDevice(int device, const std::string& reason);
  /// Per-device health factor applied to partition weights (1 = healthy).
  std::vector<double> deviceHealth() const;
  /// Watchdog timeouts charged against `device` so far.
  int degradeCount(int device) const;

  static constexpr double kDegradedHealth = 0.25;
  static constexpr int kDegradeStrikes = 3;

  /// Compile-or-reuse: generated skeleton programs are cached by source so
  /// the runtime-compilation cost is paid once per distinct program — and
  /// once across *all* sessions (the paper excludes compilation from
  /// measurements for the same reason).
  std::shared_ptr<ocl::Program> programForSource(const std::string& source);
  /// Every program programForSource has built and cached so far.
  std::vector<std::shared_ptr<ocl::Program>> cachedPrograms() const;

  /// Compile (and cache) a user operation for host-side execution through
  /// the kernel VM (reduce fold, scan offsets, copy combining).
  std::shared_ptr<const kc::CompiledProgram> hostProgram(const std::string& userSource);

 private:
  std::unique_ptr<ocl::Platform> platform_;
  std::unique_ptr<ocl::Context> context_;
  std::vector<std::unique_ptr<ocl::CommandQueue>> queues_;
  std::unordered_map<std::string, std::shared_ptr<ocl::Program>> programCache_;
  std::unordered_map<std::string, std::shared_ptr<const kc::CompiledProgram>> hostFnCache_;
  std::uint64_t device_epoch_ = 0;
  std::vector<int> alive_;
  std::vector<int> device_nodes_;  ///< device id -> cluster node id
  bool multi_node_ = false;
  std::vector<char> dead_;
  std::vector<double> health_;       ///< partition-weight factor; 1 = healthy
  std::vector<int> degrade_counts_;  ///< watchdog strikes per device
  mutable std::recursive_mutex mutex_;
};

/// Knobs of a tenant session (see docs/SERVICE.md).
struct SessionOptions {
  std::string name;                  ///< trace stream tag ("" = "session <id>")
  double shareWeight = 1.0;          ///< fair-share weight (device time ratio)
  std::uint64_t vramQuotaBytes = 0;  ///< modeled VRAM budget; 0 = unlimited
};

/// One tenant of the shared device pool.  Owns the per-tenant scheduler
/// state; forwards device access to the SharedDeviceState it was created
/// over.  Always held in a shared_ptr (vectors keep their charging session
/// alive past skelcl::terminate()).
class Session : public std::enable_shared_from_this<Session> {
 public:
  Session(std::shared_ptr<SharedDeviceState> shared, int id, SessionOptions opts);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SharedDeviceState& shared() { return *shared_; }
  const std::shared_ptr<SharedDeviceState>& sharedPtr() const { return shared_; }
  int id() const { return id_; }
  const std::string& name() const { return name_; }

  // --- device access passthroughs (keep call sites terse) -------------------
  sim::System& system() { return shared_->system(); }
  ocl::Context& context() { return shared_->context(); }
  int deviceCount() const { return shared_->deviceCount(); }
  ocl::Device& device(int id) { return shared_->device(id); }
  ocl::CommandQueue& queue(int device) { return shared_->queue(device); }
  const std::vector<int>& aliveDevices() const { return shared_->aliveDevices(); }
  std::shared_ptr<ocl::Program> programForSource(const std::string& source) {
    return shared_->programForSource(source);
  }
  std::shared_ptr<const kc::CompiledProgram> hostProgram(const std::string& userSource) {
    return shared_->hostProgram(userSource);
  }
  void blacklistDevice(int device, const std::string& reason) {
    shared_->blacklistDevice(device, reason);
  }

  // --- per-tenant partition weights (paper Section V) -----------------------
  void setPartitionWeights(std::vector<double> weights);
  std::vector<double> partitionWeights() const;
  /// partitionWeights() when they apply to the *current* device set; empty
  /// otherwise.  Weights are indexed by absolute device id, so the vector
  /// must have exactly one entry per device of the machine and a positive
  /// total over aliveDevices(); a stale vector falls back to the unweighted
  /// block split.  Returns by value: the alive set is shared mutable state.
  std::vector<double> applicablePartitionWeights() const;
  /// Bumped whenever this session's weights change *or* a device dies
  /// anywhere (weight epoch + shared device epoch, both monotonic).
  /// VectorData uses (session id, this) as its partition-plan cache key.
  std::uint64_t partitionEpoch() const;

  /// The one place the "unweighted block picks up scheduler weights" rule
  /// lives (previously copy-pasted into vector_data.cpp and
  /// skeleton_exec.cpp): resolve `d` against this session's weights.
  Distribution effectiveDistribution(const Distribution& d) const;

  /// effectiveDistribution(d) partitioned over the alive devices — the one
  /// entry point skeletons and VectorData use.  On multi-node (docl)
  /// systems the block split is node-aware: part boundaries align with node
  /// boundaries so halo/combine traffic prefers intra-node paths.
  std::vector<PartRange> partition(const Distribution& d, std::size_t count) const;

  bool multiNode() const { return shared_->multiNode(); }
  const std::vector<int>& deviceNodes() const { return shared_->deviceNodes(); }

  // --- fair share (core/service.hpp) ---------------------------------------
  double shareWeight() const { return share_weight_; }
  void setShareWeight(double w) { share_weight_ = w; }
  /// Simulated device-seconds this session's commands have occupied; charged
  /// by ExecGraph::run per issued device stage.
  double deviceTimeUsed() const { return device_time_.load(std::memory_order_relaxed); }
  void chargeDeviceTime(double seconds);

  // --- VRAM quota -----------------------------------------------------------
  std::uint64_t vramQuota() const { return vram_quota_; }
  void setVramQuota(std::uint64_t bytes) { vram_quota_ = bytes; }
  std::uint64_t vramUsed() const { return vram_used_.load(std::memory_order_relaxed); }
  /// Account `bytes` of device memory to this session; throws ResourceError
  /// when the quota would be exceeded (the device-level capacity check in
  /// ocl::Device::allocate still applies on top).
  void chargeVram(std::uint64_t bytes);
  void releaseVram(std::uint64_t bytes);

  // --- thread-current session ----------------------------------------------
  /// The session skeleton calls on this thread run under: the innermost
  /// SessionScope, or the process-wide default session of the Runtime
  /// facade.  Throws when neither exists (call skelcl::init first).
  static Session& current();
  /// current(), or nullptr when no scope is active and the runtime is not
  /// initialized (pure host-side Vector use needs no session).
  static Session* currentIfAny();

 private:
  friend class SessionScope;

  std::shared_ptr<SharedDeviceState> shared_;
  int id_;
  std::string name_;
  std::vector<double> weights_;
  std::uint64_t weight_epoch_ = 0;
  double share_weight_ = 1.0;
  std::uint64_t vram_quota_ = 0;
  std::atomic<std::uint64_t> vram_used_{0};
  std::atomic<double> device_time_{0.0};
};

/// RAII: makes `session` the thread's current session for its lifetime.
/// Scopes nest; the previous current session is restored on destruction.
class SessionScope {
 public:
  explicit SessionScope(std::shared_ptr<Session> session);
  ~SessionScope();

  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  std::shared_ptr<Session> session_;
  Session* previous_;
};

/// Shorthand for Session::current().
Session& currentSession();

}  // namespace skelcl::detail
