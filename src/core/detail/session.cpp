#include "core/detail/session.hpp"

#include <cstdlib>

#include "core/detail/trace.hpp"
#include "kernelc/program.hpp"

namespace skelcl::detail {

// ---------------------------------------------------------------------------
// SharedDeviceState
// ---------------------------------------------------------------------------

SharedDeviceState::SharedDeviceState(sim::SystemConfig config) {
  platform_ = std::make_unique<ocl::Platform>(std::move(config));
  context_ = std::make_unique<ocl::Context>(platform_->devices());
  for (int d = 0; d < platform_->deviceCount(); ++d) {
    queues_.push_back(
        std::make_unique<ocl::CommandQueue>(*context_, platform_->device(d), ocl::Api::OpenCL));
    alive_.push_back(d);
  }
  dead_.assign(static_cast<std::size_t>(platform_->deviceCount()), 0);
  health_.assign(static_cast<std::size_t>(platform_->deviceCount()), 1.0);
  degrade_counts_.assign(static_cast<std::size_t>(platform_->deviceCount()), 0);
  for (const auto& dev : system().config().devices) device_nodes_.push_back(dev.node);
  multi_node_ = system().config().multiNode();
  // SKELCL_FAULTS configures fault injection without touching application
  // code (mirrors SKELCL_TRACE for observability).
  sim::FaultPlan envPlan = sim::FaultPlan::fromEnv();
  if (!envPlan.empty()) system().faults().install(std::move(envPlan));
  // SKELCL_WATCHDOG=0 disables the straggler/hang watchdog (docs/ROBUSTNESS.md).
  if (const char* wd = std::getenv("SKELCL_WATCHDOG")) {
    const std::string v = wd;
    if (v == "0" || v == "off" || v == "false") {
      sim::WatchdogConfig config = system().watchdog();
      config.enabled = false;
      system().setWatchdog(config);
    } else if (v == "1" || v == "on" || v == "true" || v.empty()) {
      sim::WatchdogConfig config = system().watchdog();
      config.enabled = true;
      system().setWatchdog(config);
    } else {
      throw UsageError("SKELCL_WATCHDOG: expected 0/1/on/off, got '" + v + "'");
    }
  }
}

ocl::CommandQueue& SharedDeviceState::queue(int device) {
  SKELCL_CHECK(device >= 0 && device < deviceCount(), "device index out of range");
  return *queues_[static_cast<std::size_t>(device)];
}

void SharedDeviceState::resetClock() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  system().resetClock();
  for (auto& q : queues_) q->resetClock();
}

void SharedDeviceState::blacklistDevice(int device, const std::string& reason) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  SKELCL_CHECK(device >= 0 && device < deviceCount(), "device index out of range");
  if (dead_[static_cast<std::size_t>(device)]) return;
  dead_[static_cast<std::size_t>(device)] = 1;
  alive_.clear();
  for (int d = 0; d < deviceCount(); ++d) {
    if (!dead_[static_cast<std::size_t>(d)]) alive_.push_back(d);
  }
  if (alive_.empty()) {
    throw ResourceError("device " + std::to_string(device) +
                        " failed and no devices survive: " + reason);
  }
  ++device_epoch_;  // every session's cached partition plans replan over survivors
  if (trace::enabled()) {
    trace::Record r;
    r.kind = trace::Record::Kind::Redistribute;
    r.device = device;
    r.start = system().hostNow();
    r.end = system().hostNow();
    r.name = "blacklist dev" + std::to_string(device) + " (" + reason + "); " +
             std::to_string(alive_.size()) + " device(s) remain";
    trace::record(std::move(r));
  }
}

void SharedDeviceState::degradeDevice(int device, const std::string& reason) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  SKELCL_CHECK(device >= 0 && device < deviceCount(), "device index out of range");
  if (dead_[static_cast<std::size_t>(device)]) return;
  const int strikes = ++degrade_counts_[static_cast<std::size_t>(device)];
  if (strikes >= kDegradeStrikes) {
    blacklistDevice(device, "repeatedly timed out (" + std::to_string(strikes) +
                                " watchdog strikes): " + reason);
    return;
  }
  health_[static_cast<std::size_t>(device)] = kDegradedHealth;
  ++device_epoch_;  // cached partition plans replan with the reduced weight
  if (trace::enabled()) {
    trace::Record r;
    r.kind = trace::Record::Kind::Degrade;
    r.device = device;
    r.start = system().hostNow();
    r.end = system().hostNow();
    r.name = "degrade dev" + std::to_string(device) + " to weight x" +
             std::to_string(kDegradedHealth) + " (strike " + std::to_string(strikes) +
             "/" + std::to_string(kDegradeStrikes) + "): " + reason;
    trace::record(std::move(r));
  }
}

std::vector<double> SharedDeviceState::deviceHealth() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return health_;
}

int SharedDeviceState::degradeCount(int device) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (device < 0 || device >= deviceCount()) return 0;
  return degrade_counts_[static_cast<std::size_t>(device)];
}

bool SharedDeviceState::deviceAlive(int device) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return device >= 0 && device < deviceCount() &&
         !dead_[static_cast<std::size_t>(device)];
}

namespace {

// Cache key: the compile pipeline is part of a compiled program's identity.
// SKELCL_KC_OPT can change between calls (skelcheck toggles it per program),
// so a cache keyed by source alone would serve a program compiled by a stale
// pipeline.
std::string cacheKey(const std::string& source) {
  return (kc::defaultCompileOptions().optimize ? "1\n" : "0\n") + source;
}

}  // namespace

std::shared_ptr<ocl::Program> SharedDeviceState::programForSource(const std::string& source) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  const std::string key = cacheKey(source);
  auto it = programCache_.find(key);
  if (it != programCache_.end()) return it->second;
  auto program = std::make_shared<ocl::Program>(*context_, source);
  program->build();
  programCache_.emplace(key, program);
  return program;
}

std::vector<std::shared_ptr<ocl::Program>> SharedDeviceState::cachedPrograms() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<std::shared_ptr<ocl::Program>> programs;
  for (const auto& entry : programCache_) programs.push_back(entry.second);
  return programs;
}

std::shared_ptr<const kc::CompiledProgram> SharedDeviceState::hostProgram(
    const std::string& userSource) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  const std::string key = cacheKey(userSource);
  auto it = hostFnCache_.find(key);
  if (it != hostFnCache_.end()) return it->second;
  auto program = kc::compileProgram(userSource);
  SKELCL_CHECK(program->findFunction("func") >= 0,
               "user operation must define a function named 'func'");
  hostFnCache_.emplace(key, program);
  return program;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(std::shared_ptr<SharedDeviceState> shared, int id, SessionOptions opts)
    : shared_(std::move(shared)), id_(id) {
  SKELCL_CHECK(shared_ != nullptr, "session needs a shared device state");
  name_ = opts.name.empty() ? "session " + std::to_string(id) : std::move(opts.name);
  share_weight_ = opts.shareWeight;
  vram_quota_ = opts.vramQuotaBytes;
}

void Session::setPartitionWeights(std::vector<double> weights) {
  std::lock_guard<std::recursive_mutex> lock(shared_->mutex());
  weights_ = std::move(weights);
  ++weight_epoch_;
}

std::vector<double> Session::partitionWeights() const {
  std::lock_guard<std::recursive_mutex> lock(shared_->mutex());
  return weights_;
}

std::vector<double> Session::applicablePartitionWeights() const {
  std::lock_guard<std::recursive_mutex> lock(shared_->mutex());
  if (weights_.empty()) return {};
  if (weights_.size() != static_cast<std::size_t>(shared_->deviceCount())) return {};
  double aliveTotal = 0.0;
  for (int d : shared_->aliveDevices()) aliveTotal += weights_[static_cast<std::size_t>(d)];
  if (!(aliveTotal > 0.0)) return {};
  return weights_;
}

std::uint64_t Session::partitionEpoch() const {
  std::lock_guard<std::recursive_mutex> lock(shared_->mutex());
  // Both components are monotonic, so the sum strictly increases whenever
  // either the session's weights change or a device dies anywhere.
  return weight_epoch_ + shared_->deviceEpoch();
}

Distribution Session::effectiveDistribution(const Distribution& d) const {
  // An unweighted block distribution picks up the scheduler's weights, if any
  // (Section V: proportional workloads on heterogeneous devices), scaled by
  // the shared device-health factors so degraded stragglers receive less
  // work.  Explicitly weighted distributions are the caller's exact request
  // and stay untouched.
  if (d.kind() == Distribution::Kind::Block && d.weights().empty()) {
    std::lock_guard<std::recursive_mutex> lock(shared_->mutex());
    auto w = applicablePartitionWeights();
    const auto health = shared_->deviceHealth();
    bool anyDegraded = false;
    for (const double h : health) anyDegraded = anyDegraded || h != 1.0;
    if (!w.empty()) {
      if (anyDegraded) {
        // Both tables are indexed by absolute device id and sized to the
        // device count (applicablePartitionWeights guarantees it for the
        // weights).  A length mismatch would silently skip the health factor
        // for the tail devices — fail loudly instead of truncating.
        SKELCL_CHECK(w.size() == health.size(),
                     "partition weights and device health must both cover every device");
        for (std::size_t i = 0; i < w.size(); ++i) w[i] *= health[i];
      }
      return Distribution::block(w);
    }
    if (anyDegraded) return Distribution::block(health);
  }
  return d;
}

std::vector<PartRange> Session::partition(const Distribution& d, std::size_t count) const {
  std::lock_guard<std::recursive_mutex> lock(shared_->mutex());
  const Distribution eff = effectiveDistribution(d);
  if (shared_->multiNode()) {
    return eff.partition(count, shared_->aliveDevices(), shared_->deviceNodes());
  }
  return eff.partition(count, shared_->aliveDevices());
}

void Session::chargeDeviceTime(double seconds) {
  // fetch_add on atomic<double> via CAS: portable across libstdc++ versions.
  double cur = device_time_.load(std::memory_order_relaxed);
  while (!device_time_.compare_exchange_weak(cur, cur + seconds,
                                             std::memory_order_relaxed)) {
  }
}

void Session::chargeVram(std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t used = vram_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (vram_quota_ > 0 && used > vram_quota_) {
    vram_used_.fetch_sub(bytes, std::memory_order_relaxed);
    throw QuotaError("session '" + name_ + "' VRAM quota exceeded: needs " +
                        std::to_string(bytes) + " bytes on top of " +
                        std::to_string(used - bytes) + " used, quota " +
                        std::to_string(vram_quota_));
  }
}

void Session::releaseVram(std::uint64_t bytes) {
  if (bytes == 0) return;
  std::uint64_t cur = vram_used_.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = bytes > cur ? 0 : cur - bytes;
  } while (!vram_used_.compare_exchange_weak(cur, next, std::memory_order_relaxed));
}

Session& Session::current() {
  Session* s = currentIfAny();
  SKELCL_CHECK(s != nullptr, "no current session: call skelcl::init(...) first");
  return *s;
}

Session& currentSession() { return Session::current(); }

}  // namespace skelcl::detail
