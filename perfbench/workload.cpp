// Benchmark workload program.  run.py builds it and runs it once per
// benchmark run:
//
//   perfbench_workload --workload osem|skeletons|cluster --seed N
//                      [--phases untraced:S1,traced:S2,service:S3]
//                      [--setups R] [--setup-seconds T]
//
// It sets the workload up at least R times, and more while the set-ups have
// taken less than T seconds (timing each), then runs one timed window per
// phase, of the given seconds.  Slices of a fixed reference computation run
// between the set-ups and between the untraced window's iterations, so the
// harness can express CPU times in units of the host's current speed.  The traced phase collects skelcl trace
// records; the service phase runs the multi-tenant Service scenario, traced,
// on a runtime of its own.  Everything it measures goes to stdout as
// JSON lines, one object per line, flushed as it goes so the parent sees
// progress (and a hang) while the run is under way:
//
//   {"ev":"env", ...}          build type, compiler, sanitizer/optimizer flags
//   {"ev":"setup", ...}        one per set-up: wall and CPU seconds, cold-call
//                              cost, reference slices and their CPU ms so far
//   {"ev":"iter", ...}         one per iteration: wall/sim time, retired
//                              instructions, items, end time and process
//                              CPU time into the window (slices left out),
//                              reference slices and their CPU ms so far, and
//                              whether its outputs and counts matched the
//                              reference
//   {"ev":"trace", ...}        traced phase: command counts/bytes per kind and
//                              busy time per resource, from trace records
//   {"ev":"spans", ...}        wall-clock spans around every public call,
//                              kept in memory and written at the phase's end
//   {"ev":"phase_end", ...}    the window's measured wall seconds
//   {"ev":"error", ...}        a set-up or warm-up check failed (exit 1)
//   {"ev":"service"|"paper"}   workload-specific figures
//   {"ev":"done"}
//
// Only public entry points are driven: skeletons, Vector, Pipeline,
// Service, docl::flatten, osem::OsemData/runOsemSeq/runOsemSkelCL/runOsemOcl,
// simStats() and skelcl::trace.  Inputs are integer-valued floats generated
// from the seed, so every host reference is exact.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/detail/trace.hpp"
#include "core/service.hpp"
#include "core/skelcl.hpp"
#include "docl/docl.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

using namespace skelcl;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kStart).count();
}

/// CPU time of the whole process (all threads), in ms.
double processCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

std::uint64_t retired() { return simStats().instructions_executed; }

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::mutex g_out_mutex;

void emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_out_mutex);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- one iteration's outcome ------------------------------------------------

struct Iter {
  double wallMs = 0.0;
  double simMs = 0.0;
  std::uint64_t insns = 0;
  std::uint64_t items = 0;
  bool simCounted = true;  ///< enters iter_sim_ms (see the osem workload)
  /// Empty when every check passed; otherwise the most severe failure:
  /// "exception", "output" (differs from the host reference), "count"
  /// (retired instructions differ from the reference count) or "repro"
  /// (output differs bitwise from the same computation done earlier).
  std::string fail;
  std::string error;

  void note(const char* kind, const std::string& message) {
    if (message.empty()) return;
    static const char* const order[] = {"repro", "count", "output", "exception"};
    auto rank = [](const std::string& k) {
      for (int i = 0; i < 4; ++i) {
        if (k == order[i]) return i;
      }
      return -1;
    };
    if (rank(kind) > rank(fail)) {
      fail = kind;
      error = message;
    }
  }
};

// --- spans around public calls ----------------------------------------------

/// Wall-clock spans this program records around each public call it makes:
/// name, start, end, the iteration that caused it, and the retired
/// instructions the call added.  Kept in memory; written at the phase's end.
class Spans {
 public:
  void add(const std::string& name, long iter, double startUs, double endUs,
           std::uint64_t insns) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, static_cast<int>(names_.size())).first;
      names_.push_back(name);
    }
    rows_.push_back(Row{it->second, iter, startUs, endUs, insns});
  }

  void write(const std::string& phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"ev\":\"spans\",\"phase\":\"" << phase << "\",\"names\":[";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      os << (i ? "," : "") << '"' << names_[i] << '"';
    }
    os << "],\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << (i ? "," : "") << '[' << r.name << ',' << r.iter << ',' << num(r.startUs) << ','
         << num(r.endUs) << ',' << r.insns << ']';
    }
    os << "]}";
    emit(os.str());
    rows_.clear();
  }

 private:
  struct Row {
    int name;
    long iter;
    double startUs;
    double endUs;
    std::uint64_t insns;
  };
  std::mutex mutex_;
  std::map<std::string, int> index_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

// --- trace aggregation --------------------------------------------------------

/// Per-kind command counts and bytes plus busy time per resource class, summed
/// over drains of the global trace.  Busy time is the union of the records'
/// simulated intervals within a class, so overlapping commands count once.
class TraceTotals {
 public:
  explicit TraceTotals(bool networked) : networked_(networked) {}

  /// Fold the collected records in and clear the collector.  Only call while
  /// no skeleton runs on another thread.
  void drain() {
    std::vector<trace::Record> recs = trace::snapshot();
    trace::clear();
    std::vector<std::pair<double, double>> device, pcie, host, nic;
    for (const trace::Record& r : recs) {
      const char* kind = nullptr;
      switch (r.kind) {
        case trace::Record::Kind::Upload: kind = "write"; break;
        case trace::Record::Kind::Download: kind = "read"; break;
        case trace::Record::Kind::Copy:
        case trace::Record::Kind::Halo: kind = "copy"; break;
        case trace::Record::Kind::Fill: kind = "fill"; break;
        case trace::Record::Kind::Kernel:
        case trace::Record::Kind::Fused: kind = "kernel"; break;
        case trace::Record::Kind::Host: host.emplace_back(r.start, r.end); continue;
        default: ++other_; continue;
      }
      auto& slot = commands_[kind];
      ++slot.first;
      slot.second += r.bytes;
      const std::string k = kind;
      if (k == "kernel" || k == "fill") {
        device.emplace_back(r.start, r.end);
      } else {
        pcie.emplace_back(r.start, r.end);
        // On a docl system every host<->device transfer crosses a NIC.
        if (networked_ && (k == "write" || k == "read")) {
          nic.emplace_back(r.start, r.end);
          nic_bytes_ += r.bytes;
        }
      }
    }
    device_s_ += unionLength(device);
    pcie_s_ += unionLength(pcie);
    host_s_ += unionLength(host);
    nic_s_ += unionLength(nic);
  }

  std::string json(const std::string& phase) const {
    std::ostringstream os;
    os << "{\"ev\":\"trace\",\"phase\":\"" << phase << "\",\"commands\":{";
    const char* kinds[] = {"write", "read", "copy", "fill", "kernel"};
    for (int i = 0; i < 5; ++i) {
      auto it = commands_.find(kinds[i]);
      const auto v = it == commands_.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                                           : it->second;
      os << (i ? "," : "") << '"' << kinds[i] << "\":[" << v.first << ',' << v.second << ']';
    }
    os << "},\"busy_ms\":{\"device\":" << num(device_s_ * 1e3) << ",\"pcie\":"
       << num(pcie_s_ * 1e3) << ",\"host\":" << num(host_s_ * 1e3) << ",\"nic\":"
       << num(nic_s_ * 1e3) << "},\"nic_bytes\":" << nic_bytes_ << ",\"other_records\":"
       << other_ << '}';
    return os.str();
  }

 private:
  static double unionLength(std::vector<std::pair<double, double>>& v) {
    std::sort(v.begin(), v.end());
    double total = 0.0;
    double curStart = 0.0;
    double curEnd = -1.0;
    for (const auto& [s, e] : v) {
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart;
        curStart = s;
        curEnd = e;
      } else {
        curEnd = std::max(curEnd, e);
      }
    }
    if (curEnd > curStart) total += curEnd - curStart;
    return total;
  }

  bool networked_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> commands_;
  double device_s_ = 0.0, pcie_s_ = 0.0, host_s_ = 0.0, nic_s_ = 0.0;
  std::uint64_t nic_bytes_ = 0;
  std::uint64_t other_ = 0;
};

// --- host speed reference ----------------------------------------------------

/// A fixed amount of computation that does not touch the library: a small
/// register machine running a random program of 4096 instructions
/// (arithmetic, table loads, data-dependent jumps), the same kind of work as
/// the kernelc VM that carries most of the workloads' host cost.  A slice
/// executes a fixed number of instructions; the machine's state carries on
/// from one slice to the next, so no slice repeats the path of another and
/// the branch predictor cannot learn it, however many slices run back to
/// back.  On a shared host the CPU time of a fixed piece of work moves by
/// tens of percent, for minutes at a time, as other tenants load the same
/// physical cores and caches; slices interleaved with the workload are
/// slowed alike, so CPU time in units of a slice's CPU time stays put (see
/// perfbench/README.md).
class HostReference {
 public:
  HostReference() : program_(kProgram), table_(kTable) {
    std::mt19937 rng(12345);
    for (auto& op : program_) op = rng();
    for (auto& t : table_) t = rng();
    for (std::uint32_t i = 0; i < 16; ++i) r_[i] = i * 2654435761u;
  }

  /// Run slices until their CPU time is kShare of `workCpuMs`, the CPU time
  /// of the work measured so far (at least one slice once there is work).
  void keepUp(double workCpuMs) {
    while (cpuMs_ < kShare * workCpuMs) {
      const double c0 = processCpuMs();
      slice();
      cpuMs_ += processCpuMs() - c0;
      ++slices_;
    }
  }

  double cpuMs() const { return cpuMs_; }
  long slices() const { return slices_; }

 private:
  void slice() {
    std::uint32_t* r = r_;
    std::uint32_t pc = pc_;
    for (int step = 0; step < kSteps; ++step) {
      const std::uint32_t op = program_[pc];
      std::uint32_t& d = r[(op >> 3) & 15];
      const std::uint32_t x = r[(op >> 7) & 15];
      const std::uint32_t y = r[(op >> 11) & 15];
      pc = (pc + 1) & (kProgram - 1);
      switch (op & 7) {
        case 0: d = x + y; break;
        case 1: d = x * (y | 1); break;
        case 2: d = x ^ (y >> 3); break;
        case 3: d = table_[x & (kTable - 1)]; break;
        case 4: d = table_[(x + y) & (kTable - 1)] + x; break;
        case 5: if (x & 1) pc = (pc + (y & 63)) & (kProgram - 1); break;
        case 6: d = static_cast<std::uint32_t>(static_cast<float>(x & 0xFFFF) * 0.75f); break;
        default: d = x < y; break;
      }
    }
    pc_ = pc;
  }

  static constexpr double kShare = 0.05;
  static constexpr std::uint32_t kProgram = 4096;
  static constexpr std::uint32_t kTable = 16384;  // 64 KiB
  static constexpr int kSteps = 100000;
  std::vector<std::uint32_t> program_;
  std::vector<std::uint32_t> table_;
  std::uint32_t r_[16];
  std::uint32_t pc_ = 0;
  double cpuMs_ = 0.0;
  long slices_ = 0;
};

// --- the phase context --------------------------------------------------------

/// What a workload's timed window writes to: iteration lines, spans, trace
/// totals.  One per phase.
class Phase {
 public:
  Phase(std::string name, bool traced, bool networked)
      : name_(std::move(name)),
        traced_(traced),
        totals_(networked),
        startUs_(nowUs()),
        startCpuMs_(processCpuMs()) {}

  const std::string& name() const { return name_; }
  bool traced() const { return traced_; }
  Spans& spans() { return spans_; }
  TraceTotals& totals() { return totals_; }

  /// Time `fn` as a span named `name` of iteration `iter`.
  template <typename F>
  auto span(const char* name, long iter, F&& fn) {
    const std::uint64_t i0 = countInsns_ ? retired() : 0;
    const double t0 = nowUs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.add(name, iter, t0, nowUs(), countInsns_ ? retired() - i0 : 0);
    } else {
      auto result = fn();
      spans_.add(name, iter, t0, nowUs(), countInsns_ ? retired() - i0 : 0);
      return result;
    }
  }

  /// Spans on concurrent threads cannot attribute the global retired counter.
  void setCountInsns(bool on) { countInsns_ = on; }

  /// Interleave reference slices with the iterations (after each one).
  /// Iteration CPU times leave the slices out.
  void setReference(HostReference* ref) { ref_ = ref; }

  void iter(const Iter& it) {
    const double refMs = ref_ != nullptr ? ref_->cpuMs() : 0.0;
    const double cpuMs = processCpuMs() - startCpuMs_ - refMs;
    std::ostringstream os;
    os << "{\"ev\":\"iter\",\"phase\":\"" << name_ << "\",\"wall_ms\":" << num(it.wallMs)
       << ",\"sim_ms\":" << num(it.simMs) << ",\"insns\":" << it.insns
       << ",\"items\":" << it.items << ",\"sim_counted\":" << (it.simCounted ? 1 : 0)
       << ",\"t_ms\":" << num((nowUs() - startUs_) / 1e3)
       << ",\"cpu_ms\":" << num(cpuMs) << ",\"ref_cpu_ms\":" << num(refMs)
       << ",\"ref_slices\":" << (ref_ != nullptr ? ref_->slices() : 0)
       << ",\"ok\":" << (it.fail.empty() ? 1 : 0);
    if (!it.fail.empty()) {
      os << ",\"fail\":\"" << it.fail << "\",\"err\":\"" << jsonEscape(it.error) << '"';
    }
    os << '}';
    emit(os.str());
    if (ref_ != nullptr) ref_->keepUp(cpuMs);
  }

 private:
  std::string name_;
  bool traced_;
  bool countInsns_ = true;
  HostReference* ref_ = nullptr;
  Spans spans_;
  TraceTotals totals_;
  double startUs_;     ///< iteration lines carry their end time since this
  double startCpuMs_;  ///< ... and the process CPU time spent since this
};

// --- workloads ----------------------------------------------------------------

/// Owns one init()/terminate() bracket.  Workloads declare it before their
/// skeleton, vector and service members so those are destroyed first.
struct Runtime {
  explicit Runtime(sim::SystemConfig config) { init(std::move(config)); }
  ~Runtime() { terminate(); }
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs, warm-up calls that compile every kernel, reference counts.
  /// Returns the cold-call cost in ms: sum over skeletons of first call minus
  /// warm call wall time.
  virtual double setup() = 0;
  /// Run iterations until `seconds` of wall time have passed.
  virtual void runPhase(Phase& phase, double seconds) = 0;
};

std::vector<float> randomInts(std::mt19937_64& rng, std::size_t n, int mod) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng() % static_cast<std::uint64_t>(mod));
  return v;
}

double medianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string firstMismatch(const char* what, const std::vector<float>& got,
                          const std::vector<float>& want) {
  if (got.size() != want.size()) return std::string(what) + ": size mismatch";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      std::ostringstream os;
      os << what << "[" << i << "] = " << got[i] << ", expected " << want[i];
      return os.str();
    }
  }
  return {};
}

std::string countMismatch(std::uint64_t got, std::uint64_t want) {
  if (got == want) return {};
  std::ostringstream os;
  os << "retired " << got << " instructions, reference " << want;
  return os.str();
}

constexpr const char* kAdd = "float func(float a, float b) { return a + b; }";

// osem ------------------------------------------------------------------------

osem::OsemConfig osemConfig(std::uint64_t seed) {
  // The Figure 4b configuration (bench_fig4b_osem): 48^3 volume, 3 subsets
  // of 15 000 events.
  osem::OsemConfig cfg;
  cfg.volume.nx = cfg.volume.ny = cfg.volume.nz = 48;
  cfg.eventsPerSubset = 15000;
  cfg.numSubsets = 3;
  cfg.seed = seed;
  return cfg;
}

/// The paper's Listing 3 on the 4-GPU S1070, one subset per iteration.  Each
/// pass over the subsets starts from the uniform image, so every pass repeats
/// the same work and must reproduce the same image bit for bit.  As in
/// Figure 4b, a pass's first subset (which uploads the fresh image) is left
/// out of the simulated per-subset average; wall metrics count every subset.
class OsemWorkload : public Workload {
 public:
  OsemWorkload(std::uint64_t seed, const std::vector<float>* reference)
      : seed_(seed), reference_(reference) {}

  double setup() override {
    data_.emplace(osem::OsemData::generate(osemConfig(seed_)));
    osem::registerOsemKernelTypes();
    rt_.emplace(sim::SystemConfig::teslaS1070(4));
    const auto& vol = data_->volume();
    step1_.emplace(osem::step1UserFunctionSource());
    step2_.emplace(osem::step2UserFunctionSource());
    f_.emplace(vol.voxels());
    // Warm-up pass: compiles both kernels and records the reference counts
    // and image every later pass must reproduce.
    Phase warm("setup", false, false);
    for (const Iter& it : runPass(warm, 0)) {
      if (!it.fail.empty()) throw std::runtime_error("warm-up pass: " + it.error);
      refInsns_.push_back(it.insns);
      warmPassSim_.push_back(it.simMs);
    }
    refImage_ = f_->toStdVector();
    // First call minus warm call, from the warm-up pass's own calls.
    std::vector<double> map, zip;
    for (const auto& [name, us] : warmCalls_) (name == "map" ? map : zip).push_back(us);
    double cold = 0.0;
    if (map.size() > 1) cold += (map[0] - medianOf({map.begin() + 1, map.end()})) / 1e3;
    if (zip.size() > 1) cold += (zip[0] - medianOf({zip.begin() + 1, zip.end()})) / 1e3;
    return cold;
  }

  void runPhase(Phase& phase, double seconds) override {
    const double end = nowUs() + seconds * 1e6;
    long iter = 0;
    while (nowUs() < end) {
      const std::vector<Iter> iters = runPass(phase, iter);
      iter += static_cast<long>(iters.size());
      for (const Iter& it : iters) phase.iter(it);
    }
  }

  /// Simulated ms of each subset of the warm-up pass.
  const std::vector<double>& warmPassSim() const { return warmPassSim_; }

 private:
  std::vector<Iter> runPass(Phase& phase, long firstIter) {
    const auto& vol = data_->volume();
    std::vector<Iter> iters;
    auto& f = *f_;
    std::fill(f.begin(), f.end(), 1.0f);
    const bool warm = refInsns_.empty();
    Iter pass;  // failures of the pass's image, shared by all its subsets
    for (int l = 0; l < data_->config.numSubsets; ++l) {
      const long id = firstIter + l;
      Iter it;
      it.items = data_->subsetSize();
      it.simCounted = l > 0;
      const double w0 = nowUs();
      const double s0 = simTimeSeconds();
      const std::uint64_t i0 = retired();
      try {
        Vector<osem::Event> events(
            std::vector<osem::Event>(data_->subset(l), data_->subset(l) + data_->subsetSize()));
        IndexVector index(data_->subsetSize());
        events.setDistribution(Distribution::block());
        index.setDistribution(Distribution::block());
        f.setDistribution(Distribution::copy());
        Vector<float> c(vol.voxels());
        c.setDistribution(Distribution::copy(kAdd));
        const double m0 = nowUs();
        phase.span("map", id, [&] {
          (*step1_)(index, events, events.offsets(), events.sizes(), f, c, vol.nx, vol.ny,
                    vol.nz, vol.voxel);
        });
        const double m1 = nowUs();
        c.dataOnDevicesModified();
        f.setDistribution(Distribution::block());
        c.setDistribution(Distribution::block());
        phase.span("zip", id, [&] { (*step2_)(out(f), f, c); });
        const double z1 = nowUs();
        finish();
        if (warm) {
          warmCalls_.emplace_back("map", m1 - m0);
          warmCalls_.emplace_back("zip", z1 - m1);
        }
      } catch (const std::exception& e) {
        it.note("exception", e.what());
      }
      it.simMs = (simTimeSeconds() - s0) * 1e3;
      it.insns = retired() - i0;
      if (!warm) it.note("count", countMismatch(it.insns, refInsns_[l]));
      if (phase.traced()) phase.totals().drain();
      // The image is observed once per pass: reading it between subsets would
      // change the transfers the next subset makes.
      if (l + 1 == data_->config.numSubsets) {
        try {
          const std::vector<float> image =
              phase.span("host_access", id, [&] { return f.toStdVector(); });
          if (!warm) pass.note("repro", firstMismatch("image", image, refImage_));
          if (reference_ != nullptr) {
            const double nrmse = osem::imageNrmse(image, *reference_);
            if (!(nrmse < 2e-3)) pass.note("output", "image NRMSE " + num(nrmse) + " vs runOsemSeq");
          }
        } catch (const std::exception& e) {
          pass.note("exception", e.what());
        }
        if (phase.traced()) phase.totals().drain();
      }
      it.wallMs = (nowUs() - w0) / 1e3;
      iters.push_back(it);
    }
    // A wrong image fails every subset of the pass that produced it.
    for (Iter& it : iters) it.note(pass.fail.c_str(), pass.error);
    return iters;
  }

  std::uint64_t seed_;
  const std::vector<float>* reference_;
  std::optional<osem::OsemData> data_;
  std::optional<Runtime> rt_;
  std::optional<Map<int(Index)>> step1_;
  std::optional<Zip<float>> step2_;
  std::optional<Vector<float>> f_;
  std::vector<std::uint64_t> refInsns_;
  std::vector<float> refImage_;
  std::vector<double> warmPassSim_;
  std::vector<std::pair<std::string, double>> warmCalls_;
};

// skeletons -------------------------------------------------------------------

/// A round of small calls on the 4-GPU S1070 over 4096-element vectors: map,
/// zip, reduce, scan, a fused map.zip.reduce Pipeline and a 1D MapOverlap;
/// the input's distribution flips between block and copy every round, and
/// the host writes elements of the input and of a device-resident result.
class SkeletonsWorkload : public Workload {
 public:
  static constexpr std::size_t kN = 4096;
  static constexpr int kWrites = 4;

  explicit SkeletonsWorkload(std::uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 1) {}

  double setup() override {
    hostX_ = randomInts(rng_, kN, 16);
    hostY_ = randomInts(rng_, kN, 16);
    rt_.emplace(sim::SystemConfig::teslaS1070(4));
    map_.emplace("float func(float x) { return 2.0f * x + 1.0f; }");
    zip_.emplace(kAdd);
    reduce_.emplace(kAdd);
    scan_.emplace(kAdd);
    stencil_.emplace("float func(__global float* in, int i) { return in[i-1] + in[i] + in[i+1]; }",
                     1, Padding::Neutral, 0.0f);
    x_.emplace(hostX_);
    y_.emplace(hostY_);
    y_->setDistribution(Distribution::block());
    // Two warm-up rounds (one per distribution parity) compile every kernel
    // and fix the reference retired count of each parity.
    Phase warm("setup", false, false);
    for (int r = 0; r < 2; ++r) {
      Iter it = round(warm, r);
      if (!it.fail.empty()) throw std::runtime_error("warm-up round: " + it.error);
      refInsns_[r] = it.insns;
    }
    Iter again = round(warm, 2);
    if (!again.fail.empty()) throw std::runtime_error("warm-up round: " + again.error);
    // Cold cost: each call of round 0 minus the same call of round 2 (same
    // distribution parity, kernels cached).
    double cold = 0.0;
    for (const auto& [name, us] : roundCalls_[0]) cold += (us - roundCalls_[2][name]) / 1e3;
    return cold;
  }

  void runPhase(Phase& phase, double seconds) override {
    const double end = nowUs() + seconds * 1e6;
    while (nowUs() < end) {
      Iter it = round(phase, round_);
      phase.iter(it);
      if (phase.traced()) phase.totals().drain();
    }
  }

 private:
  Iter round(Phase& phase, long r) {
    round_ = r + 1;
    Iter it;
    it.items = 7 * kN;  // elements passed through skeleton calls
    const double w0 = nowUs();
    const double s0 = simTimeSeconds();
    const std::uint64_t i0 = retired();
    auto timed = [&](const char* name, auto&& fn) {
      const double t0 = nowUs();
      auto result = phase.span(name, r, fn);
      if (r < 3) roundCalls_[r][name] = nowUs() - t0;
      return result;
    };
    try {
      auto& x = *x_;
      auto& y = *y_;
      x.setDistribution(r % 2 ? Distribution::copy() : Distribution::block());
      Vector<float> m = timed("map", [&] { return (*map_)(x); });
      Vector<float> z = timed("zip", [&] { return (*zip_)(m, y); });
      const float sum = timed("reduce", [&] { return (*reduce_)(z); });
      Vector<float> p = timed("scan", [&] { return (*scan_)(x); });
      const float fused = timed("pipeline", [&] {
        Pipeline<float> pipe;
        pipe.map("float func(float x) { return x * x; }").zip(y, kAdd);
        return pipe.reduce(kAdd, x);
      });
      Vector<float> o = timed("mapoverlap", [&] { return (*stencil_)(x); });
      // Host accesses that force a transfer: single-element reads of device
      // results (a download each) and a write into one (download first).
      const std::size_t probe = static_cast<std::size_t>(rng_() % kN);
      phase.span("host_access", r, [&] { return std::as_const(z)[probe]; });
      phase.span("host_access", r, [&] { return std::as_const(p)[probe]; });
      phase.span("host_access", r, [&] { return std::as_const(o)[probe]; });
      const float mWrite = static_cast<float>(rng_() % 16);
      phase.span("host_access", r, [&] { m[probe] = mWrite; });
      finish();
      it.simMs = (simTimeSeconds() - s0) * 1e3;
      it.insns = retired() - i0;

      // Exact host references.
      std::vector<float> wantM(kN), wantZ(kN), wantP(kN), wantO(kN);
      float wantSum = 0.0f, wantFused = 0.0f, run = 0.0f;
      for (std::size_t i = 0; i < kN; ++i) {
        wantM[i] = 2.0f * hostX_[i] + 1.0f;
        wantZ[i] = wantM[i] + hostY_[i];
        wantSum += wantZ[i];
        run += hostX_[i];
        wantP[i] = run;
        wantFused += hostX_[i] * hostX_[i] + hostY_[i];
        const float left = i > 0 ? hostX_[i - 1] : 0.0f;
        const float right = i + 1 < kN ? hostX_[i + 1] : 0.0f;
        wantO[i] = left + hostX_[i] + right;
      }
      wantM[probe] = mWrite;
      it.note("output", firstMismatch("map", m.toStdVector(), wantM));
      it.note("output", firstMismatch("zip", z.toStdVector(), wantZ));
      it.note("output", firstMismatch("scan", p.toStdVector(), wantP));
      it.note("output", firstMismatch("mapoverlap", o.toStdVector(), wantO));
      it.note("output", firstMismatch("reduce", {sum}, {wantSum}));
      it.note("output", firstMismatch("pipeline", {fused}, {wantFused}));
      if (r >= 2) it.note("count", countMismatch(it.insns, refInsns_[r % 2]));

      // The host writes input elements beside the device reads above; the
      // next round must re-upload them.
      for (int k = 0; k < kWrites; ++k) {
        const std::size_t at = static_cast<std::size_t>(rng_() % kN);
        const float v = static_cast<float>(rng_() % 16);
        x[at] = v;
        hostX_[at] = v;
      }
    } catch (const std::exception& e) {
      it.note("exception", e.what());
    }
    it.wallMs = (nowUs() - w0) / 1e3;
    return it;
  }

  std::mt19937_64 rng_;
  std::vector<float> hostX_, hostY_;
  std::optional<Runtime> rt_;
  std::optional<Map<float(float)>> map_;
  std::optional<Zip<float>> zip_;
  std::optional<Reduce<float>> reduce_;
  std::optional<Scan<float>> scan_;
  std::optional<MapOverlap<float(float)>> stencil_;
  std::optional<Vector<float>> x_, y_;
  std::uint64_t refInsns_[2] = {0, 0};
  std::map<std::string, double> roundCalls_[3];  ///< call times of the warm-up rounds
  long round_ = 0;
};

// cluster ---------------------------------------------------------------------

/// docl::flatten of 4 nodes x 4 GPUs.  A round broadcasts a one-element
/// parameter vector (copy distribution), runs a compute-heavy map over 2^18
/// floats that reads it, then a tree reduce and a tree scan of the result.
/// The map is branch-free, so its retired count does not depend on the data.
class ClusterWorkload : public Workload {
 public:
  static constexpr std::size_t kN = std::size_t{1} << 18;
  static constexpr int kSteps = 6;

  explicit ClusterWorkload(std::uint64_t seed) : rng_(seed * 0xD1B54A32D192ED03ULL + 7) {}

  static docl::DistributedConfig config() {
    docl::DistributedConfig cfg;
    for (int n = 0; n < 4; ++n) cfg.servers.push_back(sim::SystemConfig::teslaS1070(4));
    return cfg;
  }

  double setup() override {
    hostV_ = randomInts(rng_, kN, 9);
    rt_.emplace(docl::flatten(config()));
    heavy_.emplace(
        "float func(float x, __global float* w) { float s = x;"
        " for (int i = 0; i < " + std::to_string(kSteps) + "; ++i)"
        " s = fmod(2.0f * s + w[0], 9.0f); return s; }");
    sum_.emplace(kAdd);
    prefix_.emplace(kAdd);
    v_.emplace(hostV_);
    w_.emplace(std::vector<float>{1.0f});
    w_->setDistribution(Distribution::copy());
    Iter first = round(round_, nullptr);
    if (!first.fail.empty()) throw std::runtime_error("warm-up round: " + first.error);
    auto coldCalls = calls_;
    Iter warm = round(round_, nullptr);
    if (!warm.fail.empty()) throw std::runtime_error("warm-up round: " + warm.error);
    refInsns_ = warm.insns;
    double cold = 0.0;
    for (const auto& [name, us] : coldCalls) cold += (us - calls_[name]) / 1e3;
    return cold;
  }

  void runPhase(Phase& phase, double seconds) override {
    const double end = nowUs() + seconds * 1e6;
    while (nowUs() < end) {
      Iter it = round(round_, &phase);
      phase.iter(it);
      if (phase.traced()) phase.totals().drain();
    }
  }

 private:
  Iter round(long r, Phase* phase) {
    round_ = r + 1;
    Iter it;
    it.items = 3 * kN;
    const double w0 = nowUs();
    const double s0 = simTimeSeconds();
    const std::uint64_t i0 = retired();
    Phase scratch("setup", false, false);
    Phase& ph = phase != nullptr ? *phase : scratch;
    auto timed = [&](const char* name, auto&& fn) {
      const double t0 = nowUs();
      auto result = ph.span(name, r, fn);
      calls_[name] = nowUs() - t0;
      return result;
    };
    try {
      const float step = static_cast<float>(1 + rng_() % 8);
      (*w_)[0] = step;  // host write: the next use re-broadcasts w
      Vector<float> mapped = timed("map", [&] { return (*heavy_)(*v_, *w_); });
      const float total = timed("reduce", [&] { return (*sum_)(mapped); });
      Vector<float> pre = timed("scan", [&] { return (*prefix_)(mapped); });
      ph.span("host_access", r, [&] { return std::as_const(pre)[kN - 1]; });
      finish();
      it.simMs = (simTimeSeconds() - s0) * 1e3;
      it.insns = retired() - i0;

      std::vector<float> wantPre(kN);
      float run = 0.0f;
      for (std::size_t i = 0; i < kN; ++i) {
        float s = hostV_[i];
        for (int k = 0; k < kSteps; ++k) s = std::fmod(2.0f * s + step, 9.0f);
        run += s;
        wantPre[i] = run;
      }
      it.note("output", firstMismatch("reduce", {total}, {run}));
      it.note("output", firstMismatch("scan", pre.toStdVector(), wantPre));
      if (refInsns_ != 0) it.note("count", countMismatch(it.insns, refInsns_));
    } catch (const std::exception& e) {
      it.note("exception", e.what());
    }
    it.wallMs = (nowUs() - w0) / 1e3;
    return it;
  }

  std::mt19937_64 rng_;
  std::vector<float> hostV_;
  std::optional<Runtime> rt_;
  std::optional<Map<float(float)>> heavy_;
  std::optional<Reduce<float>> sum_;
  std::optional<Scan<float>> prefix_;
  std::optional<Vector<float>> v_, w_;
  std::map<std::string, double> calls_;
  std::uint64_t refInsns_ = 0;
  long round_ = 0;
};

// service ---------------------------------------------------------------------

constexpr const char* kJobSource = "float func(float x) { return 2.0f * x + 1.0f; }";

/// One Service on the 4-GPU S1070 with two tenants (share weights 2:1), each
/// driven by its own client thread in a closed loop that keeps at most 8
/// small submitMap jobs outstanding.  How jobs batch depends on how their
/// arrivals interleave, so its per-job cost varies from run to run; it runs
/// as a traced phase for the service layer's metrics.
class ServiceWorkload : public Workload {
 public:
  static constexpr std::size_t kJobSize = 512;
  static constexpr std::size_t kWindow = 8;
  static constexpr int kTenants = 2;

  explicit ServiceWorkload(std::uint64_t seed) : seed_(seed) {}

  double setup() override {
    rt_.emplace(sim::SystemConfig::teslaS1070(4));
    service_.emplace();
    for (int t = 0; t < kTenants; ++t) {
      SessionOptions opts;
      opts.name = "tenant" + std::to_string(t);
      opts.shareWeight = t == 0 ? 2.0 : 1.0;
      sessions_.push_back(service_->createSession(opts));
    }
    // Warm-up: one cold job, then a few warm ones, one at a time.  They fix
    // the reference retired count of one job.
    std::vector<double> lat;
    for (int j = 0; j < 5; ++j) {
      const std::uint64_t i0 = retired();
      const double t0 = nowUs();
      auto input = jobInput(0, -1 - j);
      auto h = service_->submitMap(sessions_[0], kJobSource, input);
      Iter it;
      check(h, input, it);
      if (!it.fail.empty()) throw std::runtime_error("warm-up job: " + it.error);
      lat.push_back((nowUs() - t0) / 1e3);
      service_->drain();
      const std::uint64_t n = retired() - i0;
      if (j > 0 && n != refJobInsns_) throw std::runtime_error("warm-up jobs retire unequal counts");
      refJobInsns_ = n;
    }
    return lat[0] - medianOf({lat.begin() + 1, lat.end()});
  }

  void runPhase(Phase& phase, double seconds) override {
    service_->drain();
    phase.setCountInsns(false);
    std::vector<Service::TenantStats> before;
    for (auto& s : sessions_) before.push_back(service_->stats(*s));
    const std::uint64_t i0 = retired();
    const double end = nowUs() + seconds * 1e6;
    std::vector<std::thread> clients;
    std::vector<long> jobs(kTenants, 0);
    for (int t = 0; t < kTenants; ++t) {
      clients.emplace_back([&, t] { jobs[t] = client(phase, t, end); });
    }
    for (auto& c : clients) c.join();
    service_->drain();
    const std::uint64_t insns = retired() - i0;
    long total = 0;
    for (long j : jobs) total += j;
    if (phase.traced()) phase.totals().drain();

    // Retired instructions of the window must be exactly one reference job's
    // count per job; the surplus or deficit counts as that many jobs failed.
    const std::uint64_t want = refJobInsns_ * static_cast<std::uint64_t>(total);
    long countFailures = 0;
    if (insns != want) {
      const std::uint64_t diff = insns > want ? insns - want : want - insns;
      countFailures = static_cast<long>((diff + refJobInsns_ - 1) / refJobInsns_);
    }
    std::ostringstream os;
    os << "{\"ev\":\"service\",\"phase\":\"" << phase.name() << "\",\"jobs\":" << total
       << ",\"insns\":" << insns << ",\"ref_insns\":" << want
       << ",\"count_failures\":" << countFailures << ",\"tenants\":[";
    for (int t = 0; t < kTenants; ++t) {
      const auto after = service_->stats(*sessions_[t]);
      os << (t ? "," : "") << "{\"weight\":" << (t == 0 ? 2 : 1)
         << ",\"jobs\":" << after.jobsCompleted - before[t].jobsCompleted
         << ",\"batches\":" << after.batchesRun - before[t].batchesRun
         << ",\"device_time_ms\":" << num(sessions_[t]->deviceTimeUsed() * 1e3)
         << ",\"latency_sim_ms\":[";
      for (std::size_t k = before[t].latencySeconds.size(); k < after.latencySeconds.size();
           ++k) {
        os << (k > before[t].latencySeconds.size() ? "," : "")
           << num(after.latencySeconds[k] * 1e3);
      }
      os << "]}";
    }
    os << "]}";
    emit(os.str());
  }

 private:
  std::vector<float> jobInput(int tenant, long job) const {
    std::mt19937_64 rng(seed_ * 1000003ULL + static_cast<std::uint64_t>(tenant) * 7919ULL +
                        static_cast<std::uint64_t>(job + 16));
    return randomInts(rng, kJobSize, 16);
  }

  static void check(const Service::Handle& h, const std::vector<float>& input, Iter& it) {
    try {
      const std::vector<float>& got = h.output();
      std::vector<float> want(input.size());
      for (std::size_t i = 0; i < input.size(); ++i) want[i] = 2.0f * input[i] + 1.0f;
      it.note("output", firstMismatch("job", got, want));
      it.simMs = h.latencySeconds() * 1e3;
    } catch (const std::exception& e) {
      it.note("exception", e.what());
    }
  }

  long client(Phase& phase, int tenant, double end) {
    struct Pending {
      Service::Handle handle;
      std::vector<float> input;
      double submitUs;
      long id;
    };
    std::deque<Pending> window;
    long next = 0;
    auto complete = [&] {
      Pending p = std::move(window.front());
      window.pop_front();
      Iter it;
      it.items = 1;
      check(p.handle, p.input, it);
      it.wallMs = (nowUs() - p.submitUs) / 1e3;
      phase.iter(it);
    };
    while (nowUs() < end) {
      if (window.size() == kWindow) complete();
      Pending p;
      p.id = next++;
      p.input = jobInput(tenant, p.id);
      p.submitUs = nowUs();
      try {
        p.handle = phase.span("submit", p.id, [&] {
          return service_->submitMap(sessions_[tenant], kJobSource, p.input);
        });
      } catch (const std::exception& e) {
        Iter it;
        it.items = 1;
        it.note("exception", e.what());
        phase.iter(it);
        continue;
      }
      window.push_back(std::move(p));
    }
    while (!window.empty()) complete();
    return next;
  }

  std::uint64_t seed_;
  std::optional<Runtime> rt_;
  std::optional<Service> service_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t refJobInsns_ = 0;
};

// --- main -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// (name, seconds) of each timed window, in order.
  std::vector<std::pair<std::string, double>> phases{{"untraced", 10.0}};
  int setups = 3;
  double setupSeconds = 0.0;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--setups") {
      a.setups = std::stoi(v);
    } else if (k == "--setup-seconds") {
      a.setupSeconds = std::stod(v);
    } else if (k == "--phases") {
      a.phases.clear();
      std::stringstream ss(v);
      for (std::string p; std::getline(ss, p, ',');) {
        const auto colon = p.find(':');
        if (colon == std::string::npos) throw std::runtime_error("phase needs name:seconds");
        a.phases.emplace_back(p.substr(0, colon), std::stod(p.substr(colon + 1)));
      }
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.workload != "osem" && a.workload != "skeletons" && a.workload != "cluster") {
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  }
  return a;
}

void emitEnv() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::ostringstream os;
  os << "{\"ev\":\"env\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << PERFBENCH_CXX_COMPILER << "\",\"optimized\":" << (optimized ? "true" : "false")
     << ",\"sanitized\":" << (sanitized ? "true" : "false")
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency() << '}';
  emit(os.str());
}

constexpr int kMaxSetups = 40;

std::unique_ptr<Workload> make(const Args& a, const std::vector<float>* osemReference) {
  if (a.workload == "osem") return std::make_unique<OsemWorkload>(a.seed, osemReference);
  if (a.workload == "skeletons") return std::make_unique<SkeletonsWorkload>(a.seed);
  return std::make_unique<ClusterWorkload>(a.seed);
}

/// Paper cross-check at the Figure 4b configuration (seed 42): the library's
/// own runOsemSkelCL/runOsemOcl cells, and this benchmark's osem loop on the
/// same data, whose per-subset average must equal the SkelCL cell.
void paperCheck() {
  const osem::OsemData data = osem::OsemData::generate(osemConfig(42));
  const double skelclMs = osem::runOsemSkelCL(data, 4).secondsPerSubset * 1e3;
  emit("{\"ev\":\"progress\",\"step\":\"runOsemSkelCL\"}");
  const double openclMs = osem::runOsemOcl(data, 4).secondsPerSubset * 1e3;
  emit("{\"ev\":\"progress\",\"step\":\"runOsemOcl\"}");
  double benchMs = 0.0;
  {
    OsemWorkload w(42, nullptr);
    w.setup();
    const auto& sim = w.warmPassSim();
    double sum = 0.0;
    for (std::size_t l = 1; l < sim.size(); ++l) sum += sim[l];
    benchMs = sum / static_cast<double>(sim.size() - 1);
  }
  emit("{\"ev\":\"paper\",\"skelcl_ms\":" + num(skelclMs) + ",\"opencl_ms\":" + num(openclMs) +
       ",\"bench_ms\":" + num(benchMs) + "}");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    emitEnv();
    std::vector<float> osemReference;
    if (args.workload == "osem") {
      osemReference = osem::runOsemSeq(osem::OsemData::generate(osemConfig(args.seed))).image;
    }
    // At least `setups` set-ups, more while they have taken less than
    // `setupSeconds` (a cheap set-up is repeated more often), with reference
    // slices after each.
    std::unique_ptr<Workload> w;
    HostReference setupReference;
    double setupCpuMs = 0.0;
    const double setupStart = nowUs();
    for (int rep = 0; rep < args.setups || (rep < kMaxSetups && nowUs() - setupStart <
                                                                    args.setupSeconds * 1e6);
         ++rep) {
      w.reset();
      const double t0 = nowUs();
      const double c0 = processCpuMs();
      w = make(args, args.workload == "osem" ? &osemReference : nullptr);
      const double coldMs = w->setup();
      const double cpuMs = processCpuMs() - c0;
      const double wallS = (nowUs() - t0) / 1e6;
      setupCpuMs += cpuMs;
      setupReference.keepUp(setupCpuMs);
      emit("{\"ev\":\"setup\",\"wall_s\":" + num(wallS) + ",\"cpu_s\":" + num(cpuMs / 1e3) +
           ",\"cold_ms\":" + num(coldMs) + ",\"ref_cpu_ms\":" + num(setupReference.cpuMs()) +
           ",\"ref_slices\":" + std::to_string(setupReference.slices()) + "}");
    }
    bool anyTraced = false;
    HostReference reference;
    for (const auto& [name, seconds] : args.phases) {
      // The "service" phase runs the service scenario on a runtime of its
      // own, traced, in place of the workload.
      const bool traced = name == "traced" || name == "service";
      anyTraced = anyTraced || traced;
      if (name == "service") {
        w.reset();
        w = std::make_unique<ServiceWorkload>(args.seed);
        w->setup();
      }
      Phase phase(name, traced, args.workload == "cluster");
      if (name == "untraced") phase.setReference(&reference);
      emit("{\"ev\":\"phase\",\"phase\":\"" + name + "\"}");
      if (traced) trace::enable();
      const double t0 = nowUs();
      w->runPhase(phase, seconds);
      const double wallS = (nowUs() - t0) / 1e6;
      if (traced) {
        trace::disable();
        emit(phase.totals().json(name));
      }
      phase.spans().write(name);
      emit("{\"ev\":\"phase_end\",\"phase\":\"" + name + "\",\"wall_s\":" + num(wallS) + "}");
    }
    w.reset();
    if (args.workload == "osem" && anyTraced) paperCheck();
    emit("{\"ev\":\"done\"}");
    return 0;
  } catch (const std::exception& e) {
    emit("{\"ev\":\"error\",\"err\":\"" + jsonEscape(e.what()) + "\"}");
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
}
