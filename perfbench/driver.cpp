// perfbench driver: runs ONE benchmark workload of the msgroof library in
// this process, on one thread, and prints one JSON object as its last line.
// perfbench/run.py launches it once per pass (see perfbench/README.md):
//
//   --mode timed   production pass. Observability (metrics, spans, checker)
//                  is off, except on observed_4096, which is defined with
//                  all three on. Repeats set-up + run until --seconds pass
//                  (at least Workload::min_reps() times) and reports every repetition's
//                  host times plus the process's peak RSS. Then, after the
//                  measurements are read, one more pass with the metrics
//                  layer on gives the fixed simulated-op counts
//                  (runtime.sim_ops, simnet.msgs, ...).
//   --mode traced  one pass with benchmark-side spans around every call
//                  into a layer; reports span times and self time per layer.
//   --mode probes  the layer probes (platform build, route, transfer,
//                  dispatch, fence wave, MPI and SHMEM op costs, ...) at
//                  the workload's shape, also under spans.
//   --mode obs     one pass of the workload's observability unit with
//                  --obs off|metrics|spans|check, for the obs.* ratios.
//
// Every pass reports a digest of the simulated (virtual-time) outputs; the
// caller compares digests across passes and against pinned goldens.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "core/parallel.hpp"
#include "core/sweep.hpp"
#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "shmem/shmem.hpp"
#include "simnet/fabric.hpp"
#include "simnet/fault.hpp"
#include "simnet/platform.hpp"
#include "util/rng.hpp"
#include "workloads/embedding/embedding.hpp"
#include "workloads/hashtable/hashtable.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace {

using namespace mrl;
using Clock = std::chrono::steady_clock;

constexpr int kMaxReps = 1000;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A /proc/self/status field in MiB (VmHWM, VmRSS); 0 if unavailable.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(k, v.size() - 1)];
}

/// FNV-1a over the bit patterns of simulated outputs.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void flag(bool b) { u64(b ? 1 : 0); }
  void summary(const simnet::TraceSummary& s) {
    u64(s.num_msgs);
    u64(s.num_epochs);
    f64(s.total_bytes);
    f64(s.span_us);
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Benchmark-side spans around calls into library layers. Disabled in the
/// timed pass, where span() returns an empty scope without reading the clock.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    int parent = -1;
    double t0 = 0;
    double t1 = 0;
  };

  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  Scope span(std::string layer, std::string name) {
    if (!on_) return Scope(nullptr, -1);
    Span s;
    s.layer = std::move(layer);
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.t0 = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: span durations minus the time their child spans
  /// cover (children never overlap: the driver is single-threaded).
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += spans_[i].t1 - spans_[i].t0 - child[i];
    }
    return out;
  }

  /// Durations of every span named `name`, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.t1 - s.t0);
    }
    return out;
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }
  void close(int id) {
    spans_[id].t1 = now();
    open_.pop_back();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Attempted/failed operations (a sweep grid point or an application run)
/// and the digest of their simulated outputs.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  Digest digest;
  std::vector<std::string> errors;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(what);
    }
  }
};

struct Observability {
  bool metrics = false;
  bool spans = false;
  bool check = false;
};

/// Sets the process-wide defaults every engine the library builds reads;
/// spans follow the CLI's --profile, which also records the message trace.
void apply(const Observability& o) {
  runtime::set_default_metrics(o.metrics);
  runtime::set_default_trace(o.spans);
  runtime::set_default_spans(o.spans);
  check::set_default_check(o.check);
}

// ---------------------------------------------------------------------------
// Workloads

/// One benchmark workload: set-up (platforms + generated inputs, timed as
/// setup_s) and the timed run. Subclasses keep their inputs as members so
/// each repetition rebuilds them.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup(std::uint64_t seed, Tracer& tr) = 0;
  virtual void run(Outcome& out, Tracer& tr) = 0;
  /// Pass used for the obs.* ratios; the full run unless that is too large
  /// to run with the metrics layer's stack poisoning.
  virtual void run_obs_unit(Outcome& out, Tracer& tr) { run(out, tr); }

  /// Fewest repetitions of the timed pass. The first repetition pays the
  /// first touch of pooled fiber stacks and heap; from three on, the median
  /// is a warm repetition.
  [[nodiscard]] virtual int min_reps() const { return 3; }
  /// Observability configuration of the timed pass.
  [[nodiscard]] virtual Observability timed_observability() const { return {}; }
  /// Fiber stack size for passes with the metrics layer on (which writes
  /// every stack byte); 0 keeps the workload's own stack size.
  [[nodiscard]] virtual std::size_t metrics_stack_bytes() const { return 0; }

  /// Shape of the layer probes: the (CPU) platform and rank count the
  /// workload exercises.
  [[nodiscard]] virtual const simnet::Platform& shape_platform() const = 0;
  [[nodiscard]] virtual int shape_ranks() const = 0;
  /// Builds the workload's largest platform once (simnet.platform_build_*).
  virtual simnet::Platform build_shape_platform() const = 0;
};

// --- roofline_sweep --------------------------------------------------------

const char* kind_label(core::SweepKind k) {
  switch (k) {
    case core::SweepKind::kTwoSided: return "two_sided";
    case core::SweepKind::kOneSidedMpi: return "one_sided";
    case core::SweepKind::kShmemPutSignal: return "shmem";
    case core::SweepKind::kAtomicCas: return "cas";
  }
  return "?";
}

void digest_points(const std::vector<core::SweepPoint>& pts, Digest& d) {
  for (const auto& p : pts) {
    d.f64(p.bytes);
    d.f64(p.msgs_per_sync);
    d.f64(p.measured_gbs);
    d.f64(p.eff_latency_us);
  }
}

/// Runs one sweep; in traced mode each grid point is its own run_sweep call
/// under a core.sweep_point span (grid points are isolated simulations, so
/// the outputs are identical either way).
void run_sweep_ops(const simnet::Platform& plat, const core::SweepConfig& cfg,
                   const std::string& label, Outcome& out, Tracer& tr) {
  if (!tr.on()) {
    const auto pts = core::run_sweep(plat, cfg);
    const std::size_t n = cfg.msg_sizes.size() * cfg.msgs_per_sync.size();
    if (!pts.is_ok()) {
      for (std::size_t i = 0; i < n; ++i) out.op(false, label + ": " + pts.status().to_string());
      return;
    }
    digest_points(pts.value(), out.digest);
    for (std::size_t i = 0; i < n; ++i) out.op(pts.value().size() == n, label);
    return;
  }
  for (const auto b : cfg.msg_sizes) {
    for (const auto m : cfg.msgs_per_sync) {
      core::SweepConfig one = cfg;
      one.msg_sizes = {b};
      one.msgs_per_sync = {m};
      auto s = tr.span("core", std::string("sweep_point.") + kind_label(cfg.kind));
      const auto pts = core::run_sweep(plat, one);
      if (!pts.is_ok()) {
        out.op(false, label + ": " + pts.status().to_string());
        continue;
      }
      digest_points(pts.value(), out.digest);
      out.op(pts.value().size() == 1, label);
    }
  }
}

class RooflineSweep final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tr) override {
    auto s = tr.span("simnet", "platform_build");
    perl_cpu_ = std::make_unique<simnet::Platform>(simnet::Platform::perlmutter_cpu());
    frontier_cpu_ = std::make_unique<simnet::Platform>(simnet::Platform::frontier_cpu());
    perl_gpu_ = std::make_unique<simnet::Platform>(simnet::Platform::perlmutter_gpu());
    faulty_cpu_ = std::make_unique<simnet::Platform>(*perl_cpu_);
    faulty_cpu_->set_faults(simnet::FaultSpec::at_intensity(0.5, seed));
  }

  void run(Outcome& out, Tracer& tr) override {
    using K = core::SweepKind;
    sweep(*perl_cpu_, K::kTwoSided, "perlmutter_cpu two_sided", out, tr);
    sweep(*perl_cpu_, K::kOneSidedMpi, "perlmutter_cpu one_sided", out, tr);
    sweep(*frontier_cpu_, K::kTwoSided, "frontier_cpu two_sided", out, tr);
    sweep(*frontier_cpu_, K::kOneSidedMpi, "frontier_cpu one_sided", out, tr);
    sweep(*perl_gpu_, K::kShmemPutSignal, "perlmutter_gpu shmem", out, tr);
    sweep(*perl_gpu_, K::kAtomicCas, "perlmutter_gpu cas", out, tr);
    sweep(*faulty_cpu_, K::kOneSidedMpi, "faulty perlmutter_cpu one_sided", out, tr);
  }

  /// The checker makes the SHMEM and CAS sweeps' 1e4 msgs/sync column take
  /// minutes, so the obs unit is the one-sided MPI sweep alone.
  void run_obs_unit(Outcome& out, Tracer& tr) override {
    sweep(*perl_cpu_, core::SweepKind::kOneSidedMpi, "perlmutter_cpu one_sided", out, tr);
  }

  /// Two ranks touch little memory, and one repetition takes 9-18 s.
  int min_reps() const override { return 2; }
  const simnet::Platform& shape_platform() const override { return *perl_cpu_; }
  int shape_ranks() const override { return 2; }
  simnet::Platform build_shape_platform() const override {
    return simnet::Platform::perlmutter_cpu();
  }

 private:
  static void sweep(const simnet::Platform& plat, core::SweepKind kind,
                    const std::string& label, Outcome& out, Tracer& tr) {
    auto cfg = core::SweepConfig::defaults(kind);
    cfg.iters = kIters;
    cfg.jobs = 0;  // core::default_jobs(): 1, except in the count pass
    run_sweep_ops(plat, cfg, label, out, tr);
  }

  static constexpr int kIters = 4;
  std::unique_ptr<simnet::Platform> perl_cpu_, frontier_cpu_, perl_gpu_, faulty_cpu_;
};

// --- stencil workloads -----------------------------------------------------

/// One-sided stencil at `ranks` ranks on perlmutter_cpu(nodes).
class StencilWorkload : public Workload {
 public:
  StencilWorkload(int nodes, int ranks, int n, int iters, std::size_t stack_bytes,
                  std::size_t metrics_stack_bytes, Observability timed_obs)
      : nodes_(nodes), ranks_(ranks), n_(n), iters_(iters),
        stack_bytes_(stack_bytes), metrics_stack_bytes_(metrics_stack_bytes),
        timed_obs_(timed_obs) {}

  void setup(std::uint64_t seed, Tracer& tr) override {
    runtime::set_default_fiber_stack_bytes(stack_bytes_);
    {
      auto s = tr.span("simnet", "platform_build");
      plat_.reset();  // release the previous repetition's topology first
      plat_ = std::make_unique<simnet::Platform>(simnet::Platform::perlmutter_cpu(nodes_));
    }
    cfg_ = {};
    cfg_.n = n_;
    cfg_.iters = iters_;
    cfg_.verify = true;
    cfg_.seed = seed;
  }

  void run(Outcome& out, Tracer& tr) override {
    workloads::stencil::Result r;
    {
      auto s = tr.span("workloads", "stencil_one_sided");
      r = workloads::stencil::run_one_sided(*plat_, ranks_, cfg_);
    }
    out.digest.f64(r.time_us);
    out.digest.f64(r.max_abs_err);
    out.digest.summary(r.msgs);
    out.op(r.status.is_ok() && r.verified && r.max_abs_err == 0.0,
           "stencil_one_sided: " + r.status.to_string());
  }

  Observability timed_observability() const override { return timed_obs_; }
  std::size_t metrics_stack_bytes() const override { return metrics_stack_bytes_; }
  const simnet::Platform& shape_platform() const override { return *plat_; }
  int shape_ranks() const override { return ranks_; }
  simnet::Platform build_shape_platform() const override {
    return simnet::Platform::perlmutter_cpu(nodes_);
  }

 protected:
  int nodes_, ranks_, n_, iters_;
  std::size_t stack_bytes_, metrics_stack_bytes_;
  Observability timed_obs_;
  std::unique_ptr<simnet::Platform> plat_;
  workloads::stencil::Config cfg_;
};

/// stencil_100k: 100,000 ranks on 800 nodes with 64 KiB stacks. Its
/// metrics-on pass uses 16 KiB stacks (the stencil's measured stack
/// high-water mark is under 5 KiB) so stack poisoning commits 1.6 GB, not
/// 6.4 GB; its obs unit is the same stencil at 4096 ranks.
class Stencil100k final : public StencilWorkload {
 public:
  Stencil100k()
      : StencilWorkload(800, 100000, 512, 2, 64 * 1024, 16 * 1024, {}) {}

  void run_obs_unit(Outcome& out, Tracer& tr) override {
    const auto plat = simnet::Platform::perlmutter_cpu(32);
    workloads::stencil::Result r;
    {
      auto s = tr.span("workloads", "stencil_one_sided_4096");
      r = workloads::stencil::run_one_sided(plat, 4096, cfg_);
    }
    out.digest.f64(r.time_us);
    out.digest.summary(r.msgs);
    out.op(r.status.is_ok() && r.max_abs_err == 0.0, "stencil 4096: " + r.status.to_string());
  }
};

/// observed_4096: 4096 ranks on 32 nodes with the CLI's default 256 KiB
/// stacks and metrics, spans and the checker on, plus the critical-path
/// report --profile writes at exit.
class Observed4096 final : public StencilWorkload {
 public:
  explicit Observed4096(std::string profile_path)
      : StencilWorkload(32, 4096, 1024, 2, 256 * 1024, 0, {true, true, true}),
        profile_path_(std::move(profile_path)) {}

  void run(Outcome& out, Tracer& tr) override {
    runtime::MetricsRegistry::instance().reset();
    runtime::ProfileCapture::instance().reset();
    StencilWorkload::run(out, tr);
    if (runtime::default_spans()) {
      auto s = tr.span("simnet", "critpath_report");
      out.op(runtime::dump_captured_profile(profile_path_), "critical-path report");
    }
  }

 private:
  std::string profile_path_;
};

// --- paper_apps ------------------------------------------------------------

class PaperApps final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tr) override {
    {
      auto s = tr.span("simnet", "platform_build");
      cpu_ = std::make_unique<simnet::Platform>(simnet::Platform::perlmutter_cpu(kCpuNodes));
      cpu1_ = std::make_unique<simnet::Platform>(simnet::Platform::perlmutter_cpu());
      gpu_ = std::make_unique<simnet::Platform>(simnet::Platform::perlmutter_gpu());
    }
    auto s = tr.span("workloads", "sptrsv_generate");
    workloads::sptrsv::GenConfig g;
    g.n = kSptrsvN;
    g.seed = seed;
    matrix_ = std::make_unique<workloads::sptrsv::SupernodalMatrix>(
        workloads::sptrsv::SupernodalMatrix::generate(g));
    seed_ = seed;
  }

  void run(Outcome& out, Tracer& tr) override { calls(out, tr, true); }

  /// Every call but hashtable_shmem, which takes ~45 s with the checker on.
  void run_obs_unit(Outcome& out, Tracer& tr) override { calls(out, tr, false); }

  const simnet::Platform& shape_platform() const override { return *cpu_; }
  int shape_ranks() const override { return kHashRanks; }
  simnet::Platform build_shape_platform() const override {
    return simnet::Platform::perlmutter_cpu(kCpuNodes);
  }

  /// gets / gets_naive of the last embedding MPI run (software combining).
  [[nodiscard]] double combine_ratio() const { return combine_ratio_; }

 private:
  void calls(Outcome& out, Tracer& tr, bool with_hashtable_shmem) {
    namespace sp = workloads::sptrsv;
    namespace ht = workloads::hashtable;
    namespace em = workloads::embedding;
    sp::Config spc;
    spc.rhs_seed = seed_ ^ 0x5bd1e995ULL;
    sptrsv(out, tr, "sptrsv_two_sided", [&] { return sp::run_two_sided(*cpu_, kSptrsvRanks, *matrix_, spc); });
    sptrsv(out, tr, "sptrsv_one_sided", [&] { return sp::run_one_sided(*cpu_, kSptrsvRanks, *matrix_, spc); });
    sptrsv(out, tr, "sptrsv_shmem", [&] { return sp::run_shmem_gpu(*gpu_, kGpuPes, *matrix_, spc); });

    ht::Config hc;
    hc.total_inserts = kInserts;
    hc.seed = seed_;
    hashtable(out, tr, "hashtable_one_sided", [&] {
      return ht::run_one_sided(*cpu_, kHashRanks, ht::with_sized_overflow(hc, kHashRanks));
    });
    if (with_hashtable_shmem) {
      hashtable(out, tr, "hashtable_shmem", [&] {
        return ht::run_shmem_gpu(*gpu_, kGpuPes, ht::with_sized_overflow(hc, kGpuPes));
      });
    }

    em::Config ec;
    ec.rows = 1 << 15;
    ec.dim = 64;
    ec.queries_per_rank = 32;
    ec.lookups_per_query = 16;
    ec.batch = 8;
    ec.zipf_s = 0.99;
    ec.seed = seed_;
    embedding(out, tr, "embedding_mpi", [&] { return em::run_mpi(*cpu1_, kEmbedRanks, ec); });
    embedding(out, tr, "embedding_shmem", [&] { return em::run_shmem(*gpu_, kGpuPes, ec); });
  }

  template <typename F>
  static void sptrsv(Outcome& out, Tracer& tr, const std::string& name, F&& call) {
    workloads::sptrsv::Result r;
    {
      auto s = tr.span("workloads", name);
      r = call();
    }
    out.digest.f64(r.time_us);
    out.digest.f64(r.rel_err);
    out.digest.summary(r.msgs);
    out.op(r.status.is_ok() && r.verified && r.rel_err < 1e-9, name + ": " + r.status.to_string());
  }

  template <typename F>
  static void hashtable(Outcome& out, Tracer& tr, const std::string& name, F&& call) {
    workloads::hashtable::Result r;
    {
      auto s = tr.span("workloads", name);
      r = call();
    }
    out.digest.f64(r.time_us);
    out.digest.u64(r.inserted);
    out.digest.u64(r.collisions);
    out.digest.summary(r.msgs);
    out.op(r.status.is_ok() && r.verified && r.verify_ok, name + ": " + r.status.to_string());
  }

  template <typename F>
  void embedding(Outcome& out, Tracer& tr, const std::string& name, F&& call) {
    workloads::embedding::Result r;
    {
      auto s = tr.span("workloads", name);
      r = call();
    }
    out.digest.f64(r.time_us);
    out.digest.f64(r.qps);
    out.digest.f64(r.p99_us);
    out.digest.u64(r.gets);
    out.digest.u64(r.gets_naive);
    out.digest.summary(r.msgs);
    out.op(r.status.is_ok() && r.verified && r.verify_ok, name + ": " + r.status.to_string());
    if (name == "embedding_mpi" && r.gets_naive > 0) {
      combine_ratio_ = static_cast<double>(r.gets) / static_cast<double>(r.gets_naive);
    }
  }

  static constexpr int kCpuNodes = 2;
  static constexpr int kSptrsvRanks = 64;
  static constexpr int kSptrsvN = 6000;
  static constexpr int kHashRanks = 256;
  static constexpr std::uint64_t kInserts = 100000;
  static constexpr int kEmbedRanks = 64;
  static constexpr int kGpuPes = 4;

  std::unique_ptr<simnet::Platform> cpu_, cpu1_, gpu_;
  std::unique_ptr<workloads::sptrsv::SupernodalMatrix> matrix_;
  std::uint64_t seed_ = 0;
  double combine_ratio_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir) {
  if (name == "roofline_sweep") return std::make_unique<RooflineSweep>();
  if (name == "stencil_100k") return std::make_unique<Stencil100k>();
  if (name == "paper_apps") return std::make_unique<PaperApps>();
  if (name == "observed_4096") {
    return std::make_unique<Observed4096>(out_dir + "/observed_4096.critpath.txt");
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// JSON output

class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    add(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' ? ' ' : c);
    }
    add(k, q + "\"");
  }
  void list(const std::string& k, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", vs[i]);
      s += buf;
    }
    add(k, s + "]");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void add(const std::string& k, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + raw;
  }
  std::string body_;
};

void emit_outcome(JsonOut& j, const Outcome& out) {
  j.num("attempted", static_cast<double>(out.attempted));
  j.num("failed", static_cast<double>(out.failed));
  j.str("digest", out.digest.hex());
  std::string errs;
  for (const auto& e : out.errors) errs += (errs.empty() ? "" : "; ") + e;
  j.str("errors", errs);
}

/// Build facts for the machine manifest; a sanitizer or unoptimised build is
/// flagged so its numbers are never compared with a release build's.
void emit_build(JsonOut& j) {
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.str("compiler", PERFBENCH_COMPILER);
  std::string san;
#if defined(__SANITIZE_ADDRESS__)
  san += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  san += "thread ";
#endif
  j.str("sanitizer", san.empty() ? "none" : san);
#if defined(__OPTIMIZE__)
  j.num("optimized", 1);
#else
  j.num("optimized", 0);
#endif
  j.str("backend", runtime::to_string(runtime::default_backend()));
  j.str("scheduler", runtime::to_string(runtime::default_scheduler()));
}

// ---------------------------------------------------------------------------
// Passes

/// Runs the workload once with the metrics layer on and adds the fixed
/// simulated-op counts and that pass's digest to `j`. Nothing is timed
/// here, so sweeps use every core: their outputs and metric totals are
/// identical for any job count.
void count_pass(Workload& w, std::uint64_t seed, JsonOut& j) {
  Observability o = w.timed_observability();
  o.metrics = true;
  apply(o);
  core::set_default_jobs(static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  Tracer off(false);
  w.setup(seed, off);  // sets the workload's own stack size
  if (w.metrics_stack_bytes() != 0) runtime::set_default_fiber_stack_bytes(w.metrics_stack_bytes());
  auto& reg = runtime::MetricsRegistry::instance();
  reg.reset();
  Outcome out;
  w.run(out, off);
  const auto c = reg.totals();
  double queue_us = 0;
  for (const auto& l : reg.link_totals()) queue_us += l.queue_us();
  j.num("sim_ops", static_cast<double>(c.fabric_ops() + c.syncs + c.waits));
  j.num("msgs", static_cast<double>(c.fabric_ops()));
  j.num("link_queue_us", queue_us);
  j.num("atomics", static_cast<double>(c.atomics));
  j.num("cas_failures", static_cast<double>(c.cas_failures));
  j.num("count_failed", static_cast<double>(out.failed));
  j.str("count_digest", out.digest.hex());
}

/// The production pass: repeats set-up + run until `seconds` have passed
/// (at least min_reps() times), then reads the peak RSS, then runs the
/// metrics-on count pass in the same process.
int timed_pass(Workload& w, std::uint64_t seed, double seconds) {
  apply(w.timed_observability());
  std::vector<double> setup_s, wall_s;
  Outcome total;
  std::string first_digest;
  Tracer off(false);
  const auto start = Clock::now();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= w.min_reps() && seconds_between(start, Clock::now()) >= seconds) break;
    const auto t0 = Clock::now();
    w.setup(seed, off);
    const auto t1 = Clock::now();
    Outcome o;
    w.run(o, off);
    const auto t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1));
    wall_s.push_back(seconds_between(t1, t2));
    if (rep == 0) {
      first_digest = o.digest.hex();
      total.digest = o.digest;
    }
    total.attempted += o.attempted;
    total.failed += o.failed;
    if (o.digest.hex() != first_digest) {
      // A repetition whose simulated outputs differ from the first one's
      // is nondeterministic: count every one of its operations as failed.
      total.failed += o.attempted - o.failed;
      total.errors.push_back("repetition " + std::to_string(rep) + " digest differs");
    }
    for (const auto& e : o.errors) {
      if (total.errors.size() < 8) total.errors.push_back(e);
    }
  }
  // Set-up is short next to the run on most workloads: repeat it alone
  // until its samples cover a quarter second, so its median is steady.
  double setup_total = 0;
  for (const double x : setup_s) setup_total += x;
  while (setup_total < 0.25 && setup_s.size() < 200) {
    const auto t0 = Clock::now();
    w.setup(seed, off);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_total += setup_s.back();
  }
  JsonOut j;
  j.str("mode", "timed");
  j.list("setup_s", setup_s);
  j.list("wall_s", wall_s);
  j.num("peak_rss_mb", status_mb("VmHWM"));
  emit_outcome(j, total);
  emit_build(j);
  count_pass(w, seed, j);
  j.print();
  return 0;
}

/// One observability layer on alone (or all off): repeats the workload's
/// obs unit until a second has passed (at most kObsReps times) and reports
/// the median wall time and the process's peak RSS.
int obs_pass(Workload& w, std::uint64_t seed, const std::string& layer) {
  constexpr int kObsReps = 5;
  Observability o;
  if (layer == "metrics") o.metrics = true;
  if (layer == "spans") o.spans = true;
  if (layer == "check") o.check = true;
  apply(o);
  Tracer off(false);
  w.setup(seed, off);
  std::vector<double> wall;
  Outcome out;
  const auto start = Clock::now();
  while (wall.size() < kObsReps && (wall.empty() || seconds_between(start, Clock::now()) < 1.0)) {
    const auto t0 = Clock::now();
    Outcome o1;
    w.run_obs_unit(o1, off);
    wall.push_back(seconds_between(t0, Clock::now()));
    if (wall.size() == 1) out = o1;
  }
  JsonOut j;
  j.str("mode", "obs");
  j.str("layer", layer);
  j.num("wall_s", median(wall));
  j.num("peak_rss_mb", status_mb("VmHWM"));
  emit_outcome(j, out);
  j.print();
  return 0;
}

// --- layer probes (traced pass) ---------------------------------------------

/// Median over `reps` calls of `fn`, which returns one sample.
template <typename F>
double median_of(int reps, F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(v);
}

/// Host ns per message of a single-point sweep (msg size 8 B).
double sweep_ns_per_msg(const simnet::Platform& plat, core::SweepKind kind,
                        std::uint64_t msgs_per_sync, int iters, Tracer& tr,
                        Outcome& out, const char* span_name) {
  core::SweepConfig cfg;
  cfg.kind = kind;
  cfg.msg_sizes = {8};
  cfg.msgs_per_sync = {msgs_per_sync};
  cfg.iters = iters;
  cfg.jobs = 1;
  return median_of(5, [&] {
    auto s = tr.span("mpi", span_name);
    const auto t0 = Clock::now();
    const auto r = core::run_sweep(plat, cfg);
    const double dt = seconds_between(t0, Clock::now());
    out.op(r.is_ok(), std::string(span_name) + ": " + (r.is_ok() ? "" : r.status().to_string()));
    return dt * 1e9 / static_cast<double>(msgs_per_sync * static_cast<std::uint64_t>(iters));
  });
}

/// Host ns per SHMEM op on PE 0, timed inside the rank body so the world's
/// symmetric-heap set-up is excluded.
double shmem_op_ns(const simnet::Platform& gpu, bool cas, Tracer& tr, Outcome& out) {
  constexpr int kOps = 2000;
  runtime::Engine eng(gpu, 2);
  return median_of(5, [&] {
    auto s = tr.span("shmem", cas ? "cas" : "put_signal");
    double dt = 0;
    const auto r = shmem::World::run(eng, [&](shmem::Ctx& c) {
      auto data = c.allocate<double>(16);
      auto sig = c.allocate<std::uint64_t>(1);
      c.barrier_all();
      if (c.pe() == 0) {
        double buf[16] = {};
        const auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) {
          if (cas) {
            (void)c.atomic_compare_swap(sig, static_cast<std::uint64_t>(i),
                                        static_cast<std::uint64_t>(i + 1), 1);
          } else {
            c.put_signal_nbi(data, buf, 16, sig, 1, 1);
          }
        }
        c.quiet();
        dt = seconds_between(t0, Clock::now());
      }
      c.barrier_all();
    });
    out.op(r.ok(), std::string(cas ? "cas" : "put_signal") + ": " + r.status.to_string());
    return dt * 1e9 / kOps;
  });
}

using Metrics = std::map<std::string, double>;

void probe_simnet(const Workload& w, std::uint64_t seed, Tracer& tr, Metrics& m) {
  // Platform build: time and RSS growth while the new platform is held.
  std::vector<double> build_s, build_mb;
  for (int i = 0; i < 2; ++i) {
    const double rss0 = status_mb("VmRSS");
    const auto t0 = Clock::now();
    auto s = tr.span("simnet", "platform_build");
    const simnet::Platform p = w.build_shape_platform();
    build_s.push_back(seconds_between(t0, Clock::now()));
    build_mb.push_back(status_mb("VmRSS") - rss0);
  }
  m.emplace("simnet.platform_build_s", median(build_s));
  m.emplace("simnet.platform_build_mb", median(build_mb));

  // Topology::route over rank pairs drawn from the seed.
  const simnet::Platform& plat = w.shape_platform();
  const int n = w.shape_ranks();
  Xoshiro256 rng(seed);
  std::vector<std::pair<int, int>> pairs(4096);
  for (auto& pr : pairs) {
    pr.first = plat.endpoint_of_rank(static_cast<int>(rng() % static_cast<std::uint64_t>(n)), n);
    pr.second = plat.endpoint_of_rank(static_cast<int>(rng() % static_cast<std::uint64_t>(n)), n);
  }
  const simnet::Topology& topo = plat.topology();
  constexpr int kRouteCalls = 1 << 20;
  m.emplace("simnet.route_ns", median_of(5, [&] {
    auto s = tr.span("simnet", "route");
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kRouteCalls; ++i) {
      const auto& pr = pairs[static_cast<std::size_t>(i) & 4095];
      sink += topo.route(pr.first, pr.second).size();
    }
    const double dt = seconds_between(t0, Clock::now());
    if (sink == 1) std::fprintf(stderr, " ");  // keep the loop observable
    return dt * 1e9 / kRouteCalls;
  }));

  // Fabric::transfer between the first and last rank's endpoints.
  constexpr int kTransfers = 200000;
  m.emplace("simnet.transfer_ns", median_of(5, [&] {
    auto fabric = plat.make_fabric();
    simnet::TransferParams p;
    p.src_ep = plat.endpoint_of_rank(0, n);
    p.dst_ep = plat.endpoint_of_rank(n - 1, n);
    p.sw_latency_us = 2.7;
    p.inj_gap_us = 0.05;
    p.pump_gbs = 32.0;
    auto s = tr.span("simnet", "transfer");
    double sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kTransfers; ++i) {
      p.bytes = 8u << (i & 15);
      p.start_us = static_cast<double>(i);
      sink += fabric->transfer(p).arrival_us;
    }
    const double dt = seconds_between(t0, Clock::now());
    if (sink < 0) std::fprintf(stderr, " ");
    return dt * 1e9 / kTransfers;
  }));
}

void probe_runtime_mpi(const Workload& w, Tracer& tr, Metrics& m, Outcome& out) {
  const simnet::Platform& plat = w.shape_platform();
  const int n = w.shape_ranks();
  std::unique_ptr<runtime::Engine> eng;
  {
    auto s = tr.span("runtime", "engine_build");
    const auto t0 = Clock::now();
    eng = std::make_unique<runtime::Engine>(plat, n);
    out.op(eng->run([](runtime::Rank&) {}).ok(), "empty engine run");
    m.emplace("runtime.engine_build_s", seconds_between(t0, Clock::now()));
  }
  // Engine::perform: k ops per rank, minus an empty run on the same engine.
  const int k = std::max(4, 400000 / n);
  const double empty_s = median_of(3, [&] {
    const auto t0 = Clock::now();
    (void)eng->run([](runtime::Rank&) {});
    return seconds_between(t0, Clock::now());
  });
  m.emplace("runtime.dispatch_ns", median_of(3, [&] {
    auto s = tr.span("runtime", "perform");
    const auto t0 = Clock::now();
    out.op(eng->run([&](runtime::Rank& r) {
      for (int i = 0; i < k; ++i) {
        r.advance(0.1);
        eng->perform(r, [] {});
      }
    }).ok(), "perform run");
    const double dt = seconds_between(t0, Clock::now()) - empty_s;
    return std::max(dt, 0.0) * 1e9 / (static_cast<double>(n) * k);
  }));
  // Fence waves at the workload's rank count: 1 versus 1 + kWaves fences.
  constexpr int kWaves = 3;
  auto fences = [&](int count) {
    const auto t0 = Clock::now();
    out.op(mpi::World::run(*eng, [&](mpi::Comm& c) {
      double cell = 0;
      auto win = c.create_win(&cell, sizeof(cell));
      for (int i = 0; i < count; ++i) win.fence();
    }).ok(), "fence run");
    return seconds_between(t0, Clock::now());
  };
  m.emplace("mpi.fence_wave_ms", median_of(3, [&] {
    auto s = tr.span("mpi", "fence_wave");
    return std::max(fences(1 + kWaves) - fences(1), 0.0) * 1e3 / kWaves;
  }));
  eng.reset();

  // MPI op costs: single-point 2-rank sweeps on the workload's platform.
  const simnet::Platform& cpu = w.shape_platform();
  m.emplace("mpi.p2p_msg_ns.m10",
        sweep_ns_per_msg(cpu, core::SweepKind::kTwoSided, 10, 100, tr, out, "p2p_m10"));
  m.emplace("mpi.p2p_msg_ns.m10000",
        sweep_ns_per_msg(cpu, core::SweepKind::kTwoSided, 10000, 2, tr, out, "p2p_m10000"));
  m.emplace("mpi.put_flush_ns",
        sweep_ns_per_msg(cpu, core::SweepKind::kOneSidedMpi, 100, 20, tr, out, "put_flush"));
}

void probe_shmem(Tracer& tr, Metrics& m, Outcome& out) {
  const auto gpu = simnet::Platform::perlmutter_gpu();
  for (const int pes : {2, 4}) {
    runtime::Engine eng(gpu, pes);
    out.op(eng.run([](runtime::Rank&) {}).ok(), "empty engine run");
    m.emplace("shmem.world_setup_ms.pe" + std::to_string(pes), median_of(5, [&] {
      auto s = tr.span("shmem", "world_setup");
      const auto t0 = Clock::now();
      out.op(shmem::World::run(eng, [](shmem::Ctx&) {}).ok(), "empty shmem world");
      return seconds_between(t0, Clock::now()) * 1e3;
    }));
  }
  m.emplace("shmem.put_signal_ns", shmem_op_ns(gpu, false, tr, out));
  m.emplace("shmem.cas_ns", shmem_op_ns(gpu, true, tr, out));
}

/// Fixed small grid for core.sweep_point_ms on workloads without a sweep.
void probe_sweep_points(Tracer& tr, Outcome& out) {
  const auto cpu = simnet::Platform::perlmutter_cpu();
  const auto gpu = simnet::Platform::perlmutter_gpu();
  using K = core::SweepKind;
  for (const K kind : {K::kTwoSided, K::kOneSidedMpi, K::kShmemPutSignal, K::kAtomicCas}) {
    core::SweepConfig cfg;
    cfg.kind = kind;
    cfg.msg_sizes = {8, 4096, 262144};
    cfg.msgs_per_sync = {1, 10, 100, 1000};
    cfg.iters = 4;
    cfg.jobs = 1;
    const bool on_gpu = kind == K::kShmemPutSignal || kind == K::kAtomicCas;
    run_sweep_ops(on_gpu ? gpu : cpu, cfg, "probe", out, tr);
  }
}

/// Fixed instances of the application calls a workload does not make
/// itself, so every workloads.* row exists on every workload.
void probe_apps(std::uint64_t seed, bool stencil, bool apps, Tracer& tr,
                Outcome& out, double* combine_ratio) {
  Tracer off(false);
  if (stencil) {
    StencilWorkload small(1, 64, 512, 2, runtime::default_fiber_stack_bytes(), 0, {});
    small.setup(seed, off);
    small.run(out, tr);
  }
  if (apps) {
    PaperApps small;
    small.setup(seed, off);
    small.run(out, tr);
    *combine_ratio = small.combine_ratio();
  }
}

/// Writes the tracer's spans as JSON lines (layer, name, parent, t0, t1 in
/// seconds from the tracer's start).
void write_spans(const Tracer& tr, const std::string& path) {
  std::ofstream f(path);
  for (const auto& sp : tr.spans()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"parent\": %d, \"t0\": %.9f, \"t1\": %.9f}\n",
                  sp.parent, sp.t0, sp.t1);
    f << "{\"layer\": \"" << sp.layer << "\", \"name\": \"" << sp.name << "\", " << buf;
  }
}

/// --mode traced: the workload pass under benchmark-side spans, with the
/// timed pass's observability. --mode probes: the layer probes at the
/// workload's shape, in a process of their own so the workload pass's heap
/// history does not leak into them.
int traced_pass(Workload& w, std::uint64_t seed, const std::string& workload,
                bool probes, const std::string& out_dir) {
  Tracer tr(true);
  Outcome out;
  Metrics m;
  const bool is_apps = workload == "paper_apps";
  if (!probes) {
    apply(w.timed_observability());
    auto root = tr.span("bench", "workload_pass");
    const auto t0 = Clock::now();
    w.setup(seed, tr);
    w.run(out, tr);
    m.emplace("trace.pass_s", seconds_between(t0, Clock::now()));
    if (is_apps) {
      m.emplace("workloads.embedding.combine_ratio", static_cast<PaperApps&>(w).combine_ratio());
    }
  } else {
    apply({});
    auto root = tr.span("bench", "layer_probes");
    // SHMEM world set-up zero-fills fresh heaps; run it before the workload's
    // platforms exist so no workload's freed memory makes it cheaper.
    probe_shmem(tr, m, out);
    {
      Tracer off(false);
      w.setup(seed, off);
    }
    probe_simnet(w, seed, tr, m);
    probe_runtime_mpi(w, tr, m, out);
    if (workload != "roofline_sweep") probe_sweep_points(tr, out);
    const bool is_stencil = workload == "stencil_100k" || workload == "observed_4096";
    double combine = 0;
    probe_apps(seed, !is_stencil, !is_apps, tr, out, &combine);
    if (!is_apps) m.emplace("workloads.embedding.combine_ratio", combine);
  }

  for (const char* kind : {"two_sided", "one_sided", "shmem", "cas"}) {
    const auto d = tr.durations(std::string("sweep_point.") + kind);
    if (d.empty()) continue;
    m.emplace(std::string("core.sweep_point_ms.") + kind + ".p50", percentile(d, 0.5) * 1e3);
    m.emplace(std::string("core.sweep_point_ms.") + kind + ".p90", percentile(d, 0.9) * 1e3);
  }
  for (const char* app : {"stencil_one_sided", "sptrsv_two_sided", "sptrsv_one_sided",
                          "sptrsv_shmem", "hashtable_one_sided", "hashtable_shmem",
                          "embedding_mpi", "embedding_shmem"}) {
    const auto d = tr.durations(app);
    if (!d.empty()) m.emplace(std::string("workloads.") + app + "_s", d.front());
  }
  for (const auto& [layer, x] : tr.self_seconds()) m.emplace("self_s." + layer, x);
  write_spans(tr, out_dir + "/" + workload + (probes ? ".probes" : ".traced") + ".spans.jsonl");

  JsonOut j;
  j.str("mode", probes ? "probes" : "traced");
  for (const auto& [k, v] : m) j.num(k, v);
  emit_outcome(j, out);
  j.print();
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed N --mode timed|traced|probes|obs "
               "[--seconds S] [--obs off|metrics|spans|check] [--out-dir DIR]\n"
               "workloads: roofline_sweep stencil_100k paper_apps observed_4096\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode, obs = "off", out_dir = ".";
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--mode") {
      mode = v;
    } else if (a == "--obs") {
      obs = v;
    } else if (a == "--out-dir") {
      out_dir = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') return usage(argv[0]);
      have_seed = true;
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(seconds > 0)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  core::set_default_jobs(1);
  auto w = make_workload(workload, out_dir);
  if (!w || !have_seed) return usage(argv[0]);
  if (obs != "off" && obs != "metrics" && obs != "spans" && obs != "check") {
    return usage(argv[0]);
  }
  if (mode == "timed") return timed_pass(*w, seed, seconds);
  if (mode == "traced" || mode == "probes") {
    return traced_pass(*w, seed, workload, mode == "probes", out_dir);
  }
  if (mode == "obs") return obs_pass(*w, seed, obs);
  return usage(argv[0]);
}
