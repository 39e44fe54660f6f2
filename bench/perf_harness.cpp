// Perf harness: pins a fixed set of simulation sweeps and reports
// simulated-ops/sec, wall time, and peak RSS as BENCH_engine.json — the
// tracked, gated number for the engine's hot path (DESIGN.md §10).
//
// Sections (fixed shapes; the point is run-to-run comparability, not scale):
//   fig01_roofline      one-sided MPI roofline sweep on Frontier CPU
//   fig05_stencil_4096  one-sided stencil, 4096 ranks (32 Perlmutter nodes)
//   fig05_stencil_100k  one-sided stencil, 100000 ranks (800 nodes)
//   fig07_grid          the Fig 7 GPU workload trio at 4 PEs
//   ext_fault_sweep     degraded-network sweep, 3 flavors x 5 intensities
//   embedding           DLRM-style embedding-lookup serving: MPI at 64
//                       ranks + SHMEM at 4 PEs (--skip-embedding omits
//                       it, --only-embedding runs nothing else)
//   stencil_1m          one-sided stencil, 1,000,000 ranks — the pooled-stack
//                       + gated-wait + SoA scale smoke (DESIGN.md §12); also
//                       reports ranks/sec. Needs ~71 GB resident (~70 KB per
//                       rank): --skip-1m omits it (small machines, the CI
//                       perf sweep), --only-1m runs nothing else (the CI
//                       guarded smoke job).
//
// "Simulated ops" are scheduler-visible operations counted by the metrics
// layer: fabric ops (sends/puts/gets/atomics) + syncs + waits. Wall time is
// steady_clock. Peak RSS is /proc/self/status VmHWM, reset per section via
// /proc/self/clear_refs (code 5) so each section reports its own high-water
// mark; where the kernel forbids the reset, values degrade to the old
// nondecreasing process-wide peak. The fiber stack pool is trimmed between
// sections so one section's recycled stacks don't count against the next.
//
// With --baseline FILE the harness compares each section's ops_per_sec and
// rss_mb against the committed baseline and exits 1 on a regression beyond
// --tolerance / --rss-tolerance (default 25% each). Absolute throughput and
// RSS are machine-dependent, so CI treats that gate as soft (artifact +
// report); the hard gates remain the bit-identity tests.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "runtime/fiber.hpp"
#include "runtime/metrics.hpp"
#include "runtime/run_flags.hpp"
#include "simnet/fault.hpp"
#include "simnet/platform.hpp"
#include "util/parse.hpp"
#include "workloads/embedding/embedding.hpp"
#include "workloads/hashtable/hashtable.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace {

using namespace mrl;

/// Peak RSS (VmHWM) in MiB from /proc/self/status; 0 if unavailable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets the kernel's peak-RSS counter (VmHWM) to the current RSS so the
/// next peak_rss_mb() reads this section's own high-water mark instead of
/// the monotone process-wide one. Returns false where /proc/self/clear_refs
/// is absent or read-only (non-Linux, hardened kernels); rss_mb then falls
/// back to the old nondecreasing semantics.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5" << std::flush;
  return f.good();
}

struct SectionResult {
  std::string name;
  std::uint64_t sim_ops = 0;
  double wall_s = 0;
  double ops_per_sec = 0;
  double rss_mb = 0;   ///< VmHWM during the section (see reset_peak_rss)
  std::uint64_t ranks = 0;  ///< simulated ranks; >0 adds ranks_per_sec
};

std::uint64_t scheduler_visible_ops(const runtime::OpCounters& c) {
  return c.fabric_ops() + c.syncs + c.waits;
}

/// Runs `body` as one pinned section with the metrics registry as the
/// simulated-op counter.
template <typename F>
SectionResult run_section(const std::string& name, F&& body,
                          std::uint64_t ranks = 0) {
  auto& reg = runtime::MetricsRegistry::instance();
  reg.reset();
  // Return the previous section's recycled fiber stacks to the kernel and
  // rebase the peak-RSS counter: rss_mb then measures THIS section.
  runtime::stack_pool_trim();
  reset_peak_rss();
  std::printf("[perf] %-20s ...", name.c_str());
  std::fflush(stdout);
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  SectionResult r;
  r.name = name;
  r.sim_ops = scheduler_visible_ops(reg.totals());
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.ops_per_sec = r.wall_s > 0 ? static_cast<double>(r.sim_ops) / r.wall_s : 0;
  r.rss_mb = peak_rss_mb();
  r.ranks = ranks;
  std::printf(" %12llu ops  %8.3f s  %12.0f ops/s  rss %.1f MB",
              static_cast<unsigned long long>(r.sim_ops), r.wall_s,
              r.ops_per_sec, r.rss_mb);
  if (ranks > 0 && r.wall_s > 0) {
    std::printf("  %.0f ranks/s", static_cast<double>(ranks) / r.wall_s);
  }
  std::printf("\n");
  return r;
}

void check_ok(const Status& st, const char* what) {
  if (!st.is_ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, st.to_string().c_str());
    std::exit(1);
  }
}

std::string json_escape_free(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_json(const std::string& path, const std::vector<SectionResult>& rs,
                int jobs) {
  std::ostringstream os;
  std::uint64_t total_ops = 0;
  double total_wall = 0, max_rss = 0;
  for (const auto& r : rs) {
    total_ops += r.sim_ops;
    total_wall += r.wall_s;
    max_rss = std::max(max_rss, r.rss_mb);
  }
  os << "{\n"
     << "  \"bench\": \"engine\",\n"
     << "  \"scheduler\": \""
     << runtime::to_string(runtime::default_scheduler()) << "\",\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"sections\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    os << "    {\"name\": \"" << r.name << "\", \"sim_ops\": " << r.sim_ops
       << ", \"wall_s\": " << json_escape_free(r.wall_s)
       << ", \"ops_per_sec\": " << json_escape_free(r.ops_per_sec)
       << ", \"rss_mb\": " << json_escape_free(r.rss_mb);
    if (r.ranks > 0) {
      os << ", \"ranks\": " << r.ranks << ", \"ranks_per_sec\": "
         << json_escape_free(
                r.wall_s > 0 ? static_cast<double>(r.ranks) / r.wall_s : 0);
    }
    os << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"total\": {\"sim_ops\": " << total_ops
     << ", \"wall_s\": " << json_escape_free(total_wall)
     << ", \"ops_per_sec\": "
     << json_escape_free(total_wall > 0
                             ? static_cast<double>(total_ops) / total_wall
                             : 0)
     << ", \"peak_rss_mb\": " << json_escape_free(max_rss) << "}\n"
     << "}\n";
  std::ofstream out(path);
  out << os.str();
  if (!out) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("[perf] wrote %s\n", path.c_str());
}

/// Pulls `"key": <number>` immediately following `"name": "<section>"` out
/// of a BENCH_engine.json. Returns -1 if absent.
double json_section_value(const std::string& text, const std::string& section,
                          const std::string& key) {
  const std::string anchor = "\"name\": \"" + section + "\"";
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) return -1;
  const std::size_t line_end = text.find('\n', at);
  const std::string needle = "\"" + key + "\": ";
  const std::size_t k = text.find(needle, at);
  if (k == std::string::npos || k > line_end) return -1;
  return std::strtod(text.c_str() + k + needle.size(), nullptr);
}

int compare_baseline(const std::string& path,
                     const std::vector<SectionResult>& rs, double tol_pct,
                     double rss_tol_pct) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "[perf] baseline %s not readable; skipping gate\n",
                 path.c_str());
    return 0;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  int failures = 0;
  for (const auto& r : rs) {
    const double base = json_section_value(text, r.name, "ops_per_sec");
    if (base <= 0) {
      std::printf("[perf] %-20s no baseline entry; skipped\n", r.name.c_str());
      continue;
    }
    const double ratio = r.ops_per_sec / base;
    const bool ok = ratio >= 1.0 - tol_pct / 100.0;
    std::printf("[perf] %-20s %12.0f vs baseline %12.0f ops/s  (%+.1f%%)%s\n",
                r.name.c_str(), r.ops_per_sec, base, (ratio - 1.0) * 100.0,
                ok ? "" : "  REGRESSION");
    if (!ok) ++failures;
    // RSS gates in the other direction: bigger is worse. Baselines written
    // before the per-section VmHWM reset carry the monotone process-wide
    // peak, which can only over-state a section — so the gate stays sound.
    const double rss_base = json_section_value(text, r.name, "rss_mb");
    if (rss_base > 0 && r.rss_mb > 0) {
      const double rss_ratio = r.rss_mb / rss_base;
      const bool rss_ok = rss_ratio <= 1.0 + rss_tol_pct / 100.0;
      std::printf("[perf] %-20s %10.1f vs baseline %10.1f MB     (%+.1f%%)%s\n",
                  r.name.c_str(), r.rss_mb, rss_base,
                  (rss_ratio - 1.0) * 100.0, rss_ok ? "" : "  RSS REGRESSION");
      if (!rss_ok) ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "[perf] FAIL: %d gate(s) regressed beyond tolerance "
                 "(ops %.0f%%, rss %.0f%%)\n",
                 failures, tol_pct, rss_tol_pct);
    return 1;
  }
  std::printf("[perf] all sections within tolerance (ops %.0f%%, rss %.0f%%)\n",
              tol_pct, rss_tol_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  std::string baseline_path;
  double tol_pct = 25.0;
  double rss_tol_pct = 25.0;
  int jobs = 1;
  bool skip_1m = false;
  bool only_1m = false;
  bool skip_embedding = false;
  bool only_embedding = false;

  const auto set = [](bool* flag) {
    return [flag](const FlagValue&) { *flag = true; };
  };
  FlagParser p(argv[0], "[flags]");
  p.add({{"--out", FlagKind::kPath, "PATH",
          "write the results JSON to PATH (default BENCH_engine.json)",
          [&](const FlagValue& v) { out_path = v.text; }},
         {"--baseline", FlagKind::kPath, "PATH",
          "compare against the baseline JSON at PATH; exit 1 on a regression",
          [&](const FlagValue& v) { baseline_path = v.text; }},
         {"--tolerance", FlagKind::kF64, "PCT",
          "allowed ops/sec regression vs --baseline (default 25)",
          [&](const FlagValue& v) { tol_pct = v.real; }},
         {"--rss-tolerance", FlagKind::kF64, "PCT",
          "allowed peak-RSS growth vs --baseline (default 25)",
          [&](const FlagValue& v) { rss_tol_pct = v.real; }},
         {"--jobs", FlagKind::kInt, "N",
          "concurrent grid points per section (default 1)",
          [&](const FlagValue& v) { jobs = static_cast<int>(v.num); }, 1,
          INT_MAX},
         runtime::scheduler_flag()});
  p.add(runtime::stack_pool_flags());
  p.add({{"--skip-1m", FlagKind::kNone, "", "omit the 1M-rank section",
          set(&skip_1m)},
         {"--only-1m", FlagKind::kNone, "", "run only the 1M-rank section",
          set(&only_1m)},
         {"--skip-embedding", FlagKind::kNone, "", "omit the embedding section",
          set(&skip_embedding)},
         {"--only-embedding", FlagKind::kNone, "",
          "run only the embedding section", set(&only_embedding)}});
  p.parse(argc, argv);
  if (skip_1m && only_1m) p.fail("--skip-1m contradicts --only-1m");
  if (skip_embedding && only_embedding) {
    p.fail("--skip-embedding contradicts --only-embedding");
  }
  // The two --only modes are each "run exactly this section": combining
  // them would run nothing, so reject the contradiction up front.
  if (only_1m && only_embedding) {
    p.fail("--only-1m and --only-embedding together would run nothing");
  }
  if (only_embedding) skip_1m = true;
  if (only_1m) skip_embedding = true;
  const bool core_sections = !only_1m && !only_embedding;

  core::set_default_jobs(jobs);
  runtime::set_default_metrics(true);  // the sim-op counter
  std::printf("perf_harness: scheduler=%s jobs=%d\n",
              runtime::to_string(runtime::default_scheduler()), jobs);

  std::vector<SectionResult> results;

  if (core_sections) results.push_back(run_section("fig01_roofline", [] {
    const auto plat = simnet::Platform::frontier_cpu();
    auto cfg = core::SweepConfig::defaults(core::SweepKind::kOneSidedMpi);
    cfg.iters = 4;
    cfg.jobs = 0;  // resolve from default_jobs
    const auto pts = core::run_sweep(plat, cfg);
    check_ok(pts.is_ok() ? Status::ok() : pts.status(), "fig01 sweep");
  }));

  if (core_sections) {
    workloads::stencil::Config cfg;
    cfg.n = 1024;
    cfg.iters = 2;
    cfg.verify = false;
    results.push_back(run_section("fig05_stencil_4096", [&cfg] {
      const auto plat = simnet::Platform::perlmutter_cpu(32);  // 4096 ranks
      const auto r = workloads::stencil::run_one_sided(plat, 4096, cfg);
      check_ok(r.status, "stencil 4096");
    }));
  }

  if (core_sections) {
    // 100k ranks: shrink fiber stacks (64 KiB is ample — asserted by the
    // stack high-water-mark layer) so address space stays bounded.
    const std::size_t saved = runtime::default_fiber_stack_bytes();
    runtime::set_default_fiber_stack_bytes(64 * 1024);
    workloads::stencil::Config cfg;
    cfg.n = 512;
    cfg.iters = 2;
    cfg.verify = false;
    results.push_back(run_section("fig05_stencil_100k", [&cfg] {
      const auto plat = simnet::Platform::perlmutter_cpu(800);  // >= 100k
      const auto r = workloads::stencil::run_one_sided(plat, 100000, cfg);
      check_ok(r.status, "stencil 100k");
    }));
    runtime::set_default_fiber_stack_bytes(saved);
  }

  if (core_sections) results.push_back(run_section("fig07_grid", [] {
    const auto gpu = simnet::Platform::perlmutter_gpu();
    const int P = 4;
    workloads::stencil::Config stc;
    stc.n = 2048;
    stc.iters = 4;
    stc.verify = false;
    check_ok(workloads::stencil::run_shmem_gpu(gpu, P, stc).status,
             "fig07 stencil");
    workloads::sptrsv::GenConfig g;
    g.n = 8000;
    const auto L = workloads::sptrsv::SupernodalMatrix::generate(g);
    workloads::sptrsv::Config spc;
    spc.verify = false;
    check_ok(workloads::sptrsv::run_shmem_gpu(gpu, P, L, spc).status,
             "fig07 sptrsv");
    workloads::hashtable::Config hc;
    hc.total_inserts = 20000;
    hc.verify = false;
    check_ok(workloads::hashtable::run_shmem_gpu(gpu, P, hc).status,
             "fig07 hashtable");
  }));

  if (core_sections) results.push_back(run_section("ext_fault_sweep", [] {
    struct Flavor {
      core::SweepKind kind;
      simnet::Platform (*platform)();
    };
    const std::vector<Flavor> flavors = {
        {core::SweepKind::kTwoSided,
         +[] { return simnet::Platform::perlmutter_cpu(); }},
        {core::SweepKind::kOneSidedMpi,
         +[] { return simnet::Platform::perlmutter_cpu(); }},
        {core::SweepKind::kShmemPutSignal,
         +[] { return simnet::Platform::perlmutter_gpu(); }},
    };
    for (const auto& fl : flavors) {
      for (const double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        simnet::Platform plat = fl.platform();
        plat.set_faults(
            simnet::FaultSpec::at_intensity(intensity, 0x5EEDF007ULL));
        core::SweepConfig cfg;
        cfg.kind = fl.kind;
        cfg.msg_sizes = {64, 4096, 262144, 4194304};
        cfg.msgs_per_sync = {1, 16, 256};
        cfg.iters = 3;
        cfg.jobs = 0;
        const auto pts = core::run_sweep(plat, cfg);
        check_ok(pts.is_ok() ? Status::ok() : pts.status(), "fault sweep");
      }
    }
  }));

  if (!skip_embedding) results.push_back(run_section("embedding", [] {
    // Serving-scale embedding lookup (DESIGN.md §13): the batched-get hot
    // path with combining on. Moderate scale — the section times the
    // engine's get/flush machinery, not the workload's asymptotics.
    workloads::embedding::Config cfg;
    cfg.rows = 1 << 15;
    cfg.dim = 64;
    cfg.queries_per_rank = 32;
    cfg.lookups_per_query = 16;
    cfg.batch = 8;
    cfg.zipf_s = 0.99;
    cfg.verify = false;
    const auto cpu = simnet::Platform::perlmutter_cpu(1);
    check_ok(workloads::embedding::run_mpi(cpu, 64, cfg).status,
             "embedding mpi");
    const auto gpu = simnet::Platform::perlmutter_gpu();
    check_ok(workloads::embedding::run_shmem(gpu, 4, cfg).status,
             "embedding shmem");
  }));

  if (!skip_1m) {
    // The scale smoke: one million ranks through the full one-sided stencil
    // path. Feasible because of (DESIGN.md §12) pooled 16 KiB fiber stacks
    // (measured stencil high-water mark is ~4.7 KiB, so the 4-page floor
    // leaves >3x headroom), gated p2p/collective waits (no O(P^2) condition
    // scans), the SoA rank hot fields, and chunked trace storage. One
    // iteration keeps the section a smoke rather than a soak.
    const std::size_t saved = runtime::default_fiber_stack_bytes();
    runtime::set_default_fiber_stack_bytes(16 * 1024);
    workloads::stencil::Config cfg;
    cfg.n = 1024;
    cfg.iters = 1;
    cfg.verify = false;
    results.push_back(run_section(
        "stencil_1m",
        [&cfg] {
          const auto plat = simnet::Platform::perlmutter_cpu(8000);  // >= 1M
          const auto r = workloads::stencil::run_one_sided(plat, 1000000, cfg);
          check_ok(r.status, "stencil 1m");
        },
        /*ranks=*/1000000));
    runtime::set_default_fiber_stack_bytes(saved);
  }

  write_json(out_path, results, jobs);
  if (!baseline_path.empty()) {
    return compare_baseline(baseline_path, results, tol_pct, rss_tol_pct);
  }
  return 0;
}
