// msgroof_cli — command-line driver over the whole library: list platforms,
// run sweeps, solve workloads, and export Chrome traces, without writing C++.
//
//   msgroof_cli platforms
//   msgroof_cli sweep   <platform> <runtime> [--csv out.csv]
//   msgroof_cli stencil <platform> <ranks> [n] [iters]
//   msgroof_cli sptrsv  <platform> <ranks> [n]
//   msgroof_cli hashtable <platform> <ranks> [inserts]
//   msgroof_cli trace   <platform> <ranks> <out.json>   (stencil run trace)
//
// Platforms: perlmutter-cpu frontier-cpu summit-cpu
//            perlmutter-gpu summit-gpu frontier-gpu
// Runtimes:  two-sided one-sided shmem cas
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "core/fit.hpp"
#include "mpi/comm.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "runtime/run_flags.hpp"
#include "simnet/platform.hpp"
#include "simnet/trace_export.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workloads/hashtable/hashtable.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace {

using namespace mrl;

// Global fault-injection knobs (set by --faults / --fault-seed; applied to
// every platform the chosen command builds).
double g_fault_intensity = 0;
std::uint64_t g_fault_seed = 0x5EEDF007ULL;
// Global scaling knob and the requested output files (DESIGN.md §9, §14).
int g_nodes = 1;
runtime::RunOutputs g_out;
bool g_metrics_written = false;  // set when a command wrote a full report
// Flags only `sweep` accepts.
std::string g_csv_path;
int g_jobs = 0;  // 0 = hardware concurrency; results identical at any value

/// The flag table. Flags are valid before or after the command.
const FlagParser& cli_flags() {
  static const FlagParser parser = [] {
    FlagParser p("msgroof_cli",
                 "[flags] <command> [...]\n"
                 "  platforms\n"
                 "  sweep <platform> <runtime> [--csv out.csv] [--jobs N]\n"
                 "  stencil <platform> <ranks> [n] [iters]\n"
                 "  sptrsv <platform> <ranks> [n]\n"
                 "  hashtable <platform> <ranks> [inserts]\n"
                 "  trace <platform> <ranks> <out.json>\n"
                 "platforms: perlmutter-cpu frontier-cpu summit-cpu "
                 "perlmutter-gpu summit-gpu frontier-gpu\n"
                 "runtimes: two-sided one-sided shmem cas\n"
                 "flags (before or after the command):");
    p.add({{"--faults", FlagKind::kF64, "I",
            "inject deterministic fabric faults at intensity I (0 = "
            "pristine, 1 = heavily degraded)",
            [](const FlagValue& v) { g_fault_intensity = v.real; }},
           runtime::fault_seed_flag(&g_fault_seed),
           {"--watchdog-us", FlagKind::kF64, "N",
            "virtual-time progress limit per run in us (default 1e9; 0 "
            "disables)",
            [](const FlagValue& v) {
              runtime::set_default_watchdog_virtual_us(v.real);
            }},
           {"--nodes", FlagKind::kInt, "N",
            "scale CPU platforms to N nodes (default 1)",
            [](const FlagValue& v) { g_nodes = static_cast<int>(v.num); }, 1,
            INT_MAX},
           {"--stack-bytes", FlagKind::kInt, "N",
            "fiber stack size in bytes (default 256 KiB)",
            [](const FlagValue& v) {
              runtime::set_default_fiber_stack_bytes(
                  static_cast<std::size_t>(v.num));
            },
            16 * 1024}});
    p.add(runtime::stack_pool_flag());
    p.add(runtime::observability_flags(&g_out));
    p.add({{"--csv", FlagKind::kPath, "PATH",
            "sweep only: write the roofline CSV to PATH",
            [](const FlagValue& v) { g_csv_path = v.text; }},
           {"--jobs", FlagKind::kInt, "N",
            "sweep only: run up to N grid points concurrently",
            [](const FlagValue& v) { g_jobs = static_cast<int>(v.num); }, 1,
            INT_MAX}});
    return p;
  }();
  return parser;
}

[[noreturn]] void fail(const std::string& msg) { cli_flags().fail(msg); }

[[noreturn]] void usage() {
  cli_flags().usage(stderr);
  std::exit(2);
}

/// Rejects a command given fewer than `lo` or more than `hi` arguments.
void expect_args(const std::vector<std::string>& a, std::size_t lo,
                 std::size_t hi) {
  const std::size_t n = a.size() - 1;
  if (n < lo || n > hi) {
    fail("'" + a[0] + "' takes " + std::to_string(lo) +
         (hi > lo ? "-" + std::to_string(hi) : "") + " argument(s), got " +
         std::to_string(n));
  }
}

simnet::Platform pick_platform(const std::string& name) {
  using simnet::Platform;
  auto with_faults = [](Platform plat) {
    if (g_fault_intensity > 0) {
      plat.set_faults(
          simnet::FaultSpec::at_intensity(g_fault_intensity, g_fault_seed));
    }
    return plat;
  };
  if (name == "perlmutter-cpu") {
    return with_faults(Platform::perlmutter_cpu(g_nodes));
  }
  if (name == "frontier-cpu") return with_faults(Platform::frontier_cpu(g_nodes));
  if (name == "summit-cpu") return with_faults(Platform::summit_cpu(g_nodes));
  if (g_nodes != 1) fail("--nodes only applies to CPU platforms");
  if (name == "perlmutter-gpu") return with_faults(Platform::perlmutter_gpu());
  if (name == "summit-gpu") return with_faults(Platform::summit_gpu());
  if (name == "frontier-gpu") return with_faults(Platform::frontier_gpu());
  fail("unknown platform '" + name + "'");
}

core::SweepKind pick_kind(const std::string& name) {
  using core::SweepKind;
  if (name == "two-sided") return SweepKind::kTwoSided;
  if (name == "one-sided") return SweepKind::kOneSidedMpi;
  if (name == "shmem") return SweepKind::kShmemPutSignal;
  if (name == "cas") return SweepKind::kAtomicCas;
  fail("unknown runtime '" + name + "'");
}

int cmd_platforms(const std::vector<std::string>& a) {
  expect_args(a, 0, 0);
  TextTable t({"name", "max ranks", "kind", "pair peak (0..n-1)",
               "hw RTT (0..n-1)"});
  for (const simnet::Platform& p : simnet::Platform::all()) {
    const int n = p.max_ranks();
    t.add_row({p.name(), std::to_string(n), p.is_gpu() ? "GPU" : "CPU",
               format_gbs(p.pair_peak_gbs(0, n - 1, n)),
               format_time_us(p.hw_rtt_us(0, n - 1, n))});
  }
  std::printf("%s", t.render("registered platforms").c_str());
  return 0;
}

int cmd_sweep(const std::vector<std::string>& a) {
  expect_args(a, 2, 2);
  const simnet::Platform plat = pick_platform(a[1]);
  const core::SweepKind kind = pick_kind(a[2]);
  core::SweepConfig cfg = core::SweepConfig::defaults(kind);
  cfg.iters = 4;
  cfg.jobs = g_jobs;
  const auto sweep = core::run_sweep(plat, cfg);
  if (!sweep.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", sweep.status().to_string().c_str());
    return 1;
  }
  const auto& pts = sweep.value();
  const auto fit = core::fit_roofline(pts);

  core::RooflineFigure fig(plat.name() + " / " + core::to_string(kind),
                           fit.params);
  fig.add_model_curves({1, 100, 10000});
  fig.add_points("measured", '*', pts);
  std::printf("%s", fig.render().c_str());
  if (!g_csv_path.empty()) {
    const Status st = write_csv_file(g_csv_path, fig.csv_rows());
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("[csv] %s\n", g_csv_path.c_str());
  }
  return 0;
}

int cmd_stencil(const std::vector<std::string>& a) {
  expect_args(a, 2, 4);
  const simnet::Platform plat = pick_platform(a[1]);
  const auto ranks = parse_cli_int(a[2].c_str(), 1, "rank count");
  const auto n =
      parse_cli_int(a.size() > 3 ? a[3].c_str() : "512", 2, "grid size");
  const auto iters =
      parse_cli_int(a.size() > 4 ? a[4].c_str() : "5", 1, "iteration count");
  if (!ranks || !n || !iters) usage();
  workloads::stencil::Config cfg;
  cfg.n = static_cast<int>(*n);
  cfg.iters = static_cast<int>(*iters);
  const int nranks = static_cast<int>(*ranks);
  const auto r =
      plat.is_gpu() ? workloads::stencil::run_shmem_gpu(plat, nranks, cfg)
                    : workloads::stencil::run_two_sided(plat, nranks, cfg);
  if (!r.status.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", r.status.to_string().c_str());
    return r.status.code() == ErrorCode::kInvalidArgument ? 2 : 1;
  }
  std::printf("stencil %dx%d, %d ranks on %s: %s (verified: %s, comm %s)\n",
              cfg.n, cfg.n, nranks, plat.name().c_str(),
              format_time_us(r.time_us).c_str(),
              r.max_abs_err == 0 ? "bitwise" : "FAILED",
              format_gbs(r.msgs.sustained_gbs).c_str());
  if (!g_out.metrics.empty()) {
    // Full per-rank/per-link report, with the stack-HWM section appended
    // (the comparable sections hold virtual-time facts only; DESIGN §9).
    auto rows = r.metrics.csv_rows();
    const auto stack = r.metrics.stack_csv_rows();
    rows.insert(rows.end(), stack.begin(), stack.end());
    const Status st = runtime::write_metrics_csv(g_out.metrics, rows);
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    g_metrics_written = true;
    std::printf("[metrics] %s\n", g_out.metrics.c_str());
    if (!r.metrics.stack_hwm_bytes.empty()) {
      std::size_t peak = 0;
      for (std::size_t h : r.metrics.stack_hwm_bytes) {
        peak = std::max(peak, h);
      }
      std::printf("[metrics] fiber stack high-water: max %zu of %zu usable "
                  "bytes across %zu fibers\n",
                  peak, r.metrics.stack_usable_bytes,
                  r.metrics.stack_hwm_bytes.size());
    }
  }
  return r.max_abs_err == 0 ? 0 : 1;
}

int cmd_sptrsv(const std::vector<std::string>& a) {
  expect_args(a, 2, 3);
  const simnet::Platform plat = pick_platform(a[1]);
  const auto ranks_v = parse_cli_int(a[2].c_str(), 1, "rank count");
  const auto n_v =
      parse_cli_int(a.size() > 3 ? a[3].c_str() : "6000", 1, "matrix size");
  if (!ranks_v || !n_v) usage();
  const int ranks = static_cast<int>(*ranks_v);
  workloads::sptrsv::GenConfig g;
  g.n = static_cast<int>(*n_v);
  if (const Status st = workloads::sptrsv::validate(plat, ranks, g);
      !st.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
    return 2;
  }
  const auto L = workloads::sptrsv::SupernodalMatrix::generate(g);
  workloads::sptrsv::Config cfg;
  const auto r =
      plat.is_gpu() ? workloads::sptrsv::run_shmem_gpu(plat, ranks, L, cfg)
                    : workloads::sptrsv::run_two_sided(plat, ranks, L, cfg);
  if (!r.status.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", r.status.to_string().c_str());
    return 1;
  }
  std::printf("sptrsv n=%d (%d supernodes, %llu nnz), %d ranks on %s: %s "
              "(rel err %.2e)\n",
              L.n(), L.num_supernodes(),
              static_cast<unsigned long long>(L.nnz()), ranks,
              plat.name().c_str(), format_time_us(r.time_us).c_str(),
              r.rel_err);
  return r.rel_err < 1e-9 ? 0 : 1;
}

int cmd_hashtable(const std::vector<std::string>& a) {
  expect_args(a, 2, 3);
  const simnet::Platform plat = pick_platform(a[1]);
  const auto ranks_v = parse_cli_int(a[2].c_str(), 1, "rank count");
  const auto inserts_v =
      parse_cli_int(a.size() > 3 ? a[3].c_str() : "20000", 1, "insert count");
  if (!ranks_v || !inserts_v) usage();
  const int ranks = static_cast<int>(*ranks_v);
  if (const Status st = workloads::hashtable::validate(plat, ranks);
      !st.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
    return 2;
  }
  workloads::hashtable::Config cfg;
  cfg.total_inserts = static_cast<std::uint64_t>(*inserts_v);
  const auto r =
      plat.is_gpu() ? workloads::hashtable::run_shmem_gpu(plat, ranks, cfg)
                    : workloads::hashtable::run_one_sided(plat, ranks, cfg);
  if (!r.status.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", r.status.to_string().c_str());
    return 1;
  }
  std::printf("hashtable %llu inserts, %d ranks on %s: %s (%s updates/s, "
              "%llu collisions, verified: %s)\n",
              static_cast<unsigned long long>(r.inserted), ranks,
              plat.name().c_str(), format_time_us(r.time_us).c_str(),
              format_count(static_cast<std::uint64_t>(r.updates_per_sec))
                  .c_str(),
              static_cast<unsigned long long>(r.collisions),
              r.verify_ok ? "yes" : "NO");
  return r.verify_ok ? 0 : 1;
}

int cmd_trace(const std::vector<std::string>& a) {
  expect_args(a, 3, 3);
  const simnet::Platform plat = pick_platform(a[1]);
  const auto ranks_v = parse_cli_int(a[2].c_str(), 1, "rank count");
  if (!ranks_v) usage();
  const int ranks = static_cast<int>(*ranks_v);
  const std::string& out = a[3];
  workloads::stencil::Config cfg;
  cfg.n = 256;
  cfg.iters = 3;
  if (const Status st = workloads::stencil::validate(plat, ranks, cfg);
      !st.is_ok()) {
    std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
    return 2;
  }
  runtime::EngineOptions opt;
  opt.trace = true;
  runtime::Engine eng(plat, ranks, opt);
  const auto res = mpi::World::run(eng, [&](mpi::Comm& c) {
    const auto d =
        workloads::stencil::make_decomp(cfg.n, c.size(), c.rank(), 0, 0);
    workloads::stencil::LocalBlock blk(cfg, d);
    // One quick round of real halo traffic for the trace.
    const int peers[4] = {d.west, d.east, d.north, d.south};
    for (int it = 0; it < cfg.iters; ++it) {
      blk.pack_edges();
      std::vector<mpi::Request> reqs;
      for (int s2 = 0; s2 < 4; ++s2) {
        if (peers[s2] < 0) continue;
        reqs.push_back(c.isend(blk.out(s2),
                               blk.edge_count(s2) * sizeof(double), peers[s2],
                               s2 ^ 1));
        reqs.push_back(c.irecv(blk.in(s2),
                               blk.edge_count(s2) * sizeof(double), peers[s2],
                               s2));
      }
      c.waitall(reqs);
      blk.sweep();
    }
  });
  if (!res.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", res.status.to_string().c_str());
    return 1;
  }
  if (!simnet::export_trace_chrome(eng.trace(), out)) return 1;
  std::printf("wrote %zu message slices to %s (open in chrome://tracing)\n",
              eng.trace().records().size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args =
      cli_flags().parse(argc, argv, /*positionals=*/true);
  if (args.empty()) usage();
  const std::string& cmd = args[0];
  if ((!g_csv_path.empty() || g_jobs != 0) && cmd != "sweep") {
    fail("--csv and --jobs only apply to 'sweep'");
  }
  using Command = int (*)(const std::vector<std::string>&);
  const std::pair<const char*, Command> commands[] = {
      {"platforms", cmd_platforms}, {"sweep", cmd_sweep},
      {"stencil", cmd_stencil},     {"sptrsv", cmd_sptrsv},
      {"hashtable", cmd_hashtable}, {"trace", cmd_trace}};
  const auto it = std::find_if(std::begin(commands), std::end(commands),
                               [&](const auto& c) { return cmd == c.first; });
  if (it == std::end(commands)) fail("unknown command '" + cmd + "'");
  int rc = it->second(args);
  // Commands without their own report writer dump the process-wide aggregate
  // (order-independent, so byte-identical across job counts).
  if (rc == 0 && !g_out.metrics.empty() && !g_metrics_written) {
    const Status st =
        runtime::MetricsRegistry::instance().write_csv(g_out.metrics);
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("[metrics] %s\n", g_out.metrics.c_str());
  }
  // Profiler dumps write whatever run was deterministically captured; the
  // checker report dumps even when the run failed with a verdict (that is
  // its whole point).
  if (!g_out.trace.empty()) {
    if (runtime::dump_captured_trace(g_out.trace, g_out.trace_format)) {
      std::printf("[trace] %s\n", g_out.trace.c_str());
    } else if (rc == 0) {
      rc = 1;
    }
  }
  if (!g_out.profile.empty()) {
    if (runtime::dump_captured_profile(g_out.profile)) {
      std::printf("[profile] %s\n", g_out.profile.c_str());
    } else if (rc == 0) {
      rc = 1;
    }
  }
  if (!g_out.check_report.empty()) {
    const Status st = check::CheckReportRegistry::instance().write_json(
        g_out.check_report);
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("[check-report] %s\n", g_out.check_report.c_str());
  }
  return rc;
}
