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
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/fit.hpp"
#include "mpi/comm.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "runtime/engine.hpp"
#include "runtime/fiber.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
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

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: msgroof_cli [global flags] <command> [...]\n"
      "  platforms\n"
      "  sweep <platform> <runtime> [--csv out.csv] [--jobs N]\n"
      "  stencil <platform> <ranks> [n] [iters]\n"
      "  sptrsv <platform> <ranks> [n]\n"
      "  hashtable <platform> <ranks> [inserts]\n"
      "  trace <platform> <ranks> <out.json>\n"
      "platforms: perlmutter-cpu frontier-cpu summit-cpu perlmutter-gpu "
      "summit-gpu frontier-gpu\n"
      "runtimes: two-sided one-sided shmem cas\n"
      "global flags:\n"
      "  --faults I      inject deterministic fabric faults at intensity I\n"
      "                  (0 = pristine, 1 = heavily degraded)\n"
      "  --fault-seed S  seed for the fault-injection substreams (default\n"
      "                  0x5EEDF007); same seed => byte-identical output\n"
      "  --watchdog-us N virtual-time progress limit per run in us (default\n"
      "                  1e9; 0 disables) — livelocked runs exit with a\n"
      "                  TIMEOUT status instead of spinning forever\n"
      "  --metrics PATH  enable the deterministic metrics layer and write a\n"
      "                  metrics CSV to PATH on success (byte-identical\n"
      "                  across --jobs values; see DESIGN §9).\n"
      "                  stencil writes the full per-rank/link report with\n"
      "                  fiber stack high-water marks; other commands write\n"
      "                  the process-wide aggregate\n"
      "  --nodes N       scale CPU platforms to N nodes (default 1; enables\n"
      "                  e.g. a 10240-rank perlmutter-cpu at N=80)\n"
      "  --stack-bytes N fiber stack size in bytes (default 256 KiB; lower\n"
      "                  it for very high rank counts)\n"
      "  --stack-pool on|off  allocate fiber stacks as slots of pooled slabs\n"
      "                  (default on: one VMA hosts many stacks and engines\n"
      "                  recycle slots; off = one guarded mmap per fiber).\n"
      "                  Simulation output is identical either way\n"
      "  --stack-pool-slab-mb N  target MiB per pooled stack slab (default\n"
      "                  64); geometry of future slabs only\n"
      "  --check         enable the RMA race & synchronization checker (off\n"
      "                  by default; violations fail the run with rank/time/\n"
      "                  op/byte-range diagnostics; MSGROOF_CHECK=1 works\n"
      "                  too; clean runs produce unchanged output bytes)\n"
      "  --check-history N  per-region shadow-history cap for the checker\n"
      "                  (N >= 1; default 65536)\n"
      "  --check-report PATH  implies --check; write a machine-readable JSON\n"
      "                  dump of all checker verdicts to PATH on exit\n"
      "                  (sorted => byte-identical across --jobs values)\n"
      "  --trace PATH    enable per-rank execution spans and write the\n"
      "                  captured run's timeline to PATH on exit (the\n"
      "                  deterministically slowest run wins)\n"
      "  --trace-format F  trace output format: 'chrome' (default;\n"
      "                  Perfetto/chrome://tracing JSON with rank timelines\n"
      "                  and counter tracks) or 'csv' (message records)\n"
      "  --trace-ranks A-B  only emit rank timelines for ranks A..B\n"
      "                  inclusive (0 <= A <= B; counter tracks stay global)\n"
      "  --profile PATH  run the deterministic critical-path analyzer on the\n"
      "                  captured run and write its report to PATH on exit\n"
      "                  (category totals exactly partition the makespan)\n");
  std::exit(2);
}

// Global fault-injection knobs (set by --faults / --fault-seed; applied to
// every platform the chosen command builds).
double g_fault_intensity = 0;
std::uint64_t g_fault_seed = 0x5EEDF007ULL;
// Global metrics/scaling knobs.
std::string g_metrics_path;
int g_nodes = 1;
bool g_metrics_written = false;  // set when a command wrote a full report
// Global profiler/checker-report knobs (DESIGN.md §14).
std::string g_trace_path;
std::string g_trace_format = "chrome";
std::string g_profile_path;
std::string g_check_report_path;

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
  if (g_nodes != 1) {
    std::fprintf(stderr, "--nodes only applies to CPU platforms\n");
    usage();
  }
  if (name == "perlmutter-gpu") return with_faults(Platform::perlmutter_gpu());
  if (name == "summit-gpu") return with_faults(Platform::summit_gpu());
  if (name == "frontier-gpu") return with_faults(Platform::frontier_gpu());
  std::fprintf(stderr, "unknown platform '%s'\n", name.c_str());
  usage();
}

core::SweepKind pick_kind(const std::string& name) {
  using core::SweepKind;
  if (name == "two-sided") return SweepKind::kTwoSided;
  if (name == "one-sided") return SweepKind::kOneSidedMpi;
  if (name == "shmem") return SweepKind::kShmemPutSignal;
  if (name == "cas") return SweepKind::kAtomicCas;
  std::fprintf(stderr, "unknown runtime '%s'\n", name.c_str());
  usage();
}

int cmd_platforms() {
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

int cmd_sweep(int argc, char** argv) {
  if (argc < 4) usage();
  const simnet::Platform plat = pick_platform(argv[2]);
  const core::SweepKind kind = pick_kind(argv[3]);
  std::string csv_path;
  int jobs = 0;  // 0 = hardware concurrency; results identical at any value
  for (int i = 4; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv_path = argv[i + 1];
    if (std::strcmp(argv[i], "--jobs") == 0) {
      const auto v = parse_cli_int(argv[i + 1], 1, "--jobs value");
      if (!v) usage();
      jobs = static_cast<int>(*v);
    }
  }
  core::SweepConfig cfg = core::SweepConfig::defaults(kind);
  cfg.iters = 4;
  cfg.jobs = jobs;
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
  if (!csv_path.empty()) {
    const Status st = write_csv_file(csv_path, fig.csv_rows());
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("[csv] %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_stencil(int argc, char** argv) {
  if (argc < 4) usage();
  const simnet::Platform plat = pick_platform(argv[2]);
  const auto ranks = parse_cli_int(argv[3], 1, "rank count");
  const auto n = parse_cli_int(argc > 4 ? argv[4] : "512", 2, "grid size");
  const auto iters = parse_cli_int(argc > 5 ? argv[5] : "5", 1, "iteration count");
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
  if (!g_metrics_path.empty()) {
    // Full per-rank/per-link report, with the stack-HWM section appended
    // (the comparable sections hold virtual-time facts only; DESIGN §9).
    auto rows = r.metrics.csv_rows();
    const auto stack = r.metrics.stack_csv_rows();
    rows.insert(rows.end(), stack.begin(), stack.end());
    const Status st = runtime::write_metrics_csv(g_metrics_path, rows);
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    g_metrics_written = true;
    std::printf("[metrics] %s\n", g_metrics_path.c_str());
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

int cmd_sptrsv(int argc, char** argv) {
  if (argc < 4) usage();
  const simnet::Platform plat = pick_platform(argv[2]);
  const auto ranks_v = parse_cli_int(argv[3], 1, "rank count");
  const auto n_v = parse_cli_int(argc > 4 ? argv[4] : "6000", 1, "matrix size");
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

int cmd_hashtable(int argc, char** argv) {
  if (argc < 4) usage();
  const simnet::Platform plat = pick_platform(argv[2]);
  const auto ranks_v = parse_cli_int(argv[3], 1, "rank count");
  const auto inserts_v =
      parse_cli_int(argc > 4 ? argv[4] : "20000", 1, "insert count");
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

int cmd_trace(int argc, char** argv) {
  if (argc < 5) usage();
  const simnet::Platform plat = pick_platform(argv[2]);
  const auto ranks_v = parse_cli_int(argv[3], 1, "rank count");
  if (!ranks_v) usage();
  const int ranks = static_cast<int>(*ranks_v);
  const std::string out = argv[4];
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
  // Strip the global flags (valid before or after the command) so each
  // command parser sees only its own arguments.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check") == 0) {
      check::set_default_check(true);
      continue;
    }
    if (std::strcmp(arg, "--check-history") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg);
        usage();
      }
      const auto v = parse_cli_int(argv[++i], 1, "--check-history value");
      if (!v) usage();
      check::set_default_check_history(static_cast<std::uint64_t>(*v));
      continue;
    }
    if (std::strcmp(arg, "--faults") == 0 ||
        std::strcmp(arg, "--fault-seed") == 0 ||
        std::strcmp(arg, "--watchdog-us") == 0 ||
        std::strcmp(arg, "--metrics") == 0 ||
        std::strcmp(arg, "--nodes") == 0 ||
        std::strcmp(arg, "--stack-bytes") == 0 ||
        std::strcmp(arg, "--stack-pool") == 0 ||
        std::strcmp(arg, "--stack-pool-slab-mb") == 0 ||
        std::strcmp(arg, "--check-report") == 0 ||
        std::strcmp(arg, "--trace") == 0 ||
        std::strcmp(arg, "--trace-format") == 0 ||
        std::strcmp(arg, "--trace-ranks") == 0 ||
        std::strcmp(arg, "--profile") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg);
        usage();
      }
      const char* val = argv[++i];
      char* end = nullptr;
      if (std::strcmp(arg, "--faults") == 0) {
        g_fault_intensity = std::strtod(val, &end);
        if (end == val || *end != '\0' || g_fault_intensity < 0) {
          std::fprintf(stderr, "invalid --faults value '%s'\n", val);
          usage();
        }
      } else if (std::strcmp(arg, "--fault-seed") == 0) {
        g_fault_seed =
            static_cast<std::uint64_t>(std::strtoull(val, &end, 0));
        if (end == val || *end != '\0') {
          std::fprintf(stderr, "invalid --fault-seed value '%s'\n", val);
          usage();
        }
      } else if (std::strcmp(arg, "--watchdog-us") == 0) {
        const double us = std::strtod(val, &end);
        if (end == val || *end != '\0' || us < 0) {
          std::fprintf(stderr, "invalid --watchdog-us value '%s'\n", val);
          usage();
        }
        runtime::set_default_watchdog_virtual_us(us);
      } else if (std::strcmp(arg, "--metrics") == 0) {
        if (val[0] == '\0') {
          std::fprintf(stderr, "--metrics requires an output path\n");
          usage();
        }
        g_metrics_path = val;
        runtime::set_default_metrics(true);
      } else if (std::strcmp(arg, "--nodes") == 0) {
        const auto v = parse_cli_int(val, 1, "--nodes value");
        if (!v) usage();
        g_nodes = static_cast<int>(*v);
      } else if (std::strcmp(arg, "--stack-bytes") == 0) {
        const auto v = parse_cli_int(val, 16 * 1024, "--stack-bytes value");
        if (!v) usage();
        runtime::set_default_fiber_stack_bytes(
            static_cast<std::size_t>(*v));
      } else if (std::strcmp(arg, "--stack-pool") == 0) {
        if (std::strcmp(val, "on") == 0) {
          runtime::set_default_stack_pool(true);
        } else if (std::strcmp(val, "off") == 0) {
          runtime::set_default_stack_pool(false);
        } else {
          std::fprintf(stderr,
                       "invalid --stack-pool value '%s' (expected 'on' or "
                       "'off')\n",
                       val);
          usage();
        }
      } else if (std::strcmp(arg, "--stack-pool-slab-mb") == 0) {
        const auto v =
            parse_cli_int(val, 1, "--stack-pool-slab-mb value");
        if (!v) usage();
        runtime::set_stack_pool_slab_bytes(static_cast<std::size_t>(*v)
                                           << 20);
      } else if (std::strcmp(arg, "--check-report") == 0) {
        if (val[0] == '\0') {
          std::fprintf(stderr, "--check-report requires an output path\n");
          usage();
        }
        g_check_report_path = val;
        check::set_default_check(true);
        check::set_default_check_report(true);
      } else if (std::strcmp(arg, "--trace") == 0) {
        if (val[0] == '\0') {
          std::fprintf(stderr, "--trace requires an output path\n");
          usage();
        }
        g_trace_path = val;
        runtime::set_default_trace(true);
        runtime::set_default_spans(true);
      } else if (std::strcmp(arg, "--trace-format") == 0) {
        if (std::strcmp(val, "chrome") != 0 && std::strcmp(val, "csv") != 0) {
          std::fprintf(stderr,
                       "invalid --trace-format value '%s' (expected 'chrome' "
                       "or 'csv')\n",
                       val);
          usage();
        }
        g_trace_format = val;
      } else if (std::strcmp(arg, "--trace-ranks") == 0) {
        const long lo = std::strtol(val, &end, 10);
        long hi = -1;
        bool ok = end != val && *end == '-' && lo >= 0;
        if (ok) {
          const char* rest = end + 1;
          hi = std::strtol(rest, &end, 10);
          ok = end != rest && *end == '\0' && hi >= lo;
        }
        if (!ok) {
          std::fprintf(stderr,
                       "invalid --trace-ranks value '%s' (expected A-B with "
                       "0 <= A <= B)\n",
                       val);
          usage();
        }
        runtime::set_default_trace_ranks(
            {static_cast<int>(lo), static_cast<int>(hi)});
      } else {  // --profile
        if (val[0] == '\0') {
          std::fprintf(stderr, "--profile requires an output path\n");
          usage();
        }
        g_profile_path = val;
        runtime::set_default_trace(true);
        runtime::set_default_spans(true);
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  int rc = 2;
  if (cmd == "platforms") {
    rc = cmd_platforms();
  } else if (cmd == "sweep") {
    rc = cmd_sweep(argc, argv);
  } else if (cmd == "stencil") {
    rc = cmd_stencil(argc, argv);
  } else if (cmd == "sptrsv") {
    rc = cmd_sptrsv(argc, argv);
  } else if (cmd == "hashtable") {
    rc = cmd_hashtable(argc, argv);
  } else if (cmd == "trace") {
    rc = cmd_trace(argc, argv);
  } else {
    usage();
  }
  // Commands without their own report writer dump the process-wide aggregate
  // (order-independent, so byte-identical across job counts).
  if (rc == 0 && !g_metrics_path.empty() && !g_metrics_written) {
    const Status st =
        runtime::MetricsRegistry::instance().write_csv(g_metrics_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("[metrics] %s\n", g_metrics_path.c_str());
  }
  // Profiler dumps write whatever run was deterministically captured; the
  // checker report dumps even when the run failed with a verdict (that is
  // its whole point).
  if (!g_trace_path.empty()) {
    if (runtime::dump_captured_trace(g_trace_path, g_trace_format)) {
      std::printf("[trace] %s\n", g_trace_path.c_str());
    } else if (rc == 0) {
      rc = 1;
    }
  }
  if (!g_profile_path.empty()) {
    if (runtime::dump_captured_profile(g_profile_path)) {
      std::printf("[profile] %s\n", g_profile_path.c_str());
    } else if (rc == 0) {
      rc = 1;
    }
  }
  if (!g_check_report_path.empty()) {
    const Status st = check::CheckReportRegistry::instance().write_json(
        g_check_report_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "FAILED: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("[check-report] %s\n", g_check_report_path.c_str());
  }
  return rc;
}
