// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints (a) the paper-style table/plot on stdout and (b) dumps
// its series as CSV under bench_out/ so figures can be regenerated with any
// plotting tool. `--full` switches from the fast default problem sizes to
// paper-scale ones.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/parallel.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/status.hpp"

namespace mrl::bench {

namespace detail {
/// Path for the --metrics aggregate dump (empty = disabled).
inline std::string& metrics_path() {
  static std::string path;
  return path;
}

/// atexit hook: dump the process-wide metrics aggregate once the bench has
/// finished all of its runs. The registry only accumulates commutative
/// quantities, so the bytes are independent of --jobs.
///
/// The closing banner repeats the per-link head-of-line queueing from the
/// same registry aggregate the CSV is written from, so the printed numbers
/// and the `--metrics` CSV always agree.
inline void dump_metrics_at_exit() {
  const std::string& path = metrics_path();
  if (path.empty()) return;
  auto& reg = runtime::MetricsRegistry::instance();
  const auto links = reg.link_totals();
  if (!links.empty()) {
    std::printf("\n[metrics] per-link queueing (aggregate over %llu runs)\n",
                static_cast<unsigned long long>(reg.runs()));
    for (const auto& l : links) {
      std::printf("[metrics]   %-18s dir%d  msgs=%-10llu busy=%.3fus  "
                  "queue_us=%.3f\n",
                  l.name.c_str(), l.dir,
                  static_cast<unsigned long long>(l.msgs), l.busy_us(),
                  l.queue_us());
    }
  }
  const Status st = reg.write_csv(path);
  if (!st.is_ok()) {
    std::fprintf(stderr, "FATAL: %s\n", st.to_string().c_str());
    std::_Exit(1);
  }
  std::fprintf(stderr, "[metrics] %s\n", path.c_str());
}

/// Paths/format for the profiler dumps (empty = disabled), DESIGN.md §14.
inline std::string& trace_path() {
  static std::string path;
  return path;
}
inline std::string& trace_format() {
  static std::string fmt = "chrome";
  return fmt;
}
inline std::string& profile_path() {
  static std::string path;
  return path;
}
inline std::string& check_report_path() {
  static std::string path;
  return path;
}

/// atexit hook for --trace: write the deterministically captured run
/// (runtime::ProfileCapture keeps the slowest run, order-independently) in
/// the selected format.
inline void dump_trace_at_exit() {
  const std::string& path = trace_path();
  if (path.empty()) return;
  if (runtime::dump_captured_trace(path, trace_format())) {
    std::fprintf(stderr, "[trace] %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "FATAL: could not write --trace %s\n", path.c_str());
    std::_Exit(1);
  }
}

/// atexit hook for --profile: run the critical-path analyzer on the captured
/// run and write its fixed-format report.
inline void dump_profile_at_exit() {
  const std::string& path = profile_path();
  if (path.empty()) return;
  if (runtime::dump_captured_profile(path)) {
    std::fprintf(stderr, "[profile] %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "FATAL: could not write --profile %s\n",
                 path.c_str());
    std::_Exit(1);
  }
}

/// atexit hook for --check-report: dump the process-wide registry of checker
/// verdicts as schema-stable JSON (sorted, so bytes are independent of
/// scheduler and --jobs).
inline void dump_check_report_at_exit() {
  const std::string& path = check_report_path();
  if (path.empty()) return;
  const Status st = check::CheckReportRegistry::instance().write_json(path);
  if (!st.is_ok()) {
    std::fprintf(stderr, "FATAL: %s\n", st.to_string().c_str());
    std::_Exit(1);
  }
  std::fprintf(stderr, "[check-report] %s\n", path.c_str());
}
}  // namespace detail

/// Bench-specific flag extension for Args::parse. `handler(argc, argv, i)`
/// returns true when it consumed argv[i] (advancing `i` past any value it
/// took); on a malformed value it must diagnose, print usage and exit(2)
/// itself. `usage` lines are appended to the shared usage text. Unconsumed
/// arguments still reject with usage + rc 2, same as the shared flags.
struct ExtraFlags {
  const char* usage = "";
  std::function<bool(int, char**, int&)> handler;
};

struct Args {
  bool full = false;  ///< paper-scale problem sizes (slower)
  int jobs = 0;       ///< concurrent grid points; 0 = hardware concurrency
  /// Experiment seed for fault-injection substreams (benches that sweep
  /// FaultSpecs, e.g. ext_fault_sweep). Same seed => byte-identical output.
  std::uint64_t fault_seed = 0x5EEDF007ULL;

  static void usage(const char* prog, std::FILE* out,
                    const ExtraFlags* extra = nullptr) {
    std::fprintf(out,
                 "usage: %s [--full] [--jobs N] [--scheduler S] "
                 "[--fault-seed S] [--metrics PATH] "
                 "[--check] [--check-history N] [--check-report PATH]\n"
                 "                 [--trace PATH] [--trace-format F] "
                 "[--trace-ranks A-B] [--profile PATH]\n",
                 prog);
    std::fprintf(out,
                 "  --full         paper-scale problem sizes (slower)\n"
                 "  --jobs N       run up to N independent grid points "
                 "concurrently (N >= 1;\n"
                 "                 default: hardware concurrency; 1 = "
                 "sequential; output is\n"
                 "                 bit-identical for every N)\n"
                 "  --scheduler S  engine ready-queue structure: 'heap' "
                 "(default, indexed\n"
                 "                 min-heap) or 'linear' (legacy O(ranks) "
                 "scan); output is\n"
                 "                 bit-identical across both\n"
                 "  --fault-seed S seed for fault-injection substreams "
                 "(fault-sweep benches)\n"
                 "  --metrics PATH enable the deterministic metrics layer "
                 "and write the\n"
                 "                 process-wide aggregate CSV to PATH at "
                 "exit (bytes are\n"
                 "                 identical across schedulers and --jobs "
                 "values)\n"
                 "  --check        enable the RMA race & synchronization "
                 "checker (off by\n"
                 "                 default; violations fail the run with a "
                 "diagnostic; when\n"
                 "                 clean, output bytes are unchanged; also "
                 "MSGROOF_CHECK=1)\n"
                 "  --check-history N  per-region shadow-history cap for "
                 "the checker\n"
                 "                 (N >= 1; default 65536; accesses past "
                 "the cap are still\n"
                 "                 checked but not recorded)\n"
                 "  --check-report PATH  implies --check; write a "
                 "machine-readable JSON\n"
                 "                 dump of all checker verdicts to PATH at "
                 "exit (sorted, so\n"
                 "                 bytes are identical across schedulers "
                 "and --jobs)\n"
                 "  --trace PATH   enable per-rank execution spans and "
                 "write the captured\n"
                 "                 run's timeline to PATH at exit "
                 "(deterministic: the\n"
                 "                 slowest run wins, ties broken "
                 "content-first)\n"
                 "  --trace-format F  trace output format: 'chrome' "
                 "(default; Perfetto/\n"
                 "                 chrome://tracing JSON with rank "
                 "timelines and counter\n"
                 "                 tracks) or 'csv' (message records)\n"
                 "  --trace-ranks A-B  only emit rank timelines for ranks "
                 "A..B inclusive\n"
                 "                 (0 <= A <= B; bounds trace size at large "
                 "rank counts;\n"
                 "                 counter tracks stay global)\n"
                 "  --profile PATH run the deterministic critical-path "
                 "analyzer on the\n"
                 "                 captured run and write its report to "
                 "PATH at exit\n"
                 "                 (category totals exactly partition the "
                 "makespan)\n");
    if (extra != nullptr && extra->usage[0] != '\0') {
      std::fprintf(out, "%s", extra->usage);
    }
  }

  /// Parses the shared bench flags (plus a bench's ExtraFlags, if given);
  /// unrecognized arguments are an error.
  static Args parse(int argc, char** argv,
                    const ExtraFlags* extra = nullptr) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--full") == 0) {
        a.full = true;
      } else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
        usage(argv[0], stdout, extra);
        std::exit(0);
      } else if (std::strcmp(arg, "--jobs") == 0 ||
                 std::strncmp(arg, "--jobs=", 7) == 0) {
        const char* val = nullptr;
        if (arg[6] == '=') {
          val = arg + 7;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --jobs requires a value\n", argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        char* end = nullptr;
        const long n = std::strtol(val, &end, 10);
        if (end == val || *end != '\0' || n < 1) {
          std::fprintf(stderr, "%s: invalid --jobs value '%s' (need N >= 1)\n",
                       argv[0], val);
          usage(argv[0], stderr);
          std::exit(2);
        }
        a.jobs = static_cast<int>(n);
      } else if (std::strcmp(arg, "--scheduler") == 0 ||
                 std::strncmp(arg, "--scheduler=", 12) == 0) {
        const char* val = nullptr;
        if (arg[11] == '=') {
          val = arg + 12;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --scheduler requires a value\n", argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        if (std::strcmp(val, "heap") == 0) {
          runtime::set_default_scheduler(runtime::SchedulerKind::kIndexedHeap);
        } else if (std::strcmp(val, "linear") == 0) {
          runtime::set_default_scheduler(runtime::SchedulerKind::kLinearScan);
        } else {
          std::fprintf(stderr,
                       "%s: invalid --scheduler value '%s' (expected 'heap' "
                       "or 'linear')\n",
                       argv[0], val);
          usage(argv[0], stderr);
          std::exit(2);
        }
      } else if (std::strcmp(arg, "--fault-seed") == 0 ||
                 std::strncmp(arg, "--fault-seed=", 13) == 0) {
        const char* val = nullptr;
        if (arg[12] == '=') {
          val = arg + 13;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --fault-seed requires a value\n", argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        char* end = nullptr;
        const unsigned long long s = std::strtoull(val, &end, 0);
        if (end == val || *end != '\0') {
          std::fprintf(stderr, "%s: invalid --fault-seed value '%s'\n",
                       argv[0], val);
          usage(argv[0], stderr);
          std::exit(2);
        }
        a.fault_seed = static_cast<std::uint64_t>(s);
      } else if (std::strcmp(arg, "--metrics") == 0 ||
                 std::strncmp(arg, "--metrics=", 10) == 0) {
        const char* val = nullptr;
        if (arg[9] == '=') {
          val = arg + 10;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --metrics requires a path\n", argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        if (val[0] == '\0') {
          std::fprintf(stderr, "%s: --metrics requires a non-empty path\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        detail::metrics_path() = val;
        runtime::set_default_metrics(true);
        std::atexit(&detail::dump_metrics_at_exit);
      } else if (std::strcmp(arg, "--check") == 0) {
        check::set_default_check(true);
      } else if (std::strcmp(arg, "--check-history") == 0 ||
                 std::strncmp(arg, "--check-history=", 16) == 0) {
        const char* val = nullptr;
        if (arg[15] == '=') {
          val = arg + 16;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --check-history requires a value\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        const std::optional<long long> n =
            parse_cli_int(val, 1, "--check-history");
        if (!n) {
          usage(argv[0], stderr);
          std::exit(2);
        }
        check::set_default_check_history(static_cast<std::uint64_t>(*n));
      } else if (std::strcmp(arg, "--check-report") == 0 ||
                 std::strncmp(arg, "--check-report=", 15) == 0) {
        const char* val = nullptr;
        if (arg[14] == '=') {
          val = arg + 15;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --check-report requires a path\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        if (val[0] == '\0') {
          std::fprintf(stderr, "%s: --check-report requires a non-empty path\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        detail::check_report_path() = val;
        check::set_default_check(true);
        check::set_default_check_report(true);
        std::atexit(&detail::dump_check_report_at_exit);
      } else if (std::strcmp(arg, "--trace") == 0 ||
                 std::strncmp(arg, "--trace=", 8) == 0) {
        const char* val = nullptr;
        if (arg[7] == '=') {
          val = arg + 8;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --trace requires a path\n", argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        if (val[0] == '\0') {
          std::fprintf(stderr, "%s: --trace requires a non-empty path\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        detail::trace_path() = val;
        runtime::set_default_trace(true);
        runtime::set_default_spans(true);
        std::atexit(&detail::dump_trace_at_exit);
      } else if (std::strcmp(arg, "--trace-format") == 0 ||
                 std::strncmp(arg, "--trace-format=", 15) == 0) {
        const char* val = nullptr;
        if (arg[14] == '=') {
          val = arg + 15;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --trace-format requires a value\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        if (std::strcmp(val, "chrome") != 0 && std::strcmp(val, "csv") != 0) {
          std::fprintf(stderr,
                       "%s: invalid --trace-format value '%s' (expected "
                       "'chrome' or 'csv')\n",
                       argv[0], val);
          usage(argv[0], stderr);
          std::exit(2);
        }
        detail::trace_format() = val;
      } else if (std::strcmp(arg, "--trace-ranks") == 0 ||
                 std::strncmp(arg, "--trace-ranks=", 14) == 0) {
        const char* val = nullptr;
        if (arg[13] == '=') {
          val = arg + 14;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --trace-ranks requires a value\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        char* end = nullptr;
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
                       "%s: invalid --trace-ranks value '%s' (expected A-B "
                       "with 0 <= A <= B)\n",
                       argv[0], val);
          usage(argv[0], stderr);
          std::exit(2);
        }
        runtime::set_default_trace_ranks(
            {static_cast<int>(lo), static_cast<int>(hi)});
      } else if (std::strcmp(arg, "--profile") == 0 ||
                 std::strncmp(arg, "--profile=", 10) == 0) {
        const char* val = nullptr;
        if (arg[9] == '=') {
          val = arg + 10;
        } else if (i + 1 < argc) {
          val = argv[++i];
        } else {
          std::fprintf(stderr, "%s: --profile requires a path\n", argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        if (val[0] == '\0') {
          std::fprintf(stderr, "%s: --profile requires a non-empty path\n",
                       argv[0]);
          usage(argv[0], stderr);
          std::exit(2);
        }
        detail::profile_path() = val;
        runtime::set_default_trace(true);
        runtime::set_default_spans(true);
        std::atexit(&detail::dump_profile_at_exit);
      } else {
        if (extra != nullptr && extra->handler != nullptr &&
            extra->handler(argc, argv, i)) {
          continue;
        }
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], arg);
        usage(argv[0], stderr, extra);
        std::exit(2);
      }
    }
    if (a.jobs >= 1) core::set_default_jobs(a.jobs);
    return a;
  }
};

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  // Execution provenance, so saved logs/CSVs are self-describing. The job
  // count changes no number (output is bit-identical for every value).
  std::printf("jobs: %d\n", core::resolve_jobs(0));
  std::printf("================================================================\n\n");
}

inline void dump_csv(const std::string& name,
                     const std::vector<std::vector<std::string>>& rows) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  const std::string path = "bench_out/" + name + ".csv";
  const Status st = write_csv_file(path, rows);
  if (!st.is_ok()) {
    // A partial/missing CSV must not look like a successful run.
    std::fprintf(stderr, "FATAL: %s\n", st.to_string().c_str());
    std::exit(1);
  }
  std::printf("[csv] %s\n", path.c_str());
}

/// Unwraps a Result or exits the bench with the carried Status on stderr —
/// a deadlocked/timed-out simulation must fail the binary, not silently
/// emit a partial table.
template <typename T>
T unwrap(Result<T> r) {
  if (!r.is_ok()) {
    std::fprintf(stderr, "FATAL: %s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace mrl::bench
