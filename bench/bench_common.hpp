// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints (a) the paper-style table/plot on stdout and (b) dumps
// its series as CSV under bench_out/ so figures can be regenerated with any
// plotting tool. `--full` switches from the fast default problem sizes to
// paper-scale ones.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "core/parallel.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "runtime/run_flags.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/status.hpp"

namespace mrl::bench {

namespace detail {
/// Output files named by the shared run flags (empty = disabled).
inline runtime::RunOutputs& outputs() {
  static runtime::RunOutputs out;
  return out;
}

/// Ends the process with rc 1 if an exit-time dump failed; a missing
/// output file must not look like a successful run.
inline void dump_done(const Status& st, const char* tag,
                      const std::string& path) {
  if (!st.is_ok()) {
    std::fprintf(stderr, "FATAL: --%s: %s\n", tag, st.to_string().c_str());
    std::_Exit(1);
  }
  std::fprintf(stderr, "[%s] %s\n", tag, path.c_str());
}

inline Status written(bool ok, const std::string& path) {
  return ok ? Status::ok()
            : Status(ErrorCode::kInternal, "could not write " + path);
}

/// atexit hook: once the bench has finished all of its runs, write every
/// output file the run flags asked for. None depends on run order, so the
/// bytes are identical across schedulers and --jobs: the profiler keeps the
/// deterministically slowest run (the critical-path report is computed from
/// it), the checker report is sorted, and the metrics registry only
/// accumulates commutative quantities.
///
/// The closing metrics banner repeats the per-link head-of-line queueing
/// from the same registry aggregate the CSV is written from, so the printed
/// numbers and the `--metrics` CSV always agree.
inline void dump_outputs_at_exit() {
  const runtime::RunOutputs& out = outputs();
  if (!out.profile.empty()) {
    dump_done(written(runtime::dump_captured_profile(out.profile),
                      out.profile),
              "profile", out.profile);
  }
  if (!out.trace.empty()) {
    dump_done(written(runtime::dump_captured_trace(out.trace,
                                                   out.trace_format),
                      out.trace),
              "trace", out.trace);
  }
  if (!out.check_report.empty()) {
    dump_done(
        check::CheckReportRegistry::instance().write_json(out.check_report),
        "check-report", out.check_report);
  }
  if (out.metrics.empty()) return;
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
  dump_done(reg.write_csv(out.metrics), "metrics", out.metrics);
}
}  // namespace detail

struct Args {
  bool full = false;  ///< paper-scale problem sizes (slower)
  int jobs = 0;       ///< concurrent grid points; 0 = hardware concurrency
  /// Experiment seed for fault-injection substreams (benches that sweep
  /// FaultSpecs, e.g. ext_fault_sweep). Same seed => byte-identical output.
  std::uint64_t fault_seed = 0x5EEDF007ULL;

  /// Parses the shared bench flags plus a bench's own `extra` rows; any bad
  /// or unrecognized argument prints the usage and exits 2. The requested
  /// output files are written by atexit hooks once the bench finishes.
  static Args parse(int argc, char** argv, std::vector<FlagRow> extra = {}) {
    Args a;
    runtime::RunOutputs& out = detail::outputs();
    FlagParser p(argv[0], "[flags]");
    p.add({"--full", FlagKind::kNone, "", "paper-scale problem sizes (slower)",
           [&a](const FlagValue&) { a.full = true; }});
    p.add({"--jobs", FlagKind::kInt, "N",
           "run up to N grid points concurrently (default: hardware "
           "concurrency); output is identical for every N",
           [&a](const FlagValue& v) {
             a.jobs = static_cast<int>(v.num);
             core::set_default_jobs(a.jobs);
           },
           1, INT_MAX});
    p.add(runtime::scheduler_flag());
    p.add(runtime::fault_seed_flag(&a.fault_seed));
    p.add(runtime::observability_flags(&out));
    p.add(std::move(extra));
    const auto help = [&p](const FlagValue&) {
      p.usage(stdout);
      std::exit(0);
    };
    p.add({"--help", FlagKind::kNone, "", "print this help and exit", help});
    p.add({"-h", FlagKind::kNone, "", "", help});
    p.parse(argc, argv);
    std::atexit(&detail::dump_outputs_at_exit);
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
