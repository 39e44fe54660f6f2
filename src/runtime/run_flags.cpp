#include "runtime/run_flags.hpp"

#include <climits>

#include "check/checker.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"

namespace mrl::runtime {

FlagRow scheduler_flag() {
  return {"--scheduler", FlagKind::kWord, "heap|linear",
          "engine ready-queue: indexed min-heap (default) or the O(ranks) "
          "linear scan; output is identical",
          [](const FlagValue& v) {
            set_default_scheduler(v.text == "heap"
                                      ? SchedulerKind::kIndexedHeap
                                      : SchedulerKind::kLinearScan);
          }};
}

FlagRow fault_seed_flag(std::uint64_t* seed) {
  return {"--fault-seed", FlagKind::kU64, "S",
          "seed for the fault-injection substreams (default 0x5EEDF007); "
          "same seed => same bytes",
          [seed](const FlagValue& v) { *seed = v.u64; }};
}

std::vector<FlagRow> observability_flags(RunOutputs* out) {
  const auto spans_to = [](std::string* path) {
    return [path](const FlagValue& v) {
      *path = v.text;
      set_default_trace(true);
      set_default_spans(true);
    };
  };
  return {
      {"--metrics", FlagKind::kPath, "PATH",
       "enable the deterministic metrics layer and write its CSV to PATH "
       "(identical across --jobs)",
       [out](const FlagValue& v) {
         out->metrics = v.text;
         set_default_metrics(true);
       }},
      {"--check", FlagKind::kNone, "",
       "enable the RMA race & synchronization checker (also "
       "MSGROOF_CHECK=1); clean runs keep their bytes",
       [](const FlagValue&) { check::set_default_check(true); }},
      {"--check-history", FlagKind::kInt, "N",
       "per-region shadow-history cap for the checker (default 65536)",
       [](const FlagValue& v) {
         check::set_default_check_history(static_cast<std::uint64_t>(v.num));
       },
       1},
      {"--check-report", FlagKind::kPath, "PATH",
       "implies --check; write every checker verdict to PATH as sorted JSON",
       [out](const FlagValue& v) {
         out->check_report = v.text;
         check::set_default_check(true);
         check::set_default_check_report(true);
       }},
      {"--trace", FlagKind::kPath, "PATH",
       "enable execution spans and write the captured (slowest) run's "
       "timeline to PATH",
       spans_to(&out->trace)},
      {"--trace-format", FlagKind::kWord, "chrome|csv",
       "Perfetto/chrome://tracing JSON (default) or CSV message records",
       [out](const FlagValue& v) { out->trace_format = v.text; }},
      {"--trace-ranks", FlagKind::kRange, "A-B",
       "only emit rank timelines for ranks A..B (counter tracks stay global)",
       [](const FlagValue& v) {
         set_default_trace_ranks(
             {static_cast<int>(v.num), static_cast<int>(v.num_hi)});
       },
       0, INT_MAX},
      {"--profile", FlagKind::kPath, "PATH",
       "write the captured run's critical-path report to PATH (categories "
       "partition the makespan)",
       spans_to(&out->profile)},
  };
}

FlagRow stack_pool_flag() {
  return {"--stack-pool", FlagKind::kWord, "on|off",
          "fiber stacks as slots of pooled slabs (default on) or one guarded "
          "mmap each; output is identical",
          [](const FlagValue& v) { set_default_stack_pool(v.text == "on"); }};
}

}  // namespace mrl::runtime
