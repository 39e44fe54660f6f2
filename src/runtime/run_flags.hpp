// Flag rows shared by the front-ends: the bench binaries and msgroof_cli.
// Each row is defined once here; every front-end adds the groups it accepts
// to its own util/parse FlagParser.
//
// Rows only set process-wide defaults and record output paths in
// RunOutputs. When those files are written stays with each front-end (the
// bench atexit dumpers, msgroof_cli's end of main).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/parse.hpp"

namespace mrl::runtime {

/// Output files requested on the command line; empty = not requested.
struct RunOutputs {
  std::string metrics;       ///< --metrics
  std::string check_report;  ///< --check-report
  std::string trace;         ///< --trace
  std::string trace_format = "chrome";  ///< --trace-format
  std::string profile;       ///< --profile
};

/// --scheduler heap|linear: the engine ready-queue structure.
[[nodiscard]] FlagRow scheduler_flag();

/// --fault-seed S: seed of the fault-injection substreams, stored in *seed.
[[nodiscard]] FlagRow fault_seed_flag(std::uint64_t* seed);

/// --metrics, --check, --check-history, --check-report, --trace,
/// --trace-format, --trace-ranks and --profile.
[[nodiscard]] std::vector<FlagRow> observability_flags(RunOutputs* out);

/// --stack-pool on|off: pooled or guarded fiber stacks.
[[nodiscard]] FlagRow stack_pool_flag();

}  // namespace mrl::runtime
