// Virtual-time profiler (DESIGN.md §14): per-rank execution spans, the
// deterministic ProfileCapture selection, Perfetto/Chrome + CSV exports, the
// critical-path analyzer's exact makespan partition, the --trace-ranks
// filter, the --check-report JSON schema, and strict flag parsing.
//
// The load-bearing properties: every exported byte is identical across
// schedulers and job counts; category totals sum
// EXACTLY (integer picoseconds) to the run's final virtual time; and spans
// recording perturbs nothing — simulated times are bitwise unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "check/checker.hpp"
#include "core/sweep.hpp"
#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "runtime/engine.hpp"
#include "runtime/profiler.hpp"
#include "simnet/critpath.hpp"
#include "simnet/platform.hpp"
#include "simnet/trace_export.hpp"
#include "workloads/hashtable/hashtable.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl {
namespace {

using runtime::Engine;
using runtime::EngineOptions;
using runtime::ProfileCapture;
using runtime::SchedulerKind;

bool contains(const std::string& hay, const char* needle) {
  return hay.find(needle) != std::string::npos;
}

/// Restores the process-wide profiler/scheduler defaults a test flips.
struct DefaultsGuard {
  ~DefaultsGuard() {
    runtime::set_default_trace(false);
    runtime::set_default_spans(false);
    runtime::set_default_trace_ranks({0, -1});
    runtime::set_default_scheduler(SchedulerKind::kIndexedHeap);
    check::set_default_check(false);
    check::set_default_check_report(false);
    check::CheckReportRegistry::instance().reset();
    ProfileCapture::instance().reset();
  }
};

/// Runs the small stencil under the process-wide defaults and returns the
/// ProfileCapture winner (the capture the --trace/--profile dumps would use).
simnet::RunCapture captured_stencil(int nranks = 16) {
  ProfileCapture::instance().reset();
  workloads::stencil::Config cfg;
  cfg.n = 64;
  cfg.iters = 3;
  const auto r = workloads::stencil::run_two_sided(
      simnet::Platform::perlmutter_cpu(nranks > 128 ? nranks / 128 : 1),
      nranks, cfg);
  EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_TRUE(ProfileCapture::instance().has_capture());
  return ProfileCapture::instance().capture();
}

struct Exports {
  std::string spans_csv;
  std::string chrome;
  std::string profile;
};

Exports export_all(const simnet::RunCapture& c) {
  Exports e;
  std::ostringstream s1, s2;
  simnet::export_spans_csv(c, s1);
  simnet::export_capture_chrome(c, s2);
  e.spans_csv = s1.str();
  e.chrome = s2.str();
  simnet::CritPathInput in;
  in.nranks = c.nranks;
  in.msgs = &c.msgs;
  in.spans = &c.spans;
  in.rank_end_us = &c.rank_end_us;
  in.dlink_names = &c.dlink_names;
  e.profile = simnet::analyze_critical_path(in).text;
  return e;
}

// --- byte-identity across schedulers ----------------------------------------

TEST(ProfileIdentity, SpansChromeAndCritPathAcrossSchedulers) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);

  Exports base;
  bool have_base = false;
  for (SchedulerKind s :
       {SchedulerKind::kIndexedHeap, SchedulerKind::kLinearScan}) {
    runtime::set_default_scheduler(s);
    const Exports e = export_all(captured_stencil());
    EXPECT_FALSE(e.spans_csv.empty());
    EXPECT_TRUE(contains(e.profile, "critical path: makespan"));
    if (!have_base) {
      base = e;
      have_base = true;
      continue;
    }
    EXPECT_EQ(base.spans_csv, e.spans_csv)
        << "spans CSV differs under scheduler variation";
    EXPECT_EQ(base.chrome, e.chrome)
        << "chrome trace differs under scheduler variation";
    EXPECT_EQ(base.profile, e.profile)
        << "critical-path report differs under scheduler variation";
  }
  ASSERT_TRUE(have_base);
}

// ProfileCapture keeps one deterministic winner even when a sweep completes
// thousands of runs in a jobs-dependent order.
TEST(ProfileIdentity, CaptureIsIndependentOfJobsOrder) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);

  const simnet::Platform plat = simnet::Platform::perlmutter_cpu(1);
  Exports base;
  for (int jobs : {1, 4}) {
    ProfileCapture::instance().reset();
    core::SweepConfig cfg = core::SweepConfig::defaults(core::SweepKind::kOneSidedMpi);
    cfg.iters = 2;
    cfg.jobs = jobs;
    const auto sweep = core::run_sweep(plat, cfg);
    ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
    ASSERT_TRUE(ProfileCapture::instance().has_capture());
    const Exports e = export_all(ProfileCapture::instance().capture());
    if (jobs == 1) {
      base = e;
      continue;
    }
    EXPECT_EQ(base.spans_csv, e.spans_csv) << "capture depends on --jobs";
    EXPECT_EQ(base.chrome, e.chrome) << "capture depends on --jobs";
    EXPECT_EQ(base.profile, e.profile) << "capture depends on --jobs";
  }
}

// --- the exact-partition invariant ----------------------------------------

void expect_exact_partition(const simnet::RunCapture& c) {
  simnet::CritPathInput in;
  in.nranks = c.nranks;
  in.msgs = &c.msgs;
  in.spans = &c.spans;
  in.rank_end_us = &c.rank_end_us;
  in.dlink_names = &c.dlink_names;
  const simnet::CritPathReport rep = simnet::analyze_critical_path(in);
  EXPECT_EQ(rep.total_pico(), rep.makespan_pico)
      << "category totals must partition the makespan exactly";
  EXPECT_EQ(rep.makespan_pico,
            static_cast<std::uint64_t>(std::llround(c.makespan_us * 1e6)));
  EXPECT_FALSE(rep.truncated);
  EXPECT_GE(rep.end_rank, 0);
  EXPECT_TRUE(contains(rep.text, "category totals"));
}

TEST(CritPath, TotalsPartitionMakespanOnStencil) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
  expect_exact_partition(captured_stencil());
}

// The acceptance-scale configuration: the paper-shaped 4096-rank stencil.
TEST(CritPath, TotalsPartitionMakespanOnStencil4096Ranks) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
  ProfileCapture::instance().reset();
  workloads::stencil::Config cfg;
  cfg.n = 256;
  cfg.iters = 2;
  const auto r = workloads::stencil::run_two_sided(
      simnet::Platform::perlmutter_cpu(32), 4096, cfg);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(ProfileCapture::instance().has_capture());
  expect_exact_partition(ProfileCapture::instance().capture());
}

TEST(CritPath, TotalsPartitionMakespanOnSptrsv) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
  ProfileCapture::instance().reset();
  workloads::sptrsv::GenConfig g;
  g.n = 1500;
  const auto L = workloads::sptrsv::SupernodalMatrix::generate(g);
  const auto r = workloads::sptrsv::run_two_sided(
      simnet::Platform::perlmutter_cpu(1), 8, L, {});
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(ProfileCapture::instance().has_capture());
  expect_exact_partition(ProfileCapture::instance().capture());
}

TEST(CritPath, TotalsPartitionMakespanOnHashtable) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
  ProfileCapture::instance().reset();
  workloads::hashtable::Config cfg;
  cfg.total_inserts = 4000;
  const auto r = workloads::hashtable::run_one_sided(
      simnet::Platform::perlmutter_cpu(1), 8, cfg);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(ProfileCapture::instance().has_capture());
  expect_exact_partition(ProfileCapture::instance().capture());
}

// --- zero perturbation -----------------------------------------------------

TEST(Spans, RecordingDoesNotPerturbSimulatedTime) {
  DefaultsGuard guard;
  workloads::stencil::Config cfg;
  cfg.n = 64;
  cfg.iters = 3;
  const auto plain = workloads::stencil::run_two_sided(
      simnet::Platform::perlmutter_cpu(1), 16, cfg);
  ASSERT_TRUE(plain.status.is_ok());
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
  const auto traced = workloads::stencil::run_two_sided(
      simnet::Platform::perlmutter_cpu(1), 16, cfg);
  ASSERT_TRUE(traced.status.is_ok());
  EXPECT_EQ(plain.time_us, traced.time_us);  // bitwise, not approximately
}

// --- deadlock reports carry span tails -------------------------------------

Status run_deadlocked(bool spans) {
  EngineOptions opt;
  opt.trace = spans;
  opt.spans = spans;
  Engine eng(simnet::Platform::perlmutter_cpu(1), 2, opt);
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    double v = 0;
    if (c.rank() == 0) {
      // A real message first, so rank 0 has history to report...
      c.send(&v, sizeof(v), 1, 0);
      c.recv(&v, sizeof(v), 1, 1);  // ...then a recv nobody answers.
    } else {
      c.recv(&v, sizeof(v), 0, 0);
    }
  });
  return res.status;
}

TEST(SpanTails, DeadlockReportAppendsRecentSpansWhenEnabled) {
  DefaultsGuard guard;
  const Status with = run_deadlocked(/*spans=*/true);
  ASSERT_EQ(with.code(), ErrorCode::kDeadlock) << with.to_string();
  EXPECT_TRUE(contains(with.to_string(), "recent spans:"))
      << with.to_string();
  EXPECT_TRUE(contains(with.to_string(), "rank 0 [")) << with.to_string();

  const Status without = run_deadlocked(/*spans=*/false);
  ASSERT_EQ(without.code(), ErrorCode::kDeadlock);
  EXPECT_FALSE(contains(without.to_string(), "recent spans:"));
}

// --- the --trace-ranks filter ----------------------------------------------

TEST(TraceRanks, FilterBoundsSliceOutputButKeepsCounters) {
  DefaultsGuard guard;
  runtime::set_default_trace(true);
  runtime::set_default_spans(true);
  const simnet::RunCapture c = captured_stencil();

  std::ostringstream csv;
  simnet::export_spans_csv(c, csv, /*rank_lo=*/2, /*rank_hi=*/3);
  std::istringstream lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    EXPECT_TRUE(line.rfind("2,", 0) == 0 || line.rfind("3,", 0) == 0)
        << "row outside --trace-ranks 2-3: " << line;
  }
  EXPECT_GT(rows, 0);

  std::ostringstream chrome;
  simnet::export_capture_chrome(c, chrome, 2, 3);
  const std::string j = chrome.str();
  EXPECT_FALSE(contains(j, "\"pid\":1,\"tid\":0,"));
  EXPECT_TRUE(contains(j, "\"pid\":1,\"tid\":2,"));
  // Counter tracks deliberately stay global under the filter. (A two-sided
  // run has no puts, so only the per-link in-flight counters appear.)
  EXPECT_TRUE(contains(j, "\"ph\":\"C\",\"pid\":2"));
  EXPECT_TRUE(contains(j, " in-flight\""));
}

// --- --check-report JSON ---------------------------------------------------

Status run_overlapping_puts() {
  EngineOptions opt;
  opt.check = true;
  Engine eng(simnet::Platform::perlmutter_cpu(1), 3, opt);
  const auto res = mpi::World::run(eng, [](mpi::Comm& c) {
    std::vector<double> buf(32, 0.0);
    auto win = c.create_win(buf.data(), buf.size() * sizeof(double));
    double v = c.rank();
    if (c.rank() < 2) {
      win.put(&v, sizeof(v), 2, 0);
      win.flush(2);
    }
    win.fence();
  });
  return res.status;
}

TEST(CheckReport, SchemaStableJsonAndSchedulerIdentity) {
  DefaultsGuard guard;
  check::set_default_check_report(true);

  std::string base;
  for (SchedulerKind s :
       {SchedulerKind::kIndexedHeap, SchedulerKind::kLinearScan}) {
    runtime::set_default_scheduler(s);
    check::CheckReportRegistry::instance().reset();
    const Status st = run_overlapping_puts();
    ASSERT_EQ(st.code(), ErrorCode::kFailedPrecondition) << st.to_string();
    std::ostringstream os;
    check::write_check_report_json(
        check::CheckReportRegistry::instance().sorted_violations(), os);
    const std::string json = os.str();
    // Schema pins: tools may rely on these exact keys.
    EXPECT_TRUE(contains(json, "\"schema\": \"msgroof.check_report.v1\""))
        << json;
    EXPECT_TRUE(contains(json, "\"violation_count\": 1")) << json;
    EXPECT_TRUE(contains(json, "\"kind\": \"race\"")) << json;
    EXPECT_TRUE(contains(json, "\"space\": \"win0@rank2\"")) << json;
    EXPECT_TRUE(contains(json, "\"rank_a\": ")) << json;
    EXPECT_TRUE(contains(json, "\"rank_b\": ")) << json;
    EXPECT_TRUE(contains(json, "\"t_a_us\": ")) << json;
    EXPECT_TRUE(contains(json, "\"off_a\": 0")) << json;
    EXPECT_TRUE(contains(json, "\"bytes_a\": 8")) << json;
    EXPECT_TRUE(contains(json, "\"text\": ")) << json;
    if (base.empty()) {
      base = json;
    } else {
      EXPECT_EQ(base, json) << "check-report bytes differ across schedulers";
    }
  }
  ASSERT_FALSE(base.empty());
}

TEST(CheckReport, EmptyRegistryWritesValidEmptyReport) {
  DefaultsGuard guard;
  check::CheckReportRegistry::instance().reset();
  std::ostringstream os;
  check::write_check_report_json(
      check::CheckReportRegistry::instance().sorted_violations(), os);
  EXPECT_TRUE(contains(os.str(), "\"violation_count\": 0")) << os.str();
  EXPECT_TRUE(contains(os.str(), "\"violations\": []")) << os.str();
}

// --- strict flag parsing (rc 2 on garbage) ---------------------------------

int parse_flags(std::vector<std::string> argv_strs) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("bench"));
  for (std::string& s : argv_strs) argv.push_back(s.data());
  bench::Args::parse(static_cast<int>(argv.size()), argv.data());
  return 0;  // parse() exits on error
}

TEST(FlagParsing, GarbageIsRejectedWithRc2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(parse_flags({"--trace-ranks", "junk"}),
              ::testing::ExitedWithCode(2), "invalid --trace-ranks");
  EXPECT_EXIT(parse_flags({"--trace-ranks", "5-3"}),
              ::testing::ExitedWithCode(2), "invalid --trace-ranks");
  EXPECT_EXIT(parse_flags({"--trace-ranks", "7"}),
              ::testing::ExitedWithCode(2), "invalid --trace-ranks");
  EXPECT_EXIT(parse_flags({"--trace-ranks", "-2-4"}),
              ::testing::ExitedWithCode(2), "invalid --trace-ranks");
  EXPECT_EXIT(parse_flags({"--trace-format", "flamegraph"}),
              ::testing::ExitedWithCode(2), "invalid --trace-format");
  EXPECT_EXIT(parse_flags({"--trace"}), ::testing::ExitedWithCode(2),
              "--trace requires a path");
  EXPECT_EXIT(parse_flags({"--trace="}), ::testing::ExitedWithCode(2),
              "--trace requires a non-empty path");
  EXPECT_EXIT(parse_flags({"--profile"}), ::testing::ExitedWithCode(2),
              "--profile requires a path");
  EXPECT_EXIT(parse_flags({"--check-report"}), ::testing::ExitedWithCode(2),
              "--check-report requires a path");
  EXPECT_EXIT(parse_flags({"--check-report="}), ::testing::ExitedWithCode(2),
              "--check-report requires a non-empty path");
  // Values that do not fit their destination type are rejected, not
  // truncated or wrapped.
  EXPECT_EXIT(parse_flags({"--jobs", "99999999999999999999"}),
              ::testing::ExitedWithCode(2), "invalid --jobs");
  EXPECT_EXIT(parse_flags({"--jobs", "4294967297"}),
              ::testing::ExitedWithCode(2), "invalid --jobs");
  EXPECT_EXIT(parse_flags({"--jobs=4294967297"}),
              ::testing::ExitedWithCode(2), "invalid --jobs");
  EXPECT_EXIT(parse_flags({"--trace-ranks", "0-4294967296"}),
              ::testing::ExitedWithCode(2), "invalid --trace-ranks");
  EXPECT_EXIT(parse_flags({"--fault-seed", "-1"}),
              ::testing::ExitedWithCode(2), "invalid --fault-seed");
  EXPECT_EXIT(parse_flags({"--fault-seed", "18446744073709551616"}),
              ::testing::ExitedWithCode(2), "invalid --fault-seed");
}

}  // namespace
}  // namespace mrl
