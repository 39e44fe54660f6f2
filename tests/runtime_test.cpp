// Engine semantics: virtual-time ordering, determinism, blocking/waking,
// deadlock detection, error propagation.
//
// The whole suite also runs under ThreadSanitizer: the fiber switches are
// annotated (runtime/fiber.hpp), so TSan follows every rank handoff, and
// EngineThreads drives one engine from two OS threads to put the per-run
// thread adoption under race checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "simnet/platform.hpp"
#include "simnet/trace_export.hpp"

namespace mrl::runtime {
namespace {

simnet::Platform plat() { return simnet::Platform::perlmutter_cpu(); }

TEST(Engine, RunsAllRanksToCompletion) {
  Engine eng(plat(), 8);
  std::vector<int> visited(8, 0);
  const RunResult r = eng.run([&](Rank& rank) { visited[rank.id()] = 1; });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  for (int v : visited) EXPECT_EQ(v, 1);
  EXPECT_EQ(r.rank_end_us.size(), 8u);
}

TEST(Engine, AdvanceAccumulatesVirtualTime) {
  Engine eng(plat(), 2);
  const RunResult r = eng.run([](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.now(), 0.0);
    rank.advance(1.5);
    rank.advance(2.5);
    EXPECT_DOUBLE_EQ(rank.now(), 4.0);
  });
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.makespan_us, 4.0);
}

TEST(Engine, PerformExecutesInGlobalClockOrder) {
  Engine eng(plat(), 4);
  std::vector<int> order;
  const RunResult r = eng.run([&](Rank& rank) {
    // Rank i performs at time 10*(3 - i): rank 3 first, rank 0 last.
    rank.advance(10.0 * (3 - rank.id()));
    eng.perform(rank, [&] { order.push_back(rank.id()); });
  });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Engine, TiesBrokenByRankId) {
  Engine eng(plat(), 4);
  std::vector<int> order;
  const RunResult r = eng.run([&](Rank& rank) {
    rank.advance(5.0);
    eng.perform(rank, [&] { order.push_back(rank.id()); });
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, WaitWakesAtConditionTime) {
  Engine eng(plat(), 2);
  double flag_time = -1;
  bool flag = false;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(7.0);
      eng.perform(rank, [&] {
        flag = true;
        flag_time = rank.now();
      });
    } else {
      eng.wait(rank, "flag", [&]() -> std::optional<double> {
        if (!flag) return std::nullopt;
        return flag_time + 3.0;
      });
      EXPECT_DOUBLE_EQ(rank.now(), 10.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, WaitDoesNotGoBackwards) {
  Engine eng(plat(), 2);
  bool flag = false;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      eng.perform(rank, [&] { flag = true; });
    } else {
      rank.advance(50.0);
      eng.wait(rank, "flag", [&]() -> std::optional<double> {
        return flag ? std::optional<double>(1.0) : std::nullopt;
      });
      // Wake time 1.0 is in this rank's past; clock must not regress.
      EXPECT_DOUBLE_EQ(rank.now(), 50.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, DeadlockIsDetectedAndReported) {
  Engine eng(plat(), 2);
  const RunResult r = eng.run([&](Rank& rank) {
    eng.wait(rank, "never-satisfied",
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kDeadlock);
  EXPECT_NE(r.status.message().find("never-satisfied"), std::string::npos);
}

TEST(Engine, PartialDeadlockAlsoDetected) {
  // One rank finishes; the other waits forever.
  Engine eng(plat(), 2);
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 1) {
      eng.wait(rank, "orphan wait",
               []() -> std::optional<double> { return std::nullopt; });
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kDeadlock);
}

TEST(Engine, BodyExceptionIsPropagatedNotCrashed) {
  Engine eng(plat(), 4);
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 2) throw std::runtime_error("boom");
    // Other ranks block; the abort must unwind them.
    eng.wait(rank, "forever",
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.message().find("boom"), std::string::npos);
}

TEST(Engine, DeterministicAcrossRepeatedRuns) {
  Engine eng(plat(), 16);
  auto body = [&](Rank& rank) {
    for (int i = 0; i < 20; ++i) {
      rank.advance(0.1 * ((rank.id() * 7 + i) % 5 + 1));
      eng.perform(rank, [] {});
    }
  };
  const RunResult a = eng.run(body);
  const RunResult b = eng.run(body);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.rank_end_us.size(), b.rank_end_us.size());
  for (std::size_t i = 0; i < a.rank_end_us.size(); ++i) {
    EXPECT_EQ(a.rank_end_us[i], b.rank_end_us[i]) << "rank " << i;
  }
}

TEST(Engine, ManyRanksComplete) {
  Engine eng(plat(), 128);
  std::atomic<int> count{0};
  const RunResult r = eng.run([&](Rank& rank) {
    rank.advance(static_cast<double>(rank.id()));
    eng.perform(rank, [&] { count.fetch_add(1); });
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count.load(), 128);
  EXPECT_DOUBLE_EQ(r.makespan_us, 127.0);
}

TEST(Engine, ReusesExecutionContextsAcrossManyRuns) {
  // The sweep runner calls run() thousands of times per engine; rank
  // fibers are created once and parked between runs, and every run
  // must start from pristine clocks/epochs/trace regardless of history.
  EngineOptions opt;
  opt.trace = true;
  Engine eng(plat(), 4, opt);
  auto body = [&](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.now(), 0.0);   // clock reset by run()
    EXPECT_EQ(rank.epoch(), 0u);         // epoch reset by run()
    rank.advance(1.0 + rank.id());
    rank.bump_epoch();
    eng.perform(rank, [] {});
  };
  for (int i = 0; i < 100; ++i) {
    const RunResult r = eng.run(body);
    ASSERT_TRUE(r.ok()) << "run " << i << ": " << r.status.to_string();
    EXPECT_DOUBLE_EQ(r.makespan_us, 4.0) << "run " << i;
    ASSERT_EQ(r.rank_end_us.size(), 4u);
    for (int id = 0; id < 4; ++id) {
      EXPECT_DOUBLE_EQ(r.rank_end_us[static_cast<std::size_t>(id)],
                       1.0 + id)
          << "run " << i;
    }
  }
}

TEST(Engine, CleanRunAfterDeadlockedRun) {
  Engine eng(plat(), 2);
  // Run 1: deadlock — both ranks block forever.
  const RunResult bad = eng.run([&](Rank& rank) {
    eng.wait(rank, "never",
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.code(), ErrorCode::kDeadlock);

  // Run 2 on the same engine (same parked contexts) must be pristine: no
  // leftover abort flag, grants, or blocked bookkeeping.
  bool flag = false;
  const RunResult good = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(2.0);
      eng.perform(rank, [&] { flag = true; });
    } else {
      eng.wait(rank, "flag", [&]() -> std::optional<double> {
        return flag ? std::optional<double>(3.0) : std::nullopt;
      });
      EXPECT_DOUBLE_EQ(rank.now(), 3.0);
    }
  });
  ASSERT_TRUE(good.ok()) << good.status.to_string();
  EXPECT_DOUBLE_EQ(good.makespan_us, 3.0);

  // Run 3: deadlock again, then run 4 clean again — alternating states.
  const RunResult bad2 = eng.run([&](Rank& rank) {
    if (rank.id() == 1) {
      eng.wait(rank, "orphan",
               []() -> std::optional<double> { return std::nullopt; });
    }
  });
  EXPECT_EQ(bad2.status.code(), ErrorCode::kDeadlock);
  const RunResult good2 = eng.run([](Rank& rank) { rank.advance(1.0); });
  ASSERT_TRUE(good2.ok());
  EXPECT_DOUBLE_EQ(good2.makespan_us, 1.0);
}

TEST(Engine, CleanRunAfterBodyExceptionRun) {
  Engine eng(plat(), 2);
  const RunResult bad = eng.run([&](Rank& rank) {
    if (rank.id() == 0) throw std::runtime_error("boom");
    eng.wait(rank, "forever",
             []() -> std::optional<double> { return std::nullopt; });
  });
  EXPECT_FALSE(bad.ok());
  const RunResult good = eng.run([](Rank& rank) { rank.advance(5.0); });
  ASSERT_TRUE(good.ok()) << good.status.to_string();
  EXPECT_DOUBLE_EQ(good.makespan_us, 5.0);
}

TEST(Engine, TraceResetsBetweenRuns) {
  EngineOptions opt;
  opt.trace = true;
  Engine eng(plat(), 2, opt);
  auto record_one = [&](Rank& rank) {
    if (rank.id() == 0) {
      eng.perform(rank, [&] {
        simnet::MsgRecord rec;
        rec.src_rank = 0;
        rec.dst_rank = 1;
        rec.bytes = 8;
        eng.trace().record(rec);
      });
    }
  };
  ASSERT_TRUE(eng.run(record_one).ok());
  EXPECT_EQ(eng.trace().records().size(), 1u);
  // A second run starts a fresh trace instead of accumulating.
  ASSERT_TRUE(eng.run(record_one).ok());
  EXPECT_EQ(eng.trace().records().size(), 1u);
}

TEST(Engine, RepeatedRunsAreDeterministicWithBlockingWaits) {
  // Exercises the targeted-handoff scheduler: blocked ranks are re-queued
  // without waking, so repeated runs of a blocking workload must still give
  // identical clocks.
  Engine eng(plat(), 6);
  std::vector<double> flags_time(6, -1.0);
  std::vector<bool> flags(6, false);
  auto body = [&](Rank& rank) {
    if (rank.id() == 0) {
      for (int i = 0; i < 6; ++i) flags[static_cast<std::size_t>(i)] = false;
    }
    const int peer = (rank.id() + 1) % 6;
    rank.advance(0.5 * (rank.id() + 1));
    eng.perform(rank, [&] {
      flags[static_cast<std::size_t>(rank.id())] = true;
      flags_time[static_cast<std::size_t>(rank.id())] = rank.now();
    });
    eng.wait(rank, "peer flag", [&]() -> std::optional<double> {
      if (!flags[static_cast<std::size_t>(peer)]) return std::nullopt;
      return flags_time[static_cast<std::size_t>(peer)] + 0.25;
    });
  };
  const RunResult a = eng.run(body);
  ASSERT_TRUE(a.ok()) << a.status.to_string();
  for (int i = 0; i < 20; ++i) {
    const RunResult b = eng.run(body);
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.rank_end_us.size(), b.rank_end_us.size());
    for (std::size_t j = 0; j < a.rank_end_us.size(); ++j) {
      EXPECT_EQ(a.rank_end_us[j], b.rank_end_us[j]) << "run " << i;
    }
  }
}

TEST(Engine, RejectsMoreRanksThanPlatformHosts) {
  EXPECT_DEATH(Engine(simnet::Platform::perlmutter_gpu(), 5),
               "more ranks than the platform");
}

TEST(Engine, EpochBumpTracked) {
  Engine eng(plat(), 1);
  const RunResult r = eng.run([&](Rank& rank) {
    EXPECT_EQ(rank.epoch(), 0u);
    rank.bump_epoch();
    rank.bump_epoch();
    EXPECT_EQ(rank.epoch(), 2u);
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, WatchdogConvertsLivelockToTimeout) {
  // A rank that keeps making virtual-time "progress" without ever reaching
  // its wait condition is a livelock the deadlock detector cannot see: the
  // rank is always runnable. The watchdog caps virtual time instead.
  EngineOptions opt;
  opt.watchdog_virtual_us = 500.0;
  Engine eng(plat(), 2, opt);
  const RunResult r = eng.run([&](Rank& rank) {
    for (;;) {
      rank.advance(10.0);
      eng.perform(rank, [] {});  // retry loop: spins forever
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
  EXPECT_NE(r.status.message().find("watchdog"), std::string::npos)
      << r.status.message();
  // Diagnostics name the per-rank clocks.
  EXPECT_NE(r.status.message().find("rank 0"), std::string::npos)
      << r.status.message();
}

TEST(Engine, WatchdogAlsoTripsInsideWaits) {
  EngineOptions opt;
  opt.watchdog_virtual_us = 200.0;
  Engine eng(plat(), 2, opt);
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      // Waits that keep resolving a little further in the future: never
      // blocked (no deadlock), never done.
      for (;;) {
        const double target = rank.now() + 50.0;
        eng.wait(rank, "chasing-horizon",
                 [target]() -> std::optional<double> { return target; });
      }
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
}

TEST(Engine, CleanRunAfterWatchdogTimeout) {
  EngineOptions opt;
  opt.watchdog_virtual_us = 300.0;
  Engine eng(plat(), 2, opt);
  const RunResult bad = eng.run([&](Rank& rank) {
    for (;;) {
      rank.advance(25.0);
      eng.perform(rank, [] {});
    }
  });
  ASSERT_EQ(bad.status.code(), ErrorCode::kTimeout);
  // The engine must stay usable, and a run that finishes under the limit
  // must be untouched by the watchdog.
  const RunResult good = eng.run([&](Rank& rank) {
    rank.advance(100.0);
    eng.perform(rank, [] {});
  });
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good.makespan_us, 100.0);
}

TEST(Engine, StragglerScalesComputeNotWaits) {
  // With a straggler_prob of 1 every rank is a straggler; compute_scale()
  // must reflect the factor while plain advance() stays unscaled.
  simnet::Platform p = plat();
  simnet::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_factor = 3.0;
  p.set_faults(spec);
  Engine eng(p, 2);
  const RunResult r = eng.run([&](Rank& rank) {
    EXPECT_DOUBLE_EQ(rank.compute_scale(), 3.0);
    rank.advance(10.0);  // absolute virtual time: not scaled
    EXPECT_DOUBLE_EQ(rank.now(), 10.0);
  });
  ASSERT_TRUE(r.ok());
}

TEST(Engine, ReentrantRunReturnsInvalidArgument) {
  // A rank body that calls run() again on its own engine must get a clean
  // error status back — not a crash, not a hang — and the outer run must
  // complete normally.
  Engine eng(plat(), 2);
  Status inner_status;
  const RunResult outer = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      const RunResult inner = eng.run([](Rank&) {});
      inner_status = inner.status;
    }
    rank.advance(1.0);
  });
  ASSERT_TRUE(outer.ok()) << outer.status.to_string();
  EXPECT_EQ(inner_status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(inner_status.message().find("reentrant"), std::string::npos);
  // The guard must release: a fresh top-level run still works.
  EXPECT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
}

TEST(EngineFibers, TwoThousandRanksRunOnOneThread) {
  // The headline scaling win: 2048 ranks as fibers on a single OS thread —
  // a rank count where spawning one OS thread per rank is already at or
  // past typical ulimit/VM limits. Trivial body plus a ring of sends so the
  // scheduler, waker, and blocking paths all engage at scale.
  const int n = 2048;
  EngineOptions opt;
  opt.fiber_stack_bytes = 128 * 1024;  // 2048 * 128KiB = 256MiB virtual
  Engine eng(simnet::Platform::perlmutter_cpu(/*nodes=*/16), n, opt);
  std::vector<bool> sent(static_cast<std::size_t>(n), false);
  std::vector<double> sent_time(static_cast<std::size_t>(n), 0.0);
  const RunResult r = eng.run([&](Rank& rank) {
    const int id = rank.id();
    const int prev = (id + n - 1) % n;
    rank.advance(0.01 * (id % 7 + 1));
    // "Send" to the successor...
    eng.perform(rank, [&] {
      sent[static_cast<std::size_t>(id)] = true;
      sent_time[static_cast<std::size_t>(id)] = rank.now();
    });
    // ...and block until the predecessor's send arrives.
    eng.wait(rank, "ring recv", [&]() -> std::optional<double> {
      if (!sent[static_cast<std::size_t>(prev)]) return std::nullopt;
      return sent_time[static_cast<std::size_t>(prev)] + 0.1;
    });
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  ASSERT_EQ(r.rank_end_us.size(), static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    EXPECT_GT(r.rank_end_us[static_cast<std::size_t>(id)], 0.0)
        << "rank " << id;
  }
}

TEST(EngineThreads, OneEngineDrivenFromTwoOsThreadsIsBitIdentical) {
  // Sweep-pool workers hand one engine from thread to thread, so every run()
  // re-adopts its calling thread as the main fiber (and, under TSan, takes
  // that thread's TSan fiber). Drive one engine from thread A, then from
  // thread B, and require identical clocks and trace bytes: a stale main
  // context would crash or diverge on B's run.
  const int n = 8;
  EngineOptions opt;
  opt.trace = true;
  Engine eng(plat(), n, opt);
  auto body_run = [&] {
    std::vector<bool> flags(static_cast<std::size_t>(n), false);
    std::vector<double> flag_time(static_cast<std::size_t>(n), 0.0);
    const RunResult r = eng.run([&](Rank& rank) {
      const int id = rank.id();
      const int peer = (id + 3) % n;
      for (int i = 0; i < 10; ++i) {
        rank.advance(0.1 * ((id * 13 + i) % 7 + 1));
        eng.perform(rank, [&] {
          simnet::MsgRecord rec;
          rec.src_rank = id;
          rec.dst_rank = peer;
          rec.bytes = 64u * static_cast<std::uint64_t>(i + 1);
          rec.t_issue = rank.now();
          rec.t_arrival = rank.now() + 1.5;
          eng.trace().record(rec);
        });
      }
      eng.perform(rank, [&] {
        flags[static_cast<std::size_t>(id)] = true;
        flag_time[static_cast<std::size_t>(id)] = rank.now();
      });
      const int prev = (id + n - 1) % n;
      eng.wait(rank, "peer", [&]() -> std::optional<double> {
        if (!flags[static_cast<std::size_t>(prev)]) return std::nullopt;
        return flag_time[static_cast<std::size_t>(prev)] + 0.5;
      });
    });
    std::ostringstream os;
    simnet::export_trace_csv(eng.trace(), os);
    return std::make_pair(r, os.str());
  };

  std::pair<RunResult, std::string> a;
  std::pair<RunResult, std::string> b;
  std::thread ta([&] { a = body_run(); });
  ta.join();
  std::thread tb([&] { b = body_run(); });
  tb.join();
  ASSERT_TRUE(a.first.ok()) << a.first.status.to_string();
  ASSERT_TRUE(b.first.ok()) << b.first.status.to_string();
  EXPECT_EQ(a.first.makespan_us, b.first.makespan_us);
  EXPECT_EQ(a.first.rank_end_us, b.first.rank_end_us);
  EXPECT_FALSE(a.second.empty());
  EXPECT_EQ(a.second, b.second);
}

TEST(EngineCrossScheduler, BitIdenticalClocksAndTraces) {
  // The indexed-heap scheduler must be a drop-in replacement for the linear
  // scan: same grant order (including the lowest-id tie-break), same clocks,
  // same trace bytes. The body manufactures
  // wake-time ties (many ranks advancing by identical deltas) plus blocking
  // waits so both pick_min and wake paths are exercised.
  const int n = 12;
  auto run_config = [&](SchedulerKind sched) {
    EngineOptions opt;
    opt.scheduler = sched;
    opt.trace = true;
    Engine eng(plat(), n, opt);
    std::vector<bool> flags(static_cast<std::size_t>(n), false);
    std::vector<double> flag_time(static_cast<std::size_t>(n), 0.0);
    const RunResult r = eng.run([&](Rank& rank) {
      const int id = rank.id();
      const int peer = (id + 5) % n;
      for (int i = 0; i < 8; ++i) {
        // Half the ranks advance by the SAME amount each round — guaranteed
        // wake-time ties that only the lowest-id rule orders.
        rank.advance(id % 2 == 0 ? 1.0 : 0.25 * ((id + i) % 3 + 1));
        eng.perform(rank, [&] {
          simnet::MsgRecord rec;
          rec.src_rank = id;
          rec.dst_rank = peer;
          rec.bytes = 32u * static_cast<std::uint64_t>(i + 1);
          rec.t_issue = rank.now();
          rec.t_arrival = rank.now() + 2.0;
          eng.trace().record(rec);
        });
      }
      eng.perform(rank, [&] {
        flags[static_cast<std::size_t>(id)] = true;
        flag_time[static_cast<std::size_t>(id)] = rank.now();
      });
      const int prev = (id + n - 1) % n;
      eng.wait(rank, "peer", [&]() -> std::optional<double> {
        if (!flags[static_cast<std::size_t>(prev)]) return std::nullopt;
        return flag_time[static_cast<std::size_t>(prev)] + 0.125;
      });
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return std::make_pair(r, eng.trace().records());
  };

  const auto [r0, t0] = run_config(SchedulerKind::kIndexedHeap);
  const auto [r, t] = run_config(SchedulerKind::kLinearScan);
  EXPECT_EQ(r.makespan_us, r0.makespan_us);
  ASSERT_EQ(r.rank_end_us.size(), r0.rank_end_us.size());
  for (std::size_t i = 0; i < r0.rank_end_us.size(); ++i) {
    EXPECT_EQ(r.rank_end_us[i], r0.rank_end_us[i]) << "rank " << i;
  }
  ASSERT_EQ(t.size(), t0.size());
  for (std::size_t i = 0; i < t0.size(); ++i) {
    EXPECT_EQ(t[i].src_rank, t0[i].src_rank) << i;
    EXPECT_EQ(t[i].t_issue, t0[i].t_issue) << i;
    EXPECT_EQ(t[i].t_arrival, t0[i].t_arrival) << i;
  }
}

TEST(EngineWaitGate, GatedBarrierMatchesUngatedOracleAcrossSchedulers) {
  // WaitGate semantics (DESIGN.md §10): a generation-counter barrier built
  // exactly like mpi::Comm::collective, with the gate passed through
  // Engine::wait. The heap scheduler parks gated waiters in the threshold
  // heap; the linear scheduler ignores the gate and brute-force re-evaluates
  // every condition. Identical clocks across both configs prove the
  // gated fast path wakes the same ranks at the same times as the oracle.
  const int n = 10;
  auto run_config = [&](SchedulerKind sched) {
    EngineOptions opt;
    opt.scheduler = sched;
    Engine eng(plat(), n, opt);
    std::uint64_t generation = 0;
    int entered = 0;
    double max_enter = 0.0;
    std::array<double, 4> done{};
    const RunResult r = eng.run([&](Rank& rank) {
      for (int round = 0; round < 5; ++round) {
        // Uneven arrivals (with ties) so the barrier actually reorders.
        rank.advance(0.5 * ((rank.id() + round) % 4));
        std::uint64_t my_gen = 0;
        eng.perform(rank, [&] {
          my_gen = generation;
          if (entered == 0) max_enter = 0.0;
          ++entered;
          max_enter = std::max(max_enter, rank.now());
          if (entered == n) {
            done[my_gen % done.size()] = max_enter + 1.0;
            entered = 0;
            ++generation;
          }
        });
        eng.wait(
            rank, "test.barrier",
            [&]() -> std::optional<double> {
              if (generation <= my_gen) return std::nullopt;
              return done[my_gen % done.size()];
            },
            {}, WaitGate{&generation, my_gen + 1});
      }
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return r;
  };

  const RunResult heap = run_config(SchedulerKind::kIndexedHeap);
  const RunResult linear = run_config(SchedulerKind::kLinearScan);
  EXPECT_EQ(linear.makespan_us, heap.makespan_us);
  ASSERT_EQ(linear.rank_end_us.size(), heap.rank_end_us.size());
  for (std::size_t i = 0; i < heap.rank_end_us.size(); ++i) {
    EXPECT_EQ(linear.rank_end_us[i], heap.rank_end_us[i]) << "rank " << i;
  }
}

TEST(EngineWaitGate, UnreachedGateStillReportsDeadlock) {
  // A gated waiter whose counter never advances must be caught by the
  // engine's deadlock detector (gated ranks are kBlocked and counted), not
  // silently parked forever.
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kIndexedHeap;
  Engine eng(plat(), 2, opt);
  std::uint64_t counter = 0;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      eng.wait(
          rank, "gate.never",
          [&]() -> std::optional<double> {
            if (counter == 0) return std::nullopt;
            return 1.0;
          },
          {}, WaitGate{&counter, 1});
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.to_string().find("deadlock"), std::string::npos)
      << r.status.to_string();
  EXPECT_NE(r.status.to_string().find("gate.never"), std::string::npos)
      << r.status.to_string();
}

TEST(EngineSchedulerDefaults, ProcessWideDefaultIsHonored) {
  const SchedulerKind saved = default_scheduler();
  set_default_scheduler(SchedulerKind::kLinearScan);
  EXPECT_EQ(EngineOptions{}.scheduler, SchedulerKind::kLinearScan);
  EXPECT_STREQ(to_string(SchedulerKind::kLinearScan), "linear");
  set_default_scheduler(saved);
  EXPECT_EQ(EngineOptions{}.scheduler, saved);
  EXPECT_STREQ(to_string(SchedulerKind::kIndexedHeap), "heap");
}

TEST(EngineWatchdogDefaults, ProcessWideDefaultIsHonored) {
  const double saved_wd = default_watchdog_virtual_us();
  set_default_watchdog_virtual_us(123.0);
  EXPECT_DOUBLE_EQ(EngineOptions{}.watchdog_virtual_us, 123.0);
  set_default_watchdog_virtual_us(saved_wd);
}

// ---------------------------------------------------------------------------
// Metrics (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(Engine, MetricsDisabledByDefaultAndReportEmpty) {
  Engine eng(plat(), 2);
  EXPECT_FALSE(eng.metrics().enabled());
  const RunResult r = eng.run([](Rank& rank) { rank.advance(1.0); });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const MetricsReport rep = eng.metrics_report();
  EXPECT_TRUE(rep.ranks.empty());
  EXPECT_TRUE(rep.links.empty());
  EXPECT_TRUE(rep.stack_hwm_bytes.empty());
}

TEST(Engine, MetricsCountWaitsAndBlockedTime) {
  EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 2, o);
  bool flag = false;
  const RunResult r = eng.run([&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(7.0);
      eng.perform(rank, [&] { flag = true; });
    } else {
      eng.wait(rank, "flag", [&]() -> std::optional<double> {
        return flag ? std::optional<double>(7.0) : std::nullopt;
      });
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const MetricsReport rep = eng.metrics_report();
  ASSERT_EQ(rep.ranks.size(), 2u);
  EXPECT_EQ(rep.ranks[1].ops.waits, 1u);
  // Rank 1 entered the wait at t=0 and woke at t=7.
  EXPECT_DOUBLE_EQ(rep.ranks[1].blocked_us, 7.0);
  EXPECT_EQ(rep.ranks[1].wait_us.total(), 1u);
  EXPECT_EQ(rep.ranks[0].ops.waits, 0u);
  EXPECT_DOUBLE_EQ(rep.makespan_us, 7.0);
}

TEST(Engine, MetricsResetBetweenRuns) {
  EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 2, o);
  bool flag = false;
  auto body = [&](Rank& rank) {
    if (rank.id() == 0) {
      rank.advance(2.0);
      eng.perform(rank, [&] { flag = true; });
    } else {
      eng.wait(rank, "flag", [&]() -> std::optional<double> {
        return flag ? std::optional<double>(2.0) : std::nullopt;
      });
    }
  };
  ASSERT_TRUE(eng.run(body).ok());
  const RankMetrics first = eng.metrics_report().totals();
  EXPECT_EQ(first.ops.waits, 1u);
  flag = false;
  ASSERT_TRUE(eng.run(body).ok());
  // Counters re-zero each run: the second report equals the first instead of
  // doubling.
  const RankMetrics second = eng.metrics_report().totals();
  EXPECT_EQ(second.ops.waits, first.ops.waits);
  EXPECT_EQ(second.blocked_us, first.blocked_us);
}

// The per-run report must be bit-identical across schedulers: same CSV bytes
// from a heap engine and a linear-scan engine running the same body.
TEST(EngineMetrics, ReportBytesIdenticalAcrossSchedulers) {
  auto run_one = [](SchedulerKind sched) {
    EngineOptions o;
    o.scheduler = sched;
    o.metrics = true;
    Engine eng(plat(), 8, o);
    bool ready = false;
    const RunResult r = eng.run([&](Rank& rank) {
      rank.advance(0.5 * (rank.id() + 1));
      if (rank.id() == 0) {
        eng.perform(rank, [&] { ready = true; });
      } else {
        eng.wait(rank, "ready", [&]() -> std::optional<double> {
          return ready ? std::optional<double>(4.0) : std::nullopt;
        });
      }
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return eng.metrics_report().csv_rows();
  };
  const auto heap = run_one(SchedulerKind::kIndexedHeap);
  const auto linear = run_one(SchedulerKind::kLinearScan);
  EXPECT_FALSE(heap.empty());
  EXPECT_EQ(heap, linear);
}

TEST(EngineMetrics, FiberStackHighWaterMarksAreMeasured) {
  EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 4, o);
  ASSERT_TRUE(eng.run([](Rank& rank) {
    // Burn some stack so the high-water-mark is visibly above zero.
    volatile char sink[2048];
    for (std::size_t i = 0; i < sizeof(sink); ++i) sink[i] = 'x';
    rank.advance(static_cast<double>(sink[0]));
  }).ok());
  const MetricsReport rep = eng.metrics_report();
  ASSERT_EQ(rep.stack_hwm_bytes.size(), 4u);
  EXPECT_GT(rep.stack_usable_bytes, 0u);
  for (std::size_t hwm : rep.stack_hwm_bytes) {
    EXPECT_GT(hwm, 2048u);
    EXPECT_LE(hwm, rep.stack_usable_bytes);
  }
  // The stack section exports through stack_csv_rows, not csv_rows — the
  // latter must hold virtual-time facts only.
  EXPECT_FALSE(rep.stack_csv_rows().empty());
  for (const auto& row : rep.csv_rows()) EXPECT_NE(row[0], "stack");
}

TEST(EngineMetrics, ProcessWideDefaultIsHonored) {
  ASSERT_FALSE(default_metrics()) << "tests assume metrics default off";
  set_default_metrics(true);
  EXPECT_TRUE(EngineOptions{}.metrics);
  set_default_metrics(false);
  EXPECT_FALSE(EngineOptions{}.metrics);
}

// ---------------------------------------------------------------------------
// StackPool — pooled fiber stacks (DESIGN.md §12)
// ---------------------------------------------------------------------------

namespace {

// Deliberately odd slot size so these tests get their own pool size class,
// undisturbed by other tests (and the pool default) using standard sizes.
constexpr std::size_t kOddStackBytes = 9 * 4096;

__attribute__((noinline)) std::size_t burn_stack(int depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  pad[sizeof(pad) - 1] = 1;
  if (depth <= 0) return static_cast<std::size_t>(pad[0]);
  return burn_stack(depth - 1) + static_cast<std::size_t>(pad[sizeof(pad) - 1]);
}

}  // namespace

TEST(EngineStackPool, SlotsAreRecycledAcrossEngineLifetimes) {
  EngineOptions o;
  o.stack_pool = true;
  o.fiber_stack_bytes = kOddStackBytes;
  const StackPoolStats before = stack_pool_stats();
  {
    Engine eng(plat(), 8, o);
    ASSERT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
  }  // ~Engine releases every slot back to the freelist
  const StackPoolStats mid = stack_pool_stats();
  EXPECT_GT(mid.total_slots, before.total_slots);  // first engine carved
  EXPECT_GE(mid.free_slots, before.free_slots + 8);
  {
    Engine eng(plat(), 8, o);
    ASSERT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
    // The second engine reuses the released slots: nothing new is carved.
    EXPECT_EQ(stack_pool_stats().total_slots, mid.total_slots);
    EXPECT_EQ(stack_pool_stats().free_slots, mid.free_slots - 8);
  }
  EXPECT_EQ(stack_pool_stats().free_slots, mid.free_slots);
}

TEST(EngineStackPool, ReusedSlotsRepoisonSoHwmIsPerTenant) {
  // Engine A burns deep frames, dies, and its slots go back to the pool
  // dirty. Engine B reuses them with a shallow body: poison_stack() must
  // overwrite A's scribbles or B's high-water marks report A's depth.
  EngineOptions o;
  o.stack_pool = true;
  o.fiber_stack_bytes = kOddStackBytes;
  o.metrics = true;
  auto peak_hwm = [](const Engine& eng) {
    std::size_t peak = 0;
    for (std::size_t h : eng.metrics_report().stack_hwm_bytes) {
      peak = std::max(peak, h);
    }
    return peak;
  };
  std::size_t deep = 0;
  {
    Engine eng(plat(), 4, o);
    ASSERT_TRUE(eng.run([](Rank& rank) {
      rank.advance(static_cast<double>(burn_stack(16)) * 0 + 1.0);
    }).ok());
    deep = peak_hwm(eng);
    EXPECT_GE(deep, 16u * 1024u);  // 16 frames x 1 KiB pad each
    EXPECT_LE(deep, kOddStackBytes);
  }
  {
    Engine eng(plat(), 4, o);
    ASSERT_TRUE(eng.run([](Rank& rank) { rank.advance(1.0); }).ok());
    const std::size_t shallow = peak_hwm(eng);
    EXPECT_GT(shallow, 0u);
    EXPECT_LT(shallow, deep / 2);
  }
}

TEST(EngineStackPool, PooledAndUnpooledRunsAreBitIdentical) {
  // Stack placement is invisible to the simulation: same clocks either way.
  auto run_once = [&](bool pooled) {
    EngineOptions o;
      o.stack_pool = pooled;
    o.fiber_stack_bytes = kOddStackBytes;
    Engine eng(plat(), 12, o);
    std::vector<bool> flags(12, false);
    const RunResult r = eng.run([&](Rank& rank) {
      const int id = rank.id();
      rank.advance(0.25 * (id % 5 + 1));
      eng.perform(rank, [&] { flags[static_cast<std::size_t>(id)] = true; });
      const int prev = (id + 11) % 12;
      eng.wait(rank, "peer", [&]() -> std::optional<double> {
        if (!flags[static_cast<std::size_t>(prev)]) return std::nullopt;
        return rank.now();
      });
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return r;
  };
  const RunResult a = run_once(true);
  const RunResult b = run_once(false);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  ASSERT_EQ(a.rank_end_us.size(), b.rank_end_us.size());
  for (std::size_t i = 0; i < a.rank_end_us.size(); ++i) {
    EXPECT_EQ(a.rank_end_us[i], b.rank_end_us[i]) << i;
  }
}

TEST(EngineStackPool, ProcessWideDefaultIsHonored) {
  ASSERT_TRUE(default_stack_pool()) << "pooled stacks should default on";
  EXPECT_TRUE(EngineOptions{}.stack_pool);
  set_default_stack_pool(false);
  EXPECT_FALSE(EngineOptions{}.stack_pool);
  set_default_stack_pool(true);
  EXPECT_TRUE(EngineOptions{}.stack_pool);
}

}  // namespace
}  // namespace mrl::runtime
