// minimpi semantics: matching, FIFO, timing, windows, atomics, collectives.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/win.hpp"
#include "simnet/platform.hpp"

namespace mrl::mpi {
namespace {

using runtime::Engine;

simnet::Platform plat() { return simnet::Platform::perlmutter_cpu(); }

TEST(P2P, SendRecvDeliversPayload) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<double> buf(16);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 1.0);
      c.send(buf.data(), buf.size() * sizeof(double), 1, 7);
    } else {
      const RecvInfo info =
          c.recv(buf.data(), buf.size() * sizeof(double), 0, 7);
      EXPECT_EQ(info.src, 0);
      EXPECT_EQ(info.tag, 7);
      EXPECT_EQ(info.bytes, 16 * sizeof(double));
      for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(buf[i], i + 1.0);
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
}

TEST(P2P, SingleSmallMessageLatencyMatchesCalibration) {
  // Perlmutter CPU two-sided: recv completes at
  // o_send + hop(0.25) + ser(~0) + L(2.7) + o_recv = ~3.55 us.
  Engine eng(plat(), 2);
  double recv_done = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    double x = 42.0;
    if (c.rank() == 0) {
      c.send(&x, sizeof(x), 1, 0);
    } else {
      c.recv(&x, sizeof(x), 0, 0);
      recv_done = c.now();
    }
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(recv_done, 3.55, 0.1);
}

TEST(P2P, AnySourceMatchesEarliestArrival) {
  Engine eng(plat(), 3);
  const auto r = World::run(eng, [](Comm& c) {
    int v = c.rank();
    if (c.rank() == 1 || c.rank() == 2) {
      if (c.rank() == 2) c.compute(100.0);  // rank 2 sends much later
      c.send(&v, sizeof(v), 0, 0);
    } else {
      int got = -1;
      const RecvInfo a = c.recv(&got, sizeof(got), kAnySource, kAnyTag);
      EXPECT_EQ(a.src, 1);  // rank 1's message arrives first
      EXPECT_EQ(got, 1);
      const RecvInfo b = c.recv(&got, sizeof(got), kAnySource, kAnyTag);
      EXPECT_EQ(b.src, 2);
      EXPECT_EQ(got, 2);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, TagSelectivity) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      int a = 10, b = 20;
      c.send(&a, sizeof(a), 1, /*tag=*/5);
      c.send(&b, sizeof(b), 1, /*tag=*/6);
    } else {
      int got = 0;
      c.recv(&got, sizeof(got), 0, 6);  // tag 6 first despite arriving second
      EXPECT_EQ(got, 20);
      c.recv(&got, sizeof(got), 0, 5);
      EXPECT_EQ(got, 10);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, FifoPerPairEvenWithMixedSizes) {
  // A big message followed by a tiny one from the same sender must not be
  // overtaken (FIFO clamping).
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> big(4 << 20);
      int tiny = 99;
      c.send(big.data(), big.size(), 1, 0);
      c.send(&tiny, sizeof(tiny), 1, 0);
    } else {
      std::vector<std::byte> big(4 << 20);
      int tiny = 0;
      const RecvInfo first = c.recv(big.data(), big.size(), 0, 0);
      const RecvInfo second = c.recv(&tiny, sizeof(tiny), 0, 0);
      EXPECT_EQ(first.bytes, big.size());
      EXPECT_EQ(tiny, 99);
      EXPECT_GE(second.arrival_us, first.arrival_us);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, WaitallCompletesAllRequests) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    constexpr int kN = 8;
    std::vector<int> vals(kN);
    std::vector<Request> reqs;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        vals[i] = i * i;
        reqs.push_back(c.isend(&vals[i], sizeof(int), 1, i));
      }
      c.waitall(reqs);
    } else {
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(c.irecv(&vals[i], sizeof(int), 0, i));
      }
      c.waitall(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(vals[i], i * i);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 1) {
      int x;
      c.recv(&x, sizeof(x), 0, 0);  // nobody sends
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kDeadlock);
}

TEST(Collective, BarrierSynchronizesClocks) {
  Engine eng(plat(), 4);
  std::vector<double> after(4);
  const auto r = World::run(eng, [&](Comm& c) {
    c.compute(c.rank() * 10.0);
    c.barrier();
    after[static_cast<std::size_t>(c.rank())] = c.now();
  });
  ASSERT_TRUE(r.ok());
  for (int i = 1; i < 4; ++i) EXPECT_DOUBLE_EQ(after[0], after[i]);
  EXPECT_GT(after[0], 30.0);  // at least the slowest entrant
}

TEST(Collective, AllreduceValues) {
  Engine eng(plat(), 8);
  const auto r = World::run(eng, [](Comm& c) {
    const double s = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(s, 36.0);  // 1+..+8
    const double m = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(m, 7.0);
  });
  ASSERT_TRUE(r.ok());
}

TEST(Collective, BcastDistributesPayload) {
  Engine eng(plat(), 4);
  const auto r = World::run(eng, [](Comm& c) {
    std::array<int, 4> data{};
    if (c.rank() == 2) data = {1, 2, 3, 4};
    c.bcast(data.data(), sizeof(data), /*root=*/2);
    EXPECT_EQ(data, (std::array<int, 4>{1, 2, 3, 4}));
  });
  ASSERT_TRUE(r.ok());
}

TEST(Collective, RepeatedCollectivesKeepWorking) {
  Engine eng(plat(), 4);
  const auto r = World::run(eng, [](Comm& c) {
    for (int i = 0; i < 10; ++i) {
      const double s = c.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, 4.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, PutVisibleAfterFence) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<double> window(8, 0.0);
    WinHandle win = c.create_win(window.data(), window.size() * sizeof(double));
    double payload = 3.25;
    if (c.rank() == 0) {
      win.put(&payload, sizeof(payload), 1, 2 * sizeof(double));
    }
    win.fence();
    if (c.rank() == 1) {
      EXPECT_DOUBLE_EQ(window[2], 3.25);
      EXPECT_DOUBLE_EQ(window[0], 0.0);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, PutNotVisibleBeforeSync) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(2, 0);
    WinHandle win =
        c.create_win(window.data(), window.size() * sizeof(std::uint64_t));
    if (c.rank() == 0) {
      std::uint64_t one = 1;
      win.put(&one, sizeof(one), 1, 0);
      win.flush(1);
      // Tell rank 1 (two-sided) that the put has fully completed.
      int go = 1;
      c.send(&go, sizeof(go), 1, 0);
    } else {
      // Window memory must stay stale until we sync, even though the put
      // has remotely completed (separate-memory RMA model).
      int go = 0;
      c.recv(&go, sizeof(go), 0, 0);
      EXPECT_EQ(window[0], 0u);
      win.sync();
      EXPECT_EQ(window[0], 1u);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, FlushAdvancesClockToRemoteCompletion) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::byte> window(1 << 20);
    WinHandle win = c.create_win(window.data(), window.size());
    if (c.rank() == 0) {
      std::vector<std::byte> buf(1 << 20);
      const double t0 = c.now();
      win.put(buf.data(), buf.size(), 1, 0);
      const double after_put = c.now();
      win.flush(1);
      const double after_flush = c.now();
      // The nonblocking put costs ~o; the flush must absorb latency + 1 MiB
      // serialization (~32.8 us at 32 GB/s).
      EXPECT_LT(after_put - t0, 1.0);
      EXPECT_GT(after_flush - t0, 30.0);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, WaitAnyUnappliedWakesOnArrival) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(4, 0);
    WinHandle win =
        c.create_win(window.data(), window.size() * sizeof(std::uint64_t));
    if (c.rank() == 0) {
      c.compute(25.0);  // delay so receiver genuinely blocks
      std::uint64_t v = 7;
      win.put(&v, sizeof(v), 1, 3 * sizeof(std::uint64_t));
    } else {
      win.wait_any_unapplied();
      EXPECT_EQ(window[3], 7u);
      EXPECT_GT(c.now(), 25.0);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, CompareAndSwapSemantics) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(1, 5);
    WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(win.compare_and_swap(4, 9, 1, 0), 5u);  // mismatch: no swap
      EXPECT_EQ(win.compare_and_swap(5, 9, 1, 0), 5u);  // match: swaps
      EXPECT_EQ(win.compare_and_swap(9, 1, 1, 0), 9u);
    }
    c.barrier();
    if (c.rank() == 1) EXPECT_EQ(window[0], 1u);
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, FetchAddAccumulatesAcrossRanks) {
  Engine eng(plat(), 8);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(1, 0);
    WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
    c.barrier();
    if (c.rank() != 0) {
      win.fetch_add(static_cast<std::uint64_t>(c.rank()), 0, 0);
    }
    c.barrier();
    if (c.rank() == 0) EXPECT_EQ(window[0], 28u);  // 1+..+7
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, CasCostMatchesPaperCalibration) {
  // Perlmutter CPU one-sided CAS: ~2 us ("one CAS in 2 us", Sec III-C).
  Engine eng(plat(), 2);
  double per_op = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    std::vector<std::uint64_t> window(1, 0);
    WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
    c.barrier();
    if (c.rank() == 0) {
      constexpr int kReps = 32;
      const double t0 = c.now();
      for (int i = 0; i < kReps; ++i) {
        win.fetch_add(1, 1, 0);
      }
      per_op = (c.now() - t0) / kReps;
    }
    c.barrier();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(per_op, 2.0, 0.4);
}

TEST(Rma, OneSidedUsesItsOwnLogGP) {
  // The 4-op one-sided pattern (put, flush, put, flush) on Perlmutter must
  // land near the paper's 5 us per message (Fig 6b).
  Engine eng(plat(), 2);
  double per_msg = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    std::vector<std::byte> window(4096);
    WinHandle win = c.create_win(window.data(), window.size());
    c.barrier();
    if (c.rank() == 0) {
      std::vector<std::byte> data(100 * 8);  // ~100 words, like SpTRSV
      std::uint64_t sig = 1;
      constexpr int kReps = 16;
      const double t0 = c.now();
      for (int i = 0; i < kReps; ++i) {
        win.put(data.data(), data.size(), 1, 0);
        win.flush(1);
        win.put(&sig, sizeof(sig), 1, 2048, simnet::OpKind::kSignal);
        win.flush(1);
      }
      per_msg = (c.now() - t0) / kReps;
    }
    c.barrier();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(per_msg, 5.0, 1.0);
}

TEST(P2P, ZeroByteMessages) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(nullptr, 0, 1, 3);
    } else {
      const RecvInfo info = c.recv(nullptr, 0, 0, 3);
      EXPECT_EQ(info.bytes, 0u);
      EXPECT_GT(info.arrival_us, 0.0);  // still pays latency
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, SelfSendMatchesOwnMailbox) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    if (c.rank() == 0) {
      int v = 77;
      Request req = c.isend(&v, sizeof(v), 0, 0);
      int got = 0;
      c.recv(&got, sizeof(got), 0, 0);
      EXPECT_EQ(got, 77);
      c.wait(req);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, ManyTagsMatchIndependently) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    constexpr int kN = 20;
    if (c.rank() == 0) {
      for (int t = 0; t < kN; ++t) {
        int v = 1000 + t;
        c.send(&v, sizeof(v), 1, t);
      }
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      for (int t = kN - 1; t >= 0; --t) {
        int got = 0;
        c.recv(&got, sizeof(got), 0, t);
        EXPECT_EQ(got, 1000 + t);
      }
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(P2P, ReceiveBufferTooSmallAborts) {
  Engine eng(plat(), 2);
  EXPECT_DEATH(
      {
        auto res = World::run(eng, [](Comm& c) {
          double big[8] = {};
          if (c.rank() == 0) c.send(big, sizeof(big), 1, 0);
          if (c.rank() == 1) {
            double small[2];
            c.recv(small, sizeof(small), 0, 0);
          }
        });
        (void)res;
      },
      "receive buffer too small");
}

TEST(Rma, GetReadsCommittedMemory) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<double> window(4, 0.0);
    if (c.rank() == 1) window[2] = 6.5;
    WinHandle win = c.create_win(window.data(), window.size() * sizeof(double));
    c.barrier();
    if (c.rank() == 0) {
      double got = 0;
      const double t0 = c.now();
      win.get(&got, sizeof(got), 1, 2 * sizeof(double));
      EXPECT_DOUBLE_EQ(got, 6.5);
      EXPECT_GT(c.now() - t0, 2.0);  // round trip costs latency
    }
    c.barrier();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, PutOutOfBoundsAborts) {
  Engine eng(plat(), 2);
  EXPECT_DEATH(
      {
        auto res = World::run(eng, [](Comm& c) {
          std::vector<std::byte> window(16);
          WinHandle win = c.create_win(window.data(), window.size());
          if (c.rank() == 0) {
            double v = 1;
            win.put(&v, sizeof(v), 1, 12);  // 12 + 8 > 16
          }
          c.barrier();
        });
        (void)res;
      },
      "out of window bounds");
}

TEST(Rma, MultipleWindowsAreIndependent) {
  Engine eng(plat(), 2);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> wa(2, 0), wb(2, 0);
    WinHandle a = c.create_win(wa.data(), wa.size() * 8);
    WinHandle b = c.create_win(wb.data(), wb.size() * 8);
    if (c.rank() == 0) {
      std::uint64_t va = 11, vb = 22;
      a.put(&va, 8, 1, 0);
      b.put(&vb, 8, 1, 8);
    }
    a.fence();
    b.fence();
    if (c.rank() == 1) {
      EXPECT_EQ(wa[0], 11u);
      EXPECT_EQ(wb[1], 22u);
      EXPECT_EQ(wa[1], 0u);
      EXPECT_EQ(wb[0], 0u);
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, SignalAfterDataFifoOrdering) {
  // A signal put issued after a data put must never be applied first, even
  // without an intermediate flush (FIFO network path). This pins a
  // simulator guarantee that is deliberately stronger than the MPI
  // standard's, so the RMA checker — which enforces the portable rule
  // (flush before signaling) — must stay off here.
  runtime::EngineOptions opt;
  opt.check = false;
  Engine eng(plat(), 2, opt);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(3, 0);  // [data0, data1, signal]
    WinHandle win = c.create_win(window.data(), window.size() * 8);
    if (c.rank() == 0) {
      const std::uint64_t data[2] = {5, 6};
      const std::uint64_t sig = 1;
      win.put(data, 16, 1, 0);
      win.put(&sig, 8, 1, 16, simnet::OpKind::kSignal);
    } else {
      win.wait_any_unapplied();
      while (window[2] != 1) win.wait_any_unapplied();
      EXPECT_EQ(window[0], 5u);
      EXPECT_EQ(window[1], 6u);
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok());
}

TEST(Rma, FenceAppliesWithoutExplicitSync) {
  Engine eng(plat(), 4);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(4, 0);
    WinHandle win = c.create_win(window.data(), window.size() * 8);
    // All-to-one: everyone puts its rank id into slot [rank] of rank 0.
    win.fence();
    if (c.rank() != 0) {
      const std::uint64_t v = static_cast<std::uint64_t>(c.rank()) + 100;
      win.put(&v, 8, 0, static_cast<std::uint64_t>(c.rank()) * 8);
    }
    win.fence();
    if (c.rank() == 0) {
      for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(window[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i) + 100);
      }
    }
  });
  ASSERT_TRUE(r.ok());
}

TEST(MultiNode, InterNodeTrafficIsNicBound) {
  // Two Perlmutter nodes: the inter-node path crosses PCIe4 (25 GB/s) and
  // the switch, so the pair peak drops from 32 (IF) to 25 GB/s and latency
  // grows by the extra hops.
  const simnet::Platform p2 = simnet::Platform::perlmutter_cpu(2);
  const int n = p2.max_ranks();
  EXPECT_DOUBLE_EQ(p2.pair_peak_gbs(0, n - 1, n), 25.0);
  EXPECT_GT(p2.hw_rtt_us(0, n - 1, n), p2.hw_rtt_us(0, 1, n));

  Engine eng(p2, n);
  double cross = 0, local = 0;
  const auto r = World::run(eng, [&](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.send(&x, 8, c.size() - 1, 0);  // other node
      c.send(&x, 8, 1, 1);             // same socket
    }
    if (c.rank() == c.size() - 1) {
      const RecvInfo i = c.recv(&x, 8, 0, 0);
      cross = i.arrival_us;
    }
    if (c.rank() == 1) {
      const RecvInfo i = c.recv(&x, 8, 0, 1);
      local = i.arrival_us;
    }
  });
  ASSERT_TRUE(r.ok());
  EXPECT_GT(cross, local);
}

// ---------------------------------------------------------------------------
// Metrics (DESIGN.md §9): op counters mirror what the comm layer issued
// ---------------------------------------------------------------------------

TEST(Metrics, SendRecvCountersAndBytes) {
  runtime::EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 2, o);
  const auto r = World::run(eng, [](Comm& c) {
    double buf[8] = {};
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) c.send(buf, sizeof(buf), 1, i);
    } else {
      for (int i = 0; i < 3; ++i) c.recv(buf, sizeof(buf), 0, i);
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  ASSERT_EQ(rep.ranks.size(), 2u);
  EXPECT_EQ(rep.ranks[0].ops.sends, 3u);
  EXPECT_EQ(rep.ranks[0].ops.bytes_sent, 3u * sizeof(double[8]));
  EXPECT_EQ(rep.ranks[0].ops.recvs, 0u);
  EXPECT_EQ(rep.ranks[1].ops.recvs, 3u);
  EXPECT_EQ(rep.ranks[1].ops.bytes_recv, 3u * sizeof(double[8]));
  EXPECT_EQ(rep.ranks[1].ops.sends, 0u);
  // 3 messages of 64 B => 3 entries in the size histogram's [64, 128) bucket.
  EXPECT_EQ(rep.totals().msg_bytes.bucket_count(6), 3u);
}

TEST(Metrics, RmaCountersSeparatePutsGetsAtomics) {
  runtime::EngineOptions o;
  o.metrics = true;
  o.trace = true;
  Engine eng(plat(), 2, o);
  const auto r = World::run(eng, [](Comm& c) {
    std::vector<std::uint64_t> window(2, 5);
    WinHandle win = c.create_win(window.data(), 2 * sizeof(std::uint64_t));
    win.fence();
    std::uint64_t v = 7;
    if (c.rank() == 0) win.put(&v, sizeof(v), 1, 0);
    win.fence();
    if (c.rank() == 0) {
      win.get(&v, sizeof(v), 1, 0);
      EXPECT_EQ(win.compare_and_swap(4, 9, 1, 8), 5u);  // mismatch: fails
      EXPECT_EQ(win.compare_and_swap(5, 9, 1, 8), 5u);  // match: wins
      win.fetch_add(1, 1, 8);                           // not a CAS
    }
    win.fence();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  const runtime::OpCounters& c0 = rep.ranks[0].ops;
  EXPECT_EQ(c0.puts, 1u);
  EXPECT_EQ(c0.gets, 1u);
  EXPECT_EQ(c0.atomics, 3u);
  EXPECT_EQ(c0.cas_failures, 1u);  // only the mismatching CAS
  EXPECT_EQ(rep.ranks[1].ops.puts, 0u);
  // Target rank observed the applied put as a delivery.
  EXPECT_EQ(rep.ranks[1].ops.recvs, 1u);
  EXPECT_EQ(rep.ranks[1].ops.bytes_recv, sizeof(std::uint64_t));
  // Every fabric-visible op has exactly one trace record (MPI layer).
  EXPECT_EQ(rep.totals().ops.fabric_ops(), eng.trace().records().size());
}

TEST(Metrics, CollectivesAndSyncsCounted) {
  runtime::EngineOptions o;
  o.metrics = true;
  Engine eng(plat(), 4, o);
  const auto r = World::run(eng, [](Comm& c) {
    c.barrier();
    (void)c.allreduce_sum(1.0);
    c.barrier();
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  const runtime::MetricsReport rep = eng.metrics_report();
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(rank)].ops.collectives, 3u)
        << rank;
    // Each collective closes one synchronization epoch on every rank.
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(rank)].ops.syncs, 3u) << rank;
  }
}

TEST(P2P, GatedRecvBitIdenticalToLinearScanOracleUnderTagChurn) {
  // The heap scheduler parks a blocked receiver behind a WaitGate on the
  // sender's push counter and re-parks it when a push doesn't satisfy the
  // match (wrong tag, or an ANY_SOURCE race); the linear scheduler ignores
  // gates and brute-force re-evaluates every condition after every perform.
  // The two must produce bit-identical clocks and traces.
  //
  // The body manufactures every re-park hazard: receivers post for a tag
  // that arrives SECOND (the first push wakes the gate, the match fails,
  // the waiter re-parks), then drain with ANY_SOURCE + ANY_TAG receives
  // whose gate is the inbox counter shared by several senders.
  const int n = 6;
  const int half = n / 2;
  auto run_config = [&](runtime::SchedulerKind sched) {
    runtime::EngineOptions o;
    o.scheduler = sched;
    o.trace = true;
    Engine eng(plat(), n, o);
    const auto r = World::run(eng, [&](Comm& c) {
      double payload = 100.0 * c.rank();
      if (c.rank() >= half) {
        const int dst = c.rank() - half;
        // Mismatched tag first; the receiver's posted recv must skip it.
        c.send(&payload, sizeof(payload), dst, /*tag=*/9);
        c.compute(0.7 * (c.rank() % 3 + 1));
        c.send(&payload, sizeof(payload), dst, /*tag=*/5);
        c.compute(0.3);
        c.send(&payload, sizeof(payload), dst, /*tag=*/9);
      } else {
        double buf = 0;
        // Blocks before anything arrives, wakes on the tag-9 push, fails
        // the match, and re-parks until the tag-5 push.
        const RecvInfo first =
            c.recv(&buf, sizeof(buf), c.rank() + half, /*tag=*/5);
        EXPECT_EQ(first.tag, 5);
        // Drain the two tag-9 messages via the ANY_SOURCE inbox gate.
        for (int k = 0; k < 2; ++k) {
          const RecvInfo any =
              c.recv(&buf, sizeof(buf), kAnySource, kAnyTag);
          EXPECT_EQ(any.tag, 9);
        }
      }
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return std::make_pair(r, eng.trace().records());
  };

  const auto [r0, t0] = run_config(runtime::SchedulerKind::kIndexedHeap);
  const auto [r, t] = run_config(runtime::SchedulerKind::kLinearScan);
  EXPECT_EQ(r.makespan_us, r0.makespan_us);
  ASSERT_EQ(r.rank_end_us.size(), r0.rank_end_us.size());
  for (std::size_t k = 0; k < r0.rank_end_us.size(); ++k) {
    EXPECT_EQ(r.rank_end_us[k], r0.rank_end_us[k]) << "rank " << k;
  }
  ASSERT_EQ(t.size(), t0.size());
  for (std::size_t k = 0; k < t0.size(); ++k) {
    EXPECT_EQ(t[k].src_rank, t0[k].src_rank) << k;
    EXPECT_EQ(t[k].dst_rank, t0[k].dst_rank) << k;
    EXPECT_EQ(t[k].t_issue, t0[k].t_issue) << k;
    EXPECT_EQ(t[k].t_arrival, t0[k].t_arrival) << k;
  }
}

TEST(Metrics, DisabledMetricsLeaveTraceUntouched) {
  // Byte-identity guard at the unit level: the trace from a metrics-enabled
  // run must equal the trace from a metrics-disabled run record for record.
  auto run_trace = [](bool metrics) {
    runtime::EngineOptions o;
    o.metrics = metrics;
    o.trace = true;
    Engine eng(plat(), 2, o);
    const auto r = World::run(eng, [](Comm& c) {
      std::vector<std::uint64_t> window(1, 0);
      WinHandle win = c.create_win(window.data(), sizeof(std::uint64_t));
      win.fence();
      std::uint64_t v = 3;
      if (c.rank() == 0) win.put(&v, sizeof(v), 1, 0);
      win.fence();
    });
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    return eng.trace().records();
  };
  const auto off = run_trace(false);
  const auto on = run_trace(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].t_issue, on[i].t_issue) << i;
    EXPECT_EQ(off[i].t_arrival, on[i].t_arrival) << i;
    EXPECT_EQ(off[i].bytes, on[i].bytes) << i;
  }
}

}  // namespace
}  // namespace mrl::mpi
