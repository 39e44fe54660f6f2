// Embedding-lookup workload: sharding arithmetic, the deterministic Zipf
// query stream (golden values), software combining, end-to-end payload
// verification on both APIs, scheduler bit-identity, and clean
// --check runs.
#include <gtest/gtest.h>

#include <vector>

#include "check/checker.hpp"
#include "runtime/engine.hpp"
#include "simnet/platform.hpp"
#include "workloads/embedding/embedding.hpp"

namespace mrl::workloads::embedding {
namespace {

// ---------------------------------------------------------------------------
// Sharding arithmetic
// ---------------------------------------------------------------------------

TEST(EmbeddingShard, HybridGridFactorizes) {
  for (int n : {1, 2, 3, 4, 6, 7, 8, 12, 16, 64, 100}) {
    const Grid g = hybrid_grid(n);
    EXPECT_EQ(g.pr * g.pc, n) << n;
    EXPECT_LE(g.pr, g.pc) << n;  // pr = largest divisor <= sqrt(n)
  }
  EXPECT_EQ(hybrid_grid(16).pr, 4);
  EXPECT_EQ(hybrid_grid(16).pc, 4);
  EXPECT_EQ(hybrid_grid(8).pr, 2);
  EXPECT_EQ(hybrid_grid(8).pc, 4);
  EXPECT_EQ(hybrid_grid(7).pr, 1);  // prime degenerates to column-major
  EXPECT_EQ(hybrid_grid(7).pc, 7);
}

// Every (row, col) of the table must live on exactly one rank, at exactly
// one local element — including awkward shapes where rows % P != 0 and
// dim % Pc != 0.
void expect_exact_cover(ShardPolicy policy, int nranks, std::uint64_t rows,
                        std::uint64_t dim) {
  std::vector<int> covered(rows * dim, 0);
  for (int pe = 0; pe < nranks; ++pe) {
    const std::uint64_t elems = local_elems(policy, pe, nranks, rows, dim);
    for (std::uint64_t e = 0; e < elems; ++e) {
      const RowCol rc = elem_to_rowcol(policy, pe, nranks, rows, dim, e);
      ASSERT_LT(rc.row, rows);
      ASSERT_LT(rc.col, dim);
      ++covered[rc.row * dim + rc.col];
    }
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    ASSERT_EQ(covered[i], 1) << to_string(policy) << " elem " << i;
  }
}

TEST(EmbeddingShard, AllPoliciesCoverTheTableExactlyOnce) {
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    expect_exact_cover(p, 5, 37, 13);  // nothing divides anything
    expect_exact_cover(p, 4, 64, 8);   // everything divides everything
    expect_exact_cover(p, 6, 10, 4);   // fewer columns than grid columns
  }
}

TEST(EmbeddingShard, LocalElemsSumToTable) {
  const std::uint64_t rows = 37, dim = 13;
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    std::uint64_t total = 0;
    for (int pe = 0; pe < 5; ++pe) total += local_elems(p, pe, 5, rows, dim);
    EXPECT_EQ(total, rows * dim) << to_string(p);
  }
}

TEST(EmbeddingShard, TableValueIsMantissaExact) {
  // 20-bit payloads round-trip float storage exactly — the runners compare
  // fetched bytes with == and no tolerance.
  for (std::uint64_t r : {0ull, 1ull, 12345ull}) {
    for (std::uint64_t c : {0ull, 7ull, 63ull}) {
      const float v = table_value(r, c);
      EXPECT_GE(v, 0.0f);
      EXPECT_LT(v, 1.0f);
      EXPECT_EQ(v, table_value(r, c));
    }
  }
  EXPECT_NE(table_value(3, 4), table_value(4, 3));
}

// ---------------------------------------------------------------------------
// Zipf query stream
// ---------------------------------------------------------------------------

TEST(EmbeddingZipf, GoldenValues) {
  // Pinned against the initial implementation: any change to the CDF or the
  // (seed, query) keying silently reshuffles every bench number, so it must
  // show up here first.
  const ZipfGen z(1024, 0.99);
  EXPECT_DOUBLE_EQ(z.cdf(0), 0.12895976572899961);
  EXPECT_DOUBLE_EQ(z.cdf(9), 0.38121893279891139);
  EXPECT_DOUBLE_EQ(z.cdf(1023), 1.0);
  EXPECT_EQ(z.sample(0.0), 0u);
  EXPECT_EQ(z.sample(0.25), 3u);
  EXPECT_EQ(z.sample(0.5), 25u);
  EXPECT_EQ(z.sample(0.9), 495u);
  EXPECT_EQ(z.sample(0.9999), 1023u);

  std::vector<std::uint64_t> rows;
  query_rows(z, 1234, 0, 6, rows);
  EXPECT_EQ(rows, (std::vector<std::uint64_t>{4, 0, 41, 70, 10, 4}));
  query_rows(z, 1234, 7, 6, rows);
  EXPECT_EQ(rows, (std::vector<std::uint64_t>{4, 1, 298, 48, 778, 501}));
}

TEST(EmbeddingZipf, ZeroSkewIsUniform) {
  const ZipfGen z(8, 0.0);
  EXPECT_DOUBLE_EQ(z.cdf(3), 0.5);
  EXPECT_EQ(z.sample(0.374), 2u);
}

TEST(EmbeddingZipf, CdfIsMonotoneAndSamplingInverts) {
  const ZipfGen z(100, 1.2);
  for (std::uint64_t i = 1; i < 100; ++i) {
    EXPECT_GT(z.cdf(i), z.cdf(i - 1));
  }
  // sample(u) returns the first index whose CDF exceeds u.
  for (std::uint64_t i = 0; i < 100; i += 7) {
    EXPECT_EQ(z.sample(z.cdf(i)), i == 99 ? 99 : i + 1);
  }
}

TEST(EmbeddingZipf, StreamIsKeyedByQueryId) {
  const ZipfGen z(256, 0.9);
  std::vector<std::uint64_t> a, b;
  query_rows(z, 42, 5, 8, a);
  query_rows(z, 42, 5, 8, b);
  EXPECT_EQ(a, b);  // same key, same draws — regardless of caller order
  query_rows(z, 42, 6, 8, b);
  EXPECT_NE(a, b);
  query_rows(z, 43, 5, 8, b);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Software combining
// ---------------------------------------------------------------------------

TEST(EmbeddingSpans, RowPolicyFusesAdjacentLocalRows) {
  // P=4 row sharding: rows 2 and 6 are local rows 0 and 1 of rank 2 —
  // adjacent, so combining fuses them into one get of 2*dim elements.
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kRow, 4, 64, 8, {2, 6}, true, spans);
  EXPECT_EQ(naive, 2u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].owner, 2);
  EXPECT_EQ(spans[0].elem_off, 0u);
  EXPECT_EQ(spans[0].elems, 16u);
}

TEST(EmbeddingSpans, DuplicateRowsCollapse) {
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kRow, 4, 64, 8, {5, 5, 5}, true, spans);
  EXPECT_EQ(naive, 3u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].owner, 1);
  EXPECT_EQ(spans[0].elems, 8u);
}

TEST(EmbeddingSpans, CombineOffPreservesNaiveCount) {
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kRow, 4, 64, 8, {2, 6, 5, 5}, false, spans);
  EXPECT_EQ(naive, 4u);
  EXPECT_EQ(spans.size(), 4u);
}

TEST(EmbeddingSpans, ColumnPolicySplitsAcrossOwners) {
  // One row under column sharding fans out to every rank owning a non-empty
  // dim slice; distinct rows on the same owner do NOT merge (their local
  // offsets are dim/pc apart).
  std::vector<GetSpan> spans;
  const std::uint64_t naive =
      build_spans(ShardPolicy::kColumn, 4, 64, 8, {3}, true, spans);
  EXPECT_EQ(naive, 4u);
  ASSERT_EQ(spans.size(), 4u);
  for (int cp = 0; cp < 4; ++cp) {
    EXPECT_EQ(spans[cp].owner, cp);
    EXPECT_EQ(spans[cp].elem_off, 3u * 2u);
    EXPECT_EQ(spans[cp].elems, 2u);
  }
}

TEST(EmbeddingSpans, TotalElementsMatchRequestedRows) {
  // Combining changes message count, never byte count (dups aside).
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    std::vector<GetSpan> spans;
    build_spans(p, 6, 100, 10, {0, 7, 13, 99, 42}, true, spans);
    std::uint64_t total = 0;
    for (const GetSpan& s : spans) total += s.elems;
    EXPECT_EQ(total, 5u * 10u) << to_string(p);
  }
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------

Config small_cfg() {
  Config cfg;
  cfg.rows = 256;
  cfg.dim = 16;
  cfg.queries_per_rank = 4;
  cfg.lookups_per_query = 8;
  cfg.batch = 2;
  cfg.zipf_s = 0.9;
  return cfg;
}

class EmbeddingRun : public ::testing::TestWithParam<ShardPolicy> {};

TEST_P(EmbeddingRun, MpiServesVerifiedPayloads) {
  Config cfg = small_cfg();
  cfg.policy = GetParam();
  const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, cfg);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_TRUE(r.verify_ok);
  EXPECT_EQ(r.queries, 16u);
  EXPECT_GT(r.qps, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GT(r.gets, 0u);
  EXPECT_LE(r.gets, r.gets_naive);
}

TEST_P(EmbeddingRun, ShmemServesVerifiedPayloads) {
  Config cfg = small_cfg();
  cfg.policy = GetParam();
  const Result r = run_shmem(simnet::Platform::perlmutter_gpu(), 4, cfg);
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_TRUE(r.verify_ok);
  EXPECT_EQ(r.queries, 16u);
  EXPECT_LE(r.gets, r.gets_naive);
}

INSTANTIATE_TEST_SUITE_P(Policies, EmbeddingRun,
                         ::testing::Values(ShardPolicy::kRow,
                                           ShardPolicy::kColumn,
                                           ShardPolicy::kHybrid),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(EmbeddingValidate, OversizedShmemTableIsInvalidArgumentNotAbort) {
  Config cfg = small_cfg();
  EXPECT_TRUE(validate_shmem(4, cfg).is_ok());
  cfg.rows = 4000000;
  cfg.dim = 32;  // 4M x 32 floats over 4 PEs: 128 MB per PE > the 64 MiB heap
  EXPECT_EQ(validate_shmem(4, cfg).code(), ErrorCode::kInvalidArgument);
  const Result r = run_shmem(simnet::Platform::perlmutter_gpu(), 4, cfg);
  EXPECT_EQ(r.status.code(), ErrorCode::kInvalidArgument)
      << r.status.to_string();
}

TEST(EmbeddingRunAblations, CombiningReducesGetsNotBytes) {
  Config cfg = small_cfg();
  cfg.batch = 4;
  Config off = cfg;
  off.combine = false;
  const auto plat = simnet::Platform::perlmutter_cpu(1);
  const Result a = run_mpi(plat, 4, cfg);
  const Result b = run_mpi(plat, 4, off);
  ASSERT_TRUE(a.status.is_ok() && b.status.is_ok());
  EXPECT_LT(a.gets, b.gets);
  EXPECT_EQ(a.gets_naive, b.gets);  // combine off issues the naive count
  EXPECT_LE(a.bytes, b.bytes);      // dup rows fetched once vs repeatedly
  EXPECT_TRUE(a.verify_ok && b.verify_ok);
}

TEST(EmbeddingRunAblations, HotRowCacheCutsTraffic) {
  Config cfg = small_cfg();
  Config hot = cfg;
  hot.hot_rows = 32;  // Zipf head at s=0.9 concentrates here
  const auto plat = simnet::Platform::perlmutter_cpu(1);
  const Result a = run_mpi(plat, 4, cfg);
  const Result b = run_mpi(plat, 4, hot);
  ASSERT_TRUE(a.status.is_ok() && b.status.is_ok());
  EXPECT_EQ(a.cache_hits, 0u);
  EXPECT_GT(b.cache_hits, 0u);
  EXPECT_LT(b.bytes, a.bytes);
  EXPECT_TRUE(b.verify_ok);
}

// The same config must produce bit-identical Results under every scheduler —
// the workload's numbers are virtual-time facts.
TEST(EmbeddingDeterminism, ResultsAreSchedulerInvariant) {
  Config cfg = small_cfg();
  cfg.policy = ShardPolicy::kHybrid;
  const auto plat = simnet::Platform::perlmutter_cpu(1);

  const auto saved_sched = runtime::default_scheduler();
  std::vector<Result> rs;
  for (const auto sched : {runtime::SchedulerKind::kIndexedHeap,
                           runtime::SchedulerKind::kLinearScan}) {
    runtime::set_default_scheduler(sched);
    rs.push_back(run_mpi(plat, 4, cfg));
  }
  runtime::set_default_scheduler(saved_sched);

  for (const Result& r : rs) {
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.time_us, rs[0].time_us);
    EXPECT_EQ(r.qps, rs[0].qps);
    EXPECT_EQ(r.p50_us, rs[0].p50_us);
    EXPECT_EQ(r.p95_us, rs[0].p95_us);
    EXPECT_EQ(r.p99_us, rs[0].p99_us);
    EXPECT_EQ(r.gets, rs[0].gets);
    EXPECT_EQ(r.bytes, rs[0].bytes);
  }
}

// Both runners must be race-free under the checker in every configuration
// the bench sweeps — including the ablations, whose code paths differ.
TEST(EmbeddingCheck, RunnersAreCleanUnderTheChecker) {
  const bool saved = check::default_check();
  check::set_default_check(true);
  for (const ShardPolicy p :
       {ShardPolicy::kRow, ShardPolicy::kColumn, ShardPolicy::kHybrid}) {
    Config cfg = small_cfg();
    cfg.policy = p;
    const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, cfg);
    EXPECT_TRUE(r.status.is_ok()) << to_string(p) << ": "
                                  << r.status.to_string();
    const Result s = run_shmem(simnet::Platform::perlmutter_gpu(), 4, cfg);
    EXPECT_TRUE(s.status.is_ok()) << to_string(p) << ": "
                                  << s.status.to_string();
  }
  Config abl = small_cfg();
  abl.combine = false;
  abl.hot_rows = 32;
  const Result r = run_mpi(simnet::Platform::perlmutter_cpu(1), 4, abl);
  EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  check::set_default_check(saved);
}

}  // namespace
}  // namespace mrl::workloads::embedding
