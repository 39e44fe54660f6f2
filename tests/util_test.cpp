// util: stats, rng, units, table, csv, histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/arena.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/indexed_heap.hpp"
#include "util/pair_map.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace mrl {
namespace {

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status s(ErrorCode::kInvalidArgument, "bad");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad");
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status(ErrorCode::kNotFound, "missing"));
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(RunningStats, MeanVarMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesOrderStatistics) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(median(v), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 3.25);
}

TEST(LinearFitTest, RecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Geomean, Basic) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreIndependentlySeeded) {
  Xoshiro256 a = Xoshiro256::for_stream(1, 0);
  Xoshiro256 b = Xoshiro256::for_stream(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformBounds) {
  Xoshiro256 g(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(g.uniform(10), 10u);
    const double u = g.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = g.uniform_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(bytes_per_us_to_gbs(32000.0, 1.0), 32.0);
  EXPECT_DOUBLE_EQ(gbs_to_us_per_byte(32.0) * 32e9, 1e6);
  EXPECT_NEAR(us_per_byte_to_gbs(gbs_to_us_per_byte(25.0)), 25.0, 1e-12);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(24), "24 B");
  EXPECT_EQ(format_bytes(131072), "128 KiB");
  EXPECT_EQ(format_bytes(2u << 20), "2 MiB");
  EXPECT_EQ(format_time_us(3.3), "3.30 us");
  EXPECT_EQ(format_time_us(1234.0), "1.23 ms");
  EXPECT_EQ(format_gbs(32.0), "32.00 GB/s");
  EXPECT_EQ(format_count(1000000), "1M");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"a", "bb"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"longer", "2"});
  const std::string out = t.render("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| longer |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b,c"});
  EXPECT_EQ(os.str(), "a,\"b,c\"\n");
}

TEST(Csv, WriteToUnwritablePathSurfacesStatus) {
  const Status st = write_csv_file("/nonexistent-dir-for-msgroof/x.csv",
                                   {{"a", "b"}, {"1", "2"}});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_NE(st.message().find("x.csv"), std::string::npos) << st.message();
}

TEST(Csv, WriteToValidPathSucceeds) {
  const std::string path =
      std::filesystem::temp_directory_path() / "msgroof_csv_test.csv";
  const Status st = write_csv_file(path, {{"h1", "h2"}, {"1", "2,3"}});
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "h1,h2\n1,\"2,3\"\n");
  std::filesystem::remove(path);
}

TEST(Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(1);    // bucket 0
  h.add(3);    // bucket 1
  h.add(1024); // bucket 10
  h.add_n(1025, 2);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(10), 3u);
  EXPECT_EQ(h.min_bucket(), 0);
  EXPECT_EQ(h.max_bucket(), 10);
  EXPECT_NE(h.render("B").find("1024"), std::string::npos);
}

TEST(Histogram, BucketZeroLabelCoversZero) {
  // Bucket 0 absorbs everything in [0, 2) — including exact zeros — so its
  // label must not claim a lower edge of 1.
  EXPECT_EQ(Log2Histogram::bucket_label(0), "[0, 2)");
  EXPECT_EQ(Log2Histogram::bucket_label(1), "[2, 4)");
  EXPECT_EQ(Log2Histogram::bucket_label(10), "[1024, 2048)");
}

TEST(Histogram, ZeroValueLandsInBucketZero) {
  Log2Histogram h;
  h.add(0.0);
  h.add(0.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_NE(h.render().find("[0, 2)"), std::string::npos);
}

TEST(Histogram, RareBucketStillDrawsABar) {
  Log2Histogram h;
  h.add_n(1.0, 100000);
  h.add(1024.0);  // 1e-5 of the peak: proportional width rounds to 0
  const std::string out = h.render();
  std::istringstream is(out);
  std::string line;
  bool saw_rare = false;
  while (std::getline(is, line)) {
    if (line.find("[1024, 2048)") == std::string::npos) continue;
    saw_rare = true;
    EXPECT_NE(line.find('#'), std::string::npos)
        << "non-empty bucket rendered without a bar: " << line;
  }
  EXPECT_TRUE(saw_rare) << out;
}

TEST(Histogram, MergeAddsBucketwise) {
  Log2Histogram a, b;
  a.add_n(1.0, 3);
  a.add(100.0);
  b.add_n(1.0, 2);
  b.add(5000.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 7u);
  EXPECT_EQ(a.bucket_count(0), 5u);
  EXPECT_EQ(a.bucket_count(6), 1u);   // 100 in [64, 128)
  EXPECT_EQ(a.bucket_count(12), 1u);  // 5000 in [4096, 8192)
  Log2Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.total(), 7u);
}

TEST(Stats, EmptyAccumulatorReportsNaN) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  // NaN, not 0: an empty accumulator must be distinguishable from one that
  // observed genuine zeros.
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.stddev()));
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  RunningStats s;
  s.add(2.0);
  s.add(4.0);
  RunningStats empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Stats, PercentileRejectsNaNSample) {
  // Sorting a NaN-containing range is UB; the check must fire before sort.
  EXPECT_DEATH(
      percentile({1.0, std::numeric_limits<double>::quiet_NaN(), 3.0}, 50.0),
      "NaN");
}

TEST(Parse, I64AcceptsCanonicalIntegers) {
  EXPECT_EQ(parse_i64("42").value(), 42);
  EXPECT_EQ(parse_i64("-7").value(), -7);
  EXPECT_EQ(parse_i64("0").value(), 0);
}

TEST(Parse, I64RejectsGarbage) {
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("banana"));
  EXPECT_FALSE(parse_i64("12x"));   // atoi would return 12
  EXPECT_FALSE(parse_i64(" 42"));   // no leading whitespace
  EXPECT_FALSE(parse_i64("42 "));
  EXPECT_FALSE(parse_i64("4.2"));
  EXPECT_FALSE(parse_i64("0x10"));  // base 10 only
}

TEST(Parse, U64HandlesFullRangeAndBases) {
  EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_EQ(parse_u64("0x10", 0).value(), 16u);
}

TEST(Parse, F64RejectsNonFiniteAndTrailingJunk) {
  EXPECT_DOUBLE_EQ(parse_f64("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_f64("1e3").value(), 1000.0);
  EXPECT_FALSE(parse_f64("nan"));
  EXPECT_FALSE(parse_f64("inf"));
  EXPECT_FALSE(parse_f64("1.5x"));
  EXPECT_FALSE(parse_f64(""));
}

TEST(Parse, CliIntEnforcesMinimum) {
  EXPECT_EQ(parse_cli_int("8", 1, "rank count").value(), 8);
  EXPECT_FALSE(parse_cli_int("0", 1, "rank count"));
  EXPECT_FALSE(parse_cli_int("banana", 1, "rank count"));
  EXPECT_FALSE(parse_cli_int("4294967297", 1, "rank count"));  // not an int
}

/// Runs a FlagParser over `args` (argv[0] is "prog"); returns positionals.
std::vector<std::string> run_flags(const FlagParser& p,
                                   std::vector<std::string> args,
                                   bool positionals = false) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& a : args) argv.push_back(a.data());
  return p.parse(static_cast<int>(argv.size()), argv.data(), positionals);
}

TEST(FlagTable, ParsesBothSyntaxesBoundsWordsAndUnknownFlags) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  bool on = false;
  long long n = 0;
  std::string word;
  std::string path;
  FlagParser p("prog", "[flags] <cmd>");
  p.add({"--on", FlagKind::kNone, "", "a switch",
         [&](const FlagValue&) { on = true; }});
  p.add({"--n", FlagKind::kInt, "N", "bounded int",
         [&](const FlagValue& v) { n = v.num; }, 1, 8});
  p.add({"--mode", FlagKind::kWord, "fast|slow", "a word",
         [&](const FlagValue& v) { word = v.text; }});
  p.add({"--out", FlagKind::kPath, "PATH", "a path",
         [&](const FlagValue& v) { path = v.text; }});

  const auto rest = run_flags(
      p, {"cmd", "--on", "--n", "3", "x", "--mode=slow", "--out=o.csv"},
      /*positionals=*/true);
  EXPECT_EQ(rest, (std::vector<std::string>{"cmd", "x"}));
  EXPECT_TRUE(on);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(word, "slow");
  EXPECT_EQ(path, "o.csv");
  run_flags(p, {"--n=8", "--mode", "fast"});
  EXPECT_EQ(n, 8);
  EXPECT_EQ(word, "fast");

  EXPECT_EXIT(run_flags(p, {"--n"}), ::testing::ExitedWithCode(2),
              "--n requires a value");
  EXPECT_EXIT(run_flags(p, {"--out"}), ::testing::ExitedWithCode(2),
              "--out requires a path");
  EXPECT_EXIT(run_flags(p, {"--n", "0"}), ::testing::ExitedWithCode(2),
              "invalid --n value '0' \\(expected an integer N with 1 <= N "
              "<= 8\\)");
  EXPECT_EXIT(run_flags(p, {"--n=9"}), ::testing::ExitedWithCode(2),
              "invalid --n value '9'");
  EXPECT_EXIT(run_flags(p, {"--n", "99999999999999999999"}),
              ::testing::ExitedWithCode(2), "invalid --n value");
  EXPECT_EXIT(run_flags(p, {"--mode", "medium"}),
              ::testing::ExitedWithCode(2), "expected one of fast\\|slow");
  EXPECT_EXIT(run_flags(p, {"--mode=fast|slow"}), ::testing::ExitedWithCode(2),
              "invalid --mode value");
  EXPECT_EXIT(run_flags(p, {"--on=1"}), ::testing::ExitedWithCode(2),
              "--on takes no value");
  EXPECT_EXIT(run_flags(p, {"--frobnicate"}), ::testing::ExitedWithCode(2),
              "unrecognized argument '--frobnicate'");
  EXPECT_EXIT(run_flags(p, {"stray"}), ::testing::ExitedWithCode(2),
              "unrecognized argument 'stray'");
  // The usage printed on failure is built from the rows.
  EXPECT_EXIT(run_flags(p, {"--frobnicate"}), ::testing::ExitedWithCode(2),
              "usage: prog \\[flags\\] <cmd>\n  --on +a switch");
}

TEST(FlagTable, RangeSeedAndRealKinds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  long long lo = -1;
  long long hi = -1;
  std::uint64_t seed = 0;
  double x = 0;
  FlagParser p("prog", "[flags]");
  p.add({"--ranks", FlagKind::kRange, "A-B", "a range",
         [&](const FlagValue& v) {
           lo = v.num;
           hi = v.num_hi;
         },
         0, 100});
  p.add({"--seed", FlagKind::kU64, "S", "a seed",
         [&](const FlagValue& v) { seed = v.u64; }});
  p.add({"--x", FlagKind::kF64, "X", "a real",
         [&](const FlagValue& v) { x = v.real; }});
  run_flags(p, {"--ranks", "2-7", "--seed=0x10", "--x", "2.5"});
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 7);
  EXPECT_EQ(seed, 16u);
  EXPECT_DOUBLE_EQ(x, 2.5);
  for (const char* bad : {"7-2", "7", "-1-3", "0-101", "0-4294967296", "a-b"}) {
    EXPECT_EXIT(run_flags(p, {"--ranks", bad}), ::testing::ExitedWithCode(2),
                "invalid --ranks value")
        << bad;
  }
  EXPECT_EXIT(run_flags(p, {"--seed", "-1"}), ::testing::ExitedWithCode(2),
              "invalid --seed value");
  EXPECT_EXIT(run_flags(p, {"--x", "-0.5"}), ::testing::ExitedWithCode(2),
              "invalid --x value");
  EXPECT_EXIT(run_flags(p, {"--x", "inf"}), ::testing::ExitedWithCode(2),
              "invalid --x value");
}

// ---------------------------------------------------------------------------
// IndexedMinHeap — the scheduler's ready queue (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(IndexedMinHeap, PopsInKeyOrder) {
  util::IndexedMinHeap<double> h;
  h.reset(8);
  const double keys[8] = {5.0, 1.0, 7.0, 3.0, 0.5, 6.0, 2.0, 4.0};
  for (int id = 0; id < 8; ++id) h.push(id, keys[id]);
  EXPECT_EQ(h.size(), 8);
  double prev = -1.0;
  for (int i = 0; i < 8; ++i) {
    const int id = h.top();
    EXPECT_EQ(h.top_key(), keys[id]);
    EXPECT_GE(keys[id], prev);
    prev = keys[id];
    h.pop();
  }
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.top(), -1);
}

TEST(IndexedMinHeap, DuplicateKeysBreakTiesTowardLowestId) {
  // The engine's documented contract: at equal wake time the LOWEST rank id
  // runs first — the heap's top must equal what an ascending-id linear scan
  // would pick, including when every key is identical.
  util::IndexedMinHeap<double> h;
  h.reset(16);
  for (int id = 15; id >= 0; --id) h.push(id, 2.5);  // adversarial order
  for (int id = 0; id < 16; ++id) {
    EXPECT_EQ(h.top(), id);
    h.pop();
  }
}

TEST(IndexedMinHeap, UpdateMovesKeysBothWays) {
  util::IndexedMinHeap<int> h;
  h.reset(4);
  for (int id = 0; id < 4; ++id) h.push(id, 10 + id);
  EXPECT_EQ(h.top(), 0);
  h.update(3, 1);  // decrease-key: jumps to the front
  EXPECT_EQ(h.top(), 3);
  EXPECT_EQ(h.key_of(3), 1);
  h.update(3, 99);  // increase-key: sinks to the back
  EXPECT_EQ(h.top(), 0);
  h.update(0, 10);  // no-op update keeps position
  EXPECT_EQ(h.top(), 0);
}

TEST(IndexedMinHeap, EraseArbitraryIdAndReuse) {
  util::IndexedMinHeap<int> h;
  h.reset(6);
  for (int id = 0; id < 6; ++id) h.push(id, id);
  EXPECT_TRUE(h.contains(2));
  h.erase(2);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.size(), 5);
  h.push(2, -1);  // ids are reusable after erase
  EXPECT_EQ(h.top(), 2);
  h.reset(6);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(0));
}

TEST(IndexedMinHeap, MatchesLinearScanOracle) {
  // Randomized equivalence against the structure it replaced: a linear scan
  // picking the (key, id)-lexicographic minimum.
  util::IndexedMinHeap<std::uint64_t> h;
  const int n = 64;
  h.reset(n);
  SplitMix64 rng(0xBADC0FFEEULL);
  std::vector<std::uint64_t> keys(n, 0);
  std::vector<bool> present(n, false);
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng.next() % n);
    const std::uint64_t key = rng.next() % 8;  // few values => many ties
    if (!present[static_cast<std::size_t>(id)]) {
      h.push(id, key);
      keys[static_cast<std::size_t>(id)] = key;
      present[static_cast<std::size_t>(id)] = true;
    } else if (rng.next() % 2 == 0) {
      h.update(id, key);
      keys[static_cast<std::size_t>(id)] = key;
    } else {
      h.erase(id);
      present[static_cast<std::size_t>(id)] = false;
    }
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (!present[static_cast<std::size_t>(i)]) continue;
      if (best == -1 ||
          keys[static_cast<std::size_t>(i)] < keys[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    EXPECT_EQ(h.top(), best) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Arena — per-run transient scratch (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  util::Arena a(/*min_block_bytes=*/64);
  double* d = a.alloc_array<double>(7);
  std::uint8_t* b = a.alloc_array<std::uint8_t>(3);
  std::uint64_t* q = a.alloc_array<std::uint64_t>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(std::uint64_t), 0u);
  for (int i = 0; i < 7; ++i) d[i] = 1.5 * i;
  for (int i = 0; i < 3; ++i) b[i] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 5; ++i) q[i] = 77u * static_cast<std::uint64_t>(i);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(d[i], 1.5 * i);  // no overlap
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q[i], 77u * static_cast<std::uint64_t>(i));
  EXPECT_GE(a.bytes_in_use(), 7 * sizeof(double) + 3 + 5 * sizeof(std::uint64_t));
}

TEST(Arena, ResetRetainsCapacityForReuse) {
  util::Arena a(/*min_block_bytes=*/128);
  (void)a.alloc_array<double>(1000);  // forces growth past the first block
  const std::size_t grown = a.capacity();
  EXPECT_GE(grown, 1000 * sizeof(double));
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.capacity(), grown);  // blocks retained, not freed
  // Steady state: the same allocation pattern must not grow capacity again.
  (void)a.alloc_array<double>(1000);
  EXPECT_EQ(a.capacity(), grown);
}

// ---------------------------------------------------------------------------
// PairMap — sparse (src, dst) channel state for large worlds
// ---------------------------------------------------------------------------

TEST(PairMap, DenseAndSparseModesAgree) {
  // The same access sequence through both representations must read/write
  // the same logical cells. Dense mode below kDenseRanks, hash mode above.
  util::PairMap<std::uint64_t> dense;
  util::PairMap<std::uint64_t> sparse;
  dense.reset(64);                                  // dense matrix
  sparse.reset(util::PairMap<std::uint64_t>::kDenseRanks + 1);  // hash table
  SplitMix64 rng(0x5EEDULL);
  for (int step = 0; step < 5000; ++step) {
    const int src = static_cast<int>(rng.next() % 64);
    const int dst = static_cast<int>(rng.next() % 64);
    const std::uint64_t inc = rng.next() % 100;
    dense.at(src, dst) += inc;
    sparse.at(src, dst) += inc;
  }
  for (int s = 0; s < 64; ++s) {
    for (int d = 0; d < 64; ++d) {
      EXPECT_EQ(dense.at(s, d), sparse.at(s, d)) << s << "," << d;
    }
  }
}

TEST(PairMap, SparseModeStoresOnlyTouchedPairs) {
  util::PairMap<double> m;
  m.reset(100000);  // dense would be 80 GB; sparse must stay tiny
  EXPECT_EQ(m.entries(), 0u);
  for (int r = 0; r < 1000; ++r) {
    m.at(r, (r + 1) % 100000) = 1.0 + r;
    m.at(r, (r + 99999) % 100000) = 2.0 + r;
  }
  EXPECT_EQ(m.entries(), 2000u);
  for (int r = 0; r < 1000; ++r) {
    EXPECT_EQ(m.at(r, (r + 1) % 100000), 1.0 + r);
    EXPECT_EQ(m.at(r, (r + 99999) % 100000), 2.0 + r);
  }
  EXPECT_EQ(m.entries(), 2000u);  // reads created nothing new
  EXPECT_EQ(m.at(99999, 0), 0.0);  // untouched cells default-construct
}

TEST(PairMap, HashModeReferencesSurviveGrowth) {
  // WaitGate counters hold &at(src, dst) while thousands of later inserts
  // grow and rehash the key table (DESIGN.md §12): values live in fixed
  // chunks, so references must stay valid until reset().
  util::PairMap<std::uint64_t> m;
  m.reset(100000);  // hash mode
  std::vector<std::uint64_t*> addrs;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t& cell = m.at(i, 99999 - i);
    cell = 1000u + static_cast<std::uint64_t>(i);
    addrs.push_back(&cell);
  }
  // Enough fresh keys to force several grow() rehashes.
  for (int i = 0; i < 20000; ++i) {
    m.at(500 + i % 9000, (i * 13) % 100000) += 1;
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(&m.at(i, 99999 - i), addrs[static_cast<std::size_t>(i)]) << i;
    // Churn keys are disjoint from the probed keys, so values are untouched.
    EXPECT_EQ(*addrs[static_cast<std::size_t>(i)],
              1000u + static_cast<std::uint64_t>(i))
        << i;
  }
}

}  // namespace
}  // namespace mrl
