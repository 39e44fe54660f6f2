// Deterministic runtime metrics (DESIGN.md §9).
//
// Two layers, with different determinism contracts:
//
//   * Metrics — the engine-owned per-run collector. Every hook is invoked
//     from a rank context while the engine is quiescent, i.e. in global
//     virtual-time order, so per-rank counters, histograms and blocked-time
//     sums are bit-identical across schedulers and --jobs values for a
//     single run. Zero overhead when disabled: each hook is an inline
//     enabled_ check.
//
//   * MetricsRegistry — the process-wide aggregate that `--metrics out.csv`
//     dumps. Engines publish their per-run reports on run() completion, and
//     under a parallel sweep those publishes arrive in a nondeterministic
//     order. The registry therefore only accumulates quantities that are
//     exactly commutative — u64 counter sums, histogram bucket-count sums,
//     and maxima — never floating-point sums, so its CSV is byte-identical
//     across {heap,linear} schedulers × {--jobs 1,N} (asserted by tests).
//
// Per-fiber stack high-water-marks ride along in MetricsReport but are kept
// out of both csv_rows() and the registry: they are host facts (compiler,
// stack size, pooled or not), not virtual-time facts, and the comparable
// sections must stay byte-identical across builds and configurations.
// Export them with stack_csv_rows().
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simnet/trace.hpp"
#include "util/histogram.hpp"
#include "util/status.hpp"

namespace mrl::runtime {

/// Exact (integer) per-rank counters: commutative under +, safe to
/// aggregate in any order.
struct OpCounters {
  std::uint64_t sends = 0;         ///< two-sided messages issued
  std::uint64_t recvs = 0;         ///< messages/puts delivered to this rank
  std::uint64_t puts = 0;          ///< one-sided puts (incl. put-with-signal)
  std::uint64_t gets = 0;          ///< one-sided get round trips
  std::uint64_t atomics = 0;       ///< CAS / fetch-op round trips
  std::uint64_t cas_failures = 0;  ///< CAS attempts that lost (=> retries)
  std::uint64_t collectives = 0;   ///< collective participations
  std::uint64_t syncs = 0;         ///< synchronization epochs closed
  std::uint64_t waits = 0;         ///< blocking wait entries
  std::uint64_t bytes_sent = 0;    ///< payload bytes issued (sends/puts/atomics)
  std::uint64_t bytes_recv = 0;    ///< payload bytes landed (recvs/gets)
  std::uint64_t drops = 0;         ///< fault-injected drops observed (sender side)
  std::uint64_t violations = 0;    ///< RMA checker findings (DESIGN.md §11)

  void add(const OpCounters& o);
  /// Fabric-visible operations — equals the trace record count for layers
  /// that trace every op (MPI; SHMEM gets are metrics-only, see DESIGN §9).
  [[nodiscard]] std::uint64_t fabric_ops() const {
    return sends + puts + gets + atomics;
  }
};

/// Everything one rank accumulated over one engine run.
struct RankMetrics {
  OpCounters ops;
  double blocked_us = 0;       ///< virtual time spent inside Engine::wait
  Log2Histogram msg_bytes;     ///< issued-message payload sizes
  Log2Histogram wait_us;       ///< per-wait virtual durations
  Log2Histogram query_us;      ///< per-query serving latencies (embedding)
};

/// One direction of one physical link.
struct LinkMetrics {
  std::string name;
  int link = 0;
  int dir = 0;
  std::uint64_t msgs = 0;  ///< messages that claimed a lane on this dlink
  double busy_us = 0;      ///< lane-hold time (utilization = busy/makespan)
  double queue_us = 0;     ///< head-of-line wait for a free lane
};

/// Snapshot of one completed engine run.
struct MetricsReport {
  int nranks = 0;
  double makespan_us = 0;
  std::vector<RankMetrics> ranks;
  std::vector<LinkMetrics> links;
  /// Per-fiber stack high-water-marks (empty unless metrics were enabled).
  std::vector<std::size_t> stack_hwm_bytes;
  std::size_t stack_usable_bytes = 0;

  /// Deterministic whole-run totals (fixed rank-id accumulation order).
  [[nodiscard]] RankMetrics totals() const;

  /// Long-format CSV: header then total/rank/link/hist sections. Excludes
  /// the stack section so the rows hold virtual-time facts only.
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;
  /// Stack-HWM section rows (same column layout, no header).
  [[nodiscard]] std::vector<std::vector<std::string>> stack_csv_rows() const;
  [[nodiscard]] std::string to_json() const;
};

/// Engine-owned collector. The engine serializes every hook call.
class Metrics {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Re-dimensions and zeroes per-rank state (start of each run).
  void reset(int nranks);

  /// One fabric-visible message (mirrors Trace::record). `is_get` marks
  /// round trips that pull bytes toward the issuing rank.
  void on_msg(const simnet::MsgRecord& rec, bool is_get) {
    if (enabled_) on_msg_slow(rec, is_get);
  }
  /// Delivery of `bytes` payload bytes to `rank` (recv match, applied put).
  void on_recv(int rank, std::uint64_t bytes) {
    if (!enabled_) return;
    RankMetrics& m = rank_at(rank);
    ++m.ops.recvs;
    m.ops.bytes_recv += bytes;
  }
  /// SHMEM-style get that bypasses the trace entirely.
  void on_get(int rank, std::uint64_t bytes) {
    if (!enabled_) return;
    RankMetrics& m = rank_at(rank);
    ++m.ops.gets;
    m.ops.bytes_recv += bytes;
    m.msg_bytes.add(static_cast<double>(bytes));
  }
  /// Outcome of one CAS attempt; a loss means the caller must retry.
  void on_cas_attempt(int rank, bool won) {
    if (!enabled_) return;
    if (!won) ++rank_at(rank).ops.cas_failures;
  }
  void on_collective(int rank) {
    if (!enabled_) return;
    ++rank_at(rank).ops.collectives;
  }
  void on_sync(int rank) {
    if (!enabled_) return;
    ++rank_at(rank).ops.syncs;
  }
  /// One Engine::wait completed after `blocked_us` of virtual time.
  void on_wait(int rank, double blocked_us) {
    if (enabled_) on_wait_slow(rank, blocked_us);
  }
  /// RMA checker findings attributed to `rank` (added once, at run end, so
  /// the counter is exact whether the run finished or was aborted).
  void on_violations(int rank, std::uint64_t n) {
    if (!enabled_) return;
    rank_at(rank).ops.violations += n;
  }
  /// One served query completed after `latency_us` of virtual time
  /// (serving-style workloads: the embedding lookup bench).
  void on_query(int rank, double latency_us) {
    if (!enabled_) return;
    rank_at(rank).query_us.add(latency_us);
  }

  [[nodiscard]] const std::vector<RankMetrics>& ranks() const {
    return ranks_;
  }

 private:
  RankMetrics& rank_at(int rank) {
    return ranks_[static_cast<std::size_t>(rank)];
  }
  void on_msg_slow(const simnet::MsgRecord& rec, bool is_get);
  void on_wait_slow(int rank, double blocked_us);

  bool enabled_ = false;
  std::vector<RankMetrics> ranks_;
};

/// Process-wide default for EngineOptions::metrics (initially false).
/// CLI/bench `--metrics` flags flip it on.
[[nodiscard]] bool default_metrics();
void set_default_metrics(bool on);

/// Order-independent process-wide aggregate of every published run.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Thread-safe; called by Engine::run on successful metrics-enabled runs.
  void publish(const MetricsReport& report);
  void reset();

  [[nodiscard]] std::uint64_t runs() const;
  /// Aggregate op-counter totals across every published run (exact u64 sums;
  /// the perf harness derives simulated-ops/sec from these).
  [[nodiscard]] OpCounters totals() const;

  /// One link type's aggregate across all published runs, keyed by
  /// (spec name, direction) — parallel links sharing a spec merge. Times
  /// accumulate as integer picoseconds (llround(us * 1e6)) so the sums are
  /// commutative: publish order (job count) cannot change them.
  struct LinkTotals {
    std::string name;
    int dir = 0;
    std::uint64_t msgs = 0;
    std::uint64_t busy_pico = 0;
    std::uint64_t queue_pico = 0;
    [[nodiscard]] double busy_us() const {
      return static_cast<double>(busy_pico) * 1e-6;
    }
    [[nodiscard]] double queue_us() const {
      return static_cast<double>(queue_pico) * 1e-6;
    }
  };
  /// Sorted by (name, dir); deterministic regardless of publish order.
  [[nodiscard]] std::vector<LinkTotals> link_totals() const;

  /// CSV of the aggregate (total + histogram + link sections). Every cell
  /// derives from commutative accumulation, so the bytes are independent of
  /// publish order — i.e. of the job count.
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;
  Status write_csv(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  struct LinkAgg {
    std::uint64_t msgs = 0;
    std::uint64_t busy_pico = 0;
    std::uint64_t queue_pico = 0;
  };

  mutable std::mutex mu_;
  std::uint64_t runs_ = 0;
  int max_nranks_ = 0;
  double max_makespan_us_ = 0;  ///< max is exact, unlike a double sum
  OpCounters totals_;
  Log2Histogram msg_bytes_;
  Log2Histogram wait_us_;
  Log2Histogram query_us_;
  std::map<std::pair<std::string, int>, LinkAgg> links_;
};

/// Writes report/registry rows to `path` (thin write_csv_file wrapper).
Status write_metrics_csv(const std::string& path,
                         const std::vector<std::vector<std::string>>& rows);

}  // namespace mrl::runtime
