// Deterministic cooperative rank engine (conservative parallel discrete-event
// simulation, sequentialized).
//
// Each rank runs real application code, but exactly one rank executes at a
// time (a baton). Every fabric-visible action goes through Engine::perform(),
// which re-queues the caller and grants the baton to the runnable rank with
// the smallest virtual clock. Actions therefore execute in global
// virtual-time order, which makes link contention causally correct and the
// whole simulation bit-reproducible.
//
// Blocking operations (receives, signal waits) use Engine::wait() with a
// condition closure that returns the wake-up virtual time once satisfiable.
// If every live rank is blocked, the engine reports a deadlock instead of
// hanging — with each rank's self-described wait reason.
//
// Execution (DESIGN.md §8): every rank is a stackful user-level fiber
// (runtime/fiber.{hpp,cpp}) and the whole engine runs on the ONE OS thread
// that called run(). perform()/wait() hand the baton over with a direct
// user-space context switch: no mutex, no condvar, no kernel involvement.
// Because a fiber is just a stack (a few hundred KiB of lazily committed
// virtual memory), rank counts in the hundreds of thousands are practical.
// Different run() calls may come from different OS threads (sweep-pool
// workers); each run re-adopts its calling thread as the main context.
//
// Scheduling hot paths (sweeps call run() thousands of times):
//   * rank fibers are created once, on the first run(), and parked between
//     runs — repeated run() calls reuse them instead of recreating nranks
//     execution contexts per grid point;
//   * baton handoff is targeted: only the granted rank resumes (a rank whose
//     wait condition becomes satisfiable is re-queued but stays suspended
//     until actually granted), and a rank that remains the min-clock
//     runnable rank continues with no switch at all;
//   * the scheduler selects the min-clock rank from an indexed binary
//     min-heap keyed (wake time, rank id) — push/erase/top are O(log n) with
//     a per-rank position index, so dispatch cost no longer scales with the
//     number of runnable ranks (DESIGN.md §10). Ties break toward the lowest
//     rank id, exactly the order the legacy linear scan produced, so output
//     is bit-identical to it (SchedulerKind::kLinearScan keeps the legacy
//     structure selectable for the abl_design ablation and as a
//     differential-testing oracle);
//   * blocked-condition re-evaluation walks a dedicated blocked-rank index —
//     only actual waiters are visited, never all ranks — and is skipped
//     entirely while no rank is blocked;
//   * collective-style AND p2p waits carry a WaitGate (a monotone counter +
//     threshold): gated waiters are parked in a per-counter threshold heap
//     and their conditions are not re-evaluated at all until the counter
//     reaches the threshold. Without this, a P-rank barrier/fence wave costs
//     Σ|blocked| ≈ P²/2 condition closures (minutes of wall time at 100k
//     ranks); with it a wave is O(P log P) (DESIGN.md §10, §12);
//   * the scheduler's per-rank hot fields (clock, wake, state, gate slot,
//     wait condition) live in parallel flat arrays indexed by rank id — a
//     structure-of-arrays layout — instead of pointer-chased per-rank
//     objects, so dispatch and wake walks touch a few contiguous cache
//     lines per rank instead of a heap object each (DESIGN.md §12).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "runtime/fiber.hpp"
#include "runtime/metrics.hpp"
#include "simnet/fabric.hpp"
#include "simnet/platform.hpp"
#include "simnet/spans.hpp"
#include "simnet/time.hpp"
#include "simnet/trace.hpp"
#include "util/indexed_heap.hpp"
#include "util/status.hpp"

namespace mrl::runtime {

class Engine;

// Kept only for the perfbench/ benchmark, which records the backend name in
// its run manifest; fibers are the only execution engine (DESIGN.md §8).
enum class EngineBackend { kFibers };
[[nodiscard]] const char* to_string(EngineBackend b);
[[nodiscard]] EngineBackend default_backend();

/// Ready-queue data structure (DESIGN.md §10).
enum class SchedulerKind {
  kIndexedHeap,  ///< indexed binary min-heap over (wake, id); O(log n) dispatch
  kLinearScan,   ///< legacy O(ranks) scan + std::find removal (ablation oracle)
};

[[nodiscard]] const char* to_string(SchedulerKind s);

/// Process-wide default scheduler for newly built EngineOptions (initially
/// kIndexedHeap). Both produce bit-identical simulations; the linear scan is
/// kept for the abl_design dispatch ablation and differential tests.
[[nodiscard]] SchedulerKind default_scheduler();
void set_default_scheduler(SchedulerKind s);

/// Process-wide default for EngineOptions::watchdog_virtual_us (initially
/// 1e9). CLI/bench `--watchdog-us` flags override it; 0 disables the
/// watchdog.
[[nodiscard]] double default_watchdog_virtual_us();
void set_default_watchdog_virtual_us(double us);

/// Process-wide default for EngineOptions::fiber_stack_bytes (initially
/// 256 KiB). Lowering it makes very-high-rank-count runs cheaper, which
/// matters when metrics-enabled runs poison whole stacks for the HWM scan.
[[nodiscard]] std::size_t default_fiber_stack_bytes();
void set_default_fiber_stack_bytes(std::size_t bytes);

/// Process-wide default for EngineOptions::stack_pool (initially true).
/// When on, fiber stacks are carved from pooled slabs (runtime/fiber.hpp:
/// StackPool — one mmap per slab instead of per fiber); `--stack-pool 0`
/// restores mmap-per-fiber with optional guard pages.
[[nodiscard]] bool default_stack_pool();
void set_default_stack_pool(bool on);

/// Process-wide default for EngineOptions::trace (initially false; workloads
/// that derive summaries from the trace force it on per-engine regardless).
/// The CLI/bench `--trace`/`--profile` flags flip it so engines constructed
/// outside the workload wrappers also record.
[[nodiscard]] bool default_trace();
void set_default_trace(bool on);

/// Process-wide default for EngineOptions::spans (initially false). The
/// CLI/bench `--trace`/`--profile` flags flip it on (DESIGN.md §14).
[[nodiscard]] bool default_spans();
void set_default_spans(bool on);

/// Optional re-evaluation hint for Engine::wait (DESIGN.md §10, §12).
/// `counter` points at a monotonically nondecreasing std::uint64_t (e.g. a
/// collective generation, or a per-(src,dst) message sequence number) that
/// only changes inside Engine::perform bodies and outlives the wait. The
/// contract: the wait condition is unsatisfiable while
/// `*counter < threshold`, and the condition can only BECOME satisfiable in
/// a perform that also advances the counter. Gated waiters skip per-perform
/// condition re-evaluation entirely — the engine parks them in a per-counter
/// threshold heap and only evaluates the condition when the counter crosses
/// the threshold, turning O(P²) collective/recv waves into O(P log P). If
/// the condition is still unsatisfiable at the crossing (e.g. a message
/// arrived on the gated channel but with a non-matching tag), the waiter is
/// re-parked at the counter's current value + 1 — the next advance re-tests
/// it. Collective generations satisfy the stricter "satisfiable at
/// threshold" property and never re-park. A default-constructed gate (null
/// counter) means "no hint": the condition is re-evaluated after every
/// perform, as always. The linear-scan scheduler ignores gates, preserving
/// the legacy brute-force behaviour as a differential-testing oracle.
struct WaitGate {
  const std::uint64_t* counter = nullptr;
  std::uint64_t threshold = 0;
};

/// Per-rank execution context. Handed by reference to the rank body; valid
/// only for the duration of Engine::run().
///
/// Rank itself carries only the cold, mostly-immutable identity fields; the
/// scheduler-hot mutable state (clock, wake, run state, gate slot, wait
/// condition) lives in the Engine's SoA arrays indexed by id() — now() and
/// advance() are inline delegates (defined after Engine). This keeps a
/// million Rank objects at ~56 B each and keeps the dispatch working set in
/// flat arrays.
class Rank {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] simnet::TimeUs now() const;

  /// Charges local compute time (the only way user code consumes virtual
  /// time outside communication).
  void advance(double dt_us);

  /// Endpoint hosting this rank on the platform topology.
  [[nodiscard]] int endpoint() const { return endpoint_; }

  /// Compute-time multiplier from fault injection (1.0 unless this rank is
  /// a straggler). Communication layers apply it in their compute() helpers;
  /// advance() itself is unscaled because it also implements absolute-time
  /// waits (flush/quiet completion), which are not compute.
  [[nodiscard]] double compute_scale() const { return compute_scale_; }

  /// Sender-side synchronization epoch (bumped by comm layers at each sync;
  /// the trace uses it to compute messages-per-sync, and the metrics layer
  /// counts it as one synchronization). Defined after Engine.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void bump_epoch();

  [[nodiscard]] Engine& engine() const { return *engine_; }

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

 private:
  friend class Engine;
  Rank() = default;

  Engine* engine_ = nullptr;
  int id_ = -1;
  int size_ = 0;
  int endpoint_ = -1;
  std::uint64_t epoch_ = 0;
  double compute_scale_ = 1.0;
  /// Last blocking wait this rank entered (and when, in virtual time) —
  /// survives the wait itself, so watchdog/deadlock reports can say what a
  /// stuck-or-finished rank last blocked on, not just who is blocked now.
  const char* last_wait_what_ = nullptr;
  simnet::TimeUs last_wait_t_ = 0;
};

struct EngineOptions {
  bool trace = default_trace();      ///< record every message
  /// Record per-rank execution spans (simnet/spans.hpp, DESIGN.md §14) for
  /// the profiler and critical-path analyzer. Like metrics: off by default,
  /// one branch per hook when disabled, and never perturbs simulated time —
  /// enabling it leaves every CSV byte-identical.
  bool spans = default_spans();
  bool reset_fabric_each_run = true; ///< clear contention state per run()
  /// Virtual-time progress watchdog: when a rank's clock passes this limit
  /// at a communication operation (perform/wait), the run is converted into
  /// Status(kTimeout) with per-rank diagnostics instead of spinning forever
  /// (e.g. a CAS retry storm that never wins under injected faults). The
  /// watchdog only observes communication ops — a body that loops without
  /// ever touching the engine is outside its contract. 0 disables it.
  double watchdog_virtual_us = default_watchdog_virtual_us();
  /// Ready-queue structure. kIndexedHeap and kLinearScan produce bit-identical
  /// simulations; the linear scan exists for ablation and differential tests.
  SchedulerKind scheduler = default_scheduler();
  /// Usable stack bytes per rank fiber. Stacks are lazily committed virtual
  /// memory with a guard page, so thousands of ranks are cheap; raise this
  /// for rank bodies with deep call chains or large stack frames.
  std::size_t fiber_stack_bytes = default_fiber_stack_bytes();
  /// Carve fiber stacks out of a pooled slab (one big mmap, recycled slots)
  /// instead of one mmap per fiber (DESIGN.md §12). Defaults to the
  /// process-wide default (on); mmap-per-fiber remains selectable for the
  /// guard-paged debugging configuration and the abl ablation.
  bool stack_pool = default_stack_pool();
  /// Collect deterministic per-rank/per-link metrics (DESIGN.md §9) and
  /// per-fiber stack high-water-marks. Disabled metrics cost one branch per
  /// hook and change no simulated time either way.
  bool metrics = default_metrics();
  /// Run the RMA race & synchronization checker (DESIGN.md §11). Like
  /// metrics: off by default, one branch per hook when disabled, and never
  /// perturbs simulated time — enabling it leaves every CSV byte-identical.
  /// Violations turn an otherwise-ok run into Status(kFailedPrecondition).
  bool check = check::default_check();
  /// Shadow-history cap per (window, owner-rank) region for the checker.
  std::uint64_t check_history = check::default_check_history();
};

struct RunResult {
  Status status;
  simnet::TimeUs makespan_us = 0;  ///< max final rank clock
  std::vector<simnet::TimeUs> rank_end_us;

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// The engine: owns the platform fabric, the trace, and rank scheduling.
class Engine {
 public:
  Engine(simnet::Platform platform, int nranks, EngineOptions opt = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `body` on every rank to completion (or deadlock/exception).
  /// May be called repeatedly; rank clocks, epochs, and the trace reset at
  /// each call, and fabric contention state resets too unless EngineOptions
  /// says otherwise. Rank fibers persist across calls, and successive calls
  /// may come from different OS threads. A reentrant call (from a rank body,
  /// or concurrently from another thread) returns Status(kInvalidArgument)
  /// instead of starting.
  RunResult run(const std::function<void(Rank&)>& body);

  [[nodiscard]] const simnet::Platform& platform() const { return platform_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] SchedulerKind scheduler() const { return opt_.scheduler; }
  [[nodiscard]] simnet::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] simnet::Trace& trace() { return trace_; }
  [[nodiscard]] simnet::Spans& spans() { return spans_; }
  [[nodiscard]] const simnet::Spans& spans() const { return spans_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] check::Checker& checker() { return checker_; }
  [[nodiscard]] const check::Checker& checker() const { return checker_; }

  /// Records one fabric-visible message into the trace AND the metrics
  /// collector (the single choke point that keeps the two in agreement).
  /// `is_get` marks round trips that pull bytes toward the issuing rank.
  void record_msg(const simnet::MsgRecord& rec, bool is_get = false) {
    trace_.record(rec);
    metrics_.on_msg(rec, is_get);
  }

  /// Records one blocking-advance execution span (DESIGN.md §14): the rank's
  /// clock advanced from `t0` to now inside a communication round trip or
  /// drain (get/atomic/flush/quiet/send-drain) without parking in the
  /// engine. `q_us`/`s_us` carry the fabric's queueing/serialization share
  /// of the interval; the remainder is latency. No-op unless spans are on.
  void record_advance_span(Rank& r, simnet::SpanKind kind, simnet::TimeUs t0,
                           int peer, std::uint64_t bytes, double q_us = 0,
                           double s_us = 0) {
    if (!opt_.spans) return;
    simnet::SpanRecord sp;
    sp.rank = r.id();
    sp.peer = peer;
    sp.kind = kind;
    sp.t_begin = t0;
    sp.t_end = r.now();
    sp.bytes = bytes;
    sp.q_us = q_us;
    sp.s_us = s_us;
    spans_.record(sp);
  }

  /// Snapshot of the last completed run: per-rank counters/histograms,
  /// per-link utilization/queueing, makespan and per-fiber stack
  /// high-water-marks. Empty sections when metrics are disabled.
  [[nodiscard]] MetricsReport metrics_report() const;

  /// Per-fiber stack high-water-marks in rank order. Empty when metrics are
  /// disabled (stacks are only poisoned — and therefore measurable — on
  /// metrics-enabled runs).
  [[nodiscard]] std::vector<std::size_t> stack_high_water_bytes() const;

  // --- protocol for communication layers (called from rank contexts) ---

  /// Executes `fn` under the global virtual-time ordering: the calling rank
  /// yields, is re-granted when it has the minimum clock among runnable
  /// ranks, and runs `fn` while the engine is quiescent. After `fn`, blocked
  /// ranks' wait conditions are re-evaluated.
  void perform(Rank& r, const std::function<void()>& fn);

  /// Blocks until `cond` returns a wake time; advances the rank clock to
  /// max(clock, wake). `cond` is evaluated while the engine is quiescent and
  /// must be monotonic: once satisfiable it stays satisfiable. `what` labels
  /// the wait in deadlock reports. If `finalize` is non-null it runs
  /// immediately after the clock update (e.g. to consume the matched message
  /// atomically with the wake decision). `gate`, when non-null, is a
  /// monotone-counter re-evaluation hint (see WaitGate): the engine will not
  /// re-test `cond` until `*gate.counter >= gate.threshold`.
  void wait(Rank& r, const char* what,
            const std::function<std::optional<double>()>& cond,
            const std::function<void()>& finalize = {},
            WaitGate gate = {});

  /// Aborts the current run with `code` from inside a perform body or rank
  /// context (used by the checker for collective mismatches, where letting
  /// the run continue would crash on mismatched payloads). Does not return:
  /// unwinds the calling rank via the same abort machinery as the watchdog.
  [[noreturn]] void abort_run(Rank& r, ErrorCode code, std::string reason);

 private:
  friend class Rank;

  struct AbortException {};
  struct FiberStart {
    Engine* engine = nullptr;
    int id = -1;
  };

  enum class RankState : std::uint8_t { kReady, kRunning, kBlocked, kDone };

  /// rank_slot_ sentinel values (>= 0 is a position in blocked_).
  static constexpr std::int32_t kSlotNone = -1;
  static constexpr std::int32_t kSlotGated = -2;

  // Scheduler state machine. Everything runs on the one OS thread inside
  // run(), so none of it needs a lock.
  void reset_run_state(const std::function<void(Rank&)>& body);
  RunResult collect_result();
  void set_state(int id, RankState s);
  [[nodiscard]] int pick_min_ready() const;
  /// Records the causal edge for a wait about to be re-queued: the satisfier
  /// is the rank currently holding the baton (granted_ — the perform or
  /// finalize that made the condition satisfiable).
  void note_wake_cause(std::size_t waiter) {
    if (!opt_.spans) return;
    rank_cause_rank_[waiter] = granted_;
    rank_cause_t_[waiter] = rank_clock_[static_cast<std::size_t>(granted_)];
    // A satisfier inside a wait finalize has its own wait span still pending
    // (recorded after the finalize returns): count it, so the backward walk
    // resumes past that span instead of mistaking it for compute.
    rank_cause_nspans_[waiter] =
        spans_.rank_count(granted_) + (finalize_rank_ == granted_ ? 1u : 0u);
  }
  /// Appends the last few recorded spans of the first few blocked ranks to a
  /// deadlock/watchdog report (spans enabled only; terminal path).
  void append_span_tails(std::ostringstream& os) const;
  void note_deadlock();
  void note_body_error(int id, const char* what);
  void wake_satisfied();
  void check_abort(const Rank& r) const;
  void check_watchdog(const Rank& r);

  // Fiber mechanics.
  RunResult run_fibers(const std::function<void(Rank&)>& body);
  static void fiber_entry(void* start);
  void fiber_worker(int id);
  void fiber_yield(Rank& r);
  void fiber_exit_run(Rank& r);

  // WaitGate registration (kIndexedHeap only; the linear scan ignores
  // gates). One channel per distinct counter pointer with live waiters;
  // gate_index_ maps counter pointer -> gates_ slot so registration is O(1)
  // even when thousands of p2p channels are gated at once.
  void register_gated_waiter(int id, WaitGate gate);
  void wake_gated();

  simnet::Platform platform_;
  int nranks_;
  EngineOptions opt_;
  std::unique_ptr<simnet::Fabric> fabric_;
  simnet::Trace trace_;
  simnet::Spans spans_;
  Metrics metrics_;
  check::Checker checker_;

  std::vector<std::unique_ptr<Rank>> ranks_;  // cold identity, reset per run

  // SoA rank hot fields, indexed by rank id (DESIGN.md §12). Exactly the
  // state the scheduler reads in its dispatch/wake loops; sized once at
  // construction, reset per run.
  std::vector<simnet::TimeUs> rank_clock_;
  std::vector<simnet::TimeUs> rank_wake_;  ///< scheduling priority while kReady
  std::vector<RankState> rank_state_;
  /// kBlocked bookkeeping: >= 0 is this rank's slot in blocked_, kSlotGated
  /// means parked in a gate channel (NOT in blocked_), kSlotNone otherwise.
  std::vector<std::int32_t> rank_slot_;
  std::vector<const std::function<std::optional<double>()>*> rank_cond_;
  std::vector<const char*> rank_what_;  ///< wait label for deadlock reports
  /// Causal wake edge per rank (spans enabled only, else unsized): who
  /// satisfied this rank's current wait, at what virtual time, and how many
  /// of the satisfier's spans preceded the action (SpanRecord::cause_*).
  /// Reset to -1 at each wait entry; written at re-queue time.
  std::vector<std::int32_t> rank_cause_rank_;
  std::vector<simnet::TimeUs> rank_cause_t_;
  std::vector<std::uint32_t> rank_cause_nspans_;

  /// run() in progress (reentrancy guard; atomic so a concurrent run()
  /// attempt from another thread is also rejected instead of racing).
  std::atomic<bool> running_{false};

  const std::function<void(Rank&)>* body_ = nullptr;

  // Persistent fiber contexts (lazily created by the first run()).
  // main_fiber_ is the context of whichever thread is inside run(); rank
  // fibers park between runs suspended in fiber_exit_run().
  Fiber main_fiber_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<FiberStart> fiber_start_;

  // Scheduler state, reset per run. Exactly the ids whose state is kReady
  // live in ready_heap_ (kIndexedHeap) or ready_ (kLinearScan); exactly the
  // kBlocked ids live in blocked_ (kIndexedHeap — the blocked-rank index
  // that wake_satisfied walks instead of all ranks), and
  // blocked_count_ counts them under either scheduler.
  util::IndexedMinHeap<simnet::TimeUs> ready_heap_;
  std::vector<int> ready_;
  std::vector<int> blocked_;
  int blocked_count_ = 0;
  // Gated waiters (WaitGate, kIndexedHeap only): one channel per distinct
  // monotone counter, waiters ordered by (threshold, rank id) so equal
  // thresholds drain in ascending rank order. Channels with no waiters are
  // swap-removed; the whole registry is cleared per run. Gated ranks are
  // kBlocked and counted in blocked_count_ but are NOT in blocked_ — they
  // are re-evaluated only when their counter crosses their threshold.
  struct GateChannel {
    const std::uint64_t* counter = nullptr;
    std::priority_queue<std::pair<std::uint64_t, int>,
                        std::vector<std::pair<std::uint64_t, int>>,
                        std::greater<>>
        waiters;
  };
  std::vector<GateChannel> gates_;
  std::unordered_map<const std::uint64_t*, std::size_t> gate_index_;
  int gated_count_ = 0;
  int granted_ = -1;
  /// Rank currently executing a wait-finalize (engine quiescent; -1 outside
  /// finalizes). Only read by note_wake_cause, see there.
  int finalize_rank_ = -1;
  int done_count_ = 0;
  bool abort_ = false;
  ErrorCode abort_code_ = ErrorCode::kDeadlock;
  std::string abort_reason_;
  std::string body_error_;
};

inline simnet::TimeUs Rank::now() const {
  return engine_->rank_clock_[static_cast<std::size_t>(id_)];
}

inline void Rank::advance(double dt_us) {
  MRL_CHECK(dt_us >= 0.0);
  engine_->rank_clock_[static_cast<std::size_t>(id_)] += dt_us;
}

inline void Rank::bump_epoch() {
  ++epoch_;
  engine_->metrics().on_sync(id_);
}

}  // namespace mrl::runtime
