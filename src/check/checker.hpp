// Deterministic RMA race & synchronization checker (DESIGN.md §11).
//
// An opt-in dynamic correctness layer for the one-sided runtimes. Because the
// engine executes every fabric-visible action in global virtual-time order,
// classic happens-before race detection becomes *reproducible*: the same
// program produces byte-identical verdicts across job counts and
// schedulers — the property PARCOACH-style tools cannot get from a
// real machine.
//
// Three cooperating mechanisms:
//
//   1. Happens-before tracking. Each rank carries a vector clock, advanced by
//      every access it issues and joined across synchronization edges:
//      p2p send→recv (the sender's clock snapshot rides with the message),
//      collectives/fences/barriers (all entrants' clocks merge, everyone
//      adopts the merge on completion), and delivery observation (applying an
//      arrived put joins the target with the origin's clock at issue).
//
//   2. Shadow access history. Every put/get/atomic — plus explicitly
//      annotated local reads/writes (WinHandle::local_read etc.) — leaves a
//      compact record {rank, order clock, kind, byte range, virtual time} in
//      the per-(window, owner-rank) region it touched. A new access scans the
//      region for conflicting records (byte overlap, different ranks, not
//      both atomic, at least one write) that are unordered in happens-before,
//      and reports the first-divergence pair: the new access plus the
//      earliest-virtual-time conflicting endpoint (one line per racing
//      access, not the quadratic set of pairs). Put records stay "in flight"
//      — unordered before *everything* — until the origin completes them
//      (flush / quiet / fence) or the target observes their application;
//      that models MPI-3 / SHMEM completion rules, where issuing a put
//      guarantees nothing and flush_local only licenses origin-buffer reuse.
//
//   3. Epoch discipline. Per-origin outstanding-put state catches
//      order-sensitive misuse the pure happens-before graph would forgive:
//      a signal put issued while a data put to the same target is still
//      unflushed (MPI 4-op discipline), a fused put-with-signal issued while
//      plain puts to the same target are unquieted (SHMEM), a local read of a
//      window range some arrived-but-unapplied put overlaps (missing
//      MPI_Win_sync), and ranks finishing with puts that were never completed
//      by any flush/quiet/fence.
//
// Collective matching rides on the same rendezvous the runtimes already use:
// the first entrant of a generation fixes the expected (kind, root, bytes)
// signature and every later entrant must match it, otherwise the run aborts
// with both signatures — instead of the silent hang or payload corruption a
// real MPI program would get.
//
// Violations are recorded (not thrown) and surface as
// Status(kFailedPrecondition) from Engine::run; a collective mismatch aborts
// immediately because the runtimes' kind-agnostic rendezvous would otherwise
// crash on mismatched payloads. Everything here is called from rank contexts
// while the engine is quiescent, so no locking and full determinism; when
// disabled every hook is a single branch and no simulated time ever changes
// either way (the checker never advances clocks).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simnet/time.hpp"
#include "util/status.hpp"

namespace mrl::check {

/// What an access record represents. Atomics (including fused signal words
/// and signal waits) never conflict with each other; everything else follows
/// the usual at-least-one-write rule.
enum class AccessKind : std::uint8_t {
  kPut,         ///< one-sided put (data or MPI signal put)
  kGet,         ///< one-sided get (non-atomic read)
  kAtomic,      ///< CAS / fetch-op / fused signal word / signal wait
  kLocalRead,   ///< annotated local load from exposed memory
  kLocalWrite,  ///< annotated local store to exposed memory
};

[[nodiscard]] const char* to_string(AccessKind k);

/// Flavor of a put, for the epoch-discipline rules (W1/S1 in DESIGN.md §11).
enum class PutClass : std::uint8_t {
  kData,    ///< plain data put
  kSignal,  ///< MPI put of a bare signal word (OpKind::kSignal)
  kFused,   ///< SHMEM put-with-signal (data + atomic signal, one op)
};

/// Collective signature checked across ranks at each rendezvous generation.
struct CollSig {
  const char* kind = "";     ///< "barrier", "allreduce_sum", "bcast", ...
  int root = -1;             ///< rooted collectives only; -1 otherwise
  std::uint64_t bytes = 0;   ///< payload element bytes; 0 for barriers
};

/// Handles a communication layer stashes next to its pending-delivery state
/// so applying a put can be reported back. kNoRec = not recorded (checker
/// disabled at issue, or region history full).
inline constexpr std::uint32_t kNoRec = ~0u;
struct PutHandles {
  std::uint32_t data = kNoRec;
  std::uint32_t sig = kNoRec;
};

/// Result of a collective-enter hook.
struct CollEnter {
  bool ok = true;           ///< false => signature mismatch (abort the run)
  std::uint64_t gen = 0;    ///< generation to pass to on_collective_complete
};

/// One structured checker verdict (`--check-report`, DESIGN.md §11). `text`
/// is exactly the line report() prints; the other fields carry the same
/// information machine-readably. Fields that do not apply to a kind hold
/// their defaults (-1 ranks, 0 times/ranges).
struct Violation {
  /// "race", "collective_mismatch", "signal_overtake", "unapplied_read",
  /// or "missing_completion".
  std::string kind;
  /// Region or channel the verdict is about, e.g. "win0@rank3" or
  /// "shmem.world".
  std::string space;
  std::int32_t rank_a = -1;  ///< detecting/offending rank
  std::int32_t rank_b = -1;  ///< conflicting peer rank, -1 when n/a
  simnet::TimeUs t_a = 0;    ///< virtual time of the detecting access
  simnet::TimeUs t_b = 0;    ///< virtual time of the conflicting access
  std::uint64_t off_a = 0;
  std::uint64_t bytes_a = 0;
  std::uint64_t off_b = 0;
  std::uint64_t bytes_b = 0;
  std::string text;  ///< the human-readable report line
};

/// The per-engine checker. All hooks are called with the engine quiescent,
/// in global virtual-time order; none of them advances simulated time.
class Checker {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Max shadow records kept per (space, owner) region; accesses beyond the
  /// cap go unchecked (counted and reported once, never a violation).
  void set_history_limit(std::uint64_t n) { history_limit_ = n; }

  /// Re-dimensions per-run state (start of each Engine::run). Spaces and
  /// channels registered by a previous run are dropped; communication worlds
  /// re-register lazily from inside perform bodies.
  void reset(int nranks);

  // --- registration (first use, inside a perform body) ---

  /// A "space" is one window / symmetric heap: nranks exposure regions with
  /// independent per-rank byte offsets.
  int add_space(std::string name);
  /// A "channel" is one collective rendezvous (world collectives, one per
  /// window fence, the SHMEM barrier). `clears_space` >= 0 marks a channel
  /// whose completion is a global RMA sync for that space (fence / SHMEM
  /// barrier): all of the space's puts complete and its history resets.
  int add_channel(std::string name, int clears_space = -1);

  // --- happens-before edges ---

  /// Two-sided send: snapshot the sender's clock onto the (src,dst) wire,
  /// keyed by the runtime's per-pair FIFO sequence number.
  void on_send(int src, int dst, std::uint64_t seq);
  /// Two-sided receive of the message carrying `seq`: join the snapshot.
  void on_recv(int dst, int src, std::uint64_t seq);

  /// Collective entry. Verifies the signature against the generation's first
  /// entrant, merges the entrant's clock, and (for the last entrant of a
  /// clears_space channel) completes + clears that space's history. Returns
  /// ok=false on signature mismatch, with the diagnostic recorded; the
  /// caller must abort the run with report().
  CollEnter on_collective_enter(int chan, int rank, const CollSig& sig,
                                simnet::TimeUs t);
  /// Collective completion (after the rendezvous wait): adopt the merged
  /// clock of generation `gen`.
  void on_collective_complete(int chan, int rank, std::uint64_t gen);

  // --- one-sided accesses ---

  /// Put issue: records the access (in flight), scans for races, and runs
  /// the epoch-discipline rules (signal-overtakes-data). For kFused, `sig_off`
  /// names the 8-byte signal word and a second (atomic) record is created.
  PutHandles on_put(int origin, int space, int owner, std::uint64_t off,
                    std::uint64_t bytes, PutClass cls, std::uint64_t sig_off,
                    simnet::TimeUs t);
  /// Blocking get: read record, complete immediately.
  void on_get(int origin, int space, int owner, std::uint64_t off,
              std::uint64_t bytes, simnet::TimeUs t);
  /// Blocking atomic (8 bytes at `off`): atomic record, complete immediately.
  void on_atomic(int origin, int space, int owner, std::uint64_t off,
                 simnet::TimeUs t);
  /// Annotated local access to my own exposure region. `unapplied_overlap`
  /// is supplied by the caller (it owns the pending-delivery queue): a read
  /// overlapping an arrived-but-unapplied put is the missing-Win_sync bug.
  void on_local(int rank, int space, std::uint64_t off, std::uint64_t bytes,
                bool is_write, bool unapplied_overlap, simnet::TimeUs t);
  /// Signal wait (wait_until family): an atomic read of the watched words.
  void on_signal_wait(int rank, int space, std::uint64_t off,
                      std::uint64_t bytes, simnet::TimeUs t);

  // --- put completion ---

  /// Origin-side completion (flush/quiet/fence): every in-flight put by
  /// `origin` in `space` to `target` (-1 = all targets) becomes ordered at
  /// the origin's current clock. Completion is per-target: `flush(t1)` never
  /// discharges obligations to `t2`.
  void on_flush(int origin, int space, int target);
  /// Local-only completion (MPI_Win_flush_local): the origin's source
  /// buffers are reusable, but the puts are NOT remotely complete — they
  /// stay in flight (unordered before everything), still overtakeable by
  /// signals (W1) and still leaked if the rank finishes without a real
  /// flush/quiet/fence (W2). The only effect is diagnostic: later W1/W2
  /// reports name flush_local explicitly instead of claiming the put was
  /// never completed at all.
  void on_flush_local(int origin, int space, int target);
  /// Target-side observation: the pending delivery carrying `h` was applied
  /// to `owner`'s region; `owner` joins the origin's issue-time clock and the
  /// record completes.
  void on_applied(int space, int owner, const PutHandles& h);

  // --- run boundary ---

  /// End-of-run sweep (all bodies returned): ranks holding puts that were
  /// never completed nor observed get a missing-completion violation.
  void on_run_end();

  // --- results ---

  [[nodiscard]] bool has_violations() const { return !violations_.empty(); }
  [[nodiscard]] std::size_t violation_count() const {
    return violations_.size();
  }
  /// Per-rank violation counts (attributed to the detecting access's rank),
  /// for the metrics `violations` counter family.
  [[nodiscard]] const std::vector<std::uint64_t>& violation_counts() const {
    return per_rank_violations_;
  }
  /// Stored structured verdicts (capped at the same limit as report lines),
  /// in detection order — deterministic across jobs/schedulers.
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Full multi-line report: header + one line per violation (capped), in
  /// detection order — deterministic across jobs/schedulers.
  [[nodiscard]] std::string report() const;
  /// One-line annotation for deadlock/watchdog reports: in-progress
  /// collective generations with entered counts and missing ranks.
  [[nodiscard]] std::string deadlock_note() const;

 private:
  /// A vector clock stored as a shared dense baseline plus a sparse overlay.
  /// Dense per-rank clocks are O(ranks²) — 80 GB at the 100k-rank smoke test
  /// (the same wall util::PairMap removed from the runtime's FIFO state).
  /// Every collective here is world-wide, so each completed wave collapses
  /// all ranks onto one shared base vector (the merged wave clock, built once
  /// per wave); between collectives a rank's `delta` holds only components it
  /// advanced itself or learned point-to-point — O(neighbors), not O(ranks).
  /// Snapshots (wire messages, in-flight put records) are cheap Clock copies.
  struct Clock {
    std::shared_ptr<const std::vector<std::uint64_t>> base;
    /// Sorted by rank; each value strictly exceeds the base component.
    std::vector<std::pair<std::int32_t, std::uint64_t>> delta;
  };

  struct Rec {
    std::int32_t rank = -1;
    AccessKind kind = AccessKind::kPut;
    PutClass cls = PutClass::kData;
    bool in_flight = false;  ///< put not yet flushed/quieted nor observed
    bool applied = false;    ///< delivery applied at the target
    /// flush_local completed this put locally (origin buffer reusable) but
    /// not remotely; only sharpens W1/W2 diagnostics, never orders anything.
    bool locally_complete = false;
    std::uint64_t off = 0;
    std::uint64_t bytes = 0;
    /// Ordering clock: the component of `rank`'s clock that must be known
    /// (vc[observer][rank] >= order_clk) for this access to happen-before a
    /// later one. ~0 while a put is in flight.
    std::uint64_t order_clk = 0;
    simnet::TimeUs t = 0;
    /// Origin clock snapshot at issue (puts only; base is null otherwise);
    /// kept until the target applies the delivery, then freed.
    Clock vc;
  };
  struct Region {
    std::vector<Rec> recs;
    std::uint64_t overflow = 0;  ///< accesses dropped past history_limit_
  };
  struct Space {
    std::string name;
    std::vector<Region> regions;  ///< one per owner rank
  };
  struct InFlight {
    int space = -1;
    int owner = -1;
    std::uint32_t idx = kNoRec;
  };
  struct ChanSlot {
    std::uint64_t gen = ~0ull;
    /// Merged wave clock (dense base, empty delta): dominates every
    /// entrant's clock, so completion adopts it instead of joining.
    Clock merged;
  };
  struct Channel {
    std::string name;
    int clears_space = -1;
    std::uint64_t gen = 0;
    int entered = 0;
    CollSig expected;
    int first_rank = -1;
    simnet::TimeUs first_t = 0;
    std::vector<std::uint8_t> in_wave;  ///< ranks inside the current wave
    std::vector<std::uint64_t> merged;  ///< accumulating entrant clocks
    /// First entrant's base: later same-base entrants merge only their
    /// deltas (O(delta) instead of O(ranks) per entrant).
    std::shared_ptr<const std::vector<std::uint64_t>> wave_base;
    ChanSlot done[4];                   ///< sealed merges, ring like CollSlot
  };
  struct Wire {  ///< in-flight p2p clock snapshots for one (src,dst) pair
    std::uint64_t key = 0;  ///< (src << 32) | dst; wires_ is sorted by key
    std::vector<std::pair<std::uint64_t, Clock>> msgs;
  };

  /// Component `r` of clock `c`.
  [[nodiscard]] std::uint64_t clk(const Clock& c, int r) const;
  /// Raises component `r` of `c` to at least `v`.
  void set_clk(Clock& c, int r, std::uint64_t v);
  /// Materializes `c` as a dense vector (base with delta applied).
  [[nodiscard]] std::vector<std::uint64_t> dense(const Clock& c) const;
  void tick(int rank);
  void join(int rank, const Clock& other);
  [[nodiscard]] Wire& wire(int src, int dst);
  /// Scans `region` for conflicts with a new access, records the access,
  /// returns its record index (kNoRec when the history is full).
  std::uint32_t scan_and_record(int space, int owner, Rec rec);
  [[nodiscard]] bool conflicts(const Rec& a, const Rec& b) const;
  void add_violation(Violation v);
  [[nodiscard]] std::string where(int space, int owner) const;

  bool enabled_ = false;
  int nranks_ = 0;
  std::uint64_t history_limit_ = 1u << 16;
  /// Base shared by all clocks at run start (all zeros).
  std::shared_ptr<const std::vector<std::uint64_t>> zero_base_;
  std::vector<Clock> vc_;  ///< per-rank vector clocks
  std::vector<Space> spaces_;
  std::vector<Channel> channels_;
  std::vector<Wire> wires_;
  std::vector<std::vector<InFlight>> in_flight_;  ///< per origin rank
  std::vector<Violation> violations_;
  std::vector<std::uint64_t> per_rank_violations_;
  std::uint64_t suppressed_ = 0;  ///< violations past the report cap
};

/// Process-wide default for EngineOptions::check (initially false, or true
/// when the MSGROOF_CHECK environment variable is set non-zero — that is how
/// CI runs the whole test suite checker-enabled). CLI/bench `--check` flags
/// flip it on.
[[nodiscard]] bool default_check();
void set_default_check(bool on);

/// Process-wide default for the per-region shadow-history cap (initially
/// 65536). CLI/bench `--check-history N` flags override it.
[[nodiscard]] std::uint64_t default_check_history();
void set_default_check_history(std::uint64_t n);

/// Whether engines publish their verdicts to the CheckReportRegistry at run
/// end (initially false; the `--check-report PATH` flag flips it on along
/// with the checker itself).
[[nodiscard]] bool default_check_report();
void set_default_check_report(bool on);

/// Machine-readable JSON for a verdict list: schema tag
/// "msgroof.check_report.v1", a violation count, and one object per verdict
/// with every Violation field (times in microseconds, fixed 3-decimal
/// format). Schema-stable and test-pinned.
void write_check_report_json(const std::vector<Violation>& violations,
                             std::ostream& os);

/// Process-wide collection of every published run's verdicts, for the
/// `--check-report PATH` dump. Publishes arrive in nondeterministic order
/// under parallel sweeps, so the dump sorts violations lexicographically by
/// their full field tuple — the bytes are independent of scheduler and
/// --jobs, like the metrics registry.
class CheckReportRegistry {
 public:
  static CheckReportRegistry& instance();

  void publish(const std::vector<Violation>& violations);
  void reset();
  [[nodiscard]] std::vector<Violation> sorted_violations() const;
  Status write_json(const std::string& path) const;

 private:
  CheckReportRegistry() = default;

  mutable std::mutex mu_;
  std::vector<Violation> violations_;
};

}  // namespace mrl::check
