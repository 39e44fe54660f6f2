#include "runtime/engine.hpp"

#include <algorithm>
#include <sstream>

#include "runtime/profiler.hpp"
#include "util/log.hpp"

namespace mrl::runtime {

namespace {

std::atomic<SchedulerKind> g_default_scheduler{SchedulerKind::kIndexedHeap};
std::atomic<double> g_default_watchdog_virtual_us{1e9};
std::atomic<std::size_t> g_default_fiber_stack_bytes{256 * 1024};
std::atomic<bool> g_default_stack_pool{true};
std::atomic<bool> g_default_trace{false};
std::atomic<bool> g_default_spans{false};

}  // namespace

const char* to_string(EngineBackend) { return "fibers"; }

EngineBackend default_backend() { return EngineBackend::kFibers; }

const char* to_string(SchedulerKind s) {
  return s == SchedulerKind::kIndexedHeap ? "heap" : "linear";
}

SchedulerKind default_scheduler() {
  return g_default_scheduler.load(std::memory_order_relaxed);
}

void set_default_scheduler(SchedulerKind s) {
  g_default_scheduler.store(s, std::memory_order_relaxed);
}

double default_watchdog_virtual_us() {
  return g_default_watchdog_virtual_us.load(std::memory_order_relaxed);
}

void set_default_watchdog_virtual_us(double us) {
  g_default_watchdog_virtual_us.store(us, std::memory_order_relaxed);
}

std::size_t default_fiber_stack_bytes() {
  return g_default_fiber_stack_bytes.load(std::memory_order_relaxed);
}

void set_default_fiber_stack_bytes(std::size_t bytes) {
  g_default_fiber_stack_bytes.store(bytes, std::memory_order_relaxed);
}

bool default_stack_pool() {
  return g_default_stack_pool.load(std::memory_order_relaxed);
}

void set_default_stack_pool(bool on) {
  g_default_stack_pool.store(on, std::memory_order_relaxed);
}

bool default_trace() { return g_default_trace.load(std::memory_order_relaxed); }

void set_default_trace(bool on) {
  g_default_trace.store(on, std::memory_order_relaxed);
}

bool default_spans() { return g_default_spans.load(std::memory_order_relaxed); }

void set_default_spans(bool on) {
  g_default_spans.store(on, std::memory_order_relaxed);
}

Engine::Engine(simnet::Platform platform, int nranks, EngineOptions opt)
    : platform_(std::move(platform)), nranks_(nranks), opt_(opt) {
  MRL_CHECK(nranks_ >= 1);
  MRL_CHECK_MSG(nranks_ <= platform_.max_ranks(),
                "more ranks than the platform can host");
  fabric_ = platform_.make_fabric();
  trace_.set_enabled(opt_.trace);
  spans_.set_enabled(opt_.spans);
  metrics_.set_enabled(opt_.metrics);
  checker_.set_enabled(opt_.check);
  checker_.set_history_limit(opt_.check_history);
  const auto n = static_cast<std::size_t>(nranks_);
  ranks_.reserve(n);
  for (int i = 0; i < nranks_; ++i) {
    std::unique_ptr<Rank> r(new Rank());  // ctor is Engine-private
    r->engine_ = this;
    r->id_ = i;
    r->size_ = nranks_;
    r->endpoint_ = platform_.endpoint_of_rank(i, nranks_);
    r->compute_scale_ = fabric_->faults().straggler_scale(i);
    ranks_.push_back(std::move(r));
  }
  rank_clock_.resize(n, 0);
  rank_wake_.resize(n, 0);
  rank_state_.resize(n, RankState::kReady);
  rank_slot_.resize(n, kSlotNone);
  rank_cond_.resize(n, nullptr);
  rank_what_.resize(n, "");
  if (opt_.spans) {
    rank_cause_rank_.resize(n, -1);
    rank_cause_t_.resize(n, 0);
    rank_cause_nspans_.resize(n, 0);
  }
}

RunResult Engine::run(const std::function<void(Rank&)>& body) {
  if (running_.exchange(true)) {
    // Called from inside a rank body (on the same thread) or concurrently
    // from another thread: either would corrupt the in-progress schedule.
    RunResult res;
    res.status = Status(ErrorCode::kInvalidArgument,
                        "Engine::run is not reentrant: a run is already in "
                        "progress on this engine");
    return res;
  }
  RunResult res = run_fibers(body);
  running_.store(false);
  bool checker_verdict = false;
  if (checker_.enabled()) {
    if (res.ok()) {
      // End-of-run sweep (never-completed puts), then convert an otherwise
      // clean run into a checker verdict. The report text is built purely
      // from virtual-time-ordered events, so it is bit-identical across
      // job counts and schedulers.
      checker_.on_run_end();
      if (checker_.has_violations()) {
        res.status = Status(ErrorCode::kFailedPrecondition, checker_.report());
      }
    }
    checker_verdict = res.status.code() == ErrorCode::kFailedPrecondition;
    if (check::default_check_report() && !checker_.violations().empty()) {
      // The registry sorts at dump time, so the nondeterministic publish
      // order under parallel sweeps cannot perturb the exported JSON bytes.
      check::CheckReportRegistry::instance().publish(checker_.violations());
    }
    const auto& counts = checker_.violation_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != 0) {
        metrics_.on_violations(static_cast<int>(i), counts[i]);
      }
    }
  }
  if (opt_.metrics && (res.ok() || checker_verdict)) {
    // Registry aggregation is restricted to commutative quantities, so the
    // nondeterministic publish order under parallel sweeps cannot perturb
    // the exported bytes (DESIGN.md §9). Checker verdicts still publish:
    // the simulation itself completed, and the CSV is where the violations
    // counter family lands.
    MetricsRegistry::instance().publish(metrics_report());
  }
  if (opt_.spans && (res.ok() || checker_verdict)) {
    // Same gating as the metrics publish: the simulation completed (possibly
    // with a checker verdict), so its trace/spans are a coherent run the
    // profiler may select (DESIGN.md §14).
    ProfileCapture::instance().offer(*this, res);
  }
  return res;
}

MetricsReport Engine::metrics_report() const {
  MetricsReport rep;
  rep.nranks = nranks_;
  if (!metrics_.enabled()) return rep;
  rep.ranks = metrics_.ranks();
  for (const simnet::TimeUs c : rank_clock_) {
    rep.makespan_us = std::max(rep.makespan_us, c);
  }
  const simnet::Topology& topo = fabric_->topology();
  rep.links.reserve(static_cast<std::size_t>(topo.num_links()) * 2);
  for (int l = 0; l < topo.num_links(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      rep.links.push_back(LinkMetrics{topo.link(l).name, l, dir,
                                      fabric_->link_msgs(l, dir),
                                      fabric_->link_busy_us(l, dir),
                                      fabric_->link_queue_us(l, dir)});
    }
  }
  rep.stack_hwm_bytes = stack_high_water_bytes();
  if (!fibers_.empty() && fibers_.front()->created()) {
    rep.stack_usable_bytes = fibers_.front()->stack_usable_bytes();
  }
  return rep;
}

std::vector<std::size_t> Engine::stack_high_water_bytes() const {
  std::vector<std::size_t> hwm;
  if (!metrics_.enabled() || fibers_.empty()) return hwm;
  hwm.reserve(fibers_.size());
  for (const auto& f : fibers_) hwm.push_back(f->stack_high_water_bytes());
  return hwm;
}

// ---------------------------------------------------------------------------
// Scheduler state machine. Everything runs on the thread inside run(), so it
// is naturally serialized.
// ---------------------------------------------------------------------------

void Engine::reset_run_state(const std::function<void(Rank&)>& body) {
  if (opt_.reset_fabric_each_run) fabric_->reset();
  trace_.clear();
  if (opt_.spans) {
    spans_.reset(nranks_);
    std::fill(rank_cause_rank_.begin(), rank_cause_rank_.end(), -1);
    std::fill(rank_cause_t_.begin(), rank_cause_t_.end(), simnet::TimeUs{0});
    std::fill(rank_cause_nspans_.begin(), rank_cause_nspans_.end(), 0u);
  }
  metrics_.reset(nranks_);
  if (checker_.enabled()) checker_.reset(nranks_);
  const bool heap = opt_.scheduler == SchedulerKind::kIndexedHeap;
  ready_.clear();
  blocked_.clear();
  if (heap) {
    ready_heap_.reset(nranks_);
  } else {
    ready_.reserve(static_cast<std::size_t>(nranks_));
  }
  for (int i = 0; i < nranks_; ++i) {
    const auto s = static_cast<std::size_t>(i);
    Rank& r = *ranks_[s];
    r.epoch_ = 0;
    r.last_wait_what_ = nullptr;
    r.last_wait_t_ = 0;
    rank_clock_[s] = 0;
    rank_wake_[s] = 0;
    rank_state_[s] = RankState::kReady;
    rank_slot_[s] = kSlotNone;
    rank_cond_[s] = nullptr;
    rank_what_[s] = "";
    if (heap) {
      ready_heap_.push(i, 0);
    } else {
      ready_.push_back(i);
    }
  }
  blocked_count_ = 0;
  gates_.clear();
  gate_index_.clear();
  gated_count_ = 0;
  granted_ = -1;
  finalize_rank_ = -1;
  done_count_ = 0;
  abort_ = false;
  abort_code_ = ErrorCode::kDeadlock;
  abort_reason_.clear();
  body_error_.clear();
  body_ = &body;
}

RunResult Engine::collect_result() {
  RunResult res;
  res.rank_end_us.reserve(static_cast<std::size_t>(nranks_));
  for (const simnet::TimeUs c : rank_clock_) {
    res.rank_end_us.push_back(c);
    res.makespan_us = std::max(res.makespan_us, c);
  }
  if (!body_error_.empty()) {
    res.status = Status(ErrorCode::kInternal, body_error_);
  } else if (abort_) {
    res.status = Status(abort_code_, abort_reason_);
  }
  return res;
}

void Engine::set_state(int id, RankState s) {
  const auto i = static_cast<std::size_t>(id);
  if (rank_state_[i] == s) return;
  const bool heap = opt_.scheduler == SchedulerKind::kIndexedHeap;
  if (rank_state_[i] == RankState::kReady) {
    if (heap) {
      ready_heap_.erase(id);
    } else {
      const auto it = std::find(ready_.begin(), ready_.end(), id);
      MRL_CHECK(it != ready_.end());
      *it = ready_.back();
      ready_.pop_back();
    }
  } else if (rank_state_[i] == RankState::kBlocked) {
    --blocked_count_;
    if (rank_slot_[i] == kSlotGated) {
      // Parked in a gate channel, not in blocked_. The channel entry is
      // popped by wake_gated (or skipped as stale on abort unwind).
      rank_slot_[i] = kSlotNone;
      --gated_count_;
    } else if (heap) {
      // Swap-remove from the blocked-rank index via the position slot.
      const std::int32_t p = rank_slot_[i];
      MRL_CHECK(p >= 0 && blocked_[static_cast<std::size_t>(p)] == id);
      const int last = blocked_.back();
      blocked_[static_cast<std::size_t>(p)] = last;
      rank_slot_[static_cast<std::size_t>(last)] = p;
      blocked_.pop_back();
      rank_slot_[i] = kSlotNone;
    }
  }
  rank_state_[i] = s;
  if (s == RankState::kReady) {
    // rank_wake_ is always finalized before a rank is (re)queued, so the
    // heap key never changes while the rank sits in the heap.
    if (heap) {
      ready_heap_.push(id, rank_wake_[i]);
    } else {
      ready_.push_back(id);
    }
  } else if (s == RankState::kBlocked) {
    ++blocked_count_;
    if (rank_slot_[i] == kSlotGated) {
      // Caller set the gate slot and registered the (threshold, id) channel
      // entry; the rank stays out of blocked_ so generic re-evaluation
      // skips it.
      ++gated_count_;
    } else if (heap) {
      rank_slot_[i] = static_cast<std::int32_t>(blocked_.size());
      blocked_.push_back(id);
    }
  }
}

int Engine::pick_min_ready() const {
  if (opt_.scheduler == SchedulerKind::kIndexedHeap) {
    // Heap top IS the (wake, id)-lexicographic minimum: same pick, same
    // lowest-rank-id tie-break as the linear scan below, in O(1).
    return ready_heap_.top();
  }
  // Min (wake, id) over the incrementally maintained ready list — for the
  // dominant 2-rank sweeps this inspects one or two entries, never all
  // ranks. Ties break toward the lowest rank id (deterministic order).
  int best = -1;
  simnet::TimeUs best_wake = 0;
  for (const int id : ready_) {
    const simnet::TimeUs w = rank_wake_[static_cast<std::size_t>(id)];
    if (best == -1 || w < best_wake || (w == best_wake && id < best)) {
      best = id;
      best_wake = w;
    }
  }
  return best;
}

void Engine::append_span_tails(std::ostringstream& os) const {
  // Terminal diagnostics only (deadlock/watchdog): the tail of each stuck
  // rank's timeline, so hangs are diagnosable without a separate trace run.
  // One backward scan over the global span store; bounded rank/span counts
  // keep the report readable at 100k+ ranks.
  if (!opt_.spans) return;
  constexpr std::size_t kMaxRanks = 8;
  constexpr std::size_t kMaxSpans = 4;
  std::vector<int> stuck;
  for (int i = 0; i < nranks_ && stuck.size() < kMaxRanks; ++i) {
    if (rank_state_[static_cast<std::size_t>(i)] == RankState::kBlocked) {
      stuck.push_back(i);
    }
  }
  if (stuck.empty()) return;
  const simnet::SpanStore& st = spans_.records();
  std::vector<std::vector<simnet::SpanRecord>> tails(stuck.size());
  std::size_t filled = 0;
  for (std::size_t j = st.size(); j > 0 && filled < stuck.size(); --j) {
    const simnet::SpanRecord& sp = st[j - 1];
    for (std::size_t k = 0; k < stuck.size(); ++k) {
      if (sp.rank != stuck[k] || tails[k].size() >= kMaxSpans) continue;
      tails[k].push_back(sp);
      if (tails[k].size() == kMaxSpans) ++filled;
      break;
    }
  }
  os << " recent spans:";
  for (std::size_t k = 0; k < stuck.size(); ++k) {
    os << " rank " << stuck[k] << " [";
    for (std::size_t i = tails[k].size(); i > 0; --i) {  // oldest first
      const simnet::SpanRecord& sp = tails[k][i - 1];
      os << to_string(sp.kind) << " " << sp.t_begin << ".." << sp.t_end
         << "us";
      if (sp.peer >= 0) os << " peer " << sp.peer;
      if (i > 1) os << ", ";
    }
    os << "];";
  }
}

void Engine::note_deadlock() {
  std::ostringstream os;
  os << "deadlock: all live ranks are blocked —";
  for (int i = 0; i < nranks_; ++i) {
    const auto s = static_cast<std::size_t>(i);
    if (rank_state_[s] == RankState::kBlocked) {
      os << " rank " << i << " waiting on [" << rank_what_[s] << "] at t="
         << rank_clock_[s] << "us;";
    } else if (rank_state_[s] == RankState::kDone) {
      // Finished ranks are often the cause (e.g. a rank that skipped a
      // collective): say what they last blocked on before exiting.
      const Rank& r = *ranks_[s];
      os << " rank " << i << " done at t=" << rank_clock_[s] << "us";
      if (r.last_wait_what_ != nullptr) {
        os << " (last blocked on [" << r.last_wait_what_ << "] at t="
           << r.last_wait_t_ << "us)";
      }
      os << ";";
    }
  }
  if (checker_.enabled()) os << checker_.deadlock_note();
  append_span_tails(os);
  abort_ = true;
  abort_reason_ = os.str();
  MRL_LOG_ERROR("%s", abort_reason_.c_str());
}

void Engine::note_body_error(int id, const char* what) {
  if (body_error_.empty()) {
    body_error_ = what != nullptr
                      ? "rank " + std::to_string(id) + " threw: " + what
                      : "rank " + std::to_string(id) +
                            " threw unknown exception";
  }
  abort_ = true;
  abort_reason_ = body_error_;
}

void Engine::wake_satisfied() {
  // Re-queue satisfiable waiters without resuming them: the wake hint
  // becomes their scheduling priority, and they run if and when they are
  // actually granted the baton.
  //
  // Wait conditions are monotonic and side-effect free (they are evaluated
  // speculatively and repeatedly — see Engine::wait), so the set of woken
  // ranks and their wake times do not depend on evaluation order; only the
  // ready queue's (wake, id) order decides who runs next. That makes the
  // unordered blocked-rank index below observably identical to the legacy
  // ascending-id scan.
  if (blocked_count_ == 0) return;
  if (opt_.scheduler == SchedulerKind::kIndexedHeap) {
    if (gated_count_ > 0) wake_gated();
    // Walk only actual waiters. A wake swap-removes blocked_[i], so the
    // index advances only past ranks that stayed blocked.
    for (std::size_t i = 0; i < blocked_.size();) {
      const int id = blocked_[i];
      const auto s = static_cast<std::size_t>(id);
      MRL_CHECK(rank_cond_[s] != nullptr);
      if (auto w = (*rank_cond_[s])()) {
        rank_wake_[s] = std::max(rank_clock_[s], *w);
        note_wake_cause(s);
        set_state(id, RankState::kReady);
      } else {
        ++i;
      }
    }
    return;
  }
  int remaining = blocked_count_;
  for (int id = 0; id < nranks_ && remaining != 0; ++id) {
    const auto s = static_cast<std::size_t>(id);
    if (rank_state_[s] != RankState::kBlocked) continue;
    --remaining;
    MRL_CHECK(rank_cond_[s] != nullptr);
    if (auto w = (*rank_cond_[s])()) {
      rank_wake_[s] = std::max(rank_clock_[s], *w);
      note_wake_cause(s);
      set_state(id, RankState::kReady);
    }
  }
}

void Engine::register_gated_waiter(int id, WaitGate gate) {
  const auto [it, inserted] = gate_index_.try_emplace(gate.counter, 0);
  if (inserted) {
    it->second = gates_.size();
    GateChannel& ch = gates_.emplace_back();
    ch.counter = gate.counter;
    ch.waiters.emplace(gate.threshold, id);
    return;
  }
  gates_[it->second].waiters.emplace(gate.threshold, id);
}

void Engine::wake_gated() {
  // One raw u64 load per live channel, then pop exactly the waiters whose
  // threshold the counter has reached. Waiters whose threshold is still
  // ahead are never visited — this is what keeps a P-rank wave O(P log P)
  // instead of O(P²). Channel visit order never affects results: waking
  // only pushes into the ready heap, whose (wake, id) order is
  // insertion-order independent.
  for (std::size_t g = 0; g < gates_.size();) {
    GateChannel& ch = gates_[g];
    while (!ch.waiters.empty() && *ch.counter >= ch.waiters.top().first) {
      const int id = ch.waiters.top().second;
      ch.waiters.pop();
      const auto s = static_cast<std::size_t>(id);
      // Stale entries (rank already unwound by an abort, or re-parked and
      // woken via a fresher entry) are skipped.
      if (rank_state_[s] != RankState::kBlocked || rank_slot_[s] != kSlotGated) {
        continue;
      }
      MRL_CHECK(rank_cond_[s] != nullptr);
      if (const auto w = (*rank_cond_[s])()) {
        rank_wake_[s] = std::max(rank_clock_[s], *w);
        note_wake_cause(s);
        set_state(id, RankState::kReady);
      } else {
        // Counter crossed but the condition is still unsatisfiable — e.g. a
        // message arrived on the gated (src,dst) channel with a tag this
        // receive does not match. Re-park at the counter's next value: the
        // WaitGate contract says the condition can only become satisfiable
        // in a perform that advances the counter, so nothing is missed.
        // (The new threshold exceeds the current counter value, so this
        // entry is not re-popped by the drain loop above.)
        ch.waiters.emplace(*ch.counter + 1, id);
      }
    }
    if (ch.waiters.empty()) {
      // Swap-remove the drained channel so dead counters are not loaded
      // (and cannot dangle) on later passes.
      gate_index_.erase(ch.counter);
      if (g + 1 != gates_.size()) {
        gates_[g] = std::move(gates_.back());
        gate_index_[gates_[g].counter] = g;
      }
      gates_.pop_back();
    } else {
      ++g;
    }
  }
}

void Engine::check_abort(const Rank&) const {
  if (abort_) throw AbortException{};
}

void Engine::check_watchdog(const Rank& r) {
  if (opt_.watchdog_virtual_us <= 0 ||
      rank_clock_[static_cast<std::size_t>(r.id_)] < opt_.watchdog_virtual_us) {
    return;
  }
  // Livelock: the rank keeps making communication calls but its virtual
  // clock has run past any plausible completion time. Convert the run into
  // a diagnosable timeout instead of spinning forever.
  std::ostringstream os;
  os << "progress watchdog: rank " << r.id_ << " passed the virtual-time "
     << "limit (" << opt_.watchdog_virtual_us << "us) —";
  for (int i = 0; i < nranks_; ++i) {
    const auto s = static_cast<std::size_t>(i);
    os << " rank " << i << " at t=" << rank_clock_[s] << "us";
    switch (rank_state_[s]) {
      case RankState::kBlocked:
        os << " [blocked on " << rank_what_[s] << "]";
        break;
      case RankState::kDone: os << " [done]"; break;
      default: os << " [runnable]"; break;
    }
    // The last blocking op a runnable-or-done rank entered is usually the
    // protocol step the stuck party is spinning against (e.g. a CAS retry
    // storm): name it and its virtual time.
    const Rank& other = *ranks_[s];
    if (rank_state_[s] != RankState::kBlocked &&
        other.last_wait_what_ != nullptr) {
      os << " (last blocked on [" << other.last_wait_what_ << "] at t="
         << other.last_wait_t_ << "us)";
    }
    os << ";";
  }
  if (checker_.enabled()) os << checker_.deadlock_note();
  append_span_tails(os);
  abort_ = true;
  abort_code_ = ErrorCode::kTimeout;
  abort_reason_ = os.str();
  MRL_LOG_ERROR("%s", abort_reason_.c_str());
  throw AbortException{};
}

void Engine::abort_run(Rank&, ErrorCode code, std::string reason) {
  // Called from inside a perform body (the engine is quiescent) — same
  // contract and unwind path as check_watchdog.
  abort_ = true;
  abort_code_ = code;
  abort_reason_ = std::move(reason);
  MRL_LOG_ERROR("%s", abort_reason_.c_str());
  throw AbortException{};
}

// ---------------------------------------------------------------------------
// Fibers: every rank is a stackful fiber, the whole engine runs on the
// single thread that called run(), and the baton is a direct user-space
// context switch.
// ---------------------------------------------------------------------------

RunResult Engine::run_fibers(const std::function<void(Rank&)>& body) {
  reset_run_state(body);
  // The calling thread may differ between runs (e.g. one engine driven from
  // different sweep-pool workers), so (re)adopt it each run.
  main_fiber_.adopt_thread();
  if (fibers_.empty()) {
    // Lazy persistent contexts: created once, parked between runs suspended
    // in fiber_exit_run().
    fiber_start_.resize(static_cast<std::size_t>(nranks_));
    fibers_.reserve(static_cast<std::size_t>(nranks_));
    // Guarded stacks cost two kernel VMAs each and vm.max_map_count caps a
    // process at ~65k mappings; past that, skip the guard pages and rely on
    // the stack HWM sentinel (poison_stack) to audit headroom instead.
    // Pooled stacks amortize further: one slab VMA hosts many slots
    // (DESIGN.md §12).
    const bool guard = !opt_.stack_pool && nranks_ <= 16384;
    for (int i = 0; i < nranks_; ++i) {
      fiber_start_[static_cast<std::size_t>(i)] = FiberStart{this, i};
      auto f = std::make_unique<Fiber>();
      if (opt_.stack_pool) {
        f->create_pooled(opt_.fiber_stack_bytes, &Engine::fiber_entry,
                         &fiber_start_[static_cast<std::size_t>(i)]);
      } else {
        f->create(opt_.fiber_stack_bytes, &Engine::fiber_entry,
                  &fiber_start_[static_cast<std::size_t>(i)], guard);
      }
      // Poisoning commits the stack pages, so only pay for it when the
      // metrics report will actually read the high-water marks.
      if (opt_.metrics) f->poison_stack();
      fibers_.push_back(std::move(f));
    }
  }
  const int first = pick_min_ready();
  MRL_CHECK(first != -1);
  granted_ = first;
  Fiber::switch_to(main_fiber_, *fibers_[static_cast<std::size_t>(first)]);
  if (abort_) {
    // Fibers suspended mid-wait still hold live frames (user code with
    // destructors). Resume each one so it observes abort_, throws
    // AbortException, unwinds cleanly, and parks as kDone.
    for (int i = 0; i < nranks_; ++i) {
      while (rank_state_[static_cast<std::size_t>(i)] != RankState::kDone) {
        granted_ = i;
        Fiber::switch_to(main_fiber_, *fibers_[static_cast<std::size_t>(i)]);
      }
    }
  }
  MRL_CHECK(done_count_ == nranks_);
  body_ = nullptr;
  return collect_result();
}

void Engine::fiber_entry(void* start) {
  auto* s = static_cast<FiberStart*>(start);
  s->engine->fiber_worker(s->id);  // never returns (parks between runs)
}

void Engine::fiber_worker(int id) {
  Rank& r = *ranks_[static_cast<std::size_t>(id)];
  for (;;) {
    // Granted: either the first grant of a fresh run, or an abort-unwind
    // resume for a rank whose body never started this run.
    if (!abort_) {
      set_state(id, RankState::kRunning);
      try {
        (*body_)(r);
      } catch (const AbortException&) {
        // Engine-initiated unwind (deadlock/watchdog/abort elsewhere).
      } catch (const std::exception& e) {
        note_body_error(id, e.what());
      } catch (...) {
        note_body_error(id, nullptr);
      }
    }
    set_state(id, RankState::kDone);
    ++done_count_;
    fiber_exit_run(r);
  }
}

// Departure switch at the end of a rank's run: hand the baton onward (or
// report back to run_fibers). The fiber parks here, suspended, until a later
// run() grants it again.
void Engine::fiber_exit_run(Rank& r) {
  Fiber& self = *fibers_[static_cast<std::size_t>(r.id_)];
  if (abort_ || done_count_ == nranks_) {
    Fiber::switch_to(self, main_fiber_);
  } else {
    const int next = pick_min_ready();
    if (next != -1) {
      granted_ = next;
      Fiber::switch_to(self, *fibers_[static_cast<std::size_t>(next)]);
    } else {
      // Everyone left alive is blocked.
      note_deadlock();
      Fiber::switch_to(self, main_fiber_);
    }
  }
  // Resumed: granted at the start of a subsequent run().
  MRL_CHECK(granted_ == r.id_);
}

// Relinquish the baton and return once this rank is granted again. The
// caller must already be queued (kReady) unless it is kBlocked, in which
// case running out of runnable ranks means deadlock.
void Engine::fiber_yield(Rank& r) {
  const int next = pick_min_ready();
  if (next == r.id_) {
    // Still the min-clock runnable rank: keep the baton, no switch at all.
    granted_ = r.id_;
    return;
  }
  if (next == -1) {
    note_deadlock();
    throw AbortException{};
  }
  granted_ = next;
  Fiber::switch_to(*fibers_[static_cast<std::size_t>(r.id_)],
                   *fibers_[static_cast<std::size_t>(next)]);
  // Resumed: either granted, or being unwound after an abort elsewhere.
  check_abort(r);
  MRL_CHECK(granted_ == r.id_);
}

// ---------------------------------------------------------------------------
// Public protocol.
// ---------------------------------------------------------------------------

void Engine::perform(Rank& r, const std::function<void()>& fn) {
  const auto s = static_cast<std::size_t>(r.id_);
  check_abort(r);
  check_watchdog(r);
  rank_wake_[s] = rank_clock_[s];
  set_state(r.id_, RankState::kReady);
  fiber_yield(r);
  set_state(r.id_, RankState::kRunning);
  fn();
  wake_satisfied();
}

void Engine::wait(Rank& r, const char* what,
                  const std::function<std::optional<double>()>& cond,
                  const std::function<void()>& finalize, WaitGate gate) {
  // Blocked duration is measured in virtual time (the rank clock), so it is
  // identical across schedulers and job counts by construction.
  const int id = r.id_;
  const auto s = static_cast<std::size_t>(id);
  const simnet::TimeUs t0 = rank_clock_[s];
  r.last_wait_what_ = what;
  r.last_wait_t_ = t0;
  // Captured before the linear-scan zeroing below: the span's gate field
  // must not depend on the scheduler (byte-identity contract).
  const std::uint64_t gate_thr = gate.counter != nullptr ? gate.threshold : 0;
  if (opt_.spans) rank_cause_rank_[s] = -1;
  // The linear-scan scheduler ignores gates: it brute-force re-evaluates
  // every blocked condition, which is exactly the oracle the cross-scheduler
  // identity tests compare the gated path against.
  if (opt_.scheduler != SchedulerKind::kIndexedHeap) gate = {};
  check_abort(r);
  check_watchdog(r);
  // The `holding` rule: once this rank has been resumed from kBlocked it was
  // granted by the previous holder's yield, so it must NOT yield again before
  // running — doing so would re-enter the scheduler a second time and could
  // change the grant order.
  bool holding = true;
  for (;;) {
    if (auto w = cond()) {
      rank_wake_[s] = std::max(rank_clock_[s], *w);
      set_state(id, RankState::kReady);
      if (holding) fiber_yield(r);
      MRL_CHECK(granted_ == id);
      set_state(id, RankState::kRunning);
      auto w2 = cond();
      MRL_CHECK_MSG(w2.has_value(),
                    "wait condition became unsatisfiable (must be monotonic)");
      rank_clock_[s] = std::max(rank_clock_[s], *w2);
      if (finalize) {
        finalize_rank_ = id;
        finalize();
        wake_satisfied();
        finalize_rank_ = -1;
      }
      break;
    }
    rank_cond_[s] = &cond;
    rank_what_[s] = what;
    if (gate.counter != nullptr) {
      rank_slot_[s] = kSlotGated;
      register_gated_waiter(id, gate);
    }
    set_state(id, RankState::kBlocked);
    // Suspend until granted (wake_satisfied re-queues us when the condition
    // becomes satisfiable; a later yield then picks us). Detects deadlock
    // synchronously if no rank is runnable.
    fiber_yield(r);
    holding = false;
    rank_cond_[s] = nullptr;
    // Re-evaluate cond via the satisfiable path (monotonic ⇒ it holds now).
  }
  if (opt_.spans) {
    // Causeless when the condition was satisfiable at entry (the rank never
    // parked, though virtual time may still have advanced to the wake time).
    simnet::SpanRecord sp;
    sp.rank = id;
    sp.kind = simnet::span_kind_from_wait_label(what);
    sp.t_begin = t0;
    sp.t_end = rank_clock_[s];
    sp.gate = gate_thr;
    if (rank_cause_rank_[s] >= 0) {
      sp.peer = rank_cause_rank_[s];
      sp.cause_t = rank_cause_t_[s];
      sp.cause_nspans = rank_cause_nspans_[s];
    }
    spans_.record(sp);
  }
  metrics_.on_wait(id, rank_clock_[s] - t0);
}

}  // namespace mrl::runtime
