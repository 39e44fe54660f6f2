// Stackful user-level fibers for the engine's cooperative rank scheduler.
//
// One Fiber is one suspended call stack. switch_to() transfers control from
// the currently executing context to another entirely in user space: on
// x86-64 it is a hand-rolled callee-saved-register swap (tens of
// nanoseconds, no mutex, no condvar, no kernel involvement — not even the
// sigprocmask syscall swapcontext() performs); on other architectures it
// falls back to POSIX swapcontext().
//
// Stack allocation comes in two flavors (DESIGN.md §12):
//   * create() — one mmap per fiber, optionally with a PROT_NONE guard page
//     below the usable region so an overflow faults immediately instead of
//     silently corrupting a neighboring fiber's stack. The guard costs two
//     kernel VMAs per fiber; Linux caps a process at vm.max_map_count
//     (~65k) mappings.
//   * create_pooled() — the stack is a slot carved out of a process-wide
//     pooled slab (StackPool): one large mmap hosts many equally sized
//     slots, and destroyed fibers return their slot to a freelist for
//     reuse. One slab = one VMA regardless of how many fibers it hosts, so
//     million-fiber engines stay far from the VMA cap and repeated
//     engine construction recycles already-faulted pages instead of paying
//     mmap/munmap churn. Pooled slots are unguarded (adjacent slots abut);
//     the stack high-water-mark sentinel audits headroom instead.
//
// Sanitizer support:
//   * AddressSanitizer — every switch is bracketed with
//     __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so
//     ASan always knows which stack is active (including its fake-stack
//     when detect_stack_use_after_return is on). Recycled pool slots are
//     explicitly unpoisoned on release so a dead fiber's redzones cannot
//     leak into its successor.
//   * ThreadSanitizer — every created fiber gets its own TSan fiber
//     (__tsan_create_fiber, destroyed with the Fiber), adopt_thread() takes
//     the calling thread's current TSan fiber as the main context, and every
//     switch announces its target with __tsan_switch_to_fiber. TSan then
//     keeps a shadow stack and vector clock per fiber, and each switch is a
//     happens-before edge, so the engine's cross-thread state (the stack
//     pool, the metrics registry, engines driven from sweep-pool workers) is
//     race-checked on the real execution path (DESIGN.md §8).
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define MRL_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MRL_FIBER_TSAN 1
#endif
#endif

namespace mrl::runtime {

/// Pool occupancy snapshot, for tests and capacity audits.
struct StackPoolStats {
  std::size_t slabs = 0;        ///< mmap'd slabs alive (never unmapped)
  std::size_t total_slots = 0;  ///< slots carved across all slabs
  std::size_t free_slots = 0;   ///< slots currently on freelists
};
[[nodiscard]] StackPoolStats stack_pool_stats();

class Fiber {
 public:
  Fiber() = default;
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Allocates a stack of (at least) `stack_bytes` usable bytes and primes
  /// the fiber so the first switch_to() into it enters `entry(arg)`.
  /// `entry` must never return — a fiber ends its life suspended in a
  /// switch_to() away from itself (or is simply destroyed while parked).
  ///
  /// `guard` adds a PROT_NONE page below the usable region so an overflow
  /// faults immediately. Each guarded stack costs two kernel VMAs, and
  /// Linux caps a process at vm.max_map_count (~65k) mappings — so engines
  /// with very large worlds (100k+ ranks) must pass guard=false and rely on
  /// the stack high-water-mark sentinel to audit headroom instead.
  void create(std::size_t stack_bytes, void (*entry)(void*), void* arg,
              bool guard = true);

  /// Like create(), but the stack is an unguarded slot from the process-wide
  /// StackPool (see the header comment). The slot returns to the pool's
  /// freelist when this Fiber is destroyed.
  void create_pooled(std::size_t stack_bytes, void (*entry)(void*), void* arg);

  /// Marks this Fiber as the calling OS thread's native context so created
  /// fibers can switch back to it. Call before the first switch of every
  /// scheduling episode: the episode's owning thread may change between
  /// calls (e.g. an engine driven from different sweep-pool workers).
  void adopt_thread();

  /// Suspends `from` (which must be the currently executing context) and
  /// resumes `to`. Returns when `from` is next switched to.
  static void switch_to(Fiber& from, Fiber& to);

  /// True once create() gave this fiber its own stack.
  [[nodiscard]] bool created() const { return stack_mem_ != nullptr; }

  /// Fills the not-yet-touched part of the stack with a sentinel pattern so
  /// stack_high_water_bytes() can later tell how deep execution reached.
  /// Call right after create(), before the first switch-in. Commits the
  /// stack's pages, so it is opt-in (metrics runs only).
  void poison_stack();

  /// Deepest stack use observed since poison_stack(), in bytes from the top
  /// of the usable region. Zero if the stack was never poisoned.
  [[nodiscard]] std::size_t stack_high_water_bytes() const;

  /// Usable (guard-page-excluded) stack bytes.
  [[nodiscard]] std::size_t stack_usable_bytes() const;

  // Used by the entry trampolines; not part of the public surface.
  void run_entry_for_trampoline();

 private:
  /// Shared tail of create()/create_pooled(): primes the switch context on
  /// the usable region starting at `lo`.
  void init_context(char* lo, std::size_t usable);

  void* sp_ = nullptr;          ///< asm backend: saved stack pointer
  void* uctx_ = nullptr;        ///< ucontext backend: heap ucontext_t
  void* stack_mem_ = nullptr;   ///< stack base (guard page + usable stack)
  std::size_t stack_total_ = 0; ///< total stack bytes incl. guard page
  std::size_t guard_bytes_ = 0; ///< PROT_NONE prefix (0 = unguarded stack)
  bool pooled_ = false;         ///< stack_mem_ is a StackPool slot
  void (*entry_)(void*) = nullptr;
  void* arg_ = nullptr;
  bool poisoned_ = false;       ///< stack filled with the HWM sentinel
  // AddressSanitizer bookkeeping (unused members cost nothing otherwise).
  void* asan_fake_ = nullptr;         ///< fake-stack handle while suspended
  const void* asan_bottom_ = nullptr; ///< stack region for ASan
  std::size_t asan_size_ = 0;
#if defined(MRL_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;  ///< TSan fiber (owned iff created())
#endif
};

}  // namespace mrl::runtime
