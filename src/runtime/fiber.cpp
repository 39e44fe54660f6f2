#include "runtime/fiber.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/status.hpp"

// ---------------------------------------------------------------------------
// Build-configuration detection.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
#define MRL_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MRL_FIBER_ASAN 1
#endif
#endif

// Hand-rolled switch on x86-64; POSIX swapcontext() everywhere else.
// MRL_FIBER_FORCE_UCONTEXT forces the fallback (used to test that path on
// x86-64 hosts).
#if defined(__x86_64__) && !defined(MRL_FIBER_FORCE_UCONTEXT)
#define MRL_FIBER_ASM 1
#else
#include <ucontext.h>
#endif

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

#if defined(MRL_FIBER_ASAN)
extern "C" {
// Declared here instead of including <sanitizer/common_interface_defs.h> so
// non-sanitized builds need no sanitizer headers at all.
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(const volatile void* addr, std::size_t size);
}
#endif

#if defined(MRL_FIBER_TSAN)
extern "C" {
// Declared here for the same reason (<sanitizer/tsan_interface.h>).
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace mrl::runtime {

namespace {

// Target bytes per pooled stack slab; each slab hosts
// floor(kStackPoolSlabBytes / slot_bytes) slots (at least one).
constexpr std::size_t kStackPoolSlabBytes = 64 * 1024 * 1024;

// Called first thing on a fiber's stack, for both trampoline flavors:
// completes the sanitizer's view of the inbound switch.
inline void finish_first_entry_switch() {
#if defined(MRL_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
}

// ---------------------------------------------------------------------------
// StackPool: process-wide pooled fiber stacks (DESIGN.md §12).
//
// One size class per distinct slot size; each class carves slabs of
// ~kStackPoolSlabBytes into equal slots and keeps released slots on a
// freelist. Slabs are never unmapped: pooled stacks are meant for engines
// that come and go (sweeps construct thousands), so the pages a run faulted
// in stay resident for the next engine instead of being returned and
// re-zeroed by the kernel. A leaked singleton — like MetricsRegistry — so
// fibers destroyed during static destruction can still release their slots.
// ---------------------------------------------------------------------------

class StackPool {
 public:
  static StackPool& instance() {
    static StackPool* pool = new StackPool;  // leaked deliberately
    return *pool;
  }

  void* acquire(std::size_t slot_bytes) {
    std::lock_guard lk(mu_);
    SizeClass& sc = class_for_locked(slot_bytes);
    if (sc.free.empty()) carve_slab_locked(sc);
    void* slot = sc.free.back();
    sc.free.pop_back();
    return slot;
  }

  void release(void* slot, std::size_t slot_bytes) {
#if defined(MRL_FIBER_ASAN)
    // The dead fiber's parked frames left poisoned redzones in shadow
    // memory; munmap would have cleared them, the freelist must too, or the
    // slot's next owner trips over ghost redzones.
    __asan_unpoison_memory_region(slot, slot_bytes);
#endif
    std::lock_guard lk(mu_);
    class_for_locked(slot_bytes).free.push_back(slot);
  }

  [[nodiscard]] StackPoolStats stats() {
    std::lock_guard lk(mu_);
    StackPoolStats st;
    st.slabs = slabs_;
    st.total_slots = total_slots_;
    for (const SizeClass& sc : classes_) st.free_slots += sc.free.size();
    return st;
  }

 private:
  struct SizeClass {
    std::size_t slot_bytes = 0;
    std::vector<void*> free;
  };

  SizeClass& class_for_locked(std::size_t slot_bytes) {
    for (SizeClass& sc : classes_) {
      if (sc.slot_bytes == slot_bytes) return sc;
    }
    SizeClass& sc = classes_.emplace_back();
    sc.slot_bytes = slot_bytes;
    return sc;
  }

  void carve_slab_locked(SizeClass& sc) {
    std::size_t nslots = kStackPoolSlabBytes / sc.slot_bytes;
    if (nslots == 0) nslots = 1;  // slot bigger than the slab target
    const std::size_t bytes = nslots * sc.slot_bytes;
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    MRL_CHECK_MSG(mem != MAP_FAILED, "stack pool slab mmap failed");
    ++slabs_;
    total_slots_ += nslots;
    // Push in reverse so acquire() hands out ascending addresses — nicer
    // fault locality when a fresh engine touches every stack top in rank
    // order.
    for (std::size_t i = nslots; i-- > 0;) {
      sc.free.push_back(static_cast<char*>(mem) + i * sc.slot_bytes);
    }
  }

  std::mutex mu_;
  std::vector<SizeClass> classes_;
  std::size_t slabs_ = 0;
  std::size_t total_slots_ = 0;
};

}  // namespace

StackPoolStats stack_pool_stats() { return StackPool::instance().stats(); }

void Fiber::run_entry_for_trampoline() {
  finish_first_entry_switch();
  entry_(arg_);
  MRL_CHECK_MSG(false, "fiber entry returned (it must suspend forever)");
}

// ---------------------------------------------------------------------------
// x86-64 backend: save/restore the SysV callee-saved state by hand.
// ---------------------------------------------------------------------------

#if defined(MRL_FIBER_ASM)

// mrl_fiber_swap(void** save_sp, void* load_sp):
//   pushes rbp rbx r12-r15 + the x87/SSE control words onto the current
//   stack, parks rsp in *save_sp, adopts load_sp, restores the same state
//   from there and returns on the new stack. A freshly created fiber's
//   "restore area" is crafted by Fiber::init_context() so the final ret
//   lands in mrl_fiber_entry_thunk with r12 = the Fiber*.
asm(R"(
.text
.align 16
.globl mrl_fiber_swap
.hidden mrl_fiber_swap
.type mrl_fiber_swap, @function
mrl_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  (%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    retq
.size mrl_fiber_swap, .-mrl_fiber_swap

.align 16
.globl mrl_fiber_entry_thunk
.hidden mrl_fiber_entry_thunk
.type mrl_fiber_entry_thunk, @function
mrl_fiber_entry_thunk:
    movq  %r12, %rdi
    pushq %rax
    callq mrl_fiber_entry_c
    ud2
.size mrl_fiber_entry_thunk, .-mrl_fiber_entry_thunk
)");

extern "C" void mrl_fiber_swap(void** save_sp, void* load_sp);
extern "C" void mrl_fiber_entry_thunk();

#else  // ucontext backend

namespace {

// makecontext() only forwards ints: split the Fiber* into two 32-bit halves.
void ucontext_trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(bits)->run_entry_for_trampoline();
}

}  // namespace

#endif

extern "C" [[noreturn]] void mrl_fiber_entry_c(void* fiber);
extern "C" void mrl_fiber_entry_c(void* fiber) {
  static_cast<Fiber*>(fiber)->run_entry_for_trampoline();
  __builtin_unreachable();
}

// ---------------------------------------------------------------------------
// Common: stack allocation, adoption, switching.
// ---------------------------------------------------------------------------

Fiber::~Fiber() {
#if defined(MRL_FIBER_TSAN)
  // An adopted main context borrows its thread's TSan fiber; only a created
  // fiber owns one.
  if (stack_mem_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (stack_mem_ != nullptr) {
    if (pooled_) {
      StackPool::instance().release(stack_mem_, stack_total_);
    } else {
      ::munmap(stack_mem_, stack_total_);
    }
  }
#if !defined(MRL_FIBER_ASM)
  delete static_cast<ucontext_t*>(uctx_);
#endif
}

void Fiber::create(std::size_t stack_bytes, void (*entry)(void*), void* arg,
                   bool guard) {
  MRL_CHECK_MSG(stack_mem_ == nullptr, "fiber already created");
  entry_ = entry;
  arg_ = arg;

  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t usable = (stack_bytes + page - 1) & ~(page - 1);
  if (usable < 4 * page) usable = 4 * page;  // floor for the entry frames
  guard_bytes_ = guard ? page : 0;
  void* mem = ::mmap(nullptr, usable + guard_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  MRL_CHECK_MSG(mem != MAP_FAILED, "fiber stack mmap failed");
  if (guard) {
    // Guard page at the low end: stacks grow down, so running off the end
    // faults here instead of scribbling over the neighboring mapping.
    // Skipped (guard=false) for 100k+-rank worlds: each PROT_NONE page
    // splits off two VMAs and vm.max_map_count caps the process at ~65k.
    MRL_CHECK(::mprotect(mem, page, PROT_NONE) == 0);
  }
  stack_mem_ = mem;
  stack_total_ = usable + guard_bytes_;
  init_context(static_cast<char*>(mem) + guard_bytes_, usable);
}

void Fiber::create_pooled(std::size_t stack_bytes, void (*entry)(void*),
                          void* arg) {
  MRL_CHECK_MSG(stack_mem_ == nullptr, "fiber already created");
  entry_ = entry;
  arg_ = arg;

  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t usable = (stack_bytes + page - 1) & ~(page - 1);
  if (usable < 4 * page) usable = 4 * page;  // floor for the entry frames
  guard_bytes_ = 0;
  pooled_ = true;
  stack_mem_ = StackPool::instance().acquire(usable);
  stack_total_ = usable;
  init_context(static_cast<char*>(stack_mem_), usable);
}

void Fiber::init_context(char* lo, std::size_t usable) {
#if defined(MRL_FIBER_ASAN)
  asan_bottom_ = lo;
  asan_size_ = usable;
#endif
#if defined(MRL_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif

#if defined(MRL_FIBER_ASM)
  // Craft the restore area mrl_fiber_swap() expects, so the first switch-in
  // "returns" into mrl_fiber_entry_thunk with r12 = this. Layout ascending
  // from the parked rsp: [fcw|mxcsr] r15 r14 r13 r12 rbx rbp [ret addr].
  // Alignment: top is page-aligned; after the thunk address is popped by
  // ret, rsp == top-8, i.e. the standard rsp%16==8 function-entry state.
  std::uint64_t fpu = 0;
  asm volatile("fnstcw %0" : "=m"(*reinterpret_cast<std::uint16_t*>(&fpu)));
  std::uint32_t mxcsr = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  fpu |= static_cast<std::uint64_t>(mxcsr) << 32;

  auto* sp = static_cast<std::uint64_t*>(static_cast<void*>(lo + usable));
  *--sp = 0;  // fake caller frame; terminates backtraces
  *--sp = reinterpret_cast<std::uint64_t>(&mrl_fiber_entry_thunk);
  *--sp = 0;                                     // rbp
  *--sp = 0;                                     // rbx
  *--sp = reinterpret_cast<std::uint64_t>(this); // r12
  *--sp = 0;                                     // r13
  *--sp = 0;                                     // r14
  *--sp = 0;                                     // r15
  *--sp = fpu;                                   // fcw @+0, mxcsr @+4
  sp_ = sp;
#else
  auto* ctx = new ucontext_t;
  MRL_CHECK(::getcontext(ctx) == 0);
  ctx->uc_stack.ss_sp = lo;
  ctx->uc_stack.ss_size = usable;
  ctx->uc_link = nullptr;
  const auto bits = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(ctx, reinterpret_cast<void (*)()>(&ucontext_trampoline), 2,
                static_cast<unsigned>(bits >> 32),
                static_cast<unsigned>(bits & 0xffffffffu));
  uctx_ = ctx;
#endif
}

// ---------------------------------------------------------------------------
// Stack high-water-mark accounting (metrics runs only).
// ---------------------------------------------------------------------------

namespace {

// Sentinel written over untouched stack bytes. Deliberately not 0x00/0xFF:
// freshly mapped pages are zero and common fill patterns are all-ones, so
// either would mistake real stores for untouched stack.
constexpr unsigned char kStackPoison = 0xA5;

#if defined(MRL_FIBER_ASAN)
#define MRL_NO_ASAN __attribute__((no_sanitize_address))
#else
#define MRL_NO_ASAN
#endif

// Parked fibers hold live frames whose ASan redzones are poisoned, so the
// scan must be exempt from instrumentation and must not call (interceptable)
// libc. Returns the first byte in [lo, hi) that differs from the sentinel,
// i.e. the deepest point execution reached (stacks grow down).
MRL_NO_ASAN const unsigned char* scan_first_touched(const unsigned char* lo,
                                                    const unsigned char* hi) {
  const unsigned char* p = lo;
  while (p < hi && *p == kStackPoison) ++p;
  return p;
}

#undef MRL_NO_ASAN

}  // namespace

void Fiber::poison_stack() {
  MRL_CHECK_MSG(stack_mem_ != nullptr, "poison_stack before create");
  char* lo = static_cast<char*>(stack_mem_) + guard_bytes_;
#if defined(MRL_FIBER_ASM)
  // Everything below the crafted restore area is virgin stack (for a pooled
  // slot: everything the previous tenant may have scribbled).
  const std::size_t fill = static_cast<std::size_t>(
      static_cast<char*>(sp_) - lo);
#else
  // makecontext() parked its trampoline frame near the top; leave a margin
  // so the fill cannot clobber it.
  const std::size_t usable = stack_total_ - guard_bytes_;
  constexpr std::size_t kUcontextMargin = 512;
  const std::size_t fill = usable > kUcontextMargin ? usable - kUcontextMargin
                                                    : 0;
#endif
  std::memset(lo, kStackPoison, fill);
  poisoned_ = true;
}

std::size_t Fiber::stack_high_water_bytes() const {
  if (!poisoned_ || stack_mem_ == nullptr) return 0;
  const auto* lo =
      reinterpret_cast<const unsigned char*>(stack_mem_) + guard_bytes_;
  const std::size_t usable = stack_total_ - guard_bytes_;
  const unsigned char* hi = lo + usable;
  const unsigned char* first = scan_first_touched(lo, hi);
  return static_cast<std::size_t>(hi - first);
}

std::size_t Fiber::stack_usable_bytes() const {
  if (stack_mem_ == nullptr) return 0;
  return stack_total_ - guard_bytes_;
}

void Fiber::adopt_thread() {
  MRL_CHECK_MSG(stack_mem_ == nullptr,
                "cannot adopt a thread into a created fiber");
#if !defined(MRL_FIBER_ASM)
  if (uctx_ == nullptr) uctx_ = new ucontext_t;  // filled by swapcontext()
#endif
#if defined(MRL_FIBER_ASAN)
  // ASan needs the native stack's bounds to switch back onto it.
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      asan_bottom_ = addr;
      asan_size_ = size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
#if defined(MRL_FIBER_TSAN)
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
#if defined(MRL_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&from.asan_fake_, to.asan_bottom_,
                                 to.asan_size_);
#endif
#if defined(MRL_FIBER_TSAN)
  // Must come immediately before the switch; the default flags make it a
  // happens-before edge from `from` to `to`.
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(MRL_FIBER_ASM)
  mrl_fiber_swap(&from.sp_, to.sp_);
#else
  MRL_CHECK(::swapcontext(static_cast<ucontext_t*>(from.uctx_),
                          static_cast<ucontext_t*>(to.uctx_)) == 0);
#endif
#if defined(MRL_FIBER_ASAN)
  // Control came back to `from` (possibly much later): restore its fake
  // stack. The bounds of whatever context we arrived from are tracked by
  // its own Fiber record, so the out-params are not needed.
  __sanitizer_finish_switch_fiber(from.asan_fake_, nullptr, nullptr);
#endif
}

}  // namespace mrl::runtime
