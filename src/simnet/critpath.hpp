// Deterministic critical-path analyzer (DESIGN.md §14).
//
// Walks the dependency graph of a completed run backward from the
// last-finishing rank: message arrivals, collective releases, and gate
// satisfactions are edges (SpanRecord::peer/cause_t/cause_nspans), local
// execution is the fallback. Every virtual microsecond of the makespan is
// attributed to exactly one of five categories — compute, network latency,
// bandwidth serialization, queueing, synchronization wait — using integer
// picoseconds with telescoping interval boundaries, so the category totals
// sum EXACTLY to the final virtual time and the whole report is
// byte-identical across schedulers and --jobs values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/spans.hpp"
#include "simnet/time.hpp"
#include "simnet/trace.hpp"

namespace mrl::simnet {

struct CritPathInput {
  int nranks = 0;
  /// Message records (for flight q/s/latency splits and per-link
  /// attribution); may be null — recv segments then fall back to latency.
  const RecordStore* msgs = nullptr;
  const SpanStore* spans = nullptr;                  ///< required
  const std::vector<TimeUs>* rank_end_us = nullptr;  ///< required
  /// Display name per directed link id (optional).
  const std::vector<std::string>* dlink_names = nullptr;
};

struct CritPathReport {
  // Category totals in integer picoseconds (1 us = 1e6 pico). Their sum is
  // exactly makespan_pico.
  std::uint64_t compute_pico = 0;
  std::uint64_t latency_pico = 0;
  std::uint64_t ser_pico = 0;
  std::uint64_t queue_pico = 0;
  std::uint64_t sync_pico = 0;
  std::uint64_t makespan_pico = 0;
  int end_rank = -1;        ///< last-finishing rank the walk starts from
  std::uint64_t steps = 0;  ///< path nodes visited
  bool truncated = false;   ///< step-cap backstop hit (remainder -> compute)
  std::string text;         ///< full fixed-format human-readable report

  [[nodiscard]] std::uint64_t total_pico() const {
    return compute_pico + latency_pico + ser_pico + queue_pico + sync_pico;
  }
};

/// Pure function of its deterministic inputs; safe to call from any thread.
CritPathReport analyze_critical_path(const CritPathInput& in);

}  // namespace mrl::simnet
