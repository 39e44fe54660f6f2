// Distributed hash table — the paper's sender-driven random-access workload
// (Sec III-C). Each rank owns a table partition plus an overflow heap.
//
//   one-sided  — inserts are remote atomic compare-and-swaps; collisions
//                acquire an overflow node by atomic fetch-add and push it on
//                the bucket chain with a second CAS (Treiber push). No
//                synchronization until the end (Table II: 1e6 msg/sync).
//   two-sided  — each insert broadcasts an (owner, key, pos) triplet to all
//                other ranks with MPI_Isend and waits for P-1 messages with
//                MPI_Recv(ANY_SOURCE); the owner applies the insert locally
//                (Table II: P msg/sync, 3 words per message).
//   shmem GPU  — the one-sided design over NVSHMEM-style atomics.
//
// Every variant is verified: the multiset of keys stored across all
// partitions (tables + chained overflow nodes) must equal the generated
// insert stream, and every stored key must hash to its partition/slot.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/platform.hpp"
#include "simnet/trace.hpp"
#include "util/status.hpp"

namespace mrl::workloads::hashtable {

struct Config {
  std::uint64_t total_inserts = 100000;  ///< paper runs 1e6
  std::uint64_t slots_per_rank = 1u << 15;
  std::uint64_t overflow_per_rank = 1u << 14;
  std::uint64_t seed = 5;
  bool verify = true;
};

struct Result {
  double time_us = 0;
  double updates_per_sec = 0;  ///< aggregate inserts/s (the paper's "GUPS")
  std::uint64_t inserted = 0;
  std::uint64_t collisions = 0;  ///< inserts that went to overflow
  bool verified = false;
  bool verify_ok = false;
  simnet::TraceSummary msgs;
  Status status;
};

/// Deterministic unique nonzero key for global insert index i.
std::uint64_t key_for(std::uint64_t seed, std::uint64_t i);

/// Hash a key to (owner rank, local slot).
struct Placement {
  int owner = 0;
  std::uint64_t slot = 0;
};
Placement place(std::uint64_t key, int nranks, std::uint64_t slots_per_rank);

/// One rank's storage: table, bucket-chain tails, overflow nodes (key, prev).
struct Partition {
  std::vector<std::uint64_t> table;      ///< slots (0 = empty)
  std::vector<std::uint64_t> tail;       ///< per slot: overflow idx+1 (0=none)
  std::vector<std::uint64_t> overflow;   ///< 2 words per node: key, prev
  std::uint64_t next_free = 0;

  explicit Partition(const Config& cfg)
      : table(cfg.slots_per_rank, 0),
        tail(cfg.slots_per_rank, 0),
        overflow(2 * cfg.overflow_per_rank, 0) {}
};

/// Checks all partitions against the generated key stream; returns OK or a
/// description of the first inconsistency.
Status verify_partitions(const std::vector<Partition>& parts,
                         const Config& cfg, std::uint64_t actual_inserts);

/// Inserts per rank (rounded up so every rank does the same count; the
/// two-sided protocol is round-based).
std::uint64_t inserts_per_rank(const Config& cfg, int nranks);

/// Exact worst-case overflow nodes any one rank needs for the full insert
/// stream: max over owners of Σ over that owner's slots of
/// max(0, keys hashed to the slot − 1). Placement depends only on
/// (key, nranks, slots_per_rank) — never on protocol or timing — so every
/// variant's overflow occupancy is exactly this, independent of insert
/// interleaving.
std::uint64_t required_overflow_per_rank(const Config& cfg, int nranks);

/// `cfg` with overflow_per_rank grown (never shrunk) to fit the insert
/// stream. slots_per_rank is untouched, so key placement — and therefore
/// the simulated traffic of already-fitting runs — is unchanged.
Config with_sized_overflow(const Config& cfg, int nranks);

/// Checks a run's shape before anything is built: at least one rank, and
/// `nranks` must fit on `platform`. Returns Status(kInvalidArgument) naming
/// the problem.
Status validate(const simnet::Platform& platform, int nranks);

Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg);
Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg);
Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const Config& cfg);

}  // namespace mrl::workloads::hashtable
