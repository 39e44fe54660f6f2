#include "workloads/hashtable/hashtable.hpp"

#include <algorithm>
#include <string>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace mrl::workloads::hashtable {

std::uint64_t key_for(std::uint64_t seed, std::uint64_t i) {
  SplitMix64 sm(seed ^ (i * 0x9E3779B97F4A7C15ULL + 0x1234567ULL));
  std::uint64_t k = sm.next();
  return k | 1ULL;  // nonzero (0 marks an empty slot)
}

Placement place(std::uint64_t key, int nranks, std::uint64_t slots_per_rank) {
  SplitMix64 sm(key);
  const std::uint64_t h = sm.next();
  Placement p;
  p.owner = static_cast<int>(h % static_cast<std::uint64_t>(nranks));
  p.slot = (h / static_cast<std::uint64_t>(nranks)) % slots_per_rank;
  return p;
}

Status validate(const simnet::Platform& platform, int nranks) {
  if (nranks < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "hashtable needs at least 1 rank");
  }
  return platform.check_rank_capacity(nranks);
}

std::uint64_t inserts_per_rank(const Config& cfg, int nranks) {
  return (cfg.total_inserts + static_cast<std::uint64_t>(nranks) - 1) /
         static_cast<std::uint64_t>(nranks);
}

std::uint64_t required_overflow_per_rank(const Config& cfg, int nranks) {
  const std::uint64_t actual =
      inserts_per_rank(cfg, nranks) * static_cast<std::uint64_t>(nranks);
  // Encode each insert's destination as owner * slots_per_rank + slot, sort,
  // and count the excess beyond one key per distinct bucket, per owner.
  std::vector<std::uint64_t> dest(actual);
  for (std::uint64_t i = 0; i < actual; ++i) {
    const Placement pl =
        place(key_for(cfg.seed, i), nranks, cfg.slots_per_rank);
    dest[i] =
        static_cast<std::uint64_t>(pl.owner) * cfg.slots_per_rank + pl.slot;
  }
  std::sort(dest.begin(), dest.end());
  std::uint64_t worst = 0;
  std::uint64_t i = 0;
  while (i < actual) {
    const std::uint64_t owner = dest[i] / cfg.slots_per_rank;
    std::uint64_t overflow = 0;
    while (i < actual && dest[i] / cfg.slots_per_rank == owner) {
      std::uint64_t run = 1;
      while (i + run < actual && dest[i + run] == dest[i]) ++run;
      overflow += run - 1;  // one key lives in the table slot itself
      i += run;
    }
    worst = std::max(worst, overflow);
  }
  return worst;
}

Config with_sized_overflow(const Config& cfg, int nranks) {
  Config out = cfg;
  const std::uint64_t need = required_overflow_per_rank(cfg, nranks);
  if (need > out.overflow_per_rank) out.overflow_per_rank = need;
  return out;
}

Status verify_partitions(const std::vector<Partition>& parts,
                         const Config& cfg, std::uint64_t actual_inserts) {
  const int nranks = static_cast<int>(parts.size());
  std::vector<std::uint64_t> stored;
  stored.reserve(actual_inserts);
  for (int r = 0; r < nranks; ++r) {
    const Partition& p = parts[static_cast<std::size_t>(r)];
    for (std::uint64_t s = 0; s < cfg.slots_per_rank; ++s) {
      const std::uint64_t key = p.table[s];
      if (key == 0) continue;
      const Placement pl = place(key, nranks, cfg.slots_per_rank);
      if (pl.owner != r || pl.slot != s) {
        return Status(ErrorCode::kInternal,
                      "table key stored in wrong slot at rank " +
                          std::to_string(r));
      }
      stored.push_back(key);
    }
    // Walk every bucket chain.
    for (std::uint64_t s = 0; s < cfg.slots_per_rank; ++s) {
      std::uint64_t cursor = p.tail[s];
      std::uint64_t walked = 0;
      while (cursor != 0) {
        if (cursor > p.next_free) {
          return Status(ErrorCode::kInternal, "dangling overflow pointer");
        }
        const std::uint64_t key = p.overflow[2 * (cursor - 1)];
        const Placement pl = place(key, nranks, cfg.slots_per_rank);
        if (pl.owner != r || pl.slot != s) {
          return Status(ErrorCode::kInternal,
                        "overflow key chained to wrong bucket");
        }
        stored.push_back(key);
        cursor = p.overflow[2 * (cursor - 1) + 1];
        if (++walked > cfg.overflow_per_rank) {
          return Status(ErrorCode::kInternal, "overflow chain cycle");
        }
      }
    }
  }
  if (stored.size() != actual_inserts) {
    return Status(ErrorCode::kInternal,
                  "stored " + std::to_string(stored.size()) + " keys, expected " +
                      std::to_string(actual_inserts));
  }
  std::vector<std::uint64_t> expected;
  expected.reserve(actual_inserts);
  for (std::uint64_t i = 0; i < actual_inserts; ++i) {
    expected.push_back(key_for(cfg.seed, i));
  }
  std::sort(stored.begin(), stored.end());
  std::sort(expected.begin(), expected.end());
  if (stored != expected) {
    return Status(ErrorCode::kInternal, "stored key multiset mismatch");
  }
  return Status::ok();
}

}  // namespace mrl::workloads::hashtable
