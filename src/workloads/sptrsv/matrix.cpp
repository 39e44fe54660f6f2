#include <algorithm>
#include <cmath>
#include <string>

#include "util/rng.hpp"
#include "util/status.hpp"
#include "workloads/sptrsv/sptrsv.hpp"

namespace mrl::workloads::sptrsv {

Status validate(const simnet::Platform& platform, int nranks,
                const GenConfig& gen) {
  if (nranks < 1) {
    return Status(ErrorCode::kInvalidArgument, "sptrsv needs at least 1 rank");
  }
  if (Status st = platform.check_rank_capacity(nranks); !st.is_ok()) {
    return st;
  }
  if (gen.min_sn < 1 || gen.max_sn < gen.min_sn) {
    return Status(ErrorCode::kInvalidArgument,
                  "supernode sizes need 1 <= min_sn <= max_sn (got " +
                      std::to_string(gen.min_sn) + ".." +
                      std::to_string(gen.max_sn) + ")");
  }
  if (gen.n <= gen.max_sn) {
    return Status(ErrorCode::kInvalidArgument,
                  "matrix size n=" + std::to_string(gen.n) +
                      " must exceed the largest supernode (" +
                      std::to_string(gen.max_sn) + ")");
  }
  return Status::ok();
}

SupernodalMatrix SupernodalMatrix::generate(const GenConfig& cfg) {
  MRL_CHECK(cfg.n > cfg.max_sn && cfg.min_sn >= 1);
  MRL_CHECK(cfg.max_sn >= cfg.min_sn);
  Xoshiro256 rng(cfg.seed);

  SupernodalMatrix m;
  m.n_ = cfg.n;
  // Partition columns into supernodes; sqrt-skewed sizes push the average
  // towards the paper's ~100 words per message.
  m.sn_start_.push_back(0);
  while (m.sn_start_.back() < cfg.n) {
    const double u = rng.uniform01();
    int size = cfg.min_sn +
               static_cast<int>(std::sqrt(u) * (cfg.max_sn - cfg.min_sn));
    size = std::min(size, cfg.n - m.sn_start_.back());
    m.sn_start_.push_back(m.sn_start_.back() + size);
  }
  const int S = m.num_supernodes();
  m.diag_.resize(static_cast<std::size_t>(S));
  m.cols_.resize(static_cast<std::size_t>(S));

  auto rnd_val = [&rng] { return rng.uniform_real(-1.0, 1.0); };

  for (int J = 0; J < S; ++J) {
    const int cj = m.sn_size(J);
    // Dense lower-triangular diagonal block with dominant diagonal.
    auto& dg = m.diag_[static_cast<std::size_t>(J)];
    dg.assign(static_cast<std::size_t>(cj) * cj, 0.0);
    for (int r = 0; r < cj; ++r) {
      double rowsum = 0;
      for (int c = 0; c < r; ++c) {
        const double v = rnd_val();
        dg[static_cast<std::size_t>(r) * cj + c] = v;
        rowsum += std::abs(v);
      }
      dg[static_cast<std::size_t>(r) * cj + r] = rowsum + 1.0;
    }
    // Off-diagonal row blocks: a locality-weighted mix of near-diagonal
    // (1/distance) and uniform Bernoulli fill, expected cfg.fill blocks per
    // column.
    if (J + 1 < S) {
      double weight_total = 0;
      for (int I = J + 1; I < S; ++I) weight_total += 1.0 / (I - J);
      const double uniform_p = cfg.fill * (1.0 - cfg.locality) / (S - J - 1);
      for (int I = J + 1; I < S; ++I) {
        const double decay_p =
            cfg.fill * cfg.locality * (1.0 / (I - J)) / weight_total;
        const double p = std::min(1.0, decay_p + uniform_p);
        if (!rng.bernoulli(p)) continue;
        Block b;
        b.I = I;
        const int ri = m.sn_size(I);
        b.vals.resize(static_cast<std::size_t>(ri) * cj);
        for (double& v : b.vals) v = rnd_val() * 0.5;
        m.cols_[static_cast<std::size_t>(J)].push_back(std::move(b));
      }
    }
  }
  return m;
}

std::uint64_t SupernodalMatrix::nnz() const {
  std::uint64_t total = 0;
  for (int J = 0; J < num_supernodes(); ++J) {
    const int cj = sn_size(J);
    total += static_cast<std::uint64_t>(cj) * (cj + 1) / 2;
    for (const Block& b : cols_[static_cast<std::size_t>(J)]) {
      total += static_cast<std::uint64_t>(sn_size(b.I)) * cj;
    }
  }
  return total;
}

std::vector<double> SupernodalMatrix::make_rhs(std::uint64_t seed) const {
  Xoshiro256 rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n_));
  for (double& v : b) v = rng.uniform_real(-1.0, 1.0);
  return b;
}

}  // namespace mrl::workloads::sptrsv
