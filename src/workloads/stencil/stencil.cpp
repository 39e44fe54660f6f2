#include "workloads/stencil/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "shmem/gpu.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::workloads::stencil {

void choose_grid(int nranks, int* px, int* py) {
  MRL_CHECK(nranks >= 1);
  int best = 1;
  for (int p = 1; p * p <= nranks; ++p) {
    if (nranks % p == 0) best = p;
  }
  *py = best;           // rows of ranks
  *px = nranks / best;  // cols of ranks
}

Status validate(const simnet::Platform& platform, int nranks,
                const Config& cfg) {
  if (nranks < 1 || cfg.n < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "stencil needs at least 1 rank and a grid of n >= 1");
  }
  if (Status st = platform.check_rank_capacity(nranks); !st.is_ok()) {
    return st;
  }
  int px = cfg.px, py = cfg.py;
  if (px <= 0 || py <= 0) choose_grid(nranks, &px, &py);
  const std::string grid = std::to_string(px) + "x" + std::to_string(py);
  if (static_cast<long long>(px) * py != nranks) {
    return Status(ErrorCode::kInvalidArgument,
                  "process grid " + grid + " does not multiply out to " +
                      std::to_string(nranks) + " ranks");
  }
  if (px > cfg.n || py > cfg.n) {
    return Status(ErrorCode::kInvalidArgument,
                  "process grid " + grid + " does not fit the " +
                      std::to_string(cfg.n) + "x" + std::to_string(cfg.n) +
                      " grid (at most " + std::to_string(cfg.n) +
                      " ranks per dimension)");
  }
  return Status::ok();
}

Decomp make_decomp(int n, int nranks, int rank, int px, int py) {
  if (px <= 0 || py <= 0) choose_grid(nranks, &px, &py);
  MRL_CHECK_MSG(px * py == nranks, "process grid must equal nranks");
  MRL_CHECK_MSG(px <= n && py <= n, "more ranks than grid rows/cols");
  Decomp d;
  d.px = px;
  d.py = py;
  d.rx = rank % px;
  d.ry = rank / px;
  auto split = [](int total, int parts, int idx) {
    return idx * (static_cast<long long>(total)) / parts;
  };
  d.x0 = static_cast<int>(split(n, px, d.rx));
  d.x1 = static_cast<int>(split(n, px, d.rx + 1));
  d.y0 = static_cast<int>(split(n, py, d.ry));
  d.y1 = static_cast<int>(split(n, py, d.ry + 1));
  d.west = d.rx > 0 ? rank - 1 : -1;
  d.east = d.rx + 1 < px ? rank + 1 : -1;
  d.north = d.ry > 0 ? rank - px : -1;
  d.south = d.ry + 1 < py ? rank + px : -1;
  return d;
}

double initial_value(int n, int row, int col, std::uint64_t seed) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(row) *
                            static_cast<std::uint64_t>(n) +
                        static_cast<std::uint64_t>(col) + 1));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

std::vector<double> serial_reference(const Config& cfg) {
  const int n = cfg.n;
  std::vector<double> cur(static_cast<std::size_t>(n) * n);
  std::vector<double> next(cur.size());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      cur[static_cast<std::size_t>(r) * n + c] =
          initial_value(n, r, c, cfg.seed);
    }
  }
  auto at = [&](std::vector<double>& g, int r, int c) -> double {
    if (r < 0 || r >= n || c < 0 || c >= n) return 0.0;  // Dirichlet boundary
    return g[static_cast<std::size_t>(r) * n + c];
  };
  for (int it = 0; it < cfg.iters; ++it) {
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        next[static_cast<std::size_t>(r) * n + c] =
            0.25 * (at(cur, r - 1, c) + at(cur, r + 1, c) + at(cur, r, c - 1) +
                    at(cur, r, c + 1));
      }
    }
    cur.swap(next);
  }
  return cur;
}

LocalBlock::LocalBlock(const Config& cfg, const Decomp& d) : d_(d) {
  cur_.resize(static_cast<std::size_t>(d_.w()) * d_.h());
  next_.resize(cur_.size());
  for (int r = 0; r < d_.h(); ++r) {
    for (int c = 0; c < d_.w(); ++c) {
      at(cur_, r, c) = initial_value(cfg.n, d_.y0 + r, d_.x0 + c, cfg.seed);
    }
  }
  // Side buffers: columns have h entries, rows have w entries. Incoming
  // buffers start at 0 (the Dirichlet value) for global edges and live in
  // one contiguous slab so they can be exposed as a single window.
  out_[kWest].assign(static_cast<std::size_t>(d_.h()), 0.0);
  out_[kEast].assign(static_cast<std::size_t>(d_.h()), 0.0);
  out_[kNorth].assign(static_cast<std::size_t>(d_.w()), 0.0);
  out_[kSouth].assign(static_cast<std::size_t>(d_.w()), 0.0);
  std::size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    in_off_[s] = total;
    total += out_[s].size();
  }
  in_all_.assign(total, 0.0);
}

std::uint64_t LocalBlock::in_offset_bytes(const Decomp& d, int side) {
  const std::uint64_t h = static_cast<std::uint64_t>(d.h());
  const std::uint64_t w = static_cast<std::uint64_t>(d.w());
  const std::uint64_t offs[4] = {0, h, 2 * h, 2 * h + w};
  return offs[side] * sizeof(double);
}

std::uint64_t LocalBlock::edge_count(int side) const {
  return (side == kWest || side == kEast) ? static_cast<std::uint64_t>(d_.h())
                                          : static_cast<std::uint64_t>(d_.w());
}

void LocalBlock::pack_edges() {
  for (int r = 0; r < d_.h(); ++r) {
    out_[kWest][static_cast<std::size_t>(r)] = at(cur_, r, 0);
    out_[kEast][static_cast<std::size_t>(r)] = at(cur_, r, d_.w() - 1);
  }
  for (int c = 0; c < d_.w(); ++c) {
    out_[kNorth][static_cast<std::size_t>(c)] = at(cur_, 0, c);
    out_[kSouth][static_cast<std::size_t>(c)] = at(cur_, d_.h() - 1, c);
  }
}

void LocalBlock::sweep() {
  const int w = d_.w();
  const int h = d_.h();
  for (int r = 0; r < h; ++r) {
    for (int c = 0; c < w; ++c) {
      const double up = r > 0 ? at(cur_, r - 1, c) : in(kNorth)[c];
      const double down = r + 1 < h ? at(cur_, r + 1, c) : in(kSouth)[c];
      const double left = c > 0 ? at(cur_, r, c - 1) : in(kWest)[r];
      const double right = c + 1 < w ? at(cur_, r, c + 1) : in(kEast)[r];
      at(next_, r, c) = 0.25 * (up + down + left + right);
    }
  }
  cur_.swap(next_);
}

double LocalBlock::compare(const std::vector<double>& reference,
                           int n) const {
  double err = 0;
  for (int r = 0; r < d_.h(); ++r) {
    for (int c = 0; c < d_.w(); ++c) {
      const double ref =
          reference[static_cast<std::size_t>(d_.y0 + r) * n + (d_.x0 + c)];
      err = std::max(err, std::abs(at(cur_, r, c) - ref));
    }
  }
  return err;
}

std::uint64_t LocalBlock::sweep_bytes() const {
  // Jacobi streams ~3 doubles per cell (read cur, neighbor reuse via cache,
  // write next) plus the packed edges.
  const std::uint64_t cells =
      static_cast<std::uint64_t>(d_.w()) * static_cast<std::uint64_t>(d_.h());
  const std::uint64_t edges =
      2ull * (static_cast<std::uint64_t>(d_.w()) + d_.h());
  return cells * 24 + edges * 8;
}

double sweep_time_us(const simnet::Platform& platform, std::uint64_t bytes,
                     std::uint64_t cells) {
  const simnet::ComputeModel& cm = platform.compute();
  if (cm.lanes > 1) {
    return shmem::GpuExecModel(cm).kernel_time_us(bytes, cells,
                                                  /*item_us=*/0.01);
  }
  return static_cast<double>(bytes) * gbs_to_us_per_byte(cm.membw_gbs);
}

}  // namespace mrl::workloads::stencil
