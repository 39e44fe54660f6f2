// 2D 5-point Jacobi stencil with halo exchange — the paper's BSP workload
// (Sec III-A). Three variants share one numerical kernel and decomposition:
//
//   two-sided    — 4x MPI_Isend/Irecv + Waitall per iteration
//   one-sided    — 4x MPI_Put inside a pair of MPI_Win_fence
//   shmem (GPU)  — nvshmem-style put_signal_nbi + wait_until_all
//
// Halos travel through contiguous side buffers (packed columns), so message
// size = edge length * 8 bytes and msg/sync = #neighbors (<= 4), matching
// Table II. All variants are verified bit-for-bit against a serial reference.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"
#include "simnet/platform.hpp"
#include "simnet/trace.hpp"

namespace mrl::workloads::stencil {

struct Config {
  int n = 1024;        ///< global grid is n x n (paper runs 16384)
  int iters = 10;      ///< Jacobi sweeps
  int px = 0;          ///< process grid (0 = choose near-square)
  int py = 0;
  bool verify = true;  ///< compare against the serial reference
  std::uint64_t seed = 42;
};

struct Result {
  double time_us = 0;        ///< virtual makespan of the iteration loop
  double max_abs_err = 0;    ///< vs serial reference (0 expected)
  bool verified = false;
  simnet::TraceSummary msgs; ///< data-message stats (for roofline dots)
  /// Populated when the engine ran with EngineOptions::metrics enabled
  /// (includes per-fiber stack high-water marks).
  runtime::MetricsReport metrics;
  Status status;
};

/// One rank's block of the 2D decomposition.
struct Decomp {
  int px = 1, py = 1;   ///< process grid
  int rx = 0, ry = 0;   ///< my coordinates
  int x0 = 0, x1 = 0;   ///< [x0, x1) global column range
  int y0 = 0, y1 = 0;   ///< [y0, y1) global row range
  int west = -1, east = -1, north = -1, south = -1;  ///< neighbor ranks

  [[nodiscard]] int w() const { return x1 - x0; }
  [[nodiscard]] int h() const { return y1 - y0; }
  [[nodiscard]] int neighbors() const {
    return (west >= 0) + (east >= 0) + (north >= 0) + (south >= 0);
  }
};

/// Near-square process grid for `nranks` (px * py == nranks).
void choose_grid(int nranks, int* px, int* py);

/// Checks a run's shape before anything is built: `nranks` must fit on
/// `platform`, and the process grid (cfg.px x cfg.py, or the near-square
/// choice) must multiply out to `nranks` with at most cfg.n ranks per
/// dimension. Returns Status(kInvalidArgument) naming the problem — for too
/// many CPU ranks, the smallest sufficient node count.
Status validate(const simnet::Platform& platform, int nranks,
                const Config& cfg);

/// Block decomposition of the n x n grid for `rank` of `nranks`.
Decomp make_decomp(int n, int nranks, int rank, int px, int py);

/// Deterministic initial value of cell (row, col) for a given seed.
double initial_value(int n, int row, int col, std::uint64_t seed);

/// Serial reference: `iters` Jacobi sweeps on the full grid (row-major).
std::vector<double> serial_reference(const Config& cfg);

/// Per-rank working state shared by all three variants.
class LocalBlock {
 public:
  LocalBlock(const Config& cfg, const Decomp& d);

  /// Packs the four outgoing edges into the contiguous side buffers.
  void pack_edges();

  /// One Jacobi sweep reading incoming halo buffers; swaps cur/next.
  void sweep();

  /// Max |cur - reference| over my block.
  [[nodiscard]] double compare(const std::vector<double>& reference,
                               int n) const;

  /// Compute cost of one sweep + packing, in streamed bytes.
  [[nodiscard]] std::uint64_t sweep_bytes() const;

  [[nodiscard]] const Decomp& decomp() const { return d_; }
  [[nodiscard]] double* out(int side) { return out_[side].data(); }
  [[nodiscard]] double* in(int side) { return in_all_.data() + in_off_[side]; }
  [[nodiscard]] std::uint64_t edge_count(int side) const;

  /// Contiguous region holding all four incoming halo buffers (exposed as
  /// one RMA window / symmetric slab).
  [[nodiscard]] double* in_region() { return in_all_.data(); }
  [[nodiscard]] std::uint64_t in_region_bytes() const {
    return in_all_.size() * sizeof(double);
  }
  /// Byte offset of a side's incoming buffer within in_region (depends only
  /// on the decomposition, so senders can compute it for their peers).
  static std::uint64_t in_offset_bytes(const Decomp& d, int side);

  // Side indices.
  static constexpr int kWest = 0, kEast = 1, kNorth = 2, kSouth = 3;

 private:
  [[nodiscard]] double& at(std::vector<double>& g, int r, int c) const {
    return g[static_cast<std::size_t>(r) * d_.w() + c];
  }
  [[nodiscard]] double at(const std::vector<double>& g, int r, int c) const {
    return g[static_cast<std::size_t>(r) * d_.w() + c];
  }

  Decomp d_;
  std::vector<double> cur_, next_;
  std::vector<double> out_[4];
  std::vector<double> in_all_;
  std::size_t in_off_[4] = {0, 0, 0, 0};
};

/// Compute-time charge for one sweep: CPU ranks stream at membw; GPU PEs use
/// the occupancy/bandwidth kernel envelope.
double sweep_time_us(const simnet::Platform& platform, std::uint64_t bytes,
                     std::uint64_t cells);

// Every run_* entry point returns Result::status = validate(...) without
// running when the shape is invalid.
Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg);
Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg);
Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const Config& cfg);

/// Host-staged GPU baseline (the paper's introduction motivation): GPU
/// compute, but halos cross PCIe to the host, move via host two-sided MPI,
/// and cross back — with kernel-launch/sync overhead per stage.
Result run_host_staged_gpu(const simnet::Platform& platform, int nranks,
                           const Config& cfg);

}  // namespace mrl::workloads::stencil
