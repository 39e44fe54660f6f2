// Sparse triangular solve (SpTRSV) on a supernodal lower-triangular factor —
// the paper's DAG workload (Sec III-B).
//
// The matrix is a synthetic supernodal L mimicking an LU factor from
// SuperLU_DIST (the paper used an M3D-C1 fusion matrix, 126K x 126K, 1e8
// nnz): consecutive columns grouped into supernodes, a dense lower-
// triangular diagonal block per supernode, and dense off-diagonal row
// blocks with distance-decaying fill. Message sizes equal supernode sizes
// (24 B .. 1040 B, avg ~100 words — Table II).
//
// Distribution: 2D block-cyclic over a pr x pc process grid. The solve is
// the standard supernodal forward substitution:
//   1. the diagonal owner of J solves x_J once all partial sums arrived,
//   2. x_J fans out to every process owning an off-diagonal block in col J,
//   3. block owners accumulate L_IJ * x_J into per-row partial sums and send
//      one message per (process, row) to the diagonal owner.
//
// Variants:
//   two-sided  — MPI_Isend + MPI_Recv(ANY_SOURCE) loop (1 op per message)
//   one-sided  — MPI_Put(data) + flush + MPI_Put(signal) + flush (4 ops) and
//                the paper's Listing-1 receiver-acknowledgment scan loop
//   shmem GPU  — put_signal_nbi + wait_until_any (1 op per message)
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"
#include "simnet/platform.hpp"
#include "simnet/trace.hpp"
#include "util/status.hpp"

namespace mrl::workloads::sptrsv {

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

struct GenConfig {
  int n = 3000;           ///< dimension
  int min_sn = 3;         ///< min supernode size (24 B messages)
  int max_sn = 130;       ///< max supernode size (1040 B messages)
  double fill = 4.0;      ///< average off-diagonal blocks per supernode column
  /// Fraction of fill placed with 1/distance decay (near-diagonal bands);
  /// the rest lands uniformly below the diagonal. Low locality gives the
  /// wide elimination-tree parallelism of real reordered factors; high
  /// locality produces long sequential dependency chains.
  double locality = 0.45;
  std::uint64_t seed = 7;
};

/// Checks a run's shape before anything is built: `nranks` must fit on
/// `platform`, and `gen` must satisfy SupernodalMatrix::generate's contract
/// (1 <= min_sn <= max_sn < n). Returns Status(kInvalidArgument) naming the
/// problem.
Status validate(const simnet::Platform& platform, int nranks,
                const GenConfig& gen);

/// Supernodal lower-triangular matrix in block-column storage.
class SupernodalMatrix {
 public:
  struct Block {
    int I = 0;                 ///< supernode row index
    std::vector<double> vals;  ///< dense rows(I) x cols(J), row-major
  };

  static SupernodalMatrix generate(const GenConfig& cfg);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int num_supernodes() const {
    return static_cast<int>(sn_start_.size()) - 1;
  }
  [[nodiscard]] int sn_first(int J) const { return sn_start_[J]; }
  [[nodiscard]] int sn_size(int J) const {
    return sn_start_[J + 1] - sn_start_[J];
  }
  /// Dense lower-triangular diagonal block of J (size x size, row-major).
  [[nodiscard]] const std::vector<double>& diag(int J) const {
    return diag_[J];
  }
  /// Off-diagonal blocks of column J, sorted by ascending I.
  [[nodiscard]] const std::vector<Block>& col(int J) const { return cols_[J]; }

  [[nodiscard]] std::uint64_t nnz() const;

  /// Deterministic right-hand side for this matrix/seed.
  [[nodiscard]] std::vector<double> make_rhs(std::uint64_t seed) const;

 private:
  int n_ = 0;
  std::vector<int> sn_start_;               // size S+1
  std::vector<std::vector<double>> diag_;   // per supernode
  std::vector<std::vector<Block>> cols_;    // per supernode column
};

/// Sequential supernodal forward substitution (the verification oracle).
std::vector<double> reference_solve(const SupernodalMatrix& L,
                                    const std::vector<double>& b);

/// Normwise relative error max_i |x-y| / max_i |y|.
double relative_error(const std::vector<double>& x,
                      const std::vector<double>& y);

// ---------------------------------------------------------------------------
// Partition / solve plan
// ---------------------------------------------------------------------------

/// 2D block-cyclic process grid.
struct ProcessGrid {
  int pr = 1, pc = 1;
  [[nodiscard]] int owner(int I, int J) const {
    return (I % pr) * pc + (J % pc);
  }
  [[nodiscard]] int size() const { return pr * pc; }
  static ProcessGrid near_square(int nranks);
};

/// Everything a rank needs to run the solve, precomputed identically on all
/// ranks from the shared matrix structure.
struct SolvePlan {
  ProcessGrid grid;
  int me = -1;

  struct LocalBlock {
    int I, J;
    const SupernodalMatrix::Block* block;
  };
  std::vector<LocalBlock> my_blocks;          ///< off-diagonal blocks I own
  std::vector<int> my_diag;                   ///< supernodes whose diag I own

  std::vector<std::vector<int>> col_blocks;   ///< my block idx per column J
  std::vector<int> row_remaining;             ///< my unprocessed blocks per row
  std::vector<int> deps;                      ///< diag-owner: outstanding contribs
  std::vector<std::vector<int>> fanout;       ///< per col J: ranks needing x_J

  int expected_x = 0;      ///< x messages I will receive
  int expected_lsum = 0;   ///< partial-sum messages I will receive

  /// One-sided slot maps (receiver-side order; identical on every rank).
  /// x slot for (rank, J) and lsum slot for (diag owner, I, contributor).
  std::vector<std::vector<int>> x_cols;       ///< per rank: sorted cols expected
  std::vector<std::vector<std::pair<int, int>>> lsum_pairs;  ///< per rank: (I, src)

  [[nodiscard]] int total_slots(int rank) const {
    return static_cast<int>(x_cols[rank].size() + lsum_pairs[rank].size());
  }
  /// Slot index of column J's x message at `rank` (slots order: x then lsum).
  [[nodiscard]] int x_slot(int rank, int J) const;
  /// Slot index of the (I, src) partial-sum message at `rank`.
  [[nodiscard]] int lsum_slot(int rank, int I, int src) const;

  static SolvePlan build(const SupernodalMatrix& L, int nranks, int me);
};

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Config {
  GenConfig gen;
  std::uint64_t rhs_seed = 99;
  bool verify = true;
  double poll_cost_us = 0.003;  ///< Listing-1 per-element scan cost (CPU)
};

struct Result {
  double time_us = 0;
  double rel_err = 0;
  bool verified = false;
  simnet::TraceSummary msgs;  ///< data messages (kSend / kPut / kPutSignal)
  Status status;
};

Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg);
Result run_one_sided(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg);
Result run_shmem_gpu(const simnet::Platform& platform, int nranks,
                     const SupernodalMatrix& L, const Config& cfg);

/// Compute-time charge for a dense kernel of `flops` on this platform.
double kernel_time_us(const simnet::Platform& platform, double flops);

}  // namespace mrl::workloads::sptrsv
