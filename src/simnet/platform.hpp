// Platform registry: the machines of the paper's Table I, as topology graphs
// plus calibrated LogGP parameter sets per communication runtime.
//
// Calibration sources (all from the paper text):
//   Perlmutter CPU — IF CPU-CPU achieved ~32 GB/s on node; two-sided latency
//     lines 5 us -> 0.3 us; SpTRSV sync: two-sided 3.3 us (1 op), one-sided
//     5 us (4 ops); one-sided ~20% lower per-op latency.
//   Frontier CPU — IF bound 36 GB/s; NIC path IF -> PCIe4 ESM (50 GB/s).
//   Summit CPU — X-Bus peak 64 GB/s but ~25 GB/s achieved (we model the
//     achieved rate); Spectrum MPI one-sided consistently SLOWER than
//     two-sided; two-sided latency ~3 us.
//   Perlmutter GPU — NVLink3 100 GB/s/dir per pair (4 ports x 25);
//     put latency 4 us -> 0.5 us; CAS 0.8 us.
//   Summit GPU — dual-island dumbbell; NVLink2 50 GB/s/dir intra-island
//     (2 ports x 25), 32 GB/s across sockets; put latency ~5 us; CAS 1.0 us
//     intra-socket / 1.6 us cross-socket.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "simnet/fabric.hpp"
#include "simnet/loggp.hpp"
#include "simnet/topology.hpp"

namespace mrl::simnet {

/// Per-rank compute cost parameters (used by workloads to charge compute
/// virtual time).
struct ComputeModel {
  double membw_gbs = 3.2;     ///< streaming memory bandwidth per rank
  double flops_per_us = 3e3;  ///< scalar FLOP rate per rank (MFLOP/s / 1e0)
  int lanes = 1;              ///< concurrent compute lanes (GPU thread blocks)
};

/// Table I row metadata (for the tab01 reproduction).
struct PlatformInfo {
  std::string gpus_per_node = "-";
  std::string gpu_interconnect = "-";
  std::string gpu_runtime = "-";
  std::string gpu_cpu_interconnect = "-";
  std::string cpus = "-";
  std::string cpu_cpu_interconnect = "-";
  std::string cpu_runtime = "-";
  std::string cpu_nic_interconnect = "-";
};

/// A machine: immutable topology + parameters. Cheap to copy (topology is
/// shared). CPU builders describe one node and replicate it `nodes` times,
/// joining the nodes' NICs through one star switch; GPU platforms are a
/// single node.
class Platform {
 public:
  /// Perlmutter CPU partition: 2x AMD Milan per node, IF CPU-CPU, CrayMPI.
  static Platform perlmutter_cpu(int nodes = 1);
  /// Frontier CPU: 1x Milan (4 NUMA quadrants over on-die IF), CrayMPI.
  static Platform frontier_cpu(int nodes = 1);
  /// Summit CPU: 2x POWER9 over X-Bus, Spectrum MPI (one-sided is slow).
  static Platform summit_cpu(int nodes = 1);
  /// Perlmutter GPU: 4x A100 fully connected by NVLink3, NVSHMEM-style.
  static Platform perlmutter_gpu();
  /// Summit GPU: 6x V100 in the dual-island dumbbell topology, NVSHMEM-style.
  static Platform summit_gpu();
  /// Frontier GPU: 4x MI250X (8 GCDs) over Infinity Fabric, ROC_SHMEM-style.
  /// The paper could NOT run this configuration (ROC_SHMEM lacked
  /// wait_until_any); parameters are projections from public MI250X specs,
  /// provided for the paper's stated future work.
  static Platform frontier_gpu();

  /// All registry platforms, in Table I order.
  static std::vector<Platform> all();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] std::shared_ptr<const Topology> topology_ptr() const {
    return topo_;
  }
  [[nodiscard]] RouteMode route_mode() const { return route_mode_; }
  void set_route_mode(RouteMode m) { route_mode_ = m; }

  /// Fault-injection spec baked into fabrics built by make_fabric(). The
  /// default (empty) spec keeps the fabric bit-identical to a fault-free
  /// build.
  [[nodiscard]] const FaultSpec& faults() const { return faults_; }
  void set_faults(const FaultSpec& f) { faults_ = f; }

  [[nodiscard]] const LogGP& params(Runtime r) const;
  [[nodiscard]] LogGP& mutable_params(Runtime r);

  [[nodiscard]] const ComputeModel& compute() const { return compute_; }
  [[nodiscard]] ComputeModel& mutable_compute() { return compute_; }

  [[nodiscard]] double local_bw_gbs() const { return local_bw_gbs_; }
  [[nodiscard]] double local_latency_us() const { return local_latency_us_; }

  /// Rate at which one rank can source message bytes (0 = unlimited). A CPU
  /// core streams at roughly the on-node fabric rate, so a single rank pair
  /// achieves ~one lane of bandwidth; GPU PEs drive all NVLink ports at once.
  [[nodiscard]] double rank_pump_gbs() const { return rank_pump_gbs_; }

  [[nodiscard]] bool is_gpu() const { return is_gpu_; }
  [[nodiscard]] const PlatformInfo& info() const { return info_; }

  /// Maximum number of ranks this platform can host.
  [[nodiscard]] int max_ranks() const { return max_ranks_; }

  /// Number of nodes (copies of the node template); 1 for GPU platforms.
  [[nodiscard]] int nodes() const { return topo_->nodes(); }

  /// Endpoint hosting rank `rank` out of `nranks` total. GPU platforms map
  /// one rank per GPU in device order (so Summit rank 3 is the first GPU on
  /// the second island); CPU platforms block-distribute across sockets.
  [[nodiscard]] int endpoint_of_rank(int rank, int nranks) const;

  /// Hardware round-trip latency between the endpoints hosting two ranks
  /// (used for atomics, which bypass the software put path).
  [[nodiscard]] double hw_rtt_us(int rank_a, int rank_b, int nranks) const;

  /// Peak single-pair bandwidth between ranks 0 and nranks-1 (the roofline
  /// ceiling for pairwise sweeps).
  [[nodiscard]] double pair_peak_gbs(int rank_a, int rank_b, int nranks) const;

  /// Builds a fresh fabric over this platform's topology.
  [[nodiscard]] std::unique_ptr<Fabric> make_fabric() const;

 private:
  Platform() = default;

  std::string name_;
  std::shared_ptr<const Topology> topo_;
  RouteMode route_mode_ = RouteMode::kCutThrough;
  std::vector<int> compute_eps_;
  int ranks_per_ep_ = 1;
  int max_ranks_ = 1;
  bool is_gpu_ = false;
  LogGP two_sided_, one_sided_, shmem_;
  ComputeModel compute_;
  double local_bw_gbs_ = 20.0;
  double local_latency_us_ = 0.3;
  double rank_pump_gbs_ = 0.0;
  FaultSpec faults_;
  PlatformInfo info_;
};

}  // namespace mrl::simnet
