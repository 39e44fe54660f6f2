#include "simnet/platform.hpp"

#include <cmath>
#include <limits>

#include "util/status.hpp"

namespace mrl::simnet {

const LogGP& Platform::params(Runtime r) const {
  switch (r) {
    case Runtime::kTwoSidedMpi: return two_sided_;
    case Runtime::kOneSidedMpi: return one_sided_;
    case Runtime::kShmem: return shmem_;
  }
  MRL_CHECK_MSG(false, "bad runtime");
  return two_sided_;
}

LogGP& Platform::mutable_params(Runtime r) {
  return const_cast<LogGP&>(params(r));
}

int Platform::endpoint_of_rank(int rank, int nranks) const {
  MRL_CHECK(nranks >= 1 && nranks <= max_ranks_);
  MRL_CHECK(rank >= 0 && rank < nranks);
  const int neps = static_cast<int>(compute_eps_.size());
  if (is_gpu_) return compute_eps_[rank];  // one rank (PE) per GPU
  if (nranks <= neps) return compute_eps_[rank];
  // Balanced block distribution: rank r -> block floor(r*neps/nranks).
  const int block = static_cast<int>(
      (static_cast<long long>(rank) * neps) / nranks);
  return compute_eps_[block];
}

double Platform::hw_rtt_us(int rank_a, int rank_b, int nranks) const {
  const int ea = endpoint_of_rank(rank_a, nranks);
  const int eb = endpoint_of_rank(rank_b, nranks);
  if (ea == eb) return 2.0 * local_latency_us_;
  return topo_->route_latency_us(ea, eb) + topo_->route_latency_us(eb, ea);
}

double Platform::pair_peak_gbs(int rank_a, int rank_b, int nranks) const {
  const int ea = endpoint_of_rank(rank_a, nranks);
  const int eb = endpoint_of_rank(rank_b, nranks);
  if (ea == eb) return local_bw_gbs_;
  double bw = std::numeric_limits<double>::infinity();
  for (const DirectedLink& dl : topo_->route(ea, eb)) {
    bw = std::min(bw, topo_->link(dl.link).bandwidth_gbs);
  }
  return bw;
}

std::unique_ptr<Fabric> Platform::make_fabric() const {
  return std::make_unique<Fabric>(topo_.get(), route_mode_, local_bw_gbs_,
                                  local_latency_us_, faults_);
}

// ---------------------------------------------------------------------------
// Perlmutter CPU: per node two Milan sockets joined by Infinity Fabric
// (4 ports x 32 GB/s/dir; a single stream rides one port at 32 GB/s, which is
// the "achieved close to the IF peak of 32 GB/s" in Fig 3a). NIC hangs off
// socket 0 via PCIe4 at 25 GB/s.
// ---------------------------------------------------------------------------
Platform Platform::perlmutter_cpu(int nodes) {
  MRL_CHECK(nodes >= 1);
  Platform p;
  p.name_ = nodes == 1 ? "Perlmutter CPU"
                       : "Perlmutter CPU (" + std::to_string(nodes) + " nodes)";
  auto topo = std::make_shared<Topology>();
  const int s0 = topo->add_endpoint("milan0", EndpointKind::kSocket);
  const int s1 = topo->add_endpoint("milan1", EndpointKind::kSocket);
  topo->add_link(s0, s1,
                 LinkSpec{"IF CPU-CPU", /*bw=*/128.0, /*lat=*/0.25,
                          /*channels=*/4});
  const int nic = topo->add_endpoint("nic", EndpointKind::kNic);
  topo->add_link(s0, nic, LinkSpec{"PCIe4.0", 25.0, 0.35, 1});
  topo->replicate(nodes, nic, LinkSpec{"Slingshot", 25.0, 0.45, 1});
  topo->finalize();
  p.compute_eps_ = topo->endpoints_of_kind(EndpointKind::kSocket);
  p.topo_ = std::move(topo);
  p.ranks_per_ep_ = 64;  // 64 Milan cores per socket
  p.max_ranks_ = static_cast<int>(p.compute_eps_.size()) * p.ranks_per_ep_;
  // CrayMPI calibration: two-sided 1-msg latency 2*o+L = 3.3 us, floor 0.3 us;
  // one-sided per-op latency 20% lower.
  p.two_sided_ = LogGP{/*L=*/2.70, /*o=*/0.30, /*g=*/0.05, 0.0};
  p.one_sided_ = LogGP{/*L=*/2.16, /*o=*/0.24, /*g=*/0.05, 0.0};
  p.one_sided_.atomic_L_us = 1.25;  // one CAS in ~2 us (Sec III-C)
  p.shmem_ = p.one_sided_;  // no GPU runtime on the CPU partition
  p.compute_ = ComputeModel{/*membw=*/3.2, /*flops=*/3.3e3, /*lanes=*/1};
  p.local_bw_gbs_ = 32.0;
  p.local_latency_us_ = 0.25;
  p.rank_pump_gbs_ = 32.0;  // one core streams ~one IF port (Fig 3a)
  p.info_ = PlatformInfo{"-", "-", "-", "-",
                         "2xAMD EPYC 7763", "Infinity Fabric", "CrayMPI",
                         "PCIe4.0"};
  return p;
}

// ---------------------------------------------------------------------------
// Frontier CPU: one Milan-class EPYC per node; NUMA quadrants communicate
// over on-die Infinity Fabric at 36 GB/s (the paper's ultimate on-node bound,
// Fig 1). NICs attach through IF CPU-GPU -> PCIe4 ESM (50 GB/s).
// ---------------------------------------------------------------------------
Platform Platform::frontier_cpu(int nodes) {
  MRL_CHECK(nodes >= 1);
  Platform p;
  p.name_ = nodes == 1 ? "Frontier CPU"
                       : "Frontier CPU (" + std::to_string(nodes) + " nodes)";
  auto topo = std::make_shared<Topology>();
  int quad[4];
  for (int q = 0; q < 4; ++q) {
    quad[q] = topo->add_endpoint("quad" + std::to_string(q),
                                 EndpointKind::kSocket);
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      topo->add_link(quad[a], quad[b], LinkSpec{"IF on-die", 36.0, 0.20, 1});
    }
  }
  const int nic = topo->add_endpoint("nic0", EndpointKind::kNic);
  topo->add_link(quad[0], nic, LinkSpec{"PCIe4 ESM", 50.0, 0.30, 1});
  topo->replicate(nodes, nic, LinkSpec{"Slingshot", 25.0, 0.45, 1});
  topo->finalize();
  p.compute_eps_ = topo->endpoints_of_kind(EndpointKind::kSocket);
  p.topo_ = std::move(topo);
  p.ranks_per_ep_ = 16;  // 64 cores / 4 quadrants
  p.max_ranks_ = static_cast<int>(p.compute_eps_.size()) * p.ranks_per_ep_;
  p.two_sided_ = LogGP{/*L=*/2.80, /*o=*/0.32, /*g=*/0.05, 0.0};
  p.one_sided_ = LogGP{/*L=*/2.30, /*o=*/0.26, /*g=*/0.05, 0.0};
  p.one_sided_.atomic_L_us = 1.30;
  p.shmem_ = p.one_sided_;
  p.compute_ = ComputeModel{3.2, 3.3e3, 1};
  p.local_bw_gbs_ = 36.0;
  p.local_latency_us_ = 0.25;
  p.rank_pump_gbs_ = 36.0;
  p.info_ = PlatformInfo{"-", "-", "-", "-",
                         "1xAMD EPYC 7A53", "Infinity Fabric", "CrayMPI",
                         "Infinity Fabric and PCIe4.0 ESM"};
  return p;
}

// ---------------------------------------------------------------------------
// Summit CPU: two POWER9 sockets over X-Bus. The paper observes ~25 GB/s
// achieved despite the 64 GB/s peak, so the link models the achieved rate
// (documented substitution). Spectrum MPI one-sided is consistently slower
// than two-sided: higher per-op overhead and software latency.
// ---------------------------------------------------------------------------
Platform Platform::summit_cpu(int nodes) {
  MRL_CHECK(nodes >= 1);
  Platform p;
  p.name_ = nodes == 1 ? "Summit CPU"
                       : "Summit CPU (" + std::to_string(nodes) + " nodes)";
  auto topo = std::make_shared<Topology>();
  const int s0 = topo->add_endpoint("power9_0", EndpointKind::kSocket);
  const int s1 = topo->add_endpoint("power9_1", EndpointKind::kSocket);
  topo->add_link(s0, s1, LinkSpec{"X-Bus", 25.0, 0.30, 1, /*occupancy=*/0.4});
  const int nic = topo->add_endpoint("nic", EndpointKind::kNic);
  topo->add_link(s0, nic, LinkSpec{"PCIe4.0", 16.0, 0.40, 1});
  topo->replicate(nodes, nic, LinkSpec{"Slingshot", 12.5, 0.60, 1});
  topo->finalize();
  p.compute_eps_ = topo->endpoints_of_kind(EndpointKind::kSocket);
  p.topo_ = std::move(topo);
  p.ranks_per_ep_ = 21;  // 21 usable cores per socket (42 per node)
  p.max_ranks_ = static_cast<int>(p.compute_eps_.size()) * p.ranks_per_ep_;
  // Spectrum MPI: two-sided 1-msg latency ~3 us; one-sided consistently worse.
  p.two_sided_ = LogGP{/*L=*/2.10, /*o=*/0.45, /*g=*/0.08, 0.0};
  p.one_sided_ = LogGP{/*L=*/6.50, /*o=*/0.90, /*g=*/0.08, 0.0};
  p.one_sided_.atomic_L_us = 2.50;  // Spectrum MPI atomics are slow
  p.shmem_ = p.one_sided_;
  p.compute_ = ComputeModel{2.8, 2.5e3, 1};
  p.local_bw_gbs_ = 25.0;
  p.local_latency_us_ = 0.30;
  p.rank_pump_gbs_ = 25.0;
  p.info_ = PlatformInfo{"-", "-", "-", "-",
                         "2xIBM POWER9", "X-Bus", "IBM Spectrum", "PCIe4.0"};
  return p;
}

// ---------------------------------------------------------------------------
// Perlmutter GPU: four A100s, fully connected. Twelve NVLink3 ports per GPU
// in three groups of four: each pair gets 100 GB/s/dir as 4 lanes x 25 GB/s.
// A single put stream rides one lane — splitting a large message across lanes
// is what buys the 2.9x of Fig 10. CAS 0.8 us = o(0.5) + RTT(2 x 0.15).
// ---------------------------------------------------------------------------
Platform Platform::perlmutter_gpu() {
  Platform p;
  p.name_ = "Perlmutter GPU";
  p.is_gpu_ = true;
  auto topo = std::make_shared<Topology>();
  int g[4];
  for (int i = 0; i < 4; ++i) {
    g[i] = topo->add_endpoint("a100_" + std::to_string(i), EndpointKind::kGpu);
    p.compute_eps_.push_back(g[i]);
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      topo->add_link(g[a], g[b],
                     LinkSpec{"NVLink3", 100.0, 0.15, /*channels=*/4});
    }
  }
  const int s0 = topo->add_endpoint("milan", EndpointKind::kSocket);
  for (int i = 0; i < 4; ++i) {
    topo->add_link(g[i], s0, LinkSpec{"PCIe4.0", 25.0, 0.35, 1});
  }
  topo->finalize();
  p.topo_ = std::move(topo);
  p.ranks_per_ep_ = 1;
  p.max_ranks_ = 4;
  // NVSHMEM put-with-signal: 1-msg latency ~4 us, floor ~0.5 us (Fig 4a).
  p.shmem_ = LogGP{/*L=*/3.35, /*o=*/0.50, /*g=*/0.04, 0.0};
  p.two_sided_ = LogGP{/*L=*/6.0, /*o=*/1.0, /*g=*/0.08, 0.0};  // host-staged
  p.one_sided_ = p.shmem_;
  p.compute_ = ComputeModel{/*membw=*/1300.0, /*flops=*/9.7e6, /*lanes=*/80};
  p.local_bw_gbs_ = 1300.0;
  p.local_latency_us_ = 0.10;
  p.info_ = PlatformInfo{"4xA100", "NVLINK3", "cudatoolkit v11.7 NVSHMEM v2.8.0",
                         "PCIe4", "1xAMD EPYC 7763", "-", "-", "PCIe4.0"};
  return p;
}

// ---------------------------------------------------------------------------
// Summit GPU: six V100s in the dual-island dumbbell. Within an island the
// three GPUs are fully connected by NVLink2 (50 GB/s/dir = 2 lanes x 25);
// islands talk through their POWER9 sockets over X-Bus, which caps the
// cross-island stream at 32 GB/s and stretches the CAS round trip to 1.6 us.
// ---------------------------------------------------------------------------
Platform Platform::summit_gpu() {
  Platform p;
  p.name_ = "Summit GPU";
  p.is_gpu_ = true;
  auto topo = std::make_shared<Topology>();
  int g[6];
  for (int i = 0; i < 6; ++i) {
    g[i] = topo->add_endpoint("v100_" + std::to_string(i), EndpointKind::kGpu);
    p.compute_eps_.push_back(g[i]);
  }
  const int s0 = topo->add_endpoint("power9_0", EndpointKind::kSocket);
  const int s1 = topo->add_endpoint("power9_1", EndpointKind::kSocket);
  // Island 0: g0,g1,g2 on socket 0; island 1: g3,g4,g5 on socket 1.
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      topo->add_link(g[a], g[b], LinkSpec{"NVLink2", 50.0, 0.25, 2});
      topo->add_link(g[3 + a], g[3 + b], LinkSpec{"NVLink2", 50.0, 0.25, 2});
    }
  }
  for (int i = 0; i < 3; ++i) {
    topo->add_link(g[i], s0, LinkSpec{"NVLink2 CPU-GPU", 50.0, 0.25, 2});
    topo->add_link(g[3 + i], s1, LinkSpec{"NVLink2 CPU-GPU", 50.0, 0.25, 2});
  }
  topo->add_link(s0, s1,
                 LinkSpec{"X-Bus", 32.0, 0.05, 1, /*occupancy=*/0.4});
  topo->finalize();
  p.topo_ = std::move(topo);
  p.ranks_per_ep_ = 1;
  p.max_ranks_ = 6;
  // NVSHMEM on Summit: 1-msg put latency ~5 us (Fig 8 discussion), with a
  // heavy per-put overhead — the V100-generation proxy path is slow per
  // message even though its atomics are fast (CAS 1.0/1.6 us). This is what
  // makes latency-bound DAG codes run SLOWER on more Summit GPUs while
  // stencils (few large messages per sync) still scale.
  p.shmem_ = LogGP{/*L=*/1.75, /*o=*/3.00, /*g=*/0.30, 0.0};
  p.shmem_.atomic_o_us = 0.50;
  p.two_sided_ = LogGP{/*L=*/7.0, /*o=*/1.2, /*g=*/0.10, 0.0};  // host-staged
  p.one_sided_ = p.shmem_;
  p.compute_ = ComputeModel{/*membw=*/800.0, /*flops=*/7.0e6, /*lanes=*/80};
  p.local_bw_gbs_ = 800.0;
  p.local_latency_us_ = 0.10;
  p.info_ = PlatformInfo{"6xV100", "NVLINK2", "CUDA v11.0.3 NVSHMEM v2.8.0",
                         "NVLINK2", "2xIBM POWER9", "X-Bus", "IBM Spectrum",
                         "PCIe4.0"};
  return p;
}

// ---------------------------------------------------------------------------
// Frontier GPU (projection — the paper's future work): four MI250X packages,
// each with two GCDs joined by in-package Infinity Fabric (200 GB/s/dir as
// 4 lanes); packages fully connected by external IF (50 GB/s/dir, 1 lane);
// the Trento CPU hangs off package 0's fabric at 36 GB/s. ROC_SHMEM-class
// software costs: heavier per-put overhead than NVSHMEM, fast atomics.
// ---------------------------------------------------------------------------
Platform Platform::frontier_gpu() {
  Platform p;
  p.name_ = "Frontier GPU";
  p.is_gpu_ = true;
  auto topo = std::make_shared<Topology>();
  int gcd[8];
  for (int i = 0; i < 8; ++i) {
    gcd[i] = topo->add_endpoint("mi250x_" + std::to_string(i / 2) + "_gcd" +
                                    std::to_string(i % 2),
                                EndpointKind::kGpu);
    p.compute_eps_.push_back(gcd[i]);
  }
  for (int pkg = 0; pkg < 4; ++pkg) {
    topo->add_link(gcd[2 * pkg], gcd[2 * pkg + 1],
                   LinkSpec{"IF in-package", 200.0, 0.10, 4});
  }
  // Package-to-package external IF: connect even GCDs pairwise.
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      topo->add_link(gcd[2 * a], gcd[2 * b],
                     LinkSpec{"IF GPU-GPU", 50.0, 0.30, 1});
    }
  }
  const int cpu = topo->add_endpoint("trento", EndpointKind::kSocket);
  topo->add_link(gcd[0], cpu, LinkSpec{"IF CPU-GPU", 36.0, 0.25, 1});
  topo->finalize();
  p.topo_ = std::move(topo);
  p.ranks_per_ep_ = 1;
  p.max_ranks_ = 8;
  // ROC_SHMEM-class costs (projected): put latency ~6 us at 1 msg/sync,
  // per-put overhead between NVSHMEM-on-Summit and -on-Perlmutter.
  p.shmem_ = LogGP{/*L=*/3.5, /*o=*/2.0, /*g=*/0.20, 0.0};
  p.shmem_.atomic_o_us = 0.6;
  p.two_sided_ = LogGP{/*L=*/7.5, /*o=*/1.2, /*g=*/0.10, 0.0};  // host-staged
  p.one_sided_ = p.shmem_;
  p.compute_ = ComputeModel{/*membw=*/1600.0, /*flops=*/2.4e7, /*lanes=*/110};
  p.local_bw_gbs_ = 1600.0;
  p.local_latency_us_ = 0.10;
  p.info_ = PlatformInfo{"4xMI250X (8 GCD)", "Infinity Fabric",
                         "ROC_SHMEM (projected)", "Infinity Fabric",
                         "1xAMD Trento", "-", "-", "PCIe4 ESM"};
  return p;
}

std::vector<Platform> Platform::all() {
  std::vector<Platform> v;
  v.push_back(summit_gpu());
  v.push_back(perlmutter_gpu());
  v.push_back(frontier_gpu());
  v.push_back(perlmutter_cpu());
  v.push_back(frontier_cpu());
  v.push_back(summit_cpu());
  return v;
}

}  // namespace mrl::simnet
