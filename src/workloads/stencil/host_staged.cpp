// Host-staged GPU stencil — the baseline the paper's introduction argues
// against: "the most common way of communicating on multiple GPU systems is
// to communicate via the host processor". GPU kernels compute; every halo
// exchange stages through the host (D2H copy, host two-sided MPI, H2D copy)
// with kernel-launch/synchronization overhead on both sides. Contrast with
// run_shmem_gpu, where the GPU initiates puts directly.
#include <algorithm>

#include "mpi/comm.hpp"
#include "util/units.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::stencil {

namespace {
// PCIe4 x16 staging rate and per-transfer launch/sync overhead.
constexpr double kPcieGbs = 25.0;
constexpr double kStageOverheadUs = 8.0;  // cudaMemcpy + stream sync
}  // namespace

Result run_host_staged_gpu(const simnet::Platform& platform, int nranks,
                           const Config& cfg) {
  if (Status st = validate(platform, nranks, cfg); !st.is_ok()) {
    Result bad;
    bad.status = std::move(st);
    return bad;
  }
  MRL_CHECK_MSG(platform.is_gpu(), "host staging needs a GPU platform");
  runtime::EngineOptions opt;
  opt.trace = true;
  runtime::Engine eng(platform, nranks, opt);

  const std::vector<double> reference =
      cfg.verify ? serial_reference(cfg) : std::vector<double>{};

  Result out;
  std::vector<double> errs(static_cast<std::size_t>(nranks), 0.0);
  double t0 = 0, t1 = 0;

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    // Host-initiated two-sided MPI is the p2p flavor on GPU platforms.
    const Decomp d = make_decomp(cfg.n, nranks, c.rank(), cfg.px, cfg.py);
    LocalBlock blk(cfg, d);
    const int peers[4] = {d.west, d.east, d.north, d.south};
    auto opposite = [](int side) { return side ^ 1; };
    auto stage_us = [&](std::uint64_t bytes) {
      return kStageOverheadUs +
             static_cast<double>(bytes) * gbs_to_us_per_byte(kPcieGbs);
    };

    c.barrier();
    if (c.rank() == 0) t0 = c.now();
    for (int it = 0; it < cfg.iters; ++it) {
      blk.pack_edges();
      // D2H: all outgoing halos cross PCIe to the host before any send.
      std::uint64_t out_bytes = 0;
      for (int s = 0; s < 4; ++s) {
        if (peers[s] >= 0) out_bytes += blk.edge_count(s) * sizeof(double);
      }
      if (out_bytes > 0) c.compute(stage_us(out_bytes));

      std::vector<mpi::Request> reqs;
      for (int s = 0; s < 4; ++s) {
        if (peers[s] < 0) continue;
        reqs.push_back(c.isend(blk.out(s), blk.edge_count(s) * sizeof(double),
                               peers[s], opposite(s)));
        reqs.push_back(c.irecv(blk.in(s), blk.edge_count(s) * sizeof(double),
                               peers[s], s));
      }
      c.waitall(reqs);

      // H2D: received halos go back to the device.
      if (out_bytes > 0) c.compute(stage_us(out_bytes));

      blk.sweep();
      c.compute(sweep_time_us(
          platform, blk.sweep_bytes(),
          static_cast<std::uint64_t>(d.w()) * static_cast<std::uint64_t>(d.h())));
    }
    c.barrier();
    if (c.rank() == 0) t1 = c.now();
    if (cfg.verify) {
      errs[static_cast<std::size_t>(c.rank())] = blk.compare(reference, cfg.n);
    }
  });

  out.status = run.status;
  out.time_us = t1 - t0;
  out.verified = cfg.verify;
  out.max_abs_err = *std::max_element(errs.begin(), errs.end());
  out.msgs = eng.trace().summarize(simnet::OpKind::kSend);
  if (eng.metrics().enabled()) out.metrics = eng.metrics_report();
  return out;
}

}  // namespace mrl::workloads::stencil
