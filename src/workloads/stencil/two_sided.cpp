// Two-sided stencil: four MPI_Isend/MPI_Irecv pairs + MPI_Waitall per
// iteration (the paper's baseline BSP implementation).
#include <algorithm>

#include "mpi/comm.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::stencil {

Result run_two_sided(const simnet::Platform& platform, int nranks,
                     const Config& cfg) {
  if (Status st = validate(platform, nranks, cfg); !st.is_ok()) {
    Result bad;
    bad.status = std::move(st);
    return bad;
  }
  runtime::EngineOptions opt;
  opt.trace = true;
  runtime::Engine eng(platform, nranks, opt);

  const std::vector<double> reference =
      cfg.verify ? serial_reference(cfg) : std::vector<double>{};

  Result out;
  std::vector<double> errs(static_cast<std::size_t>(nranks), 0.0);
  double t0 = 0, t1 = 0;

  const auto run = mpi::World::run(eng, [&](mpi::Comm& c) {
    const Decomp d = make_decomp(cfg.n, nranks, c.rank(), cfg.px, cfg.py);
    LocalBlock blk(cfg, d);
    // (neighbor, my outgoing side, my incoming side); the tag names the side
    // the message lands on at the RECEIVER.
    struct Edge {
      int peer;
      int out_side;
      int in_side;
    };
    const Edge edges[4] = {
        {d.west, LocalBlock::kWest, LocalBlock::kWest},
        {d.east, LocalBlock::kEast, LocalBlock::kEast},
        {d.north, LocalBlock::kNorth, LocalBlock::kNorth},
        {d.south, LocalBlock::kSouth, LocalBlock::kSouth},
    };
    auto opposite = [](int side) { return side ^ 1; };  // W<->E, N<->S

    c.barrier();
    if (c.rank() == 0) t0 = c.now();
    for (int it = 0; it < cfg.iters; ++it) {
      blk.pack_edges();
      std::vector<mpi::Request> reqs;
      for (const Edge& e : edges) {
        if (e.peer < 0) continue;
        // My out[side] becomes the peer's in[opposite(side)].
        reqs.push_back(c.isend(blk.out(e.out_side),
                               blk.edge_count(e.out_side) * sizeof(double),
                               e.peer, opposite(e.out_side)));
        reqs.push_back(c.irecv(blk.in(e.in_side),
                               blk.edge_count(e.in_side) * sizeof(double),
                               e.peer, e.in_side));
      }
      c.waitall(reqs);
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
