// Stencil demo: runs the BSP halo-exchange workload with all three
// communication models and verifies every variant against the serial
// reference — the paper's Sec III-A experiment in miniature.
//
// Usage: ./examples/stencil_demo [grid_n] [ranks] [iters]
#include <cstdio>
#include <cstdlib>

#include "simnet/platform.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workloads/stencil/stencil.hpp"

int main(int argc, char** argv) {
  using namespace mrl;
  namespace st = workloads::stencil;

  const auto n = parse_cli_int(argc > 1 ? argv[1] : "512", 2, "grid size");
  const auto ranks_v = parse_cli_int(argc > 2 ? argv[2] : "16", 1, "rank count");
  const auto iters =
      parse_cli_int(argc > 3 ? argv[3] : "5", 1, "iteration count");
  if (!n || !ranks_v || !iters) {
    std::fprintf(stderr, "usage: stencil_demo [grid_n] [ranks] [iters]\n");
    return 2;
  }
  st::Config cfg;
  cfg.n = static_cast<int>(*n);
  int ranks = static_cast<int>(*ranks_v);
  cfg.iters = static_cast<int>(*iters);

  const auto cpu = simnet::Platform::perlmutter_cpu();
  if (const Status bad = st::validate(cpu, ranks, cfg); !bad.is_ok()) {
    std::fprintf(stderr, "stencil_demo: %s\n", bad.to_string().c_str());
    return 2;
  }

  std::printf("2D Jacobi stencil, grid %dx%d, %d ranks, %d iterations\n\n",
              cfg.n, cfg.n, ranks, cfg.iters);

  TextTable t({"variant", "platform", "time", "verified", "comm BW",
               "msg/sync"});
  auto row = [&](const char* name, const char* plat, const st::Result& r) {
    t.add_row({name, plat, format_time_us(r.time_us),
               r.max_abs_err == 0 ? "bitwise ==" : "FAILED",
               format_gbs(r.msgs.sustained_gbs),
               format_double(r.msgs.avg_msgs_per_sync, 1)});
  };

  row("two-sided MPI", "Perlmutter CPU", st::run_two_sided(cpu, ranks, cfg));
  row("one-sided MPI (Put+fence)", "Perlmutter CPU",
      st::run_one_sided(cpu, ranks, cfg));
  const auto gpu = simnet::Platform::perlmutter_gpu();
  row("NVSHMEM put-with-signal", "Perlmutter GPU",
      st::run_shmem_gpu(gpu, std::min(ranks, gpu.max_ranks()), cfg));

  std::printf("%s\n", t.render().c_str());
  std::printf("Note: on CPUs one-sided ~= two-sided (stencils are bandwidth-"
              "bound); the GPU row wins on parallelism + bandwidth (Fig 5).\n");
  return 0;
}
