// Roofline explorer: interactive-ish CLI over the Message Roofline model —
// pick a platform and a runtime, get the calibrated roofline, the knees,
// and a bound lookup for your application's (message size, msg/sync) point.
//
// Usage: ./examples/roofline_explorer [platform] [runtime] [bytes] [msgsync]
//   platform: perlmutter-cpu | frontier-cpu | summit-cpu |
//             perlmutter-gpu | summit-gpu | frontier-gpu
//   runtime:  two-sided | one-sided | shmem
//
// A bad name, value or argument count is a usage error: exit 2.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fit.hpp"
#include "core/model.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "simnet/platform.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "roofline_explorer: %s\n"
               "usage: roofline_explorer [platform] [runtime] [bytes] "
               "[msgsync]\n"
               "platforms: perlmutter-cpu frontier-cpu summit-cpu "
               "perlmutter-gpu summit-gpu frontier-gpu\n"
               "runtimes: two-sided one-sided shmem\n",
               msg.c_str());
  std::exit(2);
}

mrl::simnet::Platform pick_platform(const std::string& name) {
  using mrl::simnet::Platform;
  if (name == "perlmutter-cpu") return Platform::perlmutter_cpu();
  if (name == "frontier-cpu") return Platform::frontier_cpu();
  if (name == "summit-cpu") return Platform::summit_cpu();
  if (name == "perlmutter-gpu") return Platform::perlmutter_gpu();
  if (name == "summit-gpu") return Platform::summit_gpu();
  if (name == "frontier-gpu") return Platform::frontier_gpu();
  usage_error("unknown platform '" + name + "'");
}

mrl::core::SweepKind pick_runtime(const std::string& name) {
  using mrl::core::SweepKind;
  if (name == "two-sided") return SweepKind::kTwoSided;
  if (name == "one-sided") return SweepKind::kOneSidedMpi;
  if (name == "shmem") return SweepKind::kShmemPutSignal;
  usage_error("unknown runtime '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrl;
  if (argc > 5) usage_error("at most four arguments");
  const std::string plat_name = argc > 1 ? argv[1] : "perlmutter-cpu";
  const std::string rt_name =
      argc > 2 ? argv[2] : (plat_name.find("gpu") != std::string::npos
                                ? "shmem"
                                : "two-sided");
  // The model is defined for bytes > 0 and at least one message per sync.
  const auto bytes = argc > 3 ? parse_f64(argv[3]) : 4096.0;
  const auto msync = argc > 4 ? parse_f64(argv[4]) : 4.0;
  if (!bytes || !msync || *bytes <= 0 || *msync < 1) {
    usage_error("invalid point: need bytes > 0 and msgs/sync >= 1");
  }

  const simnet::Platform plat = pick_platform(plat_name);
  const core::SweepKind kind = pick_runtime(rt_name);

  std::printf("calibrating %s / %s (running sweeps on the simulated fabric)"
              "...\n\n", plat.name().c_str(), core::to_string(kind).c_str());
  const auto calib = core::calibrate_roofline(plat, kind);
  if (!calib.is_ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 calib.status().to_string().c_str());
    return 1;
  }
  const core::RooflineParams params = calib.value();
  core::RooflineModel model(params);

  core::RooflineFigure fig(plat.name() + " — " + core::to_string(kind),
                           params);
  fig.add_model_curves({1, 10, 100, 1000, 1e5});
  fig.add_sharp_curve();
  fig.add_dot({"your app", *bytes, *msync, model.rounded_gbs(*bytes, *msync)});
  std::printf("%s\n", fig.render().c_str());

  TextTable t({"quantity", "value"});
  t.add_row({"fitted o (per-op overhead)", format_time_us(params.o_us)});
  t.add_row({"fitted L (latency)", format_time_us(params.L_us)});
  t.add_row({"fitted peak bandwidth", format_gbs(params.peak_gbs)});
  t.add_row({"roofline knee @ 1 msg/sync",
             format_bytes(static_cast<std::uint64_t>(model.knee_bytes(1)))});
  t.add_row({"bound for your point",
             format_gbs(model.rounded_gbs(*bytes, *msync))});
  t.add_row({"effective latency for your point",
             format_time_us(model.effective_latency_us(*bytes, *msync))});
  t.add_row({"overlap headroom at your size",
             format_double(model.overlap_headroom(*bytes), 2) + "x"});
  std::printf("%s\n", t.render("model card").c_str());
  return 0;
}
