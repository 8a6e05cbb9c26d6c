// p100sim-wd: caffepp AlexNet at batch 256 on the simulated P100 (Virtual
// mode) with WD + `all` over a 120 MiB arena, Fig. 13's headline
// configuration. No kernel runs, so wall time is framework and wrapper host
// cost, and set-up is the WD planner (Pareto sets + MCKP).
#include <algorithm>
#include <memory>

#include "common.h"
#include "frameworks/caffepp/model_zoo.h"

namespace perfbench {
namespace {

namespace caffepp = ucudnn::caffepp;
namespace core = ucudnn::core;
namespace device = ucudnn::device;
namespace telemetry = ucudnn::telemetry;

constexpr std::int64_t kBatch = 256;
constexpr std::size_t kArenaBytes = std::size_t{120} << 20;
constexpr int kSetups = 3;
constexpr double kBlockMs = 100.0;

struct Rig {
  std::shared_ptr<device::Device> dev;
  std::unique_ptr<core::UcudnnHandle> handle;
  std::unique_ptr<caffepp::Net> net;
};

Rig set_up(std::uint64_t seed, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  Rig rig;
  rig.dev = std::make_shared<device::Device>(device::p100_sxm2_spec());
  core::Options opts;
  opts.workspace_policy = core::WorkspacePolicy::kWD;
  opts.batch_size_policy = core::BatchSizePolicy::kAll;
  opts.total_workspace_size = kArenaBytes;
  rig.handle = std::make_unique<core::UcudnnHandle>(rig.dev, opts);
  rig.net = std::make_unique<caffepp::Net>(*rig.handle, "alexnet");
  caffepp::build_alexnet(*rig.net, kBatch);
  rig.net->init(seed);
  rig.net->forward();
  rig.net->backward();
  *seconds = ms_between(t0, Clock::now()) / 1e3;
  return rig;
}

}  // namespace

Result run_p100sim_wd(const Args& args) {
  Result r;
  r.items_per_op = static_cast<double>(kBatch);
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.net.reset();
    rig.handle.reset();
    double s = 0.0;
    rig = set_up(args.seed, &s);
    r.setup_s.push_back(s);
  }
  caffepp::Net& net = *rig.net;
  core::UcudnnHandle& handle = *rig.handle;
  device::Device& dev = *rig.dev;
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::instance();

  // The measured window is split into 0.1 s blocks (≈290 iterations);
  // run.py reports the least-disturbed block, since sub-millisecond host
  // iterations are easily slowed by whatever else shares the machine.
  std::vector<double> traced_ms;
  std::vector<double> model_ms;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(args.seconds * 1e6));
  std::uint64_t iterations = 0;
  for (Clock::time_point now = start; now < end; now = Clock::now()) {
    const auto block = static_cast<std::size_t>(ms_between(start, now) / kBlockMs);
    if (r.sample_groups.size() <= block) r.sample_groups.resize(block + 1);
    const bool traced = args.trace && iterations % 2 == 1;
    rec.set_enabled(traced);
    const double clock0 = dev.clock_ms();
    const Clock::time_point t0 = Clock::now();
    net.forward();
    net.backward();
    const double ms = ms_between(t0, Clock::now());
    rec.set_enabled(false);
    if (traced) rec.clear();  // spans here only price tracing
    model_ms.push_back(dev.clock_ms() - clock0);
    (traced ? traced_ms : r.sample_groups[block]).push_back(ms);
    ++iterations;
  }

  r.peak_rss_mib = peak_rss_mib();

  // Checks: the arena stays within its 120 MiB budget, and every recorded
  // kernel ran with a configuration.
  Check arena;
  arena.name = "wd_arena_within_limit";
  const std::size_t arena_bytes = dev.peak_by_tag()["wd_arena"];
  arena.ok = arena_bytes > 0 && arena_bytes <= kArenaBytes &&
             handle.wd_plan() != nullptr &&
             handle.wd_plan()->total_workspace <= kArenaBytes;
  arena.max_err = static_cast<double>(arena_bytes) / kMiB;
  arena.detail = "arena MiB (limit 120)";
  r.checks.push_back(arena);
  Check configured;
  configured.name = "every_kernel_configured";
  std::size_t missing = 0;
  for (const auto& request : handle.recorded_kernels()) {
    if (handle.configuration_for(request.type, request.problem) == nullptr) {
      ++missing;
    }
  }
  configured.ok = missing == 0 && !handle.recorded_kernels().empty();
  configured.max_err = static_cast<double>(missing);
  configured.detail = std::to_string(handle.recorded_kernels().size()) +
                      " recorded kernels, " + std::to_string(missing) +
                      " without a configuration";
  r.checks.push_back(configured);
  r.attempted = iterations + r.checks.size();
  r.plans = plan_signatures(handle);

  std::sort(model_ms.begin(), model_ms.end());
  const double model_iter_ms = model_ms[model_ms.size() / 2];
  const auto report = handle.execution_report();
  std::uint64_t executions = 0;
  std::size_t segments = 0;
  for (const auto& k : report.kernels) {
    executions += k.executions;
    segments += k.segments.size();
  }
  handle_layer_metrics(handle, r);
  r.layer["core.calls_per_iter"] =
      static_cast<double>(executions) / static_cast<double>(iterations + 1);
  r.layer["device.model_img_s"] = static_cast<double>(kBatch) * 1e3 / model_iter_ms;
  if (args.trace) {
    const auto [per_call, per_segment] = replay_host_cost(handle, 200);
    r.layer["core.host_us_per_call"] = per_call;
    r.layer["core.host_us_per_segment"] = per_segment;
  }

  Json j;
  j.begin_object("detail").nums("traced_ms", traced_ms).end_object();
  r.raw = j.text();
  r.info.emplace_back("model_ms_per_iter (model output)",
                      std::to_string(model_iter_ms));
  r.info.emplace_back("device_peak_mib", std::to_string(dev.peak_bytes() / kMiB));
  r.info.emplace_back("kernels_segments",
                      std::to_string(report.kernels.size()) + " kernels in " +
                          std::to_string(segments) + " segments");
  return r;
}

}  // namespace perfbench
