// train-cpu: a cifar10_quick-shaped caffepp net trained on the real HostCpu
// backend (Numeric mode) at batch 32 under Caffe's 8 MiB per-layer limit,
// WR + powerOfTwo: the paper's Fig. 10 setting on the measured backend.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/aligned_buffer.h"
#include "frameworks/caffepp/net.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

using ucudnn::ConvKernelType;
using ucudnn::TensorShape;
namespace caffepp = ucudnn::caffepp;
namespace core = ucudnn::core;
namespace device = ucudnn::device;
namespace mcudnn = ucudnn::mcudnn;
namespace telemetry = ucudnn::telemetry;

constexpr std::int64_t kBatch = 32;
constexpr int kSetups = 3;

struct ConvSite {
  const char* name;
  const char* bottom;
};
constexpr ConvSite kConvs[] = {
    {"conv1", "data"}, {"conv2", "pool1"}, {"conv3", "pool2"}};

struct Rig {
  std::shared_ptr<device::Device> dev;
  std::unique_ptr<core::UcudnnHandle> handle;
  std::unique_ptr<caffepp::Net> net;
};

core::Options handle_options() {
  core::Options opts;
  opts.workspace_policy = core::WorkspacePolicy::kWR;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  return opts;  // the per-layer limit is the one the net announces (8 MiB)
}

void build_net(caffepp::Net& net) {
  net.input("data", TensorShape{kBatch, 3, 32, 32});
  net.conv("conv1", "data", 32, 5, 1, 2);
  net.relu("relu1", "conv1", /*in_place=*/false);
  net.pool_max("pool1", "relu1", 2, 2);
  net.conv("conv2", "pool1", 32, 5, 1, 2);
  net.relu("relu2", "conv2", false);
  net.pool_max("pool2", "relu2", 2, 2);
  net.conv("conv3", "pool2", 64, 5, 1, 2);
  net.relu("relu3", "conv3", false);
  net.pool_max("pool3", "relu3", 2, 2);
  net.fc("fc", "pool3", 10);
  net.softmax_loss("loss", "fc");
}

/// Handle construction through the first forward+backward iteration, which
/// benchmarks and plans every convolution kernel.
Rig set_up(std::uint64_t seed, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  Rig rig;
  rig.dev = std::make_shared<device::Device>(device::host_cpu_spec());
  rig.handle = std::make_unique<core::UcudnnHandle>(rig.dev, handle_options());
  rig.net = std::make_unique<caffepp::Net>(*rig.handle, "cifar10_quick");
  build_net(*rig.net);
  rig.net->init(seed);
  rig.net->forward();
  rig.net->backward();
  *seconds = ms_between(t0, Clock::now()) / 1e3;
  return rig;
}

double iterate(caffepp::Net& net) {
  const Clock::time_point t0 = Clock::now();
  net.forward();
  net.backward();
  return ms_between(t0, Clock::now());
}

std::uint64_t total_executions(const core::UcudnnHandle& handle) {
  std::uint64_t n = 0;
  for (const auto& k : handle.execution_report().kernels) n += k.executions;
  return n;
}

/// Each conv layer's forward output against an undivided plain-mcudnn
/// IMPLICIT_GEMM reference on the same bottom data, weights and bias.
std::vector<Check> check_outputs(caffepp::Net& net) {
  std::vector<Check> checks;
  const mcudnn::Handle ref_handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      mcudnn::ExecMode::kNumeric);
  const auto problems = net.conv_problems();
  for (const ConvSite& site : kConvs) {
    Check c;
    c.name = std::string(site.name) + ".forward";
    const ucudnn::kernels::ConvProblem& p = problems.at(site.name);
    caffepp::Layer* layer = nullptr;
    for (const auto& l : net.layers()) {
      if (l->name() == site.name) layer = l.get();
    }
    const std::vector<caffepp::Blob*> params = layer->params();
    const float* bias = params.size() > 1 ? params[1]->data() : nullptr;
    ucudnn::AlignedBuffer<float> ref(static_cast<std::size_t>(p.y.count()));
    mcudnn::convolution(ref_handle, ConvKernelType::kForward, p, 1.0f,
                        net.blob(site.bottom)->data(), params[0]->data(), 0.0f,
                        ref.data(), /*IMPLICIT_GEMM*/ 0, nullptr, 0);
    if (bias != nullptr) {
      const std::int64_t plane = p.y.h * p.y.w;
      for (std::int64_t i = 0; i < p.y.count(); ++i) {
        ref.data()[i] += bias[(i / plane) % p.y.c];
      }
    }
    c.max_err =
        scaled_max_err(net.blob(site.name)->data(), ref.data(), p.y.count());
    c.ok = c.max_err <= kTolerance;
    c.detail = "scaled max error vs undivided IMPLICIT_GEMM";
    checks.push_back(c);
  }
  return checks;
}

}  // namespace

Result run_train_cpu(const Args& args) {
  Result r;
  r.items_per_op = static_cast<double>(kBatch);
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::instance();
  Json spans;
  spans.begin_object("detail").begin_array("iterations");
  std::vector<double> traced_ms;
  std::uint64_t iterations = 0;
  double calls_per_iter = 0.0;

  // Each set-up plans afresh, and measured benchmarking can pick different
  // plans from one set-up to the next; every rig is measured for an equal
  // share of --seconds so one unlucky plan cannot decide the run. The last
  // rig is kept for the checks and, in traced runs, alternates untraced and
  // traced iterations so tracing is priced against interleaved ones.
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.net.reset();  // the net references its handle: tear down in order
    rig.handle.reset();
    double s = 0.0;
    rig = set_up(args.seed, &s);
    r.setup_s.push_back(s);
    const bool last = i + 1 == kSetups;
    const std::uint64_t exec0 = total_executions(*rig.handle);
    std::uint64_t rig_iterations = 0;
    std::vector<double> samples;
    const Clock::time_point end =
        Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                           args.seconds * 1e6 / kSetups));
    while (Clock::now() < end) {
      const bool traced = last && args.trace && rig_iterations % 2 == 1;
      rec.set_enabled(traced);
      const double t0_us = rec.now_us();
      const double ms = iterate(*rig.net);
      const double t1_us = rec.now_us();
      rec.set_enabled(false);
      ++rig_iterations;
      if (!traced) {
        samples.push_back(ms);
        continue;
      }
      traced_ms.push_back(ms);
      spans.begin_object().num("t0", t0_us).num("t1", t1_us).num("total_ms", ms)
          .end_object();
    }
    iterations += rig_iterations;
    r.sample_groups.push_back(samples);
    calls_per_iter = static_cast<double>(total_executions(*rig.handle) - exec0) /
                     static_cast<double>(rig_iterations);
    r.info.emplace_back(
        "rig" + std::to_string(i),
        "plan set " + plan_set_hash(plan_signatures(*rig.handle)) +
            ", device peak " +
            std::to_string(static_cast<double>(rig.dev->peak_bytes()) / kMiB) +
            " MiB");
  }
  spans.end_array();
  caffepp::Net& net = *rig.net;
  core::UcudnnHandle& handle = *rig.handle;

  r.peak_rss_mib = peak_rss_mib();
  r.checks = check_outputs(net);
  r.attempted = iterations + r.checks.size();
  r.plans = plan_signatures(handle);

  handle_layer_metrics(handle, r);
  r.layer["core.calls_per_iter"] = calls_per_iter;

  if (args.trace) {
    spans.nums("traced_ms", traced_ms);
    spans_json(spans, "spans", rec.events());
    kernels_json(spans, "kernels", handle);
    rec.clear();
    double conv_ms = 0.0;
    double other_ms = 0.0;
    for (const auto& lt : net.time(5)) {
      const bool conv = lt.name.rfind("conv", 0) == 0;
      (conv ? conv_ms : other_ms) += lt.forward_ms + lt.backward_ms;
    }
    r.layer["caffepp.conv_ms"] = conv_ms;
    r.layer["caffepp.other_ms"] = other_ms;
    const auto [per_call, per_segment] = replay_host_cost(handle, 3);
    r.layer["core.host_us_per_call"] = per_call;
    r.layer["core.host_us_per_segment"] = per_segment;
  }
  spans.end_object();
  r.raw = spans.text();
  return r;
}

}  // namespace perfbench
