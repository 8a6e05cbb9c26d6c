// perfbench workload binary: runs one named workload against the library's public
// APIs and writes the raw measurements (samples, per-request records,
// spans, counters, check results) as one JSON document. perfbench/run.py
// builds this binary, runs it, and turns the document into the reported
// metrics.
//
//   perfbench_workload --workload train-cpu --seed 1 --seconds 10 --trace 0
//                    --out raw.json
//
// Exit codes: 0 = measured (check results are in the document), 2 = usage.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common.h"
#include "common/aligned_buffer.h"
#include "kernels/registry.h"
#include "tensor/tensor.h"

namespace perfbench {

// --- Json -------------------------------------------------------------------

void Json::sep(const std::string& key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (!key.empty()) {
    quote(key);
    out_ += ':';
  }
}

void Json::quote(const std::string& s) {
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

Json& Json::begin_object(const std::string& key) {
  sep(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array(const std::string& key) {
  sep(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::num(const std::string& key, double v) {
  sep(key);
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::num(double v) { return num("", v); }

Json& Json::str(const std::string& key, const std::string& v) {
  sep(key);
  quote(v);
  return *this;
}

Json& Json::str(const std::string& v) { return str("", v); }

Json& Json::boolean(const std::string& key, bool v) {
  sep(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::nums(const std::string& key, const std::vector<double>& values) {
  begin_array(key);
  for (const double v : values) num(v);
  return end_array();
}

// --- helpers ----------------------------------------------------------------

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::map<std::string, std::string> plan_signatures(
    const ucudnn::core::UcudnnHandle& handle) {
  std::map<std::string, std::string> plans;
  for (const auto& k : handle.execution_report().kernels) {
    plans[k.label] = k.plan;
  }
  return plans;
}

std::string plan_set_hash(const std::map<std::string, std::string>& plans) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const auto& [label, plan] : plans) {
    for (const char c : label + '=' + plan + ';') {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double conv_flops(const ucudnn::kernels::ConvProblem& p) {
  const double groups = static_cast<double>(std::max<std::int64_t>(1, p.geom.groups));
  return 2.0 * static_cast<double>(p.x.n) * static_cast<double>(p.w.k) *
         static_cast<double>(p.x.c) / groups * static_cast<double>(p.w.r) *
         static_cast<double>(p.w.s) * static_cast<double>(p.y.h) *
         static_cast<double>(p.y.w);
}

namespace {

/// Bytes currently held under workspace tags ("<label>:ws", "shared:ws",
/// "workspace", "wd_arena") on a device.
std::size_t workspace_bytes(const ucudnn::device::Device& dev) {
  std::size_t total = 0;
  for (const auto& [tag, bytes] : dev.usage_by_tag()) {
    const bool ws = tag == "workspace" || tag == "wd_arena" ||
                    (tag.size() >= 3 && tag.compare(tag.size() - 3, 3, ":ws") == 0);
    if (ws) total += bytes;
  }
  return total;
}

/// Benchmarked configurations of every recorded kernel and how many of them
/// end up in a final plan: {timed, useful}.
std::pair<double, double> benchmark_usefulness(
    ucudnn::core::UcudnnHandle& handle) {
  double timed = 0.0;
  double useful = 0.0;
  const auto report = handle.execution_report();
  for (const auto& request : handle.recorded_kernels()) {
    // Cached: this re-reads the benchmark table, it does not re-measure.
    const auto bench = handle.benchmark(request.type, request.problem,
                                        handle.options().batch_size_policy);
    std::set<std::pair<std::int64_t, int>> used;
    for (const auto& k : report.kernels) {
      if (k.kernel_type != ucudnn::to_string(request.type) ||
          k.problem != request.problem.to_string()) {
        continue;
      }
      for (const auto& s : k.segments) used.insert({s.batch, s.algo});
    }
    for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
      for (const auto& perf : bench.perfs[i]) {
        timed += 1.0;
        if (used.count({bench.sizes[i], perf.algo}) > 0) useful += 1.0;
      }
    }
  }
  return {timed, useful};
}

}  // namespace

void handle_layer_metrics(ucudnn::core::UcudnnHandle& handle, Result& r) {
  const auto report = handle.execution_report();
  double segments = 0.0;
  for (const auto& k : report.kernels) {
    segments += static_cast<double>(k.segments.size());
  }
  const auto [timed, useful] = benchmark_usefulness(handle);
  const auto& pc = handle.plan_cache();
  r.layer["core.planner.optimize_ms"] = handle.total_optimize_ms();
  r.layer["core.planner.segments_per_kernel"] =
      segments /
      static_cast<double>(std::max<std::size_t>(1, report.kernels.size()));
  r.layer["core.planner.est_err_pct"] = report.estimation_error_pct();
  r.layer["core.benchmarker.ms"] = handle.total_benchmark_ms();
  r.layer["mcudnn.algo_runs"] = timed;
  r.layer["core.benchmarker.useful_ratio"] = timed > 0 ? useful / timed : 0.0;
  r.layer["core.plan_cache_hit_ratio"] =
      static_cast<double>(pc.hits()) /
      static_cast<double>(std::max<std::uint64_t>(1, pc.hits() + pc.misses()));
  r.layer["device.workspace_mib"] =
      static_cast<double>(workspace_bytes(handle.device())) / kMiB;
  r.layer["device.peak_mib"] =
      static_cast<double>(handle.device().peak_bytes()) / kMiB;
}

std::pair<double, double> replay_host_cost(ucudnn::core::UcudnnHandle& handle,
                                           int calls) {
  using ucudnn::ConvKernelType;
  auto& rec = ucudnn::telemetry::TraceRecorder::instance();
  const bool numeric =
      handle.base().exec_mode() == ucudnn::mcudnn::ExecMode::kNumeric;
  const auto report = handle.execution_report();
  double host_us = 0.0;
  double segments = 0.0;
  for (const auto& request : handle.recorded_kernels()) {
    const auto& p = request.problem;
    const ConvKernelType t = request.type;
    // Operands (a, b, out): Forward (x, w, y), BackwardData (dy, w, dx),
    // BackwardFilter (x, dy, dw). Virtual mode touches none of them.
    std::int64_t a_n = p.x.count(), b_n = p.w.count(), o_n = p.y.count();
    if (t == ConvKernelType::kBackwardData) std::swap(a_n, o_n);
    if (t == ConvKernelType::kBackwardFilter) std::swap(b_n, o_n);
    if (!numeric) a_n = b_n = o_n = 0;
    ucudnn::AlignedBuffer<float> a(static_cast<std::size_t>(a_n));
    ucudnn::AlignedBuffer<float> b(static_cast<std::size_t>(b_n));
    ucudnn::AlignedBuffer<float> o(static_cast<std::size_t>(o_n));
    if (numeric) {
      ucudnn::fill_random(a.data(), static_cast<std::int64_t>(a.size()), 11);
      ucudnn::fill_random(b.data(), static_cast<std::int64_t>(b.size()), 13);
    }
    std::size_t plan_segments = 1;
    for (const auto& k : report.kernels) {
      if (k.label == request.label) plan_segments = k.segments.size();
    }
    for (int i = 0; i < calls; ++i) {
      rec.clear();
      rec.set_enabled(numeric);
      const Clock::time_point t0 = Clock::now();
      handle.convolution(t, p, 1.0f, a.data(), b.data(), 0.0f, o.data());
      host_us += ms_between(t0, Clock::now()) * 1e3;
      rec.set_enabled(false);
      for (const auto& e : rec.events()) {
        if (e.name == "mcudnn_conv") host_us -= e.dur_us;
      }
      segments += static_cast<double>(plan_segments);
    }
  }
  rec.clear();
  const double n = static_cast<double>(calls) *
                   static_cast<double>(handle.recorded_kernels().size());
  return {host_us / n, host_us / segments};
}

void spans_json(Json& j, const std::string& key,
                const std::vector<ucudnn::telemetry::SpanEvent>& events) {
  j.begin_array(key);
  for (const auto& e : events) {
    j.begin_object()
        .str("name", e.name)
        .str("detail", e.detail)
        .num("ts", e.ts_us)
        .num("dur", e.dur_us)
        .num("tid", e.tid)
        .num("depth", e.depth)
        .num("trace", static_cast<double>(e.trace_id))
        .end_object();
  }
  j.end_array();
}

void kernels_json(Json& j, const std::string& key,
                  const ucudnn::core::UcudnnHandle& handle) {
  const auto report = handle.execution_report();
  j.begin_array(key);
  for (const auto& request : handle.recorded_kernels()) {
    for (const auto& k : report.kernels) {
      if (k.kernel_type != ucudnn::to_string(request.type) ||
          k.problem != request.problem.to_string()) {
        continue;
      }
      j.begin_object()
          .str("label", k.label)
          .str("type", k.kernel_type)
          .num("flops", conv_flops(request.problem))
          .begin_array("segments");
      for (const auto& s : k.segments) {
        j.begin_object()
            .num("batch", static_cast<double>(s.batch))
            .num("algo", s.algo)
            .end_object();
      }
      j.end_array().end_object();
    }
  }
  j.end_array();
}

double scaled_max_err(const float* got, const float* ref, std::int64_t n) {
  double max_diff = 0.0;
  double max_ref = 1.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = std::fabs(static_cast<double>(got[i]) - ref[i]);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    max_diff = std::max(max_diff, d);
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(ref[i])));
  }
  return max_diff / max_ref;
}

}  // namespace perfbench

namespace {

/// Algorithm family (gemm, implicit, fft, winograd, direct) by name.
std::string algo_family(ucudnn::ConvKernelType type, int algo) {
  const std::string name(ucudnn::kernels::algo_name(type, algo));
  if (name.rfind("FFT", 0) == 0) return "fft";
  if (name.rfind("WINOGRAD", 0) == 0) return "winograd";
  if (name.rfind("IMPLICIT", 0) == 0) return "implicit";
  if (name == "DIRECT" || name == "ALGO_0") return "direct";
  return "gemm";  // GEMM, ALGO_1 (gemm / per-image gemm), ALGO_3
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload train-cpu|p100sim-wd|"
               "serve-open --seed N --seconds S --trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return usage();
    }
  }
  if (args.out.empty() || !(args.seconds > 0.0)) return usage();

  // UCUDNN_TELEMETRY=1 (traced runs) arms span recording process-wide;
  // the workloads switch it on only around the windows they attribute.
  ucudnn::telemetry::TraceRecorder::instance().set_enabled(false);
  Result r;
  try {
    if (args.workload == "train-cpu") {
      r = run_train_cpu(args);
    } else if (args.workload == "p100sim-wd") {
      r = run_p100sim_wd(args);
    } else if (args.workload == "serve-open") {
      r = run_serve_open(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }

  Json j;
  j.begin_object()
      .str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .boolean("trace", args.trace)
      .nums("setup_s", r.setup_s)
      .begin_array("samples_ms");
  for (const auto& group : r.sample_groups) j.nums("", group);
  j.end_array()
      .num("items_per_op", r.items_per_op)
      .num("attempted", static_cast<double>(r.attempted))
      .num("peak_rss_mib", r.peak_rss_mib);
  j.begin_array("checks");
  for (const Check& c : r.checks) {
    j.begin_object()
        .str("name", c.name)
        .boolean("ok", c.ok)
        .num("max_err", c.max_err)
        .num("failures", c.ok ? 0.0 : static_cast<double>(c.failures))
        .str("detail", c.detail)
        .end_object();
  }
  j.end_array().begin_object("plans");
  for (const auto& [label, plan] : r.plans) j.str(label, plan);
  j.end_object().begin_object("layer");
  for (const auto& [name, value] : r.layer) j.num(name, value);
  j.end_object().begin_object("algo_families");
  for (const ucudnn::ConvKernelType type :
       {ucudnn::ConvKernelType::kForward, ucudnn::ConvKernelType::kBackwardData,
        ucudnn::ConvKernelType::kBackwardFilter}) {
    j.begin_array(std::string(ucudnn::to_string(type)));
    for (int a = 0; a < ucudnn::kernels::algo_count(type); ++a) {
      j.str(algo_family(type, a));
    }
    j.end_array();
  }
  j.end_object().begin_object("info");
  for (const auto& [name, value] : r.info) j.str(name, value);
  j.end_object();
  std::string doc = j.text();
  if (!r.raw.empty()) {
    doc += ',';
    doc += r.raw;
  }
  doc += '}';

  FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_workload: cannot write %s\n",
                 args.out.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  return 0;
}
