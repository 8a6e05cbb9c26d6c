// serve-open: serve::Server (2 workers, queue 256, 200 us window, max_batch
// 16, pow2 padding) over a HostCpu handle (powerOfTwo, 8 MiB) answering
// single-sample forward requests for a 64->64 3x3 convolution at 16x16 with
// a 50 ms deadline, under open-loop Poisson arrivals from one generator
// thread. Three phases, each with a fresh Server:
//   cold     - a fresh handle takes ~1000 qps from its first request;
//   steady   - ~1000 qps on each of three handles that planned every
//              mergeable size, in turn;
//   overload - ~8000 qps (about 1.7x saturated capacity) on the last one.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common.h"
#include "common/aligned_buffer.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

using ucudnn::ConvKernelType;
using ucudnn::Status;
namespace core = ucudnn::core;
namespace device = ucudnn::device;
namespace mcudnn = ucudnn::mcudnn;
namespace serve = ucudnn::serve;
namespace telemetry = ucudnn::telemetry;

constexpr double kDeadlineMs = 50.0;
constexpr double kSteadyQps = 1000.0;
constexpr double kOverloadQps = 8000.0;
constexpr std::int64_t kMaxBatch = 16;
constexpr int kInputs = 32;    // distinct request samples (seeded)
constexpr std::size_t kRing = 512;  // output buffers in flight
constexpr int kSetups = 3;
// Shares of --seconds given to each phase.
constexpr double kColdShare = 0.2;
constexpr double kSteadyShare = 0.6;
constexpr double kOverloadShare = 0.2;
// Traced runs toggle span recording in blocks of this length during the
// steady phase, so traced and untraced requests interleave.
constexpr double kTraceBlockMs = 250.0;

ucudnn::kernels::ConvProblem sample_problem() {
  return ucudnn::kernels::ConvProblem({1, 64, 16, 16}, {64, 64, 3, 3},
                                      {.pad_h = 1, .pad_w = 1});
}

core::Options handle_options() {
  core::Options opts;
  opts.workspace_policy = core::WorkspacePolicy::kWR;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = std::size_t{8} << 20;
  return opts;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 256;
  opts.batch_window_us = 200;
  opts.max_batch = kMaxBatch;
  opts.pad_to_pow2 = true;
  return opts;
}

std::unique_ptr<core::UcudnnHandle> make_handle() {
  return std::make_unique<core::UcudnnHandle>(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      handle_options());
}

/// Seeded model and request samples, their single-sample references, and
/// the ring of response buffers (touched up front, so resident memory does
/// not depend on how many requests a phase happens to answer).
struct Model {
  ucudnn::kernels::ConvProblem problem = sample_problem();
  std::int64_t in_n = problem.x.count();
  std::int64_t out_n = problem.y.count();
  ucudnn::AlignedBuffer<float> weights;
  ucudnn::AlignedBuffer<float> inputs;
  ucudnn::AlignedBuffer<float> refs;
  ucudnn::AlignedBuffer<float> outputs;

  explicit Model(std::uint64_t seed)
      : weights(static_cast<std::size_t>(problem.w.count())),
        inputs(static_cast<std::size_t>(in_n * kInputs)),
        refs(static_cast<std::size_t>(out_n * kInputs)),
        outputs(static_cast<std::size_t>(out_n) * kRing, /*zeroed=*/true) {
    ucudnn::fill_random(weights.data(), problem.w.count(), seed * 2 + 1);
    ucudnn::fill_random(inputs.data(), in_n * kInputs, seed * 2 + 2);
    const mcudnn::Handle ref_handle(
        std::make_shared<device::Device>(device::host_cpu_spec()),
        mcudnn::ExecMode::kNumeric);
    for (int i = 0; i < kInputs; ++i) {
      mcudnn::convolution(ref_handle, ConvKernelType::kForward, problem, 1.0f,
                          input(i), weights.data(), 0.0f,
                          refs.data() + out_n * i, /*IMPLICIT_GEMM*/ 0,
                          nullptr, 0);
    }
  }
  const float* input(int i) const { return inputs.data() + in_n * i; }
  const float* ref(int i) const { return refs.data() + out_n * i; }
};

/// Plans every mergeable batch size (1, 2, 4, ..., max_batch) through
/// UcudnnHandle::convolution, as a warm server would have.
void plan_all_sizes(core::UcudnnHandle& handle, const Model& m) {
  ucudnn::AlignedBuffer<float> in(static_cast<std::size_t>(m.in_n * kMaxBatch));
  ucudnn::AlignedBuffer<float> out(static_cast<std::size_t>(m.out_n * kMaxBatch));
  ucudnn::fill_random(in.data(), m.in_n * kMaxBatch, 5);
  for (std::int64_t n = 1; n <= kMaxBatch; n *= 2) {
    handle.convolution(ConvKernelType::kForward, m.problem.with_batch(n), 1.0f,
                       in.data(), m.weights.data(), 0.0f, out.data());
  }
}

struct Request {
  double due_ms = 0.0;     // scheduled arrival, from phase start
  double late_ms = 0.0;    // how late the generator submitted it
  double admit_us = 0.0;   // wall time of Server::submit
  double latency_ms = 0.0; // from due time to resolution
  int status = 0;          // ucudnn::Status
  int input = 0;
  bool traced = false;
  std::uint64_t trace_id = 0;
};

struct PhaseResult {
  std::vector<Request> requests;
  serve::Server::Counters counters;
  double ewma_ms = 0.0;
  double window_s = 0.0;
  std::uint64_t mismatches = 0;
  std::uint64_t bad_status = 0;
  double max_err = 0.0;
  std::vector<telemetry::SpanEvent> spans;
};

/// One open-loop phase: the arrival schedule comes from `seed`; a single
/// generator thread submits every request at (or after) its due time and
/// never waits on a response; a checker thread resolves tickets in order
/// and compares every successful response with its reference.
PhaseResult run_phase(serve::Server& server, Model& m, double qps,
                      double seconds, std::uint64_t seed, bool trace) {
  PhaseResult pr;
  pr.window_s = seconds;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(qps / 1e3);  // per ms
  std::uniform_int_distribution<int> pick(0, kInputs - 1);
  for (double t = gap(rng); t < seconds * 1e3; t += gap(rng)) {
    Request req;
    req.due_ms = t;
    req.input = pick(rng);
    pr.requests.push_back(req);
  }
  const std::size_t n = pr.requests.size();
  std::vector<serve::TicketPtr> tickets(n);
  const auto slot = [&](std::size_t i) {
    return m.outputs.data() + m.out_n * static_cast<std::int64_t>(i % kRing);
  };
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> checked{0};

  std::thread checker([&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = published.load(std::memory_order_acquire); p <= i;
           p = published.load(std::memory_order_acquire)) {
        published.wait(p, std::memory_order_acquire);
      }
      Request& req = pr.requests[i];
      const Status st = tickets[i]->wait();
      req.status = static_cast<int>(st);
      if (st == Status::kSuccess) {
        const double err =
            scaled_max_err(slot(i), m.ref(req.input), m.out_n);
        pr.max_err = std::max(pr.max_err, err);
        if (!(err <= kTolerance)) ++pr.mismatches;
      } else if (st != Status::kRejected && st != Status::kDeadlineExceeded) {
        ++pr.bad_status;  // admission refusal and expiry are SLO misses
      }
      checked.store(i + 1, std::memory_order_release);
      checked.notify_one();
    }
  });

  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::instance();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    Request& req = pr.requests[i];
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(req.due_ms * 1e6));
    // A slot is reused only after its previous request was checked; a wait
    // here shows up as generator lateness.
    for (std::size_t c = checked.load(std::memory_order_acquire);
         i >= kRing && c <= i - kRing; c = checked.load(std::memory_order_acquire)) {
      checked.wait(c, std::memory_order_acquire);
    }
    std::this_thread::sleep_until(due);
    if (trace) {
      const bool on = static_cast<std::int64_t>(req.due_ms / kTraceBlockMs) % 2 == 1;
      if (on != rec.enabled()) rec.set_enabled(on);
      req.traced = on;
    }
    serve::ServeRequest sr;
    sr.problem = m.problem;
    sr.input = m.input(req.input);
    sr.weights = m.weights.data();
    sr.output = slot(i);
    sr.deadline_ms = kDeadlineMs;
    const Clock::time_point t_submit = Clock::now();
    tickets[i] = server.submit(std::move(sr));
    req.admit_us = ms_between(t_submit, Clock::now()) * 1e3;
    req.late_ms = ms_between(due, t_submit);
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  checker.join();
  if (trace) {
    rec.set_enabled(false);
    pr.spans = rec.events();
    rec.clear();
  }
  for (std::size_t i = 0; i < n; ++i) {
    Request& req = pr.requests[i];
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(req.due_ms * 1e6));
    req.latency_ms = ms_between(due, tickets[i]->submitted()) +
                     tickets[i]->latency_ms();
    req.trace_id = tickets[i]->trace_id();
  }
  pr.counters = server.counters();
  pr.ewma_ms = server.service_estimate_ms();
  return pr;
}

/// Appends one steady part to the phase: its due times continue after the
/// window so far, and its counters add up.
void append(PhaseResult& into, PhaseResult part) {
  for (Request& req : part.requests) {
    req.due_ms += into.window_s * 1e3;
    into.requests.push_back(req);
  }
  into.window_s += part.window_s;
  serve::Server::Counters& c = into.counters;
  const serve::Server::Counters& p = part.counters;
  c.admitted += p.admitted;
  c.rejected += p.rejected;
  c.expired += p.expired;
  c.shed += p.shed;
  c.completed += p.completed;
  c.exec_failed += p.exec_failed;
  c.batches += p.batches;
  c.batched_requests += p.batched_requests;
  into.ewma_ms = part.ewma_ms;
  into.mismatches += part.mismatches;
  into.bad_status += part.bad_status;
  into.max_err = std::max(into.max_err, part.max_err);
  into.spans.insert(into.spans.end(), part.spans.begin(), part.spans.end());
}

void phase_json(Json& j, const std::string& name, const PhaseResult& pr) {
  j.begin_object(name).num("window_s", pr.window_s);
  j.begin_object("requests");
  std::vector<double> col(pr.requests.size());
  const auto column = [&](const char* key, auto get) {
    for (std::size_t i = 0; i < pr.requests.size(); ++i) col[i] = get(pr.requests[i]);
    j.nums(key, col);
  };
  column("due_ms", [](const Request& r) { return r.due_ms; });
  column("late_ms", [](const Request& r) { return r.late_ms; });
  column("admit_us", [](const Request& r) { return r.admit_us; });
  column("latency_ms", [](const Request& r) { return r.latency_ms; });
  column("ok", [](const Request& r) {
    return r.status == static_cast<int>(Status::kSuccess) ? 1.0 : 0.0;
  });
  column("traced", [](const Request& r) { return r.traced ? 1.0 : 0.0; });
  column("trace_id", [](const Request& r) { return static_cast<double>(r.trace_id); });
  j.end_object();
  spans_json(j, "spans", pr.spans);
  j.end_object();
}

Check response_check(const std::string& phase, const PhaseResult& pr) {
  Check c;
  c.name = phase + ".responses";
  c.failures = pr.mismatches + pr.bad_status;
  c.ok = c.failures == 0;
  c.max_err = pr.max_err;
  c.detail = std::to_string(pr.mismatches) + " mismatched, " +
             std::to_string(pr.bad_status) + " failed with another status";
  return c;
}

}  // namespace

Result run_serve_open(const Args& args) {
  Result r;
  Model model(args.seed);
  Json j;
  j.begin_object("detail")
      .num("deadline_ms", kDeadlineMs)
      .num("flops_per_sample", conv_flops(model.problem));

  // Cold: the first thing this process serves, on a fresh handle and server.
  {
    auto handle = make_handle();
    PhaseResult cold;
    {
      serve::Server server(*handle, serve_options());
      cold = run_phase(server, model, kSteadyQps, args.seconds * kColdShare,
                       args.seed * 7 + 4, false);
    }
    r.checks.push_back(response_check("cold", cold));
    r.attempted += cold.requests.size();
    r.layer["serve.cold.rejected"] = static_cast<double>(cold.counters.rejected);
    r.layer["serve.cold.expired"] = static_cast<double>(cold.counters.expired);
    r.layer["serve.cold.shed"] = static_cast<double>(cold.counters.shed);
    r.layer["serve.cold.ewma_ms"] = cold.ewma_ms;
    phase_json(j, "cold", cold);
  }

  // Set-up: fresh handles that plan every mergeable size. Measured
  // benchmarking can plan differently each time, so the steady phase is
  // served by all three in turn (a fresh server each), and one unlucky plan
  // cannot decide the run. The last handle also takes the overload phase.
  std::vector<std::unique_ptr<core::UcudnnHandle>> handles;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    handles.push_back(make_handle());
    plan_all_sizes(*handles.back(), model);
    r.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  std::vector<std::map<std::string, std::string>> plans_before;
  PhaseResult steady;
  for (int i = 0; i < kSetups; ++i) {
    plans_before.push_back(plan_signatures(*handles[i]));
    serve::Server server(*handles[i], serve_options());
    append(steady,
           run_phase(server, model, kSteadyQps,
                     args.seconds * kSteadyShare / kSetups,
                     args.seed * 7 + static_cast<std::uint64_t>(i), args.trace));
    r.info.emplace_back("rig" + std::to_string(i),
                        "plan set " + plan_set_hash(plans_before.back()));
  }
  core::UcudnnHandle* handle = handles.back().get();
  r.checks.push_back(response_check("steady", steady));
  r.attempted += steady.requests.size();
  const auto occupancy = [](const PhaseResult& pr) {
    return static_cast<double>(pr.counters.batched_requests) /
           static_cast<double>(std::max<std::uint64_t>(1, pr.counters.batches));
  };
  const auto useful = [](const PhaseResult& pr) {
    return static_cast<double>(pr.counters.completed) /
           static_cast<double>(
               std::max<std::uint64_t>(1, pr.counters.batched_requests));
  };
  r.layer["serve.occupancy"] = occupancy(steady);
  r.layer["serve.useful_ratio"] = useful(steady);
  r.layer["serve.steady.rejected"] = static_cast<double>(steady.counters.rejected);
  r.layer["serve.steady.expired"] = static_cast<double>(steady.counters.expired);
  r.layer["serve.steady.shed"] = static_cast<double>(steady.counters.shed);
  r.layer["serve.steady.ewma_ms"] = steady.ewma_ms;
  phase_json(j, "steady", steady);

  // The overload phase is a stress phase whose memory follows the goodput
  // collapse (a known defect), so resident memory is read before it.
  r.peak_rss_mib = peak_rss_mib();

  PhaseResult overload;
  {
    serve::Server server(*handle, serve_options());
    overload = run_phase(server, model, kOverloadQps,
                         args.seconds * kOverloadShare, args.seed * 7 + 5, false);
  }
  r.checks.push_back(response_check("overload", overload));
  r.attempted += overload.requests.size();
  r.layer["serve.overload.occupancy"] = occupancy(overload);
  r.layer["serve.overload.useful_ratio"] = useful(overload);
  r.layer["serve.overload.rejected"] =
      static_cast<double>(overload.counters.rejected);
  r.layer["serve.overload.expired"] = static_cast<double>(overload.counters.expired);
  r.layer["serve.overload.shed"] = static_cast<double>(overload.counters.shed);
  r.layer["serve.overload.ewma_ms"] = overload.ewma_ms;
  phase_json(j, "overload", overload);

  // The plans served must be the ones set-up chose (no re-plan under load).
  Check stable;
  stable.name = "plans_unchanged_by_serving";
  for (int i = 0; i < kSetups; ++i) {
    if (plan_signatures(*handles[i]) != plans_before[i]) stable.ok = false;
  }
  stable.detail = "every planned size keeps its set-up plan";
  r.checks.push_back(stable);
  r.plans = plan_signatures(*handle);

  handle_layer_metrics(*handle, r);
  r.layer["core.calls_per_iter"] = 1.0;  // one facade call per served batch
  if (args.trace) {
    const auto [per_call, per_segment] = replay_host_cost(*handle, 20);
    r.layer["core.host_us_per_call"] = per_call;
    r.layer["core.host_us_per_segment"] = per_segment;
  }
  j.end_object();
  r.raw = j.text();
  return r;
}

}  // namespace perfbench
