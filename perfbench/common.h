// Shared plumbing of the workload binary: arguments, a small JSON emitter
// for the raw-measurement document run.py reads, process statistics, and
// helpers that read the library's public introspection surfaces.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ucudnn.h"
#include "telemetry/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;  // raw-measurement JSON path
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Streaming JSON emitter: objects, arrays, numbers (all digits), strings.
class Json {
 public:
  Json& begin_object(const std::string& key = "");
  Json& end_object();
  Json& begin_array(const std::string& key = "");
  Json& end_array();
  Json& num(const std::string& key, double v);
  Json& num(double v);
  Json& str(const std::string& key, const std::string& v);
  Json& str(const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& nums(const std::string& key, const std::vector<double>& values);
  const std::string& text() const noexcept { return out_; }

 private:
  void sep(const std::string& key);
  void quote(const std::string& s);
  std::string out_;
  std::vector<bool> first_;
};

/// One output check; a failed check counts as a failed operation.
struct Check {
  std::string name;
  bool ok = true;
  double max_err = 0.0;
  std::uint64_t failures = 1;  ///< failed operations it stands for when !ok
  std::string detail;
};

/// Everything a workload hands back to main() for the raw document.
struct Result {
  std::vector<double> setup_s;     ///< one per set-up repetition
  /// Unit-of-work wall times (train, sim), in groups: one per measured rig
  /// (train-cpu) or per time block (p100sim-wd).
  std::vector<std::vector<double>> sample_groups;
  double items_per_op = 1.0;       ///< images per iteration, 1 per request
  double peak_rss_mib = 0.0;       ///< high-water RSS of the measured part
  std::uint64_t attempted = 0;
  std::vector<Check> checks;
  std::map<std::string, std::string> plans;  ///< kernel label -> plan
  std::map<std::string, double> layer;       ///< per-layer scalars
  std::vector<std::pair<std::string, std::string>> info;  ///< printed only
  std::string raw;  ///< workload-specific JSON members (already serialized)
};

Result run_train_cpu(const Args& args);
Result run_p100sim_wd(const Args& args);
Result run_serve_open(const Args& args);

// --- helpers over public surfaces ---------------------------------------

/// Process high-water resident set size (getrusage), MiB.
double peak_rss_mib();
/// Kernel label -> ExecutionPlan::to_string() from the execution report.
std::map<std::string, std::string> plan_signatures(
    const ucudnn::core::UcudnnHandle& handle);
/// Short hex digest of a whole plan set (equal digests = identical plans).
std::string plan_set_hash(const std::map<std::string, std::string>& plans);
/// Convolution flop count of one kernel call (2·N·K·C/g·R·S·P·Q; the same
/// for all three kernel types), computed from the shapes.
double conv_flops(const ucudnn::kernels::ConvProblem& p);
/// Wrapper host cost of UcudnnHandle::convolution: every recorded kernel is
/// replayed `calls` times; a call's host time is its wall time minus the
/// mcudnn kernel spans inside it (Numeric mode; on a simulated device no
/// kernel runs and the whole call is host time). Returns {us per call, us
/// per plan segment}.
std::pair<double, double> replay_host_cost(ucudnn::core::UcudnnHandle& handle,
                                           int calls);

/// Serializes recorded spans ({name, detail, ts, dur, tid, depth, trace}).
void spans_json(Json& j, const std::string& key,
                const std::vector<ucudnn::telemetry::SpanEvent>& events);
/// Serializes each kernel's plan segments from the execution report, so the
/// traced breakdown can attribute segment spans to kernels and families.
void kernels_json(Json& j, const std::string& key,
                  const ucudnn::core::UcudnnHandle& handle);

/// The planner, benchmarker, plan-cache and device per-layer metrics of a
/// handle (core.planner.*, core.benchmarker.*, mcudnn.algo_runs,
/// core.plan_cache_hit_ratio, device.workspace_mib, device.peak_mib).
void handle_layer_metrics(ucudnn::core::UcudnnHandle& handle, Result& r);

/// Max |a - b| / max(1, max|ref|) over n elements.
double scaled_max_err(const float* got, const float* ref, std::int64_t n);

/// Tolerance pinned for cross-algorithm comparisons (FFT and Winograd round
/// differently from the direct reference).
inline constexpr double kTolerance = 1e-3;

inline constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench
