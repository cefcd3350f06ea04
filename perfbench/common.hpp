// Shared pieces of the hlts end-to-end benchmark: the workload spec read
// from perfbench/spec.json, the metric sheet every workload fills, timing
// and order-statistics helpers, and the output digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flows.hpp"
#include "dfg/dfg.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0);
[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, `p` in (0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Summed duration of the spans named `name`, in ms.
[[nodiscard]] double span_ms(const hlts::util::TraceSnapshot& s,
                             const std::string& name);
/// A trace counter's value, 0 when it was never bumped.
[[nodiscard]] double counter(const hlts::util::TraceSnapshot& s,
                             const std::string& name);

/// CPU seconds spent so far by process `pid` and all its threads, living
/// and ended; `pid` 0 is this process.  Throws std::runtime_error when the
/// process is gone.
[[nodiscard]] double process_cpu_s(int pid = 0);

/// Runs a fixed CPU workload owned by the benchmark on the calling thread
/// and returns the CPU seconds it took.  It evaluates string-keyed
/// std::map programs the way the benchmark's DFG interpreter does, sweeps
/// a word array the way the fault simulator does and probes a map larger
/// than a core's L2 cache, so it meets the allocator, the caches, the
/// branch predictor and the memory bus much as the library does.  It
/// calls no hlts code, so its time moves only with the speed of the
/// machine's CPU and caches.
[[nodiscard]] double calibration_kernel_s();

/// calibration_kernel_s() in a fresh process (this binary run with
/// --calibrate), so that its few MiB never count in this process's peak
/// RSS.  Throws std::runtime_error when that process fails.
[[nodiscard]] double calibration_s();

/// calibration_s() at the reference speed.  A CPU time t measured while
/// calibration_s() reads c is t * kCalibrationReferenceS / c at that
/// speed.  The value is a fixed scale, of the order of what calibration_s()
/// read on the shared 4-vCPU VM the bounds of BENCHMARK.json were set on.
constexpr double kCalibrationReferenceS = 0.33;

/// Peak resident set size of this process and of the live processes
/// `others`, whichever is larger, in MiB.  The calibration kernel's
/// processes never count.
[[nodiscard]] double peak_rss_mb(const std::vector<int>& others = {});

/// FNV-1a 64: the per-workload output digest.  Doubles are folded in by
/// bit pattern, so any change to a design or a detected-fault set shows.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// One named, unit-carrying value of the final result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main: the correctness verdict, the
/// job accounting and its metrics (end-to-end ones when untraced,
/// per-layer ones when traced).
struct RunOutcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// One design of a workload's job list: a paper benchmark by name, or a
/// workload::generate shape with its generator seed.
struct DesignSpec {
  std::string label;
  std::string benchmark;  ///< non-empty for a paper benchmark
  hlts::util::JsonValue generate;  ///< the generator knobs otherwise
};

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  ///< writable directory inside the checkout
  std::string serve_bin;    ///< hlts_serve binary (serve-mix only)
};

/// Builds the DFG a design spec names.
[[nodiscard]] hlts::dfg::Dfg make_design(const DesignSpec& d);

/// Reads a workload's "designs" array.
[[nodiscard]] std::vector<DesignSpec> read_designs(
    const hlts::util::JsonValue& workload);
/// Reads a workload's "flows" array of wire tokens ("camad", "ours").
[[nodiscard]] std::vector<hlts::core::FlowKind> read_flows(
    const hlts::util::JsonValue& workload);

/// Required member lookup: throws std::runtime_error naming `key`.
[[nodiscard]] const hlts::util::JsonValue& member(
    const hlts::util::JsonValue& obj, const std::string& key);

/// Layer-table row: accumulated self time and the counters of one layer.
struct LayerRow {
  double self_ms = 0;
  std::map<std::string, double> counters;
};

/// Prints the layer table (self ms, share of `total_ms`, counters).
void print_layer_table(const std::string& workload,
                       const std::map<std::string, LayerRow>& layers,
                       double total_ms);

}  // namespace perfbench
