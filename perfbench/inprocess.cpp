// In-process workloads: each job runs DFG -> Algorithm 1 (or CAMAD) ->
// RTL -> gate netlist -> optional ATPG through the library's public entry
// points, one job at a time on the calling thread.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "atpg/atpg.hpp"
#include "atpg/fault_sim.hpp"
#include "core/validate.hpp"
#include "interp.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace atpg = hlts::atpg;
namespace core = hlts::core;
namespace util = hlts::util;
using util::JsonValue;

namespace {

// Settings every in-process workload shares.  spec.json holds only what
// differs between workloads; the settings line of the output records them.
constexpr int kBits = 8;
constexpr int kTrialThreads = 1;
constexpr int kCheckVectors = 256;
constexpr int kSimdWidth = 256;

struct Config {
  bool atpg = false;
  atpg::AtpgOptions atpg_options;
};

Config read_config(const JsonValue& w) {
  Config c;
  if (const JsonValue* a = w.find("atpg"); a != nullptr && a->is_object()) {
    c.atpg = true;
    c.atpg_options.backend = member(*a, "backend").as_string();
    c.atpg_options.simd_width = kSimdWidth;
    c.atpg_options.sat_conflict_budget = a->get_int("sat_conflict_budget", 0);
  }
  return c;
}

struct Job {
  std::size_t design = 0;
  core::FlowKind kind = core::FlowKind::Ours;
  std::string label;
};

/// The benchmark's inputs: the designs, their check vectors with the
/// interpreter's expected values, and the job list in seeded order.
struct Inputs {
  std::vector<hlts::dfg::Dfg> designs;
  std::vector<std::vector<CheckVector>> vectors;
  std::vector<Job> jobs;
};

/// The program's own set-up work: every design built through the library
/// (make_benchmark or workload::generate).
std::vector<hlts::dfg::Dfg> make_designs(const std::vector<DesignSpec>& specs) {
  std::vector<hlts::dfg::Dfg> designs;
  for (const DesignSpec& d : specs) designs.push_back(make_design(d));
  return designs;
}

Inputs make_inputs(std::vector<hlts::dfg::Dfg> designs,
                   const std::vector<DesignSpec>& specs,
                   const std::vector<core::FlowKind>& flows,
                   std::uint64_t seed) {
  Inputs in;
  in.designs = std::move(designs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    in.vectors.push_back(make_check_vectors(in.designs[i], kBits,
                                            seed * 1000003 + i, kCheckVectors));
    for (core::FlowKind k : flows) {
      in.jobs.push_back(
          {i, k, specs[i].label + "/" + hlts::api::flow_token(k)});
    }
  }
  hlts::Rng rng(seed);
  for (std::size_t i = in.jobs.size(); i > 1; --i) {
    std::swap(in.jobs[i - 1], in.jobs[rng.next_below(i)]);
  }
  return in;
}

struct JobRun {
  core::FlowResult flow;
  hlts::rtl::RtlDesign rtl;
  hlts::rtl::Elaboration elab;
  atpg::AtpgResult atpg;
  double flow_ms = 0;
  double elaborate_ms = 0;
  double atpg_ms = 0;
  double total_ms = 0;
  std::string error;  ///< what an escaped exception said
  std::uint64_t digest = 0;
  std::uint64_t fault_digest = 0;
  util::TraceSnapshot trace;
};

JobRun run_job(const Inputs& in, const Job& job, const Config& c, bool traced) {
  JobRun r;
  const hlts::dfg::Dfg& g = in.designs[job.design];
  std::optional<util::Trace> trace;
  std::optional<util::Trace::Scope> scope;
  if (traced) {
    trace.emplace();
    scope.emplace(&*trace);
  }
  const auto t0 = Clock::now();
  try {
    core::FlowParams params;
    params.bits = kBits;
    params.num_threads = kTrialThreads;
    auto t = Clock::now();
    r.flow = core::run_flow(job.kind, g, params);
    r.flow_ms = ms_since(t);
    t = Clock::now();
    r.rtl = hlts::rtl::RtlDesign::from_synthesis(g, r.flow.schedule,
                                                 r.flow.binding, kBits);
    r.elab = hlts::rtl::elaborate(r.rtl);
    r.elaborate_ms = ms_since(t);
    if (c.atpg) {
      t = Clock::now();
      r.atpg =
          atpg::run_atpg(r.elab.netlist, r.rtl.steps() + 1, c.atpg_options);
      r.atpg_ms = ms_since(t);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.total_ms = ms_since(t0);
  scope.reset();
  if (trace) r.trace = trace->snapshot();

  Digest d;
  add_design(d, hlts::api::FlowResultV1::from_result(job.label, r.flow));
  d.add(static_cast<std::uint64_t>(r.elab.netlist.stats().gates));
  r.digest = d.value();
  Digest f;
  f.add(static_cast<std::uint64_t>(r.atpg.detected()));
  f.add(static_cast<std::uint64_t>(r.atpg.untestable_proved));
  f.add(static_cast<std::uint64_t>(r.atpg.aborted));
  f.add(static_cast<std::uint64_t>(r.atpg.test_cycles));
  for (const atpg::Fault& u : r.atpg.undetected) {
    f.add(static_cast<std::uint64_t>(u.gate.index() * 2 +
                                     (u.stuck_at_one ? 1 : 0)));
  }
  for (const atpg::TestSequence& seq : r.atpg.test_set) {
    for (const atpg::TestVector& v : seq) {
      std::string bits(v.size(), '0');
      for (std::size_t i = 0; i < v.size(); ++i) bits[i] = v[i] ? '1' : '0';
      f.add(bits);
    }
  }
  r.fault_digest = f.value();
  return r;
}

/// Output checks of one job against references the code under test does
/// not produce: the design auditor, the gate machine against the DFG
/// interpreter, and a fault-simulator replay of the reported test set.
/// Returns the failures (empty when all pass); `outputs` is the number of
/// primary outputs the gate machine was compared on.
std::vector<std::string> check_job(const Inputs& in, const Job& job,
                                   const JobRun& r, const Config& c,
                                   int& outputs, double& resim_ms,
                                   double& lane_evals) {
  std::vector<std::string> bad;
  outputs = 0;
  if (!r.error.empty()) {
    bad.push_back("error: " + r.error);
    return bad;
  }
  const hlts::dfg::Dfg& g = in.designs[job.design];
  const core::AuditReport audit =
      core::audit_design(g, r.flow.schedule, r.flow.binding);
  if (!audit.ok()) bad.push_back("audit: " + audit.summary());
  const MachineCheck machine = check_gate_machine(
      g, r.flow.schedule, r.rtl, r.elab, in.vectors[job.design]);
  outputs = machine.outputs;
  if (!machine.error.empty()) bad.push_back("gate machine: " + machine.error);
  if (c.atpg) {
    const auto t0 = Clock::now();
    atpg::FaultSimulator sim(r.elab.netlist, 1, kSimdWidth);
    std::vector<atpg::Fault> faults =
        atpg::FaultUniverse::collapsed(r.elab.netlist).faults();
    const std::size_t universe = faults.size();
    std::size_t detected = 0;
    for (const atpg::TestSequence& seq : r.atpg.test_set) {
      detected += sim.drop_detected(seq, faults);
    }
    resim_ms += ms_since(t0);
    lane_evals += static_cast<double>(sim.gate_lane_evals());
    if (universe != r.atpg.total_faults || detected != r.atpg.detected()) {
      bad.push_back("resimulation detects " + std::to_string(detected) +
                    " of " + std::to_string(universe) + ", ATPG reported " +
                    std::to_string(r.atpg.detected()) + " of " +
                    std::to_string(r.atpg.total_faults));
    }
  }
  return bad;
}

/// Accumulates one traced pass into the per-layer metrics and rows.
struct TracedTotals {
  int passes = 0;
  double pass_ms = 0;
  std::map<std::string, double> sum;

  void add(const std::vector<JobRun>& runs, double pass_wall_ms) {
    ++passes;
    pass_ms += pass_wall_ms;
    for (const JobRun& r : runs) {
      const util::TraceSnapshot& t = r.trace;
      sum["flow_ms"] += r.flow_ms;
      sum["candidates_ms"] += span_ms(t, "synth.candidates");
      sum["trials_ms"] += span_ms(t, "synth.trials");
      sum["commit_ms"] += span_ms(t, "synth.commit");
      sum["finalize_ms"] += span_ms(t, "flow.finalize");
      sum["trials"] += counter(t, "synth.trials_evaluated");
      sum["mergers"] += counter(t, "synth.mergers");
      sum["node_visits"] += counter(t, "testability.node_visits");
      sum["elaborate_ms"] += r.elaborate_ms;
      sum["gates"] += static_cast<double>(r.elab.netlist.stats().gates);
      sum["atpg_ms"] += r.atpg_ms;
      sum["deterministic_ms"] += span_ms(t, "atpg.deterministic_phase");
      sum["compaction_ms"] += span_ms(t, "atpg.compaction");
      sum["jobs_ms"] += r.total_ms;
      const atpg::AtpgResult& a = r.atpg;
      const atpg::BackendStats& b = a.backend_stats;
      sum["faults"] += static_cast<double>(a.total_faults);
      sum["detected"] += static_cast<double>(a.detected());
      sum["detected_random"] += static_cast<double>(a.detected_random);
      sum["coverage"] += a.fault_coverage;
      sum["test_cycles"] += static_cast<double>(a.test_cycles);
      sum["targets"] += static_cast<double>(b.targets);
      sum["aborted"] += static_cast<double>(a.aborted);
      sum["effort"] += static_cast<double>(b.effort);
      sum["sat_propagations"] += static_cast<double>(b.sat_propagations);
      sum["sat_conflicts"] += static_cast<double>(b.sat_conflicts);
      sum["sat_decisions"] += static_cast<double>(b.sat_decisions);
      sum["sat_cnf_clauses"] += static_cast<double>(b.cnf_clauses);
      sum["sat_fallback_targets"] += static_cast<double>(b.fallback_targets);
    }
  }

  /// Per-pass mean of an accumulated quantity.
  [[nodiscard]] double per_pass(const std::string& key) const {
    const auto it = sum.find(key);
    return it == sum.end() || passes == 0 ? 0.0 : it->second / passes;
  }
};

void report_layers(const TracedTotals& t, std::size_t jobs, bool with_atpg,
                   RunOutcome& out, std::map<std::string, LayerRow>& layers) {
  const auto p = [&](const char* key) { return t.per_pass(key); };
  const double trials = p("trials");
  const double mergers = p("mergers");
  set_core_metrics({p("flow_ms"), trials, mergers, p("trials_ms"),
                    p("candidates_ms"), p("commit_ms"), p("finalize_ms")},
                   out);
  out.set("rtl.elaborate_ms", p("elaborate_ms"), "ms");
  out.set("gates.count", p("gates"), "count");

  const double core_children = p("candidates_ms") + p("trials_ms") +
                               p("commit_ms") + p("finalize_ms");
  layers["core.run_flow"].self_ms = p("flow_ms") - core_children;
  layers["core.run_flow"].counters["jobs"] = static_cast<double>(jobs);
  layers["core.run_flow"].counters["testability.node_visits"] =
      p("node_visits");
  layers["core.candidates"].self_ms = p("candidates_ms");
  layers["core.trials"].self_ms = p("trials_ms");
  layers["core.trials"].counters["trials"] = trials;
  layers["core.commit"].self_ms = p("commit_ms");
  layers["core.commit"].counters["mergers"] = mergers;
  layers["core.finalize"].self_ms = p("finalize_ms");
  layers["rtl.elaborate"].self_ms = p("elaborate_ms");
  layers["rtl.elaborate"].counters["gates"] = p("gates");
  layers["bench.loop"].self_ms = t.pass_ms / t.passes - p("jobs_ms");

  if (!with_atpg) return;
  const double det_ms = p("deterministic_ms");
  out.set("atpg.run_ms", p("atpg_ms"), "ms");
  out.set("atpg.random_detected_ratio",
          p("detected") > 0 ? p("detected_random") / p("detected") : 0,
          "ratio");
  out.set("atpg.deterministic_ms", det_ms, "ms");
  out.set("atpg.compaction_ms", p("compaction_ms"), "ms");
  out.set("atpg.targets", p("targets"), "count");
  out.set("atpg.aborted", p("aborted"), "count");
  out.set("atpg.effort", p("effort"), "count");
  out.set("atpg.sat.propagations", p("sat_propagations"), "count");
  out.set("atpg.sat.conflicts", p("sat_conflicts"), "count");
  out.set("atpg.sat.decisions", p("sat_decisions"), "count");
  out.set("atpg.sat.cnf_clauses", p("sat_cnf_clauses"), "count");
  out.set("atpg.sat.fallback_targets", p("sat_fallback_targets"), "count");
  out.set("atpg.sat.propagations_per_ms",
          det_ms > 0 ? p("sat_propagations") / det_ms : 0, "1/ms");
  out.set("atpg.fault_coverage_mean", p("coverage") / static_cast<double>(jobs),
          "ratio");
  out.set("atpg.test_cycles_total", p("test_cycles"), "cycles");
  layers["atpg.random"].self_ms = p("atpg_ms") - det_ms - p("compaction_ms");
  layers["atpg.random"].counters["faults"] = p("faults");
  layers["atpg.random"].counters["detected_random"] = p("detected_random");
  layers["atpg.deterministic"].self_ms = det_ms;
  layers["atpg.deterministic"].counters["targets"] = p("targets");
  layers["atpg.deterministic"].counters["sat.propagations"] =
      p("sat_propagations");
  layers["atpg.compaction"].self_ms = p("compaction_ms");
  layers["atpg.compaction"].counters["test_cycles"] = p("test_cycles");
}

}  // namespace

RunOutcome run_inprocess(const JsonValue& spec, const RunOptions& options) {
  const JsonValue& w = member(member(spec, "workloads"), options.workload);
  const Config c = read_config(w);
  const std::vector<DesignSpec> specs = read_designs(w);
  const std::vector<core::FlowKind> flows = read_flows(w);
  std::printf("settings: %d-bit, %d trial thread(s), 1 fault-simulation "
              "thread, %d check vectors per design\n",
              kBits, kTrialThreads, kCheckVectors);

  // Set-up is everything before the timed passes: the designs, built
  // through the library, their check vectors and the interpreter's
  // references, and pass 0 below, the program's first, cold run over the
  // job list.  Without pass 0 the set-up takes a few ms, almost all of it
  // the benchmark's own interpreter, whose CPU time moved by up to 40%
  // between runs on a shared 4-vCPU VM, where the calibration kernel's
  // moved by 15%.  Set-up and passes are timed in CPU seconds of this
  // process: on a shared host its wall time also counts the time the host
  // gives to others.
  const double setup_cpu0 = process_cpu_s();
  const Inputs in = make_inputs(make_designs(specs), specs, flows,
                                options.seed);
  const double setup_cpu_s = process_cpu_s() - setup_cpu0;
  double setup_s = 0;  // with pass 0, at the reference speed
  const std::size_t n = in.jobs.size();

  // Passes over the job list.  Pass 0 warms the process up and is the
  // reference every check judges; it counts as set-up.  The calibration
  // kernel runs after every pass and scales it to the reference speed.  A
  // traced run then alternates untraced and traced passes, so the tracing
  // overhead is a same-run ratio.
  RunOutcome out;
  std::vector<JobRun> reference;
  std::vector<int> executions(n, 0);
  std::vector<int> mismatches(n, 0);
  std::vector<double> pass_s;
  std::vector<double> pass_cpu_s;  // each at the reference speed
  std::vector<double> traced_pass_s;
  std::vector<double> calibration;
  TracedTotals traced;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool trace_pass = options.trace && pass % 2 == 0 && pass > 0;
    std::vector<JobRun> runs;
    runs.reserve(n);
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    for (const Job& job : in.jobs) {
      runs.push_back(run_job(in, job, c, trace_pass));
    }
    const double wall_s = seconds_since(t0);
    const double cpu_s = process_cpu_s() - cpu0;
    calibration.push_back(calibration_s());
    std::printf("pass %d%s: wall %.3f s cpu %.3f s, calibration %.4f s\n",
                pass,
                pass == 0 ? " (reference, set-up)"
                          : (trace_pass ? " (traced)" : ""),
                wall_s, cpu_s, calibration.back());
    for (std::size_t j = 0; j < n; ++j) {
      ++executions[j];
      const bool same = reference.empty() ||
                        (runs[j].digest == reference[j].digest &&
                         runs[j].fault_digest == reference[j].fault_digest);
      if (!runs[j].error.empty() || !same) ++mismatches[j];
    }
    if (pass == 0) {
      reference = std::move(runs);
      setup_s = (setup_cpu_s + cpu_s) * kCalibrationReferenceS /
                calibration.back();
    } else if (trace_pass) {
      traced_pass_s.push_back(wall_s);
      traced.add(runs, wall_s * 1000.0);
    } else {
      pass_s.push_back(wall_s);
      pass_cpu_s.push_back(cpu_s * kCalibrationReferenceS /
                           calibration.back());
    }
    const bool need = pass_s.empty() || (options.trace && traced_pass_s.empty());
    if (!need && seconds_since(start) + wall_s > options.seconds) break;
  }

  // Output checks, outside the measured passes.
  double resim_ms = 0;
  double lane_evals = 0;
  int outputs = 0;
  Digest designs;
  Digest faults;
  double area = 0;
  double steps = 0;
  std::printf("%-18s %10s %9s %10s %9s %7s %8s %6s %7s\n", "job", "flow_ms",
              "elab_ms", "atpg_ms", "coverage", "cycles", "area", "steps",
              "outputs");
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = in.jobs[j];
    const JobRun& r = reference[j];
    const std::vector<std::string> bad =
        check_job(in, job, r, c, outputs, resim_ms, lane_evals);
    for (const std::string& b : bad) {
      std::printf("CHECK FAILED %s: %s\n", job.label.c_str(), b.c_str());
    }
    if (mismatches[j] > 0) {
      std::printf("CHECK FAILED %s: %d execution(s) differ from the first\n",
                  job.label.c_str(), mismatches[j]);
    }
    out.attempted += executions[j];
    out.failed += bad.empty() ? mismatches[j] : executions[j];
    area += r.flow.cost.total();
    steps += r.flow.exec_time;
    std::printf("%-18s %10.1f %9.1f %10.1f %9.4f %7ld %8.4f %6d %7d\n",
                job.label.c_str(), r.flow_ms, r.elaborate_ms, r.atpg_ms,
                r.atpg.fault_coverage, r.atpg.test_cycles, r.flow.cost.total(),
                r.flow.exec_time, outputs);
  }
  // Digests in design order, so they do not depend on the seeded job order.
  std::vector<std::size_t> by_label(n);
  for (std::size_t j = 0; j < n; ++j) by_label[j] = j;
  std::sort(by_label.begin(), by_label.end(),
            [&](std::size_t a, std::size_t b) {
              return in.jobs[a].label < in.jobs[b].label;
            });
  for (std::size_t j : by_label) {
    designs.add(reference[j].digest);
    faults.add(reference[j].fault_digest);
  }
  std::printf("digest %s: designs %s detected-faults %s\n",
              options.workload.c_str(), designs.hex().c_str(),
              faults.hex().c_str());
  out.correct = out.failed == 0;

  if (!options.trace) {
    std::printf("measured: pass %.4f s wall; calibration median %.4f cpu s\n",
                median(pass_s), median(calibration));
    out.set("setup_s", setup_s, "s");
    out.set("pass_cpu_s", median(pass_cpu_s), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("area_mm2_total", area, "mm2");
    out.set("exec_steps_total", steps, "steps");
    std::printf("timed passes %zu, jobs per pass %zu\n", pass_s.size(), n);
    return out;
  }

  zero_layer_metrics(out);
  std::map<std::string, LayerRow> layers;
  report_layers(traced, n, c.atpg, out, layers);
  if (c.atpg) {
    out.set("atpg.resim_ms", resim_ms, "ms");
    out.set("atpg.gate_lane_evals", lane_evals, "count");
    layers["check.resim"].self_ms = resim_ms;
    layers["check.resim"].counters["gate_lane_evals"] = lane_evals;
  }
  std::vector<hlts::api::FlowRequestV1> requests;
  std::vector<hlts::api::FlowResultV1> results;
  for (std::size_t j = 0; j < n; ++j) {
    hlts::api::FlowRequestV1 req;
    req.name = in.jobs[j].label;
    req.kind = in.jobs[j].kind;
    req.dfg = in.designs[in.jobs[j].design];
    req.params.bits = kBits;
    req.params.num_threads = kTrialThreads;
    requests.push_back(std::move(req));
    results.push_back(hlts::api::FlowResultV1::from_result(
        in.jobs[j].label, reference[j].flow));
    results.back().state = "succeeded";
  }
  probe_layers(in.designs, requests, results, options.scratch_dir, out, layers);
  out.set("trace.overhead_ratio", median(traced_pass_s) / median(pass_s),
          "ratio");
  out.set("pass.wall_s", median(pass_s), "s");
  print_layer_table(options.workload, layers, traced.pass_ms / traced.passes);
  return out;
}

}  // namespace perfbench
