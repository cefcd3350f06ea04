#include <filesystem>
#include <utility>

#include "cost/floorplan.hpp"
#include "engine/journal.hpp"
#include "etpn/etpn.hpp"
#include "sched/schedule.hpp"
#include "testability/testability.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = hlts::core;
namespace util = hlts::util;

namespace {

using MetricList = std::vector<std::pair<const char*, const char*>>;

// Every per-layer metric a traced run reports, with its unit.  Layers a
// workload does not exercise stay 0.
const MetricList kLayerMetrics = {
    {"core.run_flow_ms", "ms"},
    {"core.mergers", "count"},
    {"core.trials", "count"},
    {"core.trials_per_merger", "ratio"},
    {"core.trial_us", "us"},
    {"core.candidates_ms", "ms"},
    {"core.commit_ms", "ms"},
    {"core.finalize_ms", "ms"},
    {"sched.initial_ms", "ms"},
    {"cost.floorplan_us", "us"},
    {"cost.floorplan_nodes", "count"},
    {"testability.analysis_us", "us"},
    {"testability.node_visits", "count"},
    {"rtl.elaborate_ms", "ms"},
    {"gates.count", "count"},
    {"atpg.run_ms", "ms"},
    {"atpg.random_detected_ratio", "ratio"},
    {"atpg.deterministic_ms", "ms"},
    {"atpg.compaction_ms", "ms"},
    {"atpg.targets", "count"},
    {"atpg.aborted", "count"},
    {"atpg.effort", "count"},
    {"atpg.resim_ms", "ms"},
    {"atpg.gate_lane_evals", "count"},
    {"atpg.sat.propagations", "count"},
    {"atpg.sat.conflicts", "count"},
    {"atpg.sat.decisions", "count"},
    {"atpg.sat.cnf_clauses", "count"},
    {"atpg.sat.fallback_targets", "count"},
    {"atpg.sat.propagations_per_ms", "1/ms"},
    {"atpg.fault_coverage_mean", "ratio"},
    {"atpg.test_cycles_total", "cycles"},
    {"api.request_encode_us", "us"},
    {"api.request_decode_us", "us"},
    {"api.result_decode_us", "us"},
    {"engine.journal_write_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"pass.wall_s", "s"},
    // The serving layers, which only serve-mix drives.
    {"engine.sheds", "count"},
    {"engine.rejected", "count"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.overhead_ms_p95", "ms"},
    {"serve.health_rtt_ms", "ms"},
    {"load.late_ms_max", "ms"},
    {"load.client_queue_ms_p95", "ms"},
    {"load.sent", "count"},
    {"load.succeeded", "count"},
    {"load.refused", "count"},
    {"load.failed", "count"},
    {"load.latency_p50_ms.low", "ms"},
    {"load.latency_p50_ms.mid", "ms"},
    {"load.latency_p50_ms.high", "ms"},
    {"load.latency_p95_ms.low", "ms"},
    {"load.latency_p95_ms.mid", "ms"},
    {"load.latency_p95_ms.high", "ms"},
    {"load.max_rate_jobs_s", "1/s"},
    {"load.capacity_jobs_s", "1/s"},
};

/// Median wall time of `reps` calls of `fn`, in microseconds.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(ms_since(t0) * 1000.0);
  }
  return median(std::move(us));
}

}  // namespace

void zero_layer_metrics(RunOutcome& out) {
  for (const auto& [name, unit] : kLayerMetrics) out.set(name, 0, unit);
}

void set_core_metrics(const CoreSample& c, RunOutcome& out) {
  out.set("core.run_flow_ms", c.run_flow_ms, "ms");
  out.set("core.mergers", c.mergers, "count");
  out.set("core.trials", c.trials, "count");
  out.set("core.trials_per_merger", c.mergers > 0 ? c.trials / c.mergers : 0,
          "ratio");
  out.set("core.trial_us", c.trials > 0 ? c.trials_ms * 1000.0 / c.trials : 0,
          "us");
  out.set("core.candidates_ms", c.candidates_ms, "ms");
  out.set("core.commit_ms", c.commit_ms, "ms");
  out.set("core.finalize_ms", c.finalize_ms, "ms");
}

void add_design(Digest& d, const hlts::api::FlowResultV1& r) {
  d.add(std::string(hlts::api::flow_token(r.kind)));
  d.add(r.state);
  d.add(r.completeness);
  d.add(r.stop_reason);
  for (int v : {r.iterations, r.exec_time, r.registers, r.modules, r.muxes,
                r.self_loops}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  d.add(r.area);
  d.add(r.balance_index);
  for (int s : r.schedule_steps) d.add(static_cast<std::uint64_t>(s));
  for (const auto& s : r.module_allocation) d.add(s);
  for (const auto& s : r.register_allocation) d.add(s);
}

void probe_layers(const std::vector<hlts::dfg::Dfg>& designs,
                  const std::vector<hlts::api::FlowRequestV1>& requests,
                  const std::vector<hlts::api::FlowResultV1>& results,
                  const std::string& scratch_dir, RunOutcome& out,
                  std::map<std::string, LayerRow>& layers) {
  constexpr int kReps = 15;
  const core::FlowParams params;  // library and width of the defaults
  double sched_ms = 0;
  double floorplan_us = 0;
  double nodes = 0;
  double analysis_us = 0;
  double node_visits = 0;
  for (const hlts::dfg::Dfg& g : designs) {
    sched_ms += median_us(kReps, [&] { (void)hlts::sched::asap(g); }) / 1000.0;
    const hlts::etpn::Etpn e = hlts::etpn::build_etpn(
        g, hlts::sched::asap(g), hlts::etpn::Binding::default_binding(g));
    nodes += static_cast<double>(e.data_path.num_alive_nodes());
    floorplan_us += median_us(kReps, [&] {
      (void)hlts::cost::floorplan(e.data_path, params.library, params.bits);
    });
    analysis_us += median_us(kReps, [&] {
      (void)hlts::testability::TestabilityAnalysis(e.data_path);
    });
    util::Trace trace;
    {
      util::Trace::Scope scope(&trace);
      (void)hlts::testability::TestabilityAnalysis(e.data_path);
    }
    node_visits += counter(trace.snapshot(), "testability.node_visits");
  }
  out.set("sched.initial_ms", sched_ms, "ms");
  out.set("cost.floorplan_us", floorplan_us, "us");
  out.set("cost.floorplan_nodes", nodes, "count");
  out.set("testability.analysis_us", analysis_us, "us");
  out.set("testability.node_visits", node_visits, "count");
  layers["probe.sched.initial"].self_ms = sched_ms;
  layers["probe.cost.floorplan"].self_ms = floorplan_us / 1000.0;
  layers["probe.cost.floorplan"].counters["nodes"] = nodes;
  layers["probe.testability"].self_ms = analysis_us / 1000.0;
  layers["probe.testability"].counters["node_visits"] = node_visits;

  // api: encode / decode of this workload's requests, and of the result
  // record a reply carries.
  double encode_us = 0;
  double decode_us = 0;
  double result_decode_us = 0;
  for (const hlts::api::FlowRequestV1& req : requests) {
    std::string line;
    encode_us +=
        median_us(kReps, [&] { line = util::json_dump(req.to_json()); });
    decode_us += median_us(kReps, [&] {
      (void)hlts::api::FlowRequestV1::from_json(*util::json_parse(line));
    });
  }
  for (const hlts::api::FlowResultV1& res : results) {
    const std::string line = util::json_dump(res.to_json());
    result_decode_us += median_us(kReps, [&] {
      (void)hlts::api::FlowResultV1::from_json(*util::json_parse(line));
    });
  }
  const auto per_item = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  out.set("api.request_encode_us", per_item(encode_us, requests.size()), "us");
  out.set("api.request_decode_us", per_item(decode_us, requests.size()), "us");
  out.set("api.result_decode_us", per_item(result_decode_us, results.size()),
          "us");
  layers["probe.api"].self_ms =
      (encode_us + decode_us + result_decode_us) / 1000.0;

  // engine: the journal's write-ahead record plus its retirement marker,
  // fsynced on the filesystem the checkout lives on.
  const std::string dir = scratch_dir + "/journal-probe";
  std::vector<double> write_ms;
  {
    hlts::engine::Journal journal(dir);
    std::uint64_t id = 1;
    for (int rep = 0; rep < 3; ++rep) {
      for (const hlts::api::FlowRequestV1& req : requests) {
        const auto rec = hlts::engine::JournalRecord::from_request(id, req);
        const auto t0 = Clock::now();
        journal.write_job(rec);
        journal.write_done(id, "succeeded");
        write_ms.push_back(ms_since(t0));
        ++id;
      }
    }
  }
  std::filesystem::remove_all(dir);
  const double journal_ms = median(write_ms);
  out.set("engine.journal_write_ms", journal_ms, "ms");
  layers["probe.engine.journal"].self_ms = journal_ms;
  layers["probe.engine.journal"].counters["writes"] =
      static_cast<double>(write_ms.size());
}

}  // namespace perfbench
