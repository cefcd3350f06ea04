// The two kinds of workload: in-process pipelines (paper-atpg, gen-synth,
// sat-tail) and the open-loop hlts_serve traffic mix (serve-mix).
#pragma once

#include <string>
#include <vector>

#include "api/api.hpp"
#include "common.hpp"

namespace perfbench {

[[nodiscard]] RunOutcome run_inprocess(const hlts::util::JsonValue& spec,
                                       const RunOptions& options);

[[nodiscard]] RunOutcome run_serve_mix(const hlts::util::JsonValue& spec,
                                       const RunOptions& options);

/// Algorithm-1 totals of a traced job list: flow time, committed mergers,
/// evaluated trials, and the time in the loop's phases (library spans).
struct CoreSample {
  double run_flow_ms = 0;
  double trials = 0;
  double mergers = 0;
  double trials_ms = 0;
  double candidates_ms = 0;
  double commit_ms = 0;
  double finalize_ms = 0;
};

/// Sets the core.* per-layer metrics.
void set_core_metrics(const CoreSample& c, RunOutcome& out);

/// Digest of one design record: every field of the bit-identity contract.
void add_design(Digest& d, const hlts::api::FlowResultV1& r);

/// Traced-run probes shared by every workload, each on the workload's own
/// distinct designs: the initial ASAP schedule, a floorplan and a
/// testability analysis of the initial data path, api encode/decode of the
/// requests and of their result records, and the journal's write-ahead +
/// retirement on the checkout's filesystem.  Fills the sched/cost/
/// testability/api/engine.journal metrics and their layer-table rows.
void probe_layers(const std::vector<hlts::dfg::Dfg>& designs,
                  const std::vector<hlts::api::FlowRequestV1>& requests,
                  const std::vector<hlts::api::FlowResultV1>& results,
                  const std::string& scratch_dir, RunOutcome& out,
                  std::map<std::string, LayerRow>& layers);

/// Sets every per-layer metric to zero, so a traced run reports the whole
/// sheet and a layer its workload does not exercise reads 0.
void zero_layer_metrics(RunOutcome& out);

}  // namespace perfbench
