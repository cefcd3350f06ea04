// Unit and property tests for the ATPG stack: fault collapsing, the
// three-valued parallel-fault simulator, PODEM, and the orchestrator.
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "atpg/backend.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "gates/wordlib.hpp"
#include "rtl/elaborate.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hlts {
namespace {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;

TEST(Faults, CollapseDropsBuffersInvertersAndConstants) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId n = nl.add_gate(GateKind::Not, {a});
  GateId buf = nl.add_gate(GateKind::Buf, {n});
  GateId g = nl.add_gate(GateKind::And, {buf, b});
  nl.add_output(g, "o");
  auto u = atpg::FaultUniverse::collapsed(nl);
  // Faults on: a, b, and-gate.  Not, Buf, Output dropped.  2 polarities.
  EXPECT_EQ(u.size(), 6u);
}

TEST(Faults, NamesIncludePolarity) {
  Netlist nl;
  GateId a = nl.add_input("pi");
  nl.add_output(a, "o");
  atpg::Fault f{a, true};
  EXPECT_EQ(atpg::fault_name(nl, f), "pi/sa1");
}

TEST(Simulator, ThreeValuedPowerUpIsX) {
  Netlist nl;
  GateId d = nl.add_dff("r");
  GateId a = nl.add_input("a");
  nl.connect_dff(d, a);
  nl.add_output(d, "o");
  atpg::ParallelSimulator sim(nl);
  sim.reset_state();
  sim.step({true});
  GateId o = nl.outputs()[0];
  // First cycle: register still X.
  EXPECT_EQ(sim.plane_one(o) & 1, 0u);
  EXPECT_EQ(sim.plane_zero(o) & 1, 0u);
  sim.step({true});
  // Second cycle: captured the 1.
  EXPECT_EQ(sim.plane_one(o) & 1, 1u);
}

TEST(Simulator, FaultInjectionPerLane) {
  // o = a AND b; inject a/sa0 into lane 1, b/sa1 into lane 2.
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g = nl.add_gate(GateKind::And, {a, b});
  nl.add_output(g, "o");
  atpg::ParallelSimulator sim(nl);
  sim.inject(1, {a, false});
  sim.inject(2, {b, true});
  // a=1 b=1: lane1 sees a=0 -> o=0 (differs from good 1): detected.
  std::uint64_t det = sim.step({true, true});
  EXPECT_TRUE(det & 2);
  EXPECT_FALSE(det & 4);  // lane2: b already 1, no difference
  // a=1 b=0: lane2 sees b=1 -> o=1 vs good 0: detected.
  det = sim.step({true, false});
  EXPECT_TRUE(det & 4);
  EXPECT_FALSE(det & 2);  // lane1: o=0 either way
}

TEST(Simulator, XNeverDetects) {
  // Output driven by an uninitialized register: good is X, nothing detects.
  Netlist nl;
  GateId d = nl.add_dff("r");
  nl.connect_dff(d, d);  // holds X forever
  nl.add_output(d, "o");
  atpg::ParallelSimulator sim(nl);
  sim.inject(1, {d, true});
  EXPECT_EQ(sim.step({}), 0u);
  EXPECT_EQ(sim.step({}), 0u);
}

TEST(FaultSim, DropsDetectedFaults) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g = nl.add_gate(GateKind::Xor, {a, b});
  nl.add_output(g, "o");
  auto universe = atpg::FaultUniverse::collapsed(nl);
  std::vector<atpg::Fault> faults = universe.faults();
  atpg::FaultSimulator fsim(nl);
  atpg::TestSequence seq{{false, false}, {true, false}, {false, true}};
  const std::size_t dropped = fsim.drop_detected(seq, faults);
  // XOR with these three vectors detects every collapsed fault.
  EXPECT_EQ(dropped, universe.size());
  EXPECT_TRUE(faults.empty());
}

TEST(Podem, FindsTestForCombinationalFault) {
  // o = (a AND b) OR c; target the AND output stuck-at-0.
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId c = nl.add_input("c");
  GateId g1 = nl.add_gate(GateKind::And, {a, b});
  GateId g2 = nl.add_gate(GateKind::Or, {g1, c});
  nl.add_output(g2, "o");
  atpg::TimeFramePodem podem(nl, 1);
  auto r = podem.generate({g1, false}, 100);
  ASSERT_EQ(r.status, atpg::PodemStatus::Detected);
  ASSERT_EQ(r.sequence.size(), 1u);
  // The test must set a=b=1, c=0.
  EXPECT_TRUE(r.sequence[0][0]);
  EXPECT_TRUE(r.sequence[0][1]);
  EXPECT_FALSE(r.sequence[0][2]);
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // o = a OR (a AND b): the AND output sa0 is undetectable (absorption).
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId g1 = nl.add_gate(GateKind::And, {a, b});
  GateId g2 = nl.add_gate(GateKind::Or, {a, g1});
  nl.add_output(g2, "o");
  atpg::TimeFramePodem podem(nl, 1);
  auto r = podem.generate({g1, false}, 10000);
  EXPECT_NE(r.status, atpg::PodemStatus::Detected);
}

TEST(Podem, GeneratedSequencesConfirmInFaultSimulator) {
  // Property: every PODEM-detected fault's sequence is confirmed by the
  // independent sequential fault simulator.
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  auto universe = atpg::FaultUniverse::collapsed(elab.netlist);
  atpg::TimeFramePodem podem(elab.netlist, 2 * (design.steps() + 1));
  atpg::FaultSimulator fsim(elab.netlist);

  int generated = 0;
  int confirmed = 0;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const atpg::Fault f =
        universe.faults()[rng.next_below(universe.size())];
    auto r = podem.generate(f, 60);
    if (r.status != atpg::PodemStatus::Detected) continue;
    ++generated;
    std::vector<atpg::Fault> just_this{f};
    if (fsim.drop_detected(r.sequence, just_this) == 1) ++confirmed;
  }
  ASSERT_GT(generated, 10);
  EXPECT_EQ(confirmed, generated);
}

TEST(Podem, CheckSequenceAgreesWithFaultSimulator) {
  // Property (both directions on random sequences): the unrolled model and
  // the sequential simulator agree on detection.
  dfg::Dfg g = benchmarks::make_paulin();
  core::FlowResult flow = core::run_flow(core::FlowKind::Approach1, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  const auto& nl = elab.netlist;
  const int period = design.steps() + 1;
  auto universe = atpg::FaultUniverse::collapsed(nl);
  atpg::TimeFramePodem podem(nl, 2 * period);
  atpg::FaultSimulator fsim(nl);

  Rng rng(77);
  int agreements = 0;
  for (int trial = 0; trial < 10; ++trial) {
    atpg::TestSequence seq;
    for (int c = 0; c < 2 * period; ++c) {
      atpg::TestVector v(nl.inputs().size());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
      if (c == 0) v[0] = true;  // reset is input 0 by construction
      seq.push_back(v);
    }
    std::vector<atpg::Fault> faults = universe.faults();
    auto detected = fsim.detected_by(seq, faults);
    for (std::size_t idx : detected) {
      EXPECT_TRUE(podem.check_sequence(faults[idx], seq))
          << atpg::fault_name(nl, faults[idx]);
      ++agreements;
    }
  }
  EXPECT_GT(agreements, 100);
}

TEST(Atpg, EndToEndProducesSensibleNumbers) {
  dfg::Dfg g = benchmarks::make_ex();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  atpg::AtpgResult r = atpg::run_atpg(elab.netlist, design.steps() + 1, {});
  EXPECT_GT(r.total_faults, 100u);
  EXPECT_GT(r.fault_coverage, 0.9);
  EXPECT_LE(r.fault_coverage, 1.0);
  EXPECT_EQ(r.detected() + r.undetected.size(), r.total_faults);
  EXPECT_GT(r.test_cycles, 0);
  EXPECT_GE(r.tg_time_ms, 0.0);
}

TEST(Atpg, DeterministicAcrossRuns) {
  dfg::Dfg g = benchmarks::make_paulin();
  core::FlowResult flow = core::run_flow(core::FlowKind::Ours, g, {.bits = 4});
  rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
  rtl::Elaboration elab = rtl::elaborate(design);
  atpg::AtpgOptions options;
  options.seed = 99;
  atpg::AtpgResult r1 = atpg::run_atpg(elab.netlist, design.steps() + 1, options);
  atpg::AtpgResult r2 = atpg::run_atpg(elab.netlist, design.steps() + 1, options);
  EXPECT_EQ(r1.detected(), r2.detected());
  EXPECT_EQ(r1.test_cycles, r2.test_cycles);
}

// ---- the paper's designs: ex/dct/diffeq/paulin x CAMAD/Ours at 8 bits ------

struct PaperDesign {
  const char* benchmark;
  core::FlowKind flow;
};

constexpr PaperDesign kPaperDesigns[] = {
    {"ex", core::FlowKind::Camad},     {"ex", core::FlowKind::Ours},
    {"dct", core::FlowKind::Camad},    {"dct", core::FlowKind::Ours},
    {"diffeq", core::FlowKind::Camad}, {"diffeq", core::FlowKind::Ours},
    {"paulin", core::FlowKind::Camad}, {"paulin", core::FlowKind::Ours},
};

struct Elaborated {
  rtl::Elaboration elab;
  int period = 0;
};

Elaborated elaborate_paper_design(const PaperDesign& d) {
  const dfg::Dfg g = benchmarks::make_benchmark(d.benchmark);
  const core::FlowResult flow = core::run_flow(d.flow, g, {.bits = 8});
  const rtl::RtlDesign design =
      rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 8);
  return {rtl::elaborate(design), design.steps() + 1};
}

std::string design_label(const PaperDesign& d) {
  return std::string(d.benchmark) + "/" + core::flow_name(d.flow);
}

void PrintTo(const PaperDesign& d, std::ostream* os) { *os << design_label(d); }

/// FNV-1a 64 over a test set: one byte per input bit, a separator byte
/// after each vector and another after each sequence.
std::uint64_t test_set_hash(const std::vector<atpg::TestSequence>& set) {
  std::uint64_t h = 1469598103934665603ULL;
  auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (const atpg::TestSequence& seq : set) {
    for (const atpg::TestVector& v : seq) {
      for (bool bit : v) byte(bit ? 1 : 0);
      byte(2);
    }
    byte(3);
  }
  return h;
}

class PodemFrontier : public ::testing::TestWithParam<PaperDesign> {};

TEST_P(PodemFrontier, MaintainedFrontierEqualsConeScan) {
  // Differential test of the event-driven D-frontier against its declared
  // oracle, the full cone scan: at every decision of every collapsed fault
  // the two must be the same list.  The budget is small so aborted
  // searches backtrack (and undo) often.
  const Elaborated e = elaborate_paper_design(GetParam());
  const Netlist& nl = e.elab.netlist;
  atpg::TimeFramePodem podem(nl, 2 * e.period);
  atpg::FrontierAudit audit;
  podem.set_frontier_audit(&audit);
  const atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
  for (const atpg::Fault& f : universe.faults()) {
    (void)podem.generate(f, 6);
  }
  EXPECT_GT(audit.checks, 10000u);
  EXPECT_EQ(audit.mismatches, 0u);
  EXPECT_GT(podem.counters().decisions, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDesigns, PodemFrontier, ::testing::ValuesIn(kPaperDesigns),
    [](const ::testing::TestParamInfo<PaperDesign>& info) {
      return std::string(info.param.benchmark) + "_" +
             core::flow_name(info.param.flow);
    });

TEST(Atpg, GoldenTimeframeResultsOnPaperDesigns) {
  // Pinned run_atpg (timeframe) outputs of the eight paper designs: any
  // change to PODEM's search order, its RNG draws or the orchestration
  // shows here as a changed count or test-set hash.
  struct Golden {
    std::size_t detected, aborted, untestable;
    std::uint64_t hash;
  };
  constexpr Golden kGolden[] = {
      {1863, 2, 1, 0x8e82911cde7e6202ULL},  // ex/CAMAD
      {1699, 6, 1, 0xf9112ee1c145b482ULL},  // ex/Ours
      {2525, 6, 1, 0x6abb33d1a41d7a85ULL},  // dct/CAMAD
      {2596, 7, 1, 0x657cd437d02ab0adULL},  // dct/Ours
      {2229, 16, 1, 0xf57153f3614cd663ULL},  // diffeq/CAMAD
      {2026, 7, 1, 0x80c8bd9643beade8ULL},  // diffeq/Ours
      {1778, 10, 6, 0x7d43d9582e888652ULL},  // paulin/CAMAD
      {1542, 7, 1, 0xb5f58bae63d9ef63ULL},  // paulin/Ours
  };
  static_assert(std::size(kGolden) == std::size(kPaperDesigns));
  for (std::size_t i = 0; i < std::size(kPaperDesigns); ++i) {
    const Elaborated e = elaborate_paper_design(kPaperDesigns[i]);
    atpg::AtpgOptions options;
    options.backend = "timeframe";
    const atpg::AtpgResult r = atpg::run_atpg(e.elab.netlist, e.period, options);
    const std::string label = design_label(kPaperDesigns[i]);
    EXPECT_EQ(r.detected(), kGolden[i].detected) << label;
    EXPECT_EQ(r.aborted, kGolden[i].aborted) << label;
    EXPECT_EQ(r.untestable_faults.size(), kGolden[i].untestable) << label;
    EXPECT_EQ(test_set_hash(r.test_set), kGolden[i].hash) << label;
  }
}

TEST(Atpg, PodemCountersRepeatExactly) {
  // atpg.podem.* are deterministic work counters: two identical runs emit
  // the same values, once per run_atpg.
  const Elaborated e = elaborate_paper_design(kPaperDesigns[1]);
  atpg::AtpgOptions options;
  options.backend = "timeframe";
  auto counters = [&] {
    util::Trace trace;
    util::Trace::Scope scope(&trace);
    (void)atpg::run_atpg(e.elab.netlist, e.period, options);
    return trace.snapshot().counters;
  };
  const auto first = counters();
  const auto second = counters();
  ASSERT_TRUE(first.count("atpg.podem.decisions"));
  ASSERT_TRUE(first.count("atpg.podem.frontier_updates"));
  EXPECT_GT(first.at("atpg.podem.decisions"), 0);
  EXPECT_GT(first.at("atpg.podem.frontier_updates"), 0);
  EXPECT_EQ(first.at("atpg.podem.decisions"),
            second.at("atpg.podem.decisions"));
  EXPECT_EQ(first.at("atpg.podem.frontier_updates"),
            second.at("atpg.podem.frontier_updates"));
}

TEST(Atpg, EveryGeneratorForcesTheFirstResetInput) {
  // Two inputs named "reset"; o = AND(NOT r2, a).  The first one, r1, is
  // the reset every generator forces (1 in cycle 0).  Forcing r2 instead
  // would hold NOT r2 at 0 in a one-cycle test, making AND/sa0
  // untestable; with r1 forced, r2 = 0, a = 1 detects it.
  Netlist nl;
  nl.add_input("reset");  // r1, input 0
  GateId r2 = nl.add_input("reset");
  GateId a = nl.add_input("a");
  GateId n2 = nl.add_gate(GateKind::Not, {r2});
  GateId g = nl.add_gate(GateKind::And, {n2, a});
  nl.add_output(g, "o");
  ASSERT_EQ(atpg::reset_input_index(nl), 0);
  const atpg::Fault target{g, false};

  atpg::TimeFramePodem podem(nl, 1);
  const atpg::PodemResult pr = podem.generate(target, 16);
  ASSERT_EQ(pr.status, atpg::PodemStatus::Detected);
  EXPECT_TRUE(pr.sequence[0][0]);

  atpg::BackendConfig config;
  config.frames = 1;
  auto sat = atpg::make_backend(atpg::BackendKind::Sat, nl, config);
  const atpg::BackendResult sr = sat->generate(target);
  ASSERT_EQ(sr.status, atpg::BackendStatus::Detected);
  EXPECT_TRUE(sr.sequence[0][0]);

  // The random phase alone (no deterministic backend) on one-cycle
  // sequences.
  atpg::AtpgOptions options;
  options.backend = "timeframe";
  options.sequence_cycles = 1;
  options.deterministic_phase = false;
  options.compact = false;
  const atpg::AtpgResult r = atpg::run_atpg(nl, 1, options);
  EXPECT_EQ(std::count(r.undetected.begin(), r.undetected.end(), target), 0);
  ASSERT_FALSE(r.test_set.empty());
  for (const atpg::TestSequence& seq : r.test_set) EXPECT_TRUE(seq[0][0]);
}

}  // namespace
}  // namespace hlts
