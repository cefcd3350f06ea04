// The benchmark's own reference for synthesized designs: a word-level DFG
// interpreter, independent of the scheduler, the allocator and the RTL
// elaborator, and a harness that clocks an elaborated gate machine through
// one schedule pass.  A design passes when every primary output is binary
// and equals the interpreter's value, for every check vector: a registered
// output at the end of the pass, a port-direct one in the cycle of the
// control step its defining operation is scheduled in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfg/dfg.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

using Values = std::map<std::string, std::uint64_t>;

/// One check vector: primary-input values and the interpreter's values of
/// every variable they imply.
struct CheckVector {
  Values inputs;
  Values expected;
};

/// Evaluates `g` on `inputs` in `bits`-bit unsigned arithmetic and returns
/// the value of every variable.
[[nodiscard]] Values interpret(const hlts::dfg::Dfg& g, const Values& inputs,
                               int bits);

/// Draws `count` seeded random input assignments for `g` and interprets
/// each one.
[[nodiscard]] std::vector<CheckVector> make_check_vectors(
    const hlts::dfg::Dfg& g, int bits, std::uint64_t seed, int count);

/// What the gate-machine check found: the first mismatch (empty when none)
/// and how many primary outputs it compared per vector.
struct MachineCheck {
  std::string error;
  int outputs = 0;
};

/// Clocks the gate machine through reset and one schedule pass per check
/// vector and compares every primary output with the interpreter.  A
/// design without a primary output fails: the check compared nothing.
[[nodiscard]] MachineCheck check_gate_machine(
    const hlts::dfg::Dfg& g, const hlts::sched::Schedule& schedule,
    const hlts::rtl::RtlDesign& design, const hlts::rtl::Elaboration& elab,
    const std::vector<CheckVector>& vectors);

}  // namespace perfbench
