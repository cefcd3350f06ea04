#include "interp.hpp"

#include <stdexcept>

#include "atpg/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace dfg = hlts::dfg;

namespace {

std::uint64_t mask_of(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

std::uint64_t apply(dfg::OpKind kind, std::uint64_t a, std::uint64_t b,
                    std::uint64_t mask) {
  switch (kind) {
    case dfg::OpKind::Add: return a + b;
    case dfg::OpKind::Sub: return a - b;
    case dfg::OpKind::Mul: return a * b;
    case dfg::OpKind::Div: return b == 0 ? mask : a / b;
    case dfg::OpKind::Less: return a < b ? 1 : 0;
    case dfg::OpKind::Greater: return a > b ? 1 : 0;
    case dfg::OpKind::Equal: return a == b ? 1 : 0;
    case dfg::OpKind::And: return a & b;
    case dfg::OpKind::Or: return a | b;
    case dfg::OpKind::Xor: return a ^ b;
    case dfg::OpKind::Not: return ~a;
    case dfg::OpKind::ShiftLeft: return a << 1;
    case dfg::OpKind::ShiftRight: return a >> 1;
    case dfg::OpKind::Move: return a;
  }
  throw std::logic_error("interpret: unknown op kind");
}

/// Splits a netlist port-bit name "<prefix><port>[<bit>]".
bool split_bit_name(const std::string& name, std::size_t prefix,
                    std::string& port, int& bit) {
  const auto open = name.find('[');
  if (open == std::string::npos || open < prefix) return false;
  port = name.substr(prefix, open - prefix);
  bit = std::stoi(name.substr(open + 1));
  return true;
}

}  // namespace

Values interpret(const dfg::Dfg& g, const Values& inputs, int bits) {
  const std::uint64_t mask = mask_of(bits);
  Values env;
  for (const auto& [name, v] : inputs) env[name] = v & mask;
  for (dfg::OpId id : g.topo_order()) {
    const dfg::Operation& op = g.op(id);
    const std::uint64_t a = env.at(g.var(op.inputs[0]).name);
    const std::uint64_t b =
        op.inputs.size() > 1 ? env.at(g.var(op.inputs[1]).name) : 0;
    env[g.var(op.output).name] = apply(op.kind, a, b, mask) & mask;
  }
  return env;
}

std::vector<CheckVector> make_check_vectors(const dfg::Dfg& g, int bits,
                                            std::uint64_t seed, int count) {
  hlts::Rng rng(seed);
  std::vector<CheckVector> out;
  for (int i = 0; i < count; ++i) {
    CheckVector cv;
    for (dfg::VarId v : g.primary_inputs()) {
      cv.inputs[g.var(v).name] = rng.next_u64() & mask_of(bits);
    }
    cv.expected = interpret(g, cv.inputs, bits);
    out.push_back(std::move(cv));
  }
  return out;
}

MachineCheck check_gate_machine(const dfg::Dfg& g,
                                const hlts::sched::Schedule& schedule,
                                const hlts::rtl::RtlDesign& design,
                                const hlts::rtl::Elaboration& elab,
                                const std::vector<CheckVector>& vectors) {
  const auto& nl = elab.netlist;
  // The cycle each primary output is read in.  After the reset cycle,
  // cycle c of the pass shows control step c (S0 loads the inputs): a
  // port-direct output is gated onto its port only in the step its
  // defining operation is scheduled in; a registered one is read in the
  // extra cycle that exposes what the last clock edge wrote.
  const int last = design.steps() + 1;
  std::vector<std::pair<int, dfg::VarId>> samples;
  MachineCheck out;
  for (dfg::VarId v : g.var_ids()) {
    const dfg::Variable& var = g.var(v);
    if (!var.is_primary_output) continue;
    if (!var.po_registered && !var.def.valid()) {
      out.error = "port-direct output " + var.name + " has no defining op";
      return out;
    }
    samples.emplace_back(
        var.po_registered ? last : schedule.step(var.def), v);
  }
  out.outputs = static_cast<int>(samples.size());
  if (samples.empty()) {
    out.error = "the design has no primary output to compare";
    return out;
  }

  for (const CheckVector& cv : vectors) {
    hlts::atpg::ParallelSimulator sim(nl);
    sim.reset_state();
    hlts::atpg::TestVector run(nl.inputs().size(), false);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const std::string& name = nl.gate(nl.inputs()[i]).name;
      if (name == "reset") continue;
      std::string port;
      int bit = 0;
      if (!split_bit_name(name, 3, port, bit)) {
        out.error = "unexpected primary input " + name;
        return out;
      }
      const auto it = cv.inputs.find(port);
      if (it == cv.inputs.end()) {
        out.error = "input port " + port + " has no value";
        return out;
      }
      run[i] = ((it->second >> bit) & 1) != 0;
    }
    hlts::atpg::TestVector reset = run;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      if (nl.gate(nl.inputs()[i]).name == "reset") reset[i] = true;
    }
    sim.step(reset);
    for (int c = 0; c <= last; ++c) {
      sim.step(run);
      Values observed;
      std::map<std::string, bool> binary;
      for (hlts::gates::GateId o : nl.outputs()) {
        std::string port;
        int bit = 0;
        if (!split_bit_name(nl.gate(o).name, 4, port, bit)) continue;
        const bool one = (sim.plane_one(o) & 1) != 0;
        const bool zero = (sim.plane_zero(o) & 1) != 0;
        observed[port] |= static_cast<std::uint64_t>(one) << bit;
        if (!binary.count(port)) binary[port] = true;
        if (one == zero) binary[port] = false;
      }
      for (const auto& [cycle, v] : samples) {
        if (cycle != c) continue;
        const std::string& name = g.var(v).name;
        const std::string at = " in cycle " + std::to_string(c);
        const auto got = observed.find(name);
        if (got == observed.end()) {
          out.error = "no output port for " + name;
          return out;
        }
        if (!binary[name]) {
          out.error = "output " + name + " is X" + at;
          return out;
        }
        const std::uint64_t want = cv.expected.at(name);
        if (got->second != want) {
          out.error = "output " + name + at + ": machine " +
                      std::to_string(got->second) + ", interpreter " +
                      std::to_string(want);
          return out;
        }
      }
    }
  }
  return out;
}

}  // namespace perfbench
