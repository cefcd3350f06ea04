#include "atpg/faults.hpp"

#include "util/error.hpp"

namespace hlts::atpg {

std::string fault_name(const gates::Netlist& nl, const Fault& f) {
  const gates::Gate& g = nl.gate(f.gate);
  std::string base = g.name.empty()
                         ? std::string(gates::gate_kind_name(g.kind)) + "#" +
                               std::to_string(f.gate.value())
                         : g.name;
  return base + (f.stuck_at_one ? "/sa1" : "/sa0");
}

int reset_input_index(const gates::Netlist& nl) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") return static_cast<int>(i);
  }
  return -1;
}

bool FaultUniverse::is_fault_site(const gates::Netlist& nl,
                                  gates::GateId id) {
  switch (nl.gate(id).kind) {
    case gates::GateKind::Output:  // equivalent to the driver stem
    case gates::GateKind::Buf:     // equivalent to the driver stem
    case gates::GateKind::Not:     // equivalent with flipped polarity
    case gates::GateKind::Const0:  // tied nets are untestable by definition
    case gates::GateKind::Const1:
      return false;
    default:
      return true;
  }
}

FaultUniverse FaultUniverse::collapsed(const gates::Netlist& nl) {
  FaultUniverse u;
  for (gates::GateId id : nl.gate_ids()) {
    if (!is_fault_site(nl, id)) continue;
    u.faults_.push_back({id, false});
    u.faults_.push_back({id, true});
  }
  return u;
}

FaultLedger::FaultLedger(const gates::Netlist& nl, const FaultUniverse& u)
    : universe_(u),
      status_(2 * nl.num_gates(),
              static_cast<std::uint8_t>(FaultStatus::Undetected)) {
  counts_[static_cast<std::size_t>(FaultStatus::Undetected)] = u.size();
}

std::size_t FaultLedger::key(const Fault& f) const {
  const std::size_t k = 2 * f.gate.index() + (f.stuck_at_one ? 1 : 0);
  HLTS_REQUIRE(k < status_.size(), "fault ledger: fault outside the netlist");
  return k;
}

void FaultLedger::mark(const Fault& f, FaultStatus status) {
  const std::size_t k = key(f);
  const auto current = static_cast<FaultStatus>(status_[k]);
  // Promotion rule: the first detection is final.  Untestable and Aborted
  // can still be promoted to Detected* -- the PODEM backend's untestable
  // claims come from its unrolled model, and a later sequence the
  // *sequential* simulator runs can contradict them (the simulator is
  // always the referee).  The SAT backend's proofs cannot be contradicted
  // this way by construction, which the sat test suite asserts.
  if (current == FaultStatus::DetectedRandom ||
      current == FaultStatus::DetectedDeterministic) {
    return;
  }
  if (current == FaultStatus::Untestable &&
      !(status == FaultStatus::DetectedRandom ||
        status == FaultStatus::DetectedDeterministic)) {
    return;
  }
  --counts_[static_cast<std::size_t>(current)];
  status_[k] = static_cast<std::uint8_t>(status);
  ++counts_[static_cast<std::size_t>(status)];
}

FaultStatus FaultLedger::status(const Fault& f) const {
  return static_cast<FaultStatus>(status_[key(f)]);
}

std::size_t FaultLedger::count(FaultStatus status) const {
  return counts_[static_cast<std::size_t>(status)];
}

std::vector<Fault> FaultLedger::unresolved() const {
  std::vector<Fault> out;
  for (const Fault& f : universe_.faults()) {
    const FaultStatus s = status(f);
    if (s == FaultStatus::Undetected || s == FaultStatus::Aborted) {
      out.push_back(f);
    }
  }
  return out;
}

}  // namespace hlts::atpg
