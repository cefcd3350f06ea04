// Single-stuck-at fault model with structural equivalence collapsing.
//
// "The testability definition assumes that a stuck-at fault model is used
// and ATPG is random and/or deterministic" (paper §2).  The fault universe
// is the collapsed set of stem (gate-output) faults: faults on buffers,
// inverters and output pads are equivalent (modulo polarity) to faults on
// their driver stems and are dropped.
//
// FaultUniverse::is_fault_site is the single collapse predicate: the
// universe builder, both deterministic backends, and the coverage
// accounting all consult it, so they agree on the fault set by
// construction instead of by parallel copies of the kind switch.
//
// FaultLedger carries the per-fault classification the orchestrator
// accumulates across phases (random drops, deterministic detections,
// untestability proofs, budget aborts); AtpgResult's coverage and
// efficiency numbers are derived from its counts, which makes the
// detected-set accounting identical for every backend by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gates/netlist.hpp"

namespace hlts::atpg {

struct Fault {
  gates::GateId gate;
  bool stuck_at_one = false;

  friend bool operator==(const Fault&, const Fault&) = default;
};

[[nodiscard]] std::string fault_name(const gates::Netlist& nl, const Fault& f);

/// Position in nl.inputs() of the reset input -- the first input named
/// "reset" -- or -1 if there is none.  Every test generator forces this
/// input (high in cycle 0, low afterwards), so they must all agree on it.
[[nodiscard]] int reset_input_index(const gates::Netlist& nl);

class FaultUniverse {
 public:
  /// The one collapse rule: true when stuck-at faults on `id`'s output are
  /// part of the collapsed universe (Output/Buf/Not collapse onto their
  /// driver stems, tied constants are untestable by definition).
  [[nodiscard]] static bool is_fault_site(const gates::Netlist& nl,
                                          gates::GateId id);

  /// Collapsed stem-fault universe of a netlist.
  [[nodiscard]] static FaultUniverse collapsed(const gates::Netlist& nl);

  [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }
  [[nodiscard]] std::size_t size() const { return faults_.size(); }

 private:
  std::vector<Fault> faults_;
};

/// What happened to a fault over the whole ATPG run.
enum class FaultStatus : std::uint8_t {
  Undetected,             ///< no phase covered it, nothing proved
  DetectedRandom,         ///< dropped by a random-phase sequence
  DetectedDeterministic,  ///< dropped by a deterministic-phase sequence
  Untestable,             ///< proved untestable within the frame bound
  Aborted,                ///< a deterministic backend gave up on budget
};

/// Per-fault status book-keeping over a FaultUniverse.  Faults are keyed
/// by (gate, polarity); marking follows a promotion rule -- a fault
/// already Detected* keeps its first detection; Aborted and Untestable
/// may later be promoted to Detected* (the sequential fault simulator is
/// the referee, and the PODEM backend's untestable claims come from an
/// unrolled model the simulator can contradict).
class FaultLedger {
 public:
  explicit FaultLedger(const gates::Netlist& nl, const FaultUniverse& u);

  void mark(const Fault& f, FaultStatus status);
  [[nodiscard]] FaultStatus status(const Fault& f) const;

  [[nodiscard]] std::size_t count(FaultStatus status) const;
  [[nodiscard]] std::size_t detected() const {
    return count(FaultStatus::DetectedRandom) +
           count(FaultStatus::DetectedDeterministic);
  }
  /// The faults still Undetected or Aborted, in universe order.
  [[nodiscard]] std::vector<Fault> unresolved() const;

 private:
  [[nodiscard]] std::size_t key(const Fault& f) const;

  const FaultUniverse& universe_;
  std::vector<std::uint8_t> status_;  ///< indexed 2*gate + polarity
  std::size_t counts_[5] = {0, 0, 0, 0, 0};
};

}  // namespace hlts::atpg
