// Deterministic sequential ATPG: PODEM over a bounded time-frame expansion.
//
// The sequential circuit is unrolled for F frames starting from the
// unknown power-up state (all flip-flops X) with the reset input forced
// high in frame 0 and low afterwards, making the unrolled model purely
// combinational.  The target fault is present in every frame.  Values are
// good/faulty 3-valued pairs (the D-calculus: D = good 1 / faulty 0); a
// test must justify register initialization through functional paths
// before it can excite and propagate the fault.
//
// Classic PODEM search: pick an objective (fault excitation, then D-drive
// through the D-frontier), backtrace through X-valued nets to an
// assignable primary input, imply, and branch with a bounded backtrack
// budget.
//
// The D-frontier is maintained event-driven: every value write and every
// undo rechecks the written node and, when its D status flipped, its
// fanouts, so a decision reads a maintained list instead of rescanning the
// fault cone.  The cone scan survives as the declared oracle; the
// set_frontier_audit() hook compares the two at every decision.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/simulator.hpp"

namespace hlts::atpg {

enum class PodemStatus {
  Detected,    ///< a test sequence was generated
  Untestable,  ///< search space exhausted within the frame bound
  Aborted,     ///< backtrack limit hit
};

struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  /// Valid when Detected: per-frame primary-input vectors (unassigned
  /// inputs filled with zeros).
  TestSequence sequence;
  int backtracks = 0;
};

/// Deterministic work counters, cumulative over one TimeFramePodem.
struct PodemCounters {
  /// Primary-input assignments of the search, flipped ones included.
  std::uint64_t decisions = 0;
  /// D-frontier membership rechecks done by the event-driven maintenance
  /// (including the once-per-target rebuild over the cone).
  std::uint64_t frontier_updates = 0;
};

/// Filled by the set_frontier_audit() hook.
struct FrontierAudit {
  std::uint64_t checks = 0;      ///< decisions at which the two were compared
  std::uint64_t mismatches = 0;  ///< decisions at which they differed
};

class TimeFramePodem {
 public:
  /// Builds the unrolled model.  `frames` >= 1.
  TimeFramePodem(const gates::Netlist& nl, int frames);
  ~TimeFramePodem();

  /// Attempts to generate a test for `fault`.
  [[nodiscard]] PodemResult generate(const Fault& fault, int backtrack_limit);

  /// Validation hook (used by tests): implies the primary-input values of
  /// `sequence` into the unrolled model and reports whether the fault is
  /// detected there.  Must agree with the sequential fault simulator
  /// whenever the sequence fits in the frame bound.
  [[nodiscard]] bool check_sequence(const Fault& fault,
                                    const TestSequence& sequence);

  [[nodiscard]] const PodemCounters& counters() const;

  /// Test hook: while `audit` is non-null, every decision of generate()
  /// compares the maintained D-frontier with the cone-scan reference and
  /// records the outcome in `*audit`.
  void set_frontier_audit(FrontierAudit* audit);

 private:
  class Impl;

  std::unique_ptr<Impl> impl_;
};

}  // namespace hlts::atpg
