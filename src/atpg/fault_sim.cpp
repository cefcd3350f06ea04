#include "atpg/fault_sim.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/error.hpp"
#include "util/inject.hpp"
#include "util/knobs.hpp"

namespace hlts::atpg {

namespace {

/// Runs faults [base, base + batch) through `sim` and appends the detected
/// indices (into the full fault list) to `out`, in ascending order.
template <int W>
void run_batch(WideSimulator<W>& sim, const TestSequence& sequence,
               const std::vector<Fault>& faults, std::size_t base,
               std::size_t batch, std::vector<std::size_t>& out) {
  sim.clear_faults();
  for (std::size_t i = 0; i < batch; ++i) {
    sim.inject(static_cast<int>(i + 1), faults[base + i]);
  }
  sim.reset_state();
  // Lanes 1..batch carry faults; lane 0 is the fault-free reference.
  Packet<W> all_lanes = Packet<W>::zero();
  for (std::size_t i = 0; i < batch; ++i) {
    all_lanes.set_lane(static_cast<int>(i + 1));
  }
  Packet<W> caught = Packet<W>::zero();
  for (const TestVector& v : sequence) {
    caught |= sim.step(v);
    // All injected lanes of this batch already detected: stop early.
    if ((caught & all_lanes) == all_lanes) break;
  }
  for (std::size_t i = 0; i < batch; ++i) {
    if (caught.lane(static_cast<int>(i + 1))) {
      out.push_back(base + i);
    }
  }
}

}  // namespace

int resolve_simd_width(int requested) {
  if (requested == 0) {
    // Registry-audited read; unsupported widths fall back to the default
    // (the knob's documented Ignore policy).
    if (const std::optional<long long> v =
            util::knobs::read_int("HLTS_SIMD_WIDTH");
        v && (*v == 64 || *v == 256 || *v == 512)) {
      return static_cast<int>(*v);
    }
    return 256;
  }
  HLTS_REQUIRE(requested == 64 || requested == 256 || requested == 512,
               "simd width must be 64, 256 or 512 lanes");
  return requested;
}

FaultSimulator::FaultSimulator(const gates::Netlist& nl, int num_threads,
                               int simd_width)
    : nl_(nl), width_(resolve_simd_width(simd_width)) {
  switch (width_) {
    case 64:
      sim64_ = std::make_unique<WideSimulator<1>>(nl);
      break;
    case 256:
      sim256_ = std::make_unique<WideSimulator<4>>(nl);
      break;
    default:
      sim512_ = std::make_unique<WideSimulator<8>>(nl);
      break;
  }
  const std::size_t threads =
      num_threads > 0 ? static_cast<std::size_t>(num_threads)
                      : util::ThreadPool::default_threads();
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

template <int W>
std::vector<std::size_t> FaultSimulator::detect(
    WideSimulator<W>& persistent, const TestSequence& sequence,
    const std::vector<Fault>& faults) {
  // One batch per packet: 64*W - 1 faults (lane 0 is the good machine).
  constexpr std::size_t kCap =
      static_cast<std::size_t>(WideSimulator<W>::kLanes) - 1;
  const std::size_t num_batches = (faults.size() + kCap - 1) / kCap;
  if (!pool_ || num_batches < 2) {
    std::vector<std::size_t> detected;
    const std::uint64_t before = persistent.gate_lane_evals();
    for (std::size_t base = 0; base < faults.size(); base += kCap) {
      const std::size_t batch = std::min(kCap, faults.size() - base);
      run_batch(persistent, sequence, faults, base, batch, detected);
    }
    lane_evals_ += persistent.gate_lane_evals() - before;
    return detected;
  }

  // Batches are independent: fan them out, each on a private simulator, and
  // concatenate in batch order so the result matches the serial path.
  std::vector<std::vector<std::size_t>> per_batch(num_batches);
  std::vector<std::uint64_t> per_batch_evals(num_batches, 0);
  pool_->parallel_for(num_batches, [&](std::size_t bi) {
    const std::size_t base = bi * kCap;
    const std::size_t batch = std::min(kCap, faults.size() - base);
    WideSimulator<W> sim(nl_);
    run_batch(sim, sequence, faults, base, batch, per_batch[bi]);
    per_batch_evals[bi] = sim.gate_lane_evals();
  });
  std::vector<std::size_t> detected;
  for (std::size_t bi = 0; bi < num_batches; ++bi) {
    detected.insert(detected.end(), per_batch[bi].begin(),
                    per_batch[bi].end());
    lane_evals_ += per_batch_evals[bi];
  }
  return detected;
}

std::vector<std::size_t> FaultSimulator::detected_by(
    const TestSequence& sequence, const std::vector<Fault>& faults) {
  HLTS_FAILPOINT("atpg.fault_sim");
  if (sim64_) return detect(*sim64_, sequence, faults);
  if (sim256_) return detect(*sim256_, sequence, faults);
  return detect(*sim512_, sequence, faults);
}

std::size_t FaultSimulator::drop_detected(const TestSequence& sequence,
                                          std::vector<Fault>& faults,
                                          std::vector<Fault>* dropped) {
  std::vector<std::size_t> hit = detected_by(sequence, faults);
  if (hit.empty()) return 0;
  if (dropped != nullptr) {
    for (const std::size_t i : hit) dropped->push_back(faults[i]);
  }
  // Erase by index, back to front (indices are ascending).
  for (auto it = hit.rbegin(); it != hit.rend(); ++it) {
    faults.erase(faults.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  return hit.size();
}

}  // namespace hlts::atpg
