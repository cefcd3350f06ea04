#include "atpg/backend.hpp"

#include <algorithm>
#include <map>

#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "util/error.hpp"

namespace hlts::atpg {

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::TimeFrame: return "timeframe";
    case BackendKind::Sat: return "sat";
  }
  return "?";
}

namespace {

/// The pre-seam deterministic path, verbatim: TimeFramePodem with a
/// per-fault backtrack budget.  Wrapping it keeps run_atpg's default mode
/// bit-identical to the monolithic orchestrator.
class TimeFrameBackend final : public DeterministicBackend {
 public:
  TimeFrameBackend(const gates::Netlist& nl, const BackendConfig& config)
      : podem_(nl, config.frames), backtrack_limit_(config.backtrack_limit) {}

  [[nodiscard]] const char* name() const override { return "timeframe"; }

  [[nodiscard]] BackendResult generate(const Fault& fault) override {
    const PodemResult pr = podem_.generate(fault, backtrack_limit_);
    BackendResult r;
    switch (pr.status) {
      case PodemStatus::Detected:
        r.status = BackendStatus::Detected;
        r.sequence = pr.sequence;
        break;
      case PodemStatus::Untestable:
        r.status = BackendStatus::Untestable;
        break;
      case PodemStatus::Aborted:
        r.status = BackendStatus::Aborted;
        break;
    }
    r.effort = pr.backtracks;
    ++stats_.targets;
    stats_.effort += static_cast<std::uint64_t>(pr.backtracks);
    if (r.status == BackendStatus::Detected) ++stats_.detected;
    if (r.status == BackendStatus::Untestable) ++stats_.untestable;
    if (r.status == BackendStatus::Aborted) ++stats_.aborted;
    stats_.podem_decisions = podem_.counters().decisions;
    stats_.podem_frontier_updates = podem_.counters().frontier_updates;
    return r;
  }

  [[nodiscard]] const BackendStats& stats() const override { return stats_; }

 private:
  TimeFramePodem podem_;
  int backtrack_limit_;
  BackendStats stats_;
};

using Registry = std::map<std::string, BackendFactory>;

Registry& registry() {
  static Registry r = [] {
    Registry init;
    init["timeframe"] = [](const gates::Netlist& nl,
                           const BackendConfig& config) {
      return std::unique_ptr<DeterministicBackend>(
          new TimeFrameBackend(nl, config));
    };
    init["sat"] = [](const gates::Netlist& nl, const BackendConfig& config) {
      return std::unique_ptr<DeterministicBackend>(
          new SatBackend(nl, config));
    };
    return init;
  }();
  return r;
}

}  // namespace

void register_backend(const std::string& name, BackendFactory factory) {
  HLTS_REQUIRE_INPUT(!name.empty(), "backend name must be non-empty");
  registry()[name] = std::move(factory);
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::unique_ptr<DeterministicBackend> make_backend(const std::string& name,
                                                   const gates::Netlist& nl,
                                                   const BackendConfig& config) {
  const auto it = registry().find(name);
  HLTS_REQUIRE_INPUT(it != registry().end(),
                     "unknown ATPG backend '" + name + "'");
  HLTS_REQUIRE_INPUT(config.frames >= 1, "backend needs >= 1 time frames");
  return it->second(nl, config);
}

}  // namespace hlts::atpg
