#include "core/resched.hpp"

#include <algorithm>
#include <climits>
#include <vector>

#include "sched/constraint_graph.hpp"
#include "sched/lifetime.hpp"
#include "util/error.hpp"
#include "util/inject.hpp"

namespace hlts::core {

namespace {

using ModuleChains = std::vector<std::vector<dfg::OpId>>;
using RegChains = std::vector<std::vector<dfg::VarId>>;

/// Builds the constraint graph for the given execution/lifetime orders and
/// solves it.
std::optional<sched::Schedule> solve_orders(const dfg::Dfg& g,
                                            const ModuleChains& module_chains,
                                            const RegChains& reg_chains) {
  sched::ConstraintGraph cg(g);
  for (const auto& chain : module_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      cg.add_arc(chain[i], chain[i + 1], 1);
    }
  }
  for (const auto& chain : reg_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const dfg::Variable& earlier = g.var(chain[i]);
      const dfg::Variable& later = g.var(chain[i + 1]);
      if (!later.def.valid()) return std::nullopt;  // PI not first: impossible
      // The later variable may be written at the clock edge ending the step
      // in which the earlier one is last read (weight-0 arcs).
      if (earlier.uses.empty()) {
        if (earlier.def.valid()) cg.add_arc(earlier.def, later.def, 0);
      } else {
        for (dfg::OpId use : earlier.uses) {
          cg.add_arc(use, later.def, 0);
        }
      }
    }
  }
  return cg.solve();
}

/// Lifetime-order sort key: primary inputs first (born at load time),
/// registered primary outputs last (held to the end), otherwise previous
/// birth step.
int var_order_key(const dfg::Dfg& g, const sched::Schedule& hint,
                  dfg::VarId v) {
  const dfg::Variable& var = g.var(v);
  if (var.is_primary_input) return -1;
  if (var.is_primary_output && var.po_registered) return INT_MAX;
  return hint.step(var.def);
}

/// Structural feasibility of one register's variable set: at most one
/// primary input (all PIs are born simultaneously) and at most one
/// registered primary output (all are held to the end).
bool reg_set_feasible(const dfg::Dfg& g, const std::vector<dfg::VarId>& vars) {
  int pis = 0;
  int pos = 0;
  for (dfg::VarId v : vars) {
    const dfg::Variable& var = g.var(v);
    if (var.is_primary_input) ++pis;
    if (var.is_primary_output && var.po_registered) ++pos;
  }
  return pis <= 1 && pos <= 1;
}

}  // namespace

bool schedule_respects_binding(const dfg::Dfg& g, const etpn::Binding& b,
                               const sched::Schedule& s) {
  if (!s.respects_data_deps(g)) return false;
  for (etpn::ModuleId m : b.alive_modules()) {
    const auto& ops = b.module_ops(m);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (s.step(ops[i]) == s.step(ops[j])) return false;
      }
    }
  }
  const sched::LifetimeTable lifetimes = sched::LifetimeTable::compute(g, s);
  for (etpn::RegId r : b.alive_regs()) {
    const auto& vars = b.reg_vars(r);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        if (!lifetimes.disjoint(vars[i], vars[j])) return false;
      }
    }
  }
  return true;
}

ReschedOutcome reschedule(const dfg::Dfg& g, const etpn::Binding& b,
                          const sched::Schedule& hint,
                          OrderStrategy strategy,
                          const etpn::Etpn* premerged) {
  HLTS_FAILPOINT("sched.reschedule");
  ReschedOutcome out;

  // --- derive initial chains from the previous schedule ---------------------
  ModuleChains module_chains;
  for (etpn::ModuleId m : b.alive_modules()) {
    std::vector<dfg::OpId> chain = b.module_ops(m);
    std::stable_sort(chain.begin(), chain.end(), [&](dfg::OpId a, dfg::OpId c) {
      return hint.step(a) < hint.step(c);
    });
    module_chains.push_back(std::move(chain));
  }
  RegChains reg_chains;
  for (etpn::RegId r : b.alive_regs()) {
    std::vector<dfg::VarId> chain = b.reg_vars(r);
    if (!reg_set_feasible(g, chain)) return out;
    std::stable_sort(chain.begin(), chain.end(), [&](dfg::VarId a, dfg::VarId c) {
      return var_order_key(g, hint, a) < var_order_key(g, hint, c);
    });
    reg_chains.push_back(std::move(chain));
  }

  auto solution = solve_orders(g, module_chains, reg_chains);

  // --- SR1/SR2 ordering refinement at conflict points ------------------------
  // Conflict points are adjacent chain elements that previously shared a
  // control step (modules) or a birth step (registers): exactly the places
  // where the merger forces a new ordering decision.  Each is resolved by
  // comparing the two orders; the testability strategy prefers executing
  // first the operation whose operand registers are nearest to primary
  // inputs (SR2 supports SR1: the controllable value is consumed at once
  // and its result heads toward an observable register one step sooner),
  // falling back to the smallest critical-path increase.  The plain
  // strategy swaps only when forced or when it shortens the schedule.
  // Register distances are a pure BFS over the alive data-path topology --
  // step annotations never enter -- so a caller-supplied merge-patched graph
  // (structurally identical, stale steps) yields the same distances as the
  // fresh build and therefore the identical schedule.
  std::optional<etpn::Etpn> local_e;
  if (premerged == nullptr) {
    local_e.emplace(etpn::build_etpn(g, hint, b));
    premerged = &*local_e;
  }
  const etpn::Etpn& e = *premerged;
  const etpn::DataPath::RegisterDistances dist =
      e.data_path.register_distances();
  auto op_controllability_key = [&](dfg::OpId op) {
    // Smaller = operands closer to primary inputs.
    int best = INT_MAX;
    for (dfg::VarId in : g.op(op).inputs) {
      etpn::RegId r = b.reg_of(in);
      if (!r.valid()) continue;
      const int d = dist.d_in[e.reg_node[r].index()];
      if (d >= 0) best = std::min(best, d);
    }
    return best;
  };

  auto evaluate = [&](const ModuleChains& mc, const RegChains& rc)
      -> std::optional<int> {
    auto s = solve_orders(g, mc, rc);
    if (!s) return std::nullopt;
    return s->length();
  };

  for (auto& chain : module_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const bool tied = hint.step(chain[i]) == hint.step(chain[i + 1]);
      // Candidate orders: as-is and swapped.  Non-tied pairs keep the
      // incumbent order unless it is infeasible (the paper's two
      // "possibilities" are explored only where the merger created a new
      // ordering decision).
      auto len_asis = evaluate(module_chains, reg_chains);
      if (!tied && len_asis) continue;  // keep incumbent order
      std::swap(chain[i], chain[i + 1]);
      auto len_swap = evaluate(module_chains, reg_chains);

      bool keep_swap = false;
      if (!len_asis) {
        keep_swap = len_swap.has_value();  // only the swap is feasible
      } else if (len_swap) {
        if (strategy == OrderStrategy::Testability) {
          const int ka = op_controllability_key(chain[i + 1]);  // swapped
          const int kb = op_controllability_key(chain[i]);
          if (ka != kb) {
            keep_swap = kb < ka;  // SR2: more controllable operands go first
          } else {
            keep_swap = *len_swap < *len_asis;  // critical-path fallback
          }
        } else {
          keep_swap = *len_swap < *len_asis;
        }
      }
      if (!keep_swap) std::swap(chain[i], chain[i + 1]);  // undo
    }
  }

  for (auto& chain : reg_chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      // Primary inputs are born at load time and must stay first; registered
      // primary outputs are held to the end and must stay last.  The
      // constraint graph cannot express these (they are not op-to-op arcs),
      // so such pairs are never reordered.
      const dfg::Variable& vi = g.var(chain[i]);
      const dfg::Variable& vj = g.var(chain[i + 1]);
      if (vi.is_primary_input || (vj.is_primary_output && vj.po_registered)) {
        continue;
      }
      const bool tied = var_order_key(g, hint, chain[i]) ==
                        var_order_key(g, hint, chain[i + 1]);
      auto len_asis = evaluate(module_chains, reg_chains);
      if (!tied && len_asis) continue;
      std::swap(chain[i], chain[i + 1]);
      auto len_swap = evaluate(module_chains, reg_chains);

      bool keep_swap = false;
      if (!len_asis) {
        keep_swap = len_swap.has_value();
      } else if (len_swap) {
        if (strategy == OrderStrategy::Testability) {
          // SR1 at the variable level: let the variable whose defining op
          // has the more controllable operands expire first.
          const dfg::Variable& va = g.var(chain[i + 1]);  // swapped
          const dfg::Variable& vb = g.var(chain[i]);
          const int ka = va.def.valid() ? op_controllability_key(va.def) : -1;
          const int kb = vb.def.valid() ? op_controllability_key(vb.def) : -1;
          if (ka != kb) {
            keep_swap = kb < ka;
          } else {
            keep_swap = *len_swap < *len_asis;
          }
        } else {
          keep_swap = *len_swap < *len_asis;
        }
      }
      if (!keep_swap) std::swap(chain[i], chain[i + 1]);
    }
  }

  solution = solve_orders(g, module_chains, reg_chains);
  if (!solution) return out;

  out.feasible = true;
  out.schedule = *solution;
  HLTS_REQUIRE(schedule_respects_binding(g, b, out.schedule),
               "rescheduler produced a schedule violating the binding");
  return out;
}

}  // namespace hlts::core
