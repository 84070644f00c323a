#include "solver/types.h"

#include <algorithm>
#include <map>

namespace cologne::solver {

const char* RelName(Rel rel) {
  switch (rel) {
    case Rel::kEq: return "==";
    case Rel::kNe: return "!=";
    case Rel::kLe: return "<=";
    case Rel::kLt: return "<";
    case Rel::kGe: return ">=";
    case Rel::kGt: return ">";
  }
  return "?";
}

Rel Negate(Rel rel) {
  switch (rel) {
    case Rel::kEq: return Rel::kNe;
    case Rel::kNe: return Rel::kEq;
    case Rel::kLe: return Rel::kGt;
    case Rel::kLt: return Rel::kGe;
    case Rel::kGe: return Rel::kLt;
    case Rel::kGt: return Rel::kLe;
  }
  return Rel::kEq;
}

Rel Flip(Rel rel) {
  switch (rel) {
    case Rel::kEq: return Rel::kEq;
    case Rel::kNe: return Rel::kNe;
    case Rel::kLe: return Rel::kGe;
    case Rel::kLt: return Rel::kGt;
    case Rel::kGe: return Rel::kLe;
    case Rel::kGt: return Rel::kLt;
  }
  return rel;
}

bool EvalRel(int64_t lhs, Rel rel, int64_t rhs) {
  switch (rel) {
    case Rel::kEq: return lhs == rhs;
    case Rel::kNe: return lhs != rhs;
    case Rel::kLe: return lhs <= rhs;
    case Rel::kLt: return lhs < rhs;
    case Rel::kGe: return lhs >= rhs;
    case Rel::kGt: return lhs > rhs;
  }
  return false;
}

LinExpr& LinExpr::operator+=(const LinExpr& o) {
  constant += o.constant;
  terms.insert(terms.end(), o.terms.begin(), o.terms.end());
  Canonicalize();
  return *this;
}

LinExpr& LinExpr::operator-=(const LinExpr& o) {
  constant -= o.constant;
  for (const auto& [c, v] : o.terms) terms.push_back({-c, v});
  Canonicalize();
  return *this;
}

LinExpr& LinExpr::MulBy(int64_t k) {
  constant *= k;
  if (k == 0) {
    terms.clear();
    return *this;
  }
  for (auto& [c, v] : terms) c *= k;
  return *this;
}

void LinExpr::Canonicalize() {
  if (terms.empty()) return;
  std::map<int32_t, int64_t> merged;
  for (const auto& [c, v] : terms) merged[v.id] += c;
  terms.clear();
  for (const auto& [id, c] : merged) {
    if (c != 0) terms.push_back({c, IntVar{id}});
  }
}

std::string LinExpr::ToString() const {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i) out += " + ";
    out += std::to_string(terms[i].first) + "*x" + std::to_string(terms[i].second.id);
  }
  if (constant != 0 || terms.empty()) {
    if (!terms.empty()) out += " + ";
    out += std::to_string(constant);
  }
  return out;
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kBranchAndBound: return "bnb";
    case Backend::kLns: return "lns";
    case Backend::kPortfolio: return "portfolio";
    case Backend::kParallelLns: return "parallel_lns";
    case Backend::kLocalSearch: return "local_search";
  }
  return "?";
}

bool ParseBackend(const std::string& name, Backend* out) {
  if (name == "bnb" || name == "branch_and_bound") {
    *out = Backend::kBranchAndBound;
    return true;
  }
  if (name == "lns") {
    *out = Backend::kLns;
    return true;
  }
  if (name == "portfolio") {
    *out = Backend::kPortfolio;
    return true;
  }
  if (name == "parallel_lns") {
    *out = Backend::kParallelLns;
    return true;
  }
  if (name == "local_search") {
    *out = Backend::kLocalSearch;
    return true;
  }
  return false;
}

namespace {

using S = SolveStats;
constexpr CounterMerge kSum = CounterMerge::kSum;
constexpr CounterMerge kMax = CounterMerge::kMax;
constexpr CounterMerge kNone = CounterMerge::kNone;

const CounterSpec kCounters[] = {
    {"nodes", &S::nodes, kSum, "solve.nodes"},
    {"failures", &S::failures, kSum, "solve.failures"},
    {"solutions", &S::solutions, kSum},
    {"propagations", &S::propagations, kSum, "solve.propagations"},
    {"wakes_filtered", &S::wakes_filtered, kSum, "solve.wakes_filtered",
     true},
    {"props_skipped_entailed", &S::props_skipped_entailed, kSum,
     "solve.props_skipped_entailed", true},
    {"iterations", &S::iterations, kSum, "solve.iterations"},
    {"restarts", &S::restarts, kSum, "solve.restarts"},
    // lns_accepted is deliberately not merged: a cancelled race makes the
    // sum nondeterministic and the runtime emits an "lns.accepted" metric
    // only when it is nonzero, which would poison byte-identical traces.
    {"lns_accepted", &S::lns_accepted, kNone, "lns.accepted", true},
    {"ls_moves", &S::ls_moves, kSum},
    {"ls_accepted", &S::ls_accepted, kSum},
    {"ls_tabu_hits", &S::ls_tabu_hits, kSum},
    {"trail_saves", &S::trail_saves, kSum},
    {"cache_hits", &S::cache_hits, kSum, "solve.cache.hits", true},
    {"cache_stores", &S::cache_stores, kSum},
    {"cache_mem_bytes", &S::cache_mem_bytes, kMax},
    // The subproblem solver counts steals and subproblems on its queue.
    {"steals", &S::steals, kNone, "solve.steals", true},
    {"subproblems", &S::subproblems, kNone},
    {"peak_mem_bytes", &S::peak_memory_bytes, kMax},
};

}  // namespace

std::span<const CounterSpec> CounterTable() { return kCounters; }

void MergeWorkerStats(const SolveStats& worker, SolveStats* total) {
  for (const CounterSpec& c : kCounters) {
    uint64_t& t = total->*c.field;
    const uint64_t w = worker.*c.field;
    switch (c.merge) {
      case CounterMerge::kSum: t += w; break;
      case CounterMerge::kMax: t = std::max(t, w); break;
      case CounterMerge::kNone: break;
    }
  }
}

const char* SolveStatusName(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnknown: return "unknown";
  }
  return "?";
}

}  // namespace cologne::solver
