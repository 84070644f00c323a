// Pluggable search backends (the Model::Solve strategy layer).
//
// The paper treats the solver as a black box invoked once per invokeSolver
// event (Sections 4.2/5.3); this interface makes the strategy behind that
// black box swappable. Five backends ship today (solver::Backend): the
// complete trailed depth-first branch-and-bound (search.cc, optionally with
// Luby restarts), an anytime Large Neighborhood Search (lns.cc), a
// shift/swap local search (local_search.cc), and the concurrent portfolio
// and parallel LNS (portfolio.cc).
#ifndef COLOGNE_SOLVER_SEARCH_BACKEND_H_
#define COLOGNE_SOLVER_SEARCH_BACKEND_H_

#include <memory>

#include "solver/model.h"

namespace cologne::solver {

/// \brief A search strategy that executes one Model::Solve call.
///
/// Backends are stateless across Solve calls; cross-solve state (e.g. the
/// warm-start hint fed back by the runtime's solver bridge) travels through
/// Model::Options.
class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Run search on `model` under `options`. Never mutates the model.
  virtual Solution Solve(const Model& model,
                         const Model::Options& options) const = 0;

  /// Stable identifier, matching BackendName().
  virtual const char* name() const = 0;
};

/// Factory for the built-in backends.
std::unique_ptr<SearchBackend> MakeSearchBackend(Backend backend);

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_SEARCH_BACKEND_H_
