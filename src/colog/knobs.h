// The reserved runtime knobs of Colog, declared once: ALL-CAPS `param`
// names that configure the runtime rather than the program (the paper's
// SOLVER_MAX_TIME, Section 4.2, plus this implementation's backend,
// transport and observability knobs). The parser, the planner, doccheck
// and the knob tests read KnobTable(); runtime::ResolveSolveOptions and
// runtime::System apply the stored values. Adding a knob takes one table
// row, one apply line there, and one row in docs/colog-reference.md.
#ifndef COLOGNE_COLOG_KNOBS_H_
#define COLOGNE_COLOG_KNOBS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"
#include "common/value.h"
#include "solver/types.h"

namespace cologne::colog {

/// Knob values a program declared; unset optionals leave the runtime
/// defaults alone. Field meanings are the KnobTable() doc lines.
struct SolverKnobsIR {
  std::optional<double> max_time_ms;           ///< SOLVER_MAX_TIME
  std::optional<solver::Backend> backend;      ///< SOLVER_BACKEND
  std::optional<uint64_t> seed;                ///< SOLVER_SEED
  std::optional<uint64_t> restart_base_nodes;  ///< SOLVER_RESTARTS
  std::optional<uint64_t> workers;             ///< SOLVER_WORKERS
  std::optional<bool> net_reliable;            ///< NET_RELIABLE
  std::optional<bool> obs_metrics;             ///< OBS_METRICS
  std::optional<bool> incremental;             ///< SOLVER_INCREMENTAL
  std::optional<uint64_t> incr_threshold_pct;  ///< SOLVER_INCR_THRESHOLD
  std::optional<bool> cache;                   ///< SOLVER_CACHE
  std::optional<uint64_t> subproblems;         ///< SOLVER_SUBPROBLEMS
};

/// How a knob's literal is spelled; the order matches KnobSpec::field.
enum class KnobType : uint8_t {
  kFlag,        ///< 0 or 1.
  kInt,         ///< Integer in [KnobSpec::min, KnobSpec::max].
  kPositiveMs,  ///< Positive number of milliseconds.
  kBackend,     ///< A string solver::ParseBackend accepts.
};

/// One row of the knob table.
struct KnobSpec {
  const char* name;
  /// Where the value is stored; the alternative held is the knob's type.
  std::variant<std::optional<bool> SolverKnobsIR::*,
               std::optional<uint64_t> SolverKnobsIR::*,
               std::optional<double> SolverKnobsIR::*,
               std::optional<solver::Backend> SolverKnobsIR::*>
      field;
  const char* doc;
  int64_t min = 0;  ///< Inclusive range of a kInt knob.
  int64_t max = 0;

  KnobType type() const { return static_cast<KnobType>(field.index()); }
};

/// Every reserved knob, in documentation order.
std::span<const KnobSpec> KnobTable();

/// The row named `name`, or nullptr for names that are not knobs.
const KnobSpec* FindKnob(std::string_view name);

/// Validate the knobs among a program's parameters into `knobs`. A SOLVER_*
/// name that is not a knob fails with "unknown solver knob"; a value of the
/// wrong type or range fails with an error naming the knob.
Status ExtractKnobs(const std::map<std::string, Value>& params,
                    SolverKnobsIR* knobs);

}  // namespace cologne::colog

#endif  // COLOGNE_COLOG_KNOBS_H_
