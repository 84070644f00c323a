#include "colog/knobs.h"

#include <cstring>
#include <limits>

namespace cologne::colog {

namespace {

constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();

using K = SolverKnobsIR;

// The SOLVER_WORKERS and SOLVER_SUBPROBLEMS caps keep a typo from forking
// an unbounded thread race or expanding an enormous subproblem queue.
const KnobSpec kKnobs[] = {
    {"SOLVER_MAX_TIME", &K::max_time_ms, "Per-solve wall-clock budget."},
    {"SOLVER_BACKEND", &K::backend, "Search strategy."},
    {"SOLVER_SEED", &K::seed, "Seed for randomized search.", 0, kNoMax},
    {"SOLVER_RESTARTS", &K::restart_base_nodes,
     "Luby restart base in nodes for bnb; 0 is off.", 0, kNoMax},
    {"SOLVER_WORKERS", &K::workers, "Concurrent-backend threads.", 1, 256},
    {"NET_RELIABLE", &K::net_reliable, "Reliable FIFO transport."},
    {"OBS_METRICS", &K::obs_metrics, "Metrics, snapshots and provenance."},
    {"SOLVER_INCREMENTAL", &K::incremental, "Incremental re-solve."},
    {"SOLVER_INCR_THRESHOLD", &K::incr_threshold_pct,
     "Dirty-group percentage above which a re-solve runs cold.", 0, 100},
    {"SOLVER_CACHE", &K::cache, "Context cache of exhausted subtrees."},
    {"SOLVER_SUBPROBLEMS", &K::subproblems,
     "Subproblem-parallel B&B width; 0 is off.", 0, 4096},
};

// Store `v` in the knob's field if it has the knob's type and range.
bool Store(const KnobSpec& knob, const Value& v, SolverKnobsIR* knobs) {
  switch (knob.type()) {
    case KnobType::kFlag:
      if (!v.is_int() || (v.as_int() != 0 && v.as_int() != 1)) return false;
      knobs->*std::get<0>(knob.field) = v.as_int() == 1;
      return true;
    case KnobType::kInt:
      if (!v.is_int() || v.as_int() < knob.min || v.as_int() > knob.max) {
        return false;
      }
      knobs->*std::get<1>(knob.field) = static_cast<uint64_t>(v.as_int());
      return true;
    case KnobType::kPositiveMs:
      if (!v.is_numeric() || v.as_double() <= 0) return false;
      knobs->*std::get<2>(knob.field) = v.as_double();
      return true;
    case KnobType::kBackend: {
      solver::Backend b;
      if (!v.is_string() || !solver::ParseBackend(v.as_string(), &b)) {
        return false;
      }
      knobs->*std::get<3>(knob.field) = b;
      return true;
    }
  }
  return false;
}

// The accepted values, as the validation error states them.
std::string RangeText(const KnobSpec& knob) {
  switch (knob.type()) {
    case KnobType::kFlag:
      return "0 or 1";
    case KnobType::kInt:
      if (knob.max == kNoMax) {
        return "an integer >= " + std::to_string(knob.min);
      }
      return "an integer in [" + std::to_string(knob.min) + ", " +
             std::to_string(knob.max) + "]";
    case KnobType::kPositiveMs:
      return "a positive number of milliseconds";
    case KnobType::kBackend: {
      // Every spelling BackendName prints: the enum is dense from 0, and
      // BackendName answers "?" past its last value.
      std::string out = "one of";
      for (int i = 0;; ++i) {
        const char* name =
            solver::BackendName(static_cast<solver::Backend>(i));
        if (std::strcmp(name, "?") == 0) return out;
        out += (i == 0 ? " \"" : ", \"") + std::string(name) + '"';
      }
    }
  }
  return "";
}

}  // namespace

std::span<const KnobSpec> KnobTable() { return kKnobs; }

const KnobSpec* FindKnob(std::string_view name) {
  for (const KnobSpec& knob : kKnobs) {
    if (name == knob.name) return &knob;
  }
  return nullptr;
}

Status ExtractKnobs(const std::map<std::string, Value>& params,
                    SolverKnobsIR* knobs) {
  for (const auto& [name, value] : params) {
    const KnobSpec* knob = FindKnob(name);
    if (knob == nullptr) {
      if (name.rfind("SOLVER_", 0) != 0) continue;
      return Status::PlanError("unknown solver knob " + name);
    }
    if (!Store(*knob, value, knobs)) {
      return Status::PlanError(name + " must be " + RangeText(*knob) +
                               ", got " + value.ToString());
    }
  }
  return Status::OK();
}

}  // namespace cologne::colog
