// Shared scenario-driver knobs, hoisted from FtsConfig / WirelessConfig /
// ACloudConfig (which duplicated them verbatim), plus the helpers that turn
// them into runtime::System::Options / SolveOptions / SolveRequest in one
// place instead of three per-driver copies.
#ifndef COLOGNE_APPS_COMMON_CONFIG_H_
#define COLOGNE_APPS_COMMON_CONFIG_H_

#include <cstdint>
#include <optional>

#include "runtime/solver_bridge.h"
#include "runtime/system.h"

namespace cologne::apps {

/// Knobs every scenario driver shares. Scenario configs inherit this; their
/// constructors override the seed default (11 for Follow-the-Sun, 3 for
/// wireless, 7 for ACloud — the historical per-scenario defaults).
struct CommonConfig {
  uint64_t seed = 1;
  /// Carry traffic over the retransmission/FIFO reliable transport
  /// (net/reliable_channel.h). Loss then no longer causes divergence.
  bool net_reliable = false;
  /// Deterministic observability: metrics registry + per-round `metrics`
  /// trace snapshots + solve provenance (see docs/observability.md).
  bool obs_metrics = false;
  /// Uniform per-message drop probability on every link (composes with
  /// fault-plan loss windows). Distributed drivers only.
  double link_loss_prob = 0;
  /// Batch per-link solves: each round an initiator aggregates all its
  /// claimable incident links into ONE grouped model solve instead of
  /// negotiating one link per round.
  bool batch_links = false;
  /// Cap on links per batched solve; 0 = unlimited.
  int max_link_batch = 0;
  /// Override the program's SOLVER_BACKEND for the driver's solves; unset
  /// keeps the program default. Tools parse the spelling at their edge.
  std::optional<solver::Backend> solver_backend;
  /// Deterministic improvement budget forwarded to
  /// SolveOptions::max_iterations; 0 = wall-clock bounded.
  uint64_t solver_max_iterations = 0;
  /// Route the driver's solves through the incremental fact-delta path
  /// (SolveMode::kIncremental): decision groups whose model fingerprint is
  /// unchanged stay pinned to the previous incumbent while search focuses
  /// on the dirtied ones. Off = the historical cold-solve behavior.
  bool solver_incremental = false;
};

/// System::Options from the shared knobs (seed, reliable transport,
/// observability, uniform loss).
runtime::System::Options MakeSystemOptions(const CommonConfig& config);

/// Overlay the shared solver knobs on an instance's resolved options
/// (read-modify-write, so program-declared SOLVER_* knobs survive wherever
/// the config does not override them). `time_limit_ms` < 0 keeps the base
/// time budget.
runtime::SolveOptions OverlaySolveOptions(const CommonConfig& config,
                                          runtime::SolveOptions base,
                                          double time_limit_ms);

/// The SolveRequest a driver's solve should issue under these knobs:
/// kIncremental when solver_incremental is set, else kBatched when
/// batch_links is, else kFull. `batched_prefix` is the decision-group key
/// prefix of the grouped modes (2 = per-(X, Y) link).
runtime::SolveRequest MakeSolveRequest(const CommonConfig& config,
                                       int batched_prefix);

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_COMMON_CONFIG_H_
