#include "solver/portfolio.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "solver/context_cache.h"
#include "solver/lns.h"
#include "solver/search_internal.h"
#include "solver/sync.h"

namespace cologne::solver {

namespace {

// Decorrelate per-worker seeds from the base seed so two workers never
// replay the same randomized walk.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return SplitMix64(seed + 0x9E3779B97F4A7C15ull * salt);
}

struct WorkerConfig {
  Model::Options options;
  std::string label;
};

// Race width actually used. Wall-clock-bounded solves are capped at the
// hardware thread count: time-slicing N workers over fewer cores starves
// every one of them of its share of the deadline (each would get budget/N of
// CPU), so oversubscribing strictly loses. Deterministic budgets (node or
// iteration limits with no wall clock) are per-worker CPU work and immune to
// time-slicing, so the requested width always races — which also keeps the
// shared-incumbent machinery exercised on single-core CI runners.
int EffectiveWorkers(const Model::Options& options) {
  // 256 mirrors the planner's SOLVER_WORKERS bound; C++ callers bypass that
  // validation, and an unbounded request would abort on thread exhaustion.
  int workers = std::clamp(options.num_workers, 1, 256);
  if (options.time_limit_ms > 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) workers = std::min(workers, static_cast<int>(hw));
  }
  return workers;
}

size_t CountDecisions(const Model& model) {
  size_t n = 0;
  for (size_t id = 0; id < model.num_vars(); ++id) {
    if (model.IsDecision(IntVar{static_cast<int32_t>(id)})) ++n;
  }
  return n > 0 ? n : model.num_vars();
}

// One per_worker entry: the worker's own work counters plus its record of
// wins on the shared incumbent.
WorkerSolveStats WorkerEntry(std::string config, const SolveStats& ws,
                             const IncumbentStore& store, int worker) {
  WorkerSolveStats w;
  w.config = std::move(config);
  w.nodes = ws.nodes;
  w.iterations = ws.iterations;
  w.restarts = ws.restarts;
  const IncumbentStore::WorkerMark mark = store.mark(worker);
  w.improvements = mark.improvements;
  w.last_improve_ms = mark.last_improve_ms;
  return w;
}

// Run every configured worker to completion on its own thread and merge the
// race outcome. Each worker's backend builds its own SearchContext — and
// with it its own trailed DomainStore, so the in-place domain mutation never
// crosses threads; only the IncumbentStore and CancelToken are shared. Each
// worker publishes improvements into `store` as it finds them
// (SearchContext::RecordSolution); a worker whose Solve returns a proof
// (kOptimal / kInfeasible) cancels the rest of the race.
Solution RunRace(const Model& model, std::vector<WorkerConfig> configs,
                 IncumbentStore& store, CancelToken& cancel,
                 const ContextCache* cache_proto) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = configs.size();
  // The context cache is single-threaded (WorkerBase nulled the caller's
  // pointer); a caching race hands each worker a private cache under the
  // same model key instead.
  std::vector<std::unique_ptr<ContextCache>> caches;
  if (cache_proto != nullptr) {
    caches.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      caches.push_back(std::make_unique<ContextCache>());
      caches.back()->set_model_key(cache_proto->model_key());
      configs[i].options.context_cache = caches.back().get();
    }
  }
  std::vector<Solution> results(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&model, &configs, &results, &store, &cancel, i] {
      const Model::Options& opts = configs[i].options;
      Solution s = MakeSearchBackend(opts.backend)->Solve(model, opts);
      // Final publication is normally redundant (improvements stream out of
      // RecordSolution) but covers solutions adopted-then-kept verbatim.
      if (s.has_solution()) store.Offer(s.objective, s.values, static_cast<int>(i));
      if (s.status == SolveStatus::kOptimal ||
          s.status == SolveStatus::kInfeasible) {
        cancel.Cancel();
      }
      results[i] = std::move(s);
    });
  }
  for (std::thread& t : threads) t.join();

  Solution out;
  SolveStats& st = out.stats;
  bool any_proof = false;
  bool any_infeasible = false;
  for (size_t i = 0; i < n; ++i) {
    MergeWorkerStats(results[i].stats, &st);
    any_proof |= results[i].status == SolveStatus::kOptimal ||
                 results[i].status == SolveStatus::kInfeasible;
    any_infeasible |= results[i].status == SolveStatus::kInfeasible;
    st.per_worker.push_back(WorkerEntry(std::move(configs[i].label),
                                        results[i].stats, store,
                                        static_cast<int>(i)));
  }

  int winner = -1;
  int64_t objective = 0;
  std::vector<int64_t> values;
  if (store.Snapshot(&objective, &values, &winner)) {
    out.values = std::move(values);
    out.objective = objective;
    // Any worker that finished with a proof certifies the shared best: a
    // complete search that exhausted while pruning against the shared bound
    // shows nothing strictly better exists — even when it reports
    // kInfeasible because the bound cut away its whole local tree.
    out.status = any_proof ? SolveStatus::kOptimal : SolveStatus::kFeasible;
    if (winner >= 0 && static_cast<size_t>(winner) < st.per_worker.size()) {
      st.per_worker[static_cast<size_t>(winner)].winner = true;
    }
  } else {
    // No worker published a solution: infeasibility only on a real proof.
    out.status =
        any_infeasible ? SolveStatus::kInfeasible : SolveStatus::kUnknown;
  }
  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  return out;
}

// Worker options common to both backends: sequential sub-backend wired to
// the race's shared state. Every worker inherits the caller's warm-start
// hint, so the runtime's cross-solve cache seeds the whole race.
Model::Options WorkerBase(const Model::Options& base, IncumbentStore* store,
                          CancelToken* cancel, int worker) {
  Model::Options o = base;
  o.num_workers = 1;
  o.shared = store;
  o.cancel = cancel;
  o.worker_id = worker;
  // The caller's context cache is single-threaded; workers that want one get
  // a private cache from their launcher (RunRace / SubproblemSolve).
  o.context_cache = nullptr;
  return o;
}

// Replay a subproblem's decision prefix on a fresh trail level of `ctx`,
// apply the incumbent bound, and propagate. False when the prefix is
// infeasible under the current bound (the caller backtracks either way).
bool ReplayPrefix(internal::SearchContext& ctx, const Subproblem& sp,
                  const internal::Incumbent& inc) {
  std::vector<int32_t> changed;
  changed.reserve(sp.assignment.size() + 1);
  for (const auto& [id, value] : sp.assignment) {
    if (!ctx.store().dom(id).Contains(value)) {
      // Failing without propagating: drop the wakes the earlier assignments
      // of this prefix enqueued (the caller backtracks their level).
      ctx.engine().DrainQueue();
      return false;
    }
    ctx.store().Assign(id, value);
    changed.push_back(id);
  }
  if (!ctx.ApplyBound(&changed, inc)) {
    ctx.engine().DrainQueue();
    return false;
  }
  if (changed.empty()) return true;
  return ctx.engine().PropagateFrom(ctx.store(), changed, &ctx.stats);
}

// Subproblem-parallel branch-and-bound (SOLVER_SUBPROBLEMS > 0 with more
// than one worker): instead of racing heterogeneous full-tree searches, a
// master thread seeds an incumbent with limited-discrepancy probes, expands
// the root breadth-first into ~max(subproblems, workers) bounded frontier
// nodes (decision-prefix assignment + the pruning bound at generation time),
// and closes a shared SubproblemQueue. Workers then steal subproblems,
// replay the prefix on their own trailed store, and exhaust the subtree
// under the shared incumbent bound — the DAOOPT parallel scheme: one search
// tree partitioned across workers rather than N overlapping trees.
//
// Completeness: the frontier partitions the root's subtree (every child
// value of every expanded node is either pruned by propagation/bound/
// context-cache proof — each a sound refutation — or enqueued). If
// expansion finished and every stolen subproblem
// was fully exhausted with none left unstolen, the combined search is
// complete: kOptimal / kInfeasible. Any cutoff or leftover subproblem
// downgrades to kFeasible / kUnknown.
Solution SubproblemSolve(const Model& model, const Model::Options& base,
                         int workers) {
  using internal::DiveEnd;
  using internal::Incumbent;
  using internal::SearchContext;

  const auto start = std::chrono::steady_clock::now();
  // Worker 0 is the master; stealing workers are 1..workers.
  IncumbentStore store(model.sense() != Sense::kMaximize, workers + 1);
  CancelToken cancel(base.cancel);
  Solution out;

  // Master phase is single-threaded, so it may use the caller's cache
  // directly (cross-solve hits prune frontier expansion too).
  Model::Options master_opts = WorkerBase(base, &store, &cancel, 0);
  master_opts.context_cache = base.context_cache;
  SearchContext master(model, master_opts);
  Incumbent minc;

  if (!master.PropagateRoot()) {
    master.FinalizeStats();
    out.stats = master.stats;
    out.status = SolveStatus::kInfeasible;
    return out;
  }
  const int root = master.root_level();

  // Seed the shared incumbent before expanding, so frontier generation and
  // every steal prune against a real bound from the start: first the
  // warm-start hint (when assimilable), then limited-discrepancy probes of
  // increasing budget against the value-ordering heuristic.
  {
    size_t applied = 0;
    if (master.ApplyWarmStart(&applied)) {
      SearchContext::DiveLimits seed;
      seed.stop_on_first = true;
      seed.bound_objective = false;
      seed.node_budget = 4'000;
      master.Dive(seed, &minc);
      master.store().BacktrackTo(root);
    }
  }
  for (int64_t d : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{4}}) {
    if (minc.found || master.ShouldStop()) break;
    SearchContext::DiveLimits probe;
    probe.stop_on_first = true;
    probe.bound_objective = false;
    probe.node_budget = 4'000;
    probe.max_discrepancies = d;
    if (!base.warm_start.empty()) probe.hint = &base.warm_start;
    master.Dive(probe, &minc);
  }
  if (model.sense() == Sense::kSatisfy && minc.found) {
    // Satisfaction is terminal on the first solution: nothing to partition.
    master.FinalizeStats();
    out.stats = master.stats;
    out.values = std::move(minc.values);
    out.objective = minc.objective;
    out.status = SolveStatus::kOptimal;
    return out;
  }

  // Breadth-first frontier expansion: repeatedly replace the oldest frontier
  // node by its surviving children until the frontier is wide enough for the
  // worker pool (or the root's subtree ran out of open nodes first).
  SubproblemQueue queue;
  bool expansion_complete = true;
  const size_t target = std::max<size_t>(
      static_cast<size_t>(base.subproblems), static_cast<size_t>(workers));
  std::deque<Subproblem> frontier;
  frontier.push_back(Subproblem{});
  while (!frontier.empty() && frontier.size() < target) {
    if (master.ShouldStop()) {
      expansion_complete = false;
      break;
    }
    Subproblem sp = std::move(frontier.front());
    frontier.pop_front();
    master.store().PushLevel();
    if (!ReplayPrefix(master, sp, minc)) {
      ++master.stats.failures;
      master.store().Backtrack();
      continue;
    }
    size_t watermark = 0;
    IntVar v = master.order().Select(master.store(), &watermark);
    if (!v.valid()) {
      // The prefix propagates to a full assignment: a solved leaf, not a
      // subproblem.
      master.RecordSolution(&minc);
      master.store().Backtrack();
      continue;
    }
    std::vector<int64_t> values;
    master.store().dom(v.id).AppendValues(&values);
    for (int64_t value : values) {
      ++master.stats.nodes;
      master.store().PushLevel();
      master.store().Assign(v.id, value);
      std::vector<int32_t> changed{v.id};
      bool child_ok = master.ApplyBound(&changed, minc);
      if (!child_ok) {
        // Bound clamp emptied the objective before propagation ran: the
        // child assignment's wakes die with the level.
        master.engine().DrainQueue();
      } else {
        child_ok = master.engine().PropagateFrom(master.store(), changed,
                                                 &master.stats);
      }
      // A cached exhausted-subtree proof covering the enqueue-time bound is
      // as good as a propagation failure: the child's subtree holds nothing
      // better than the incumbent, so it needs no subproblem. This is where
      // the caller's persistent cache prunes frontier expansion itself.
      const bool cache_pruned =
          child_ok && master.CacheCoversCurrentContext(minc);
      master.store().Backtrack();
      if (!child_ok) {
        ++master.stats.failures;
        continue;
      }
      if (cache_pruned) continue;
      Subproblem child;
      child.assignment = sp.assignment;
      child.assignment.emplace_back(v.id, value);
      child.have_bound = master.EffectiveBound(minc, &child.bound);
      frontier.push_back(std::move(child));
    }
    master.store().Backtrack();
  }
  for (Subproblem& sp : frontier) queue.Push(std::move(sp));

  // Worker phase: steal until the queue drains. Each worker owns a private
  // store, propagation engine, and (when caching) context cache; only the
  // incumbent store, cancel token, and queue are shared.
  struct WorkerOut {
    SolveStats stats;
    uint64_t steals = 0;
    bool exhausted_all = true;  ///< Every stolen subproblem fully explored.
    bool terminal = false;      ///< Satisfy-sense solution ended the solve.
  };
  std::vector<WorkerOut> wouts(static_cast<size_t>(workers));
  if (queue.size() > 0) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&model, &base, &store, &cancel, &queue, &wouts,
                            w] {
        WorkerOut& wo = wouts[static_cast<size_t>(w)];
        Model::Options wopts = WorkerBase(base, &store, &cancel, w + 1);
        std::unique_ptr<ContextCache> wcache;
        if (base.context_cache != nullptr) {
          wcache = std::make_unique<ContextCache>();
          wcache->set_model_key(base.context_cache->model_key());
          wopts.context_cache = wcache.get();
        }
        SearchContext ctx(model, wopts);
        Incumbent inc;
        uint64_t seen = 0;
        if (!ctx.PropagateRoot()) {
          // Cannot happen after the master propagated the same root, but
          // keep the worker well-defined regardless.
          ctx.FinalizeStats();
          wo.stats = ctx.stats;
          return;
        }
        Subproblem sp;
        while (queue.Steal(&sp)) {
          ++wo.steals;
          if (ctx.ShouldStop()) {
            // Stolen but not searched: the partition is no longer covered.
            wo.exhausted_all = false;
            break;
          }
          ctx.AdoptShared(&inc, &seen);
          if (sp.have_bound && !inc.found) {
            // The master's generation-time bound arrives even when the
            // incumbent assignment itself has not been adopted yet.
            inc.found = true;
            inc.objective = sp.bound;
          }
          ctx.store().PushLevel();
          if (ReplayPrefix(ctx, sp, inc)) {
            SearchContext::DiveLimits dive;
            if (!base.warm_start.empty()) dive.hint = &base.warm_start;
            const DiveEnd end = ctx.Dive(dive, &inc);
            if (end == DiveEnd::kCutoff) wo.exhausted_all = false;
            if (end == DiveEnd::kFirstSolution &&
                model.sense() == Sense::kSatisfy) {
              // Satisfy-sense dives stop at the first solution; it is
              // terminal for the whole solve. For optimizing senses a
              // worker dive (stop_on_first off) reports kFirstSolution only
              // when the replayed prefix propagated to a full assignment at
              // dive entry — a single leaf Dive already recorded and
              // offered. That subproblem is merely exhausted: treating it
              // as terminal would cancel the race and claim kOptimal with
              // possibly-better subproblems still unstolen.
              wo.terminal = true;
              ctx.store().Backtrack();
              cancel.Cancel();
              break;
            }
          } else {
            ++ctx.stats.failures;
          }
          ctx.store().Backtrack();
        }
        ctx.FinalizeStats();
        wo.stats = ctx.stats;
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Merge: master counters plus per-worker sums; the frontier/steal counters
  // come from the queue itself.
  master.FinalizeStats();
  SolveStats& st = out.stats;
  st = master.stats;
  st.subproblems = queue.pushed();
  st.per_worker.push_back(WorkerEntry("frontier+lds", master.stats, store, 0));
  bool all_exhausted = expansion_complete;
  bool terminal = false;
  for (int w = 0; w < workers; ++w) {
    const WorkerOut& wo = wouts[static_cast<size_t>(w)];
    MergeWorkerStats(wo.stats, &st);
    all_exhausted &= wo.exhausted_all;
    terminal |= wo.terminal;
    st.per_worker.push_back(
        WorkerEntry(StrFormat("steal(worker=%d,subproblems=%llu)", w + 1,
                              static_cast<unsigned long long>(wo.steals)),
                    wo.stats, store, w + 1));
  }
  st.steals = queue.steals();
  // Leftover subproblems (workers stopped stealing early) mean the
  // partition was not fully covered.
  if (queue.size() > 0) all_exhausted = false;

  int winner = -1;
  int64_t objective = 0;
  std::vector<int64_t> values;
  if (store.Snapshot(&objective, &values, &winner)) {
    out.values = std::move(values);
    out.objective = objective;
    out.status = (all_exhausted || terminal) ? SolveStatus::kOptimal
                                             : SolveStatus::kFeasible;
    if (winner >= 0 && static_cast<size_t>(winner) < st.per_worker.size()) {
      st.per_worker[static_cast<size_t>(winner)].winner = true;
    }
  } else {
    out.status =
        all_exhausted ? SolveStatus::kInfeasible : SolveStatus::kUnknown;
  }
  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  return out;
}

// The portfolio mix, cycled over workers: complete B&B (can prove
// optimality), an LNS walk with the caller's seed, B&B with Luby restarts,
// further LNS walks with distinct seeds and relax-k, and — from the fifth
// worker on — SA+tabu local-search walks with mixed seeds.
std::vector<WorkerConfig> BuildPortfolio(const Model& model,
                                         const Model::Options& base,
                                         int workers, IncumbentStore* store,
                                         CancelToken* cancel) {
  const size_t decisions = CountDecisions(model);
  std::vector<WorkerConfig> configs;
  configs.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    WorkerConfig cfg;
    cfg.options = WorkerBase(base, store, cancel, i);
    Model::Options& o = cfg.options;
    switch (i % 5) {
      case 0:
        o.backend = Backend::kBranchAndBound;
        if (i == 0) {
          cfg.label =
              o.restart_base_nodes > 0
                  ? StrFormat("bnb+luby(%llu)", static_cast<unsigned long long>(
                                                    o.restart_base_nodes))
                  : "bnb";
        } else {
          // Second and later rounds of the cycle: plain B&B would replay
          // round one's deterministic tree, so diversify with a mixed seed
          // and a restart base distinct from the case-2 workers'.
          o.seed = MixSeed(base.seed, static_cast<uint64_t>(i));
          o.restart_base_nodes =
              (base.restart_base_nodes > 0 ? base.restart_base_nodes : 256)
              << std::min(i / 4, 4);
          cfg.label = StrFormat(
              "bnb+luby(%llu)",
              static_cast<unsigned long long>(o.restart_base_nodes));
        }
        break;
      case 1:
        o.backend = Backend::kLns;
        o.seed = i == 1 ? base.seed : MixSeed(base.seed, static_cast<uint64_t>(i));
        cfg.label = StrFormat("lns(seed=%llu)",
                              static_cast<unsigned long long>(o.seed));
        break;
      case 2:
        o.backend = Backend::kBranchAndBound;
        o.restart_base_nodes =
            base.restart_base_nodes > 0 ? base.restart_base_nodes : 512;
        o.seed = MixSeed(base.seed, static_cast<uint64_t>(i));
        cfg.label = StrFormat(
            "bnb+luby(%llu)",
            static_cast<unsigned long long>(o.restart_base_nodes));
        break;
      case 3: {
        o.backend = Backend::kLns;
        o.seed = MixSeed(base.seed, static_cast<uint64_t>(i));
        // Distinct relax-k per walk: alternate tight and wide neighborhoods
        // around the adaptive default.
        o.lns_relax_base = (i / 4) % 2 == 0
                               ? 2
                               : static_cast<uint64_t>(decisions / 4 + 1);
        cfg.label = StrFormat("lns(seed=%llu,k=%llu)",
                              static_cast<unsigned long long>(o.seed),
                              static_cast<unsigned long long>(o.lns_relax_base));
        break;
      }
      default:
        o.backend = Backend::kLocalSearch;
        o.seed = MixSeed(base.seed, static_cast<uint64_t>(i));
        cfg.label = StrFormat("local_search(seed=%llu)",
                              static_cast<unsigned long long>(o.seed));
        break;
    }
    configs.push_back(std::move(cfg));
  }
  return configs;
}

}  // namespace

Solution PortfolioSearch::Solve(const Model& model,
                                const Model::Options& options) const {
  const int workers = EffectiveWorkers(options);
  // Subproblem mode: partition one search tree across the pool instead of
  // racing heterogeneous full-tree configurations.
  if (options.subproblems > 0 && workers > 1) {
    return SubproblemSolve(model, options, workers);
  }
  IncumbentStore store(model.sense() != Sense::kMaximize, workers);
  CancelToken cancel(options.cancel);
  return RunRace(model,
                 BuildPortfolio(model, options, workers, &store, &cancel),
                 store, cancel, options.context_cache);
}

Solution ParallelLnsSearch::Solve(const Model& model,
                                  const Model::Options& options) const {
  const int workers = EffectiveWorkers(options);
  // Single worker: run the sequential backend untouched (no shared state, no
  // extra thread) so a fixed seed reproduces LnsSearch bit-for-bit.
  if (workers == 1) return LnsSearch().Solve(model, options);
  // Subproblem mode: steal bounded subtrees from a shared frontier instead
  // of running N overlapping neighborhood walks.
  if (options.subproblems > 0) {
    return SubproblemSolve(model, options, workers);
  }

  IncumbentStore store(model.sense() != Sense::kMaximize, workers);
  CancelToken cancel(options.cancel);
  const size_t decisions = CountDecisions(model);
  std::vector<WorkerConfig> configs;
  configs.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    WorkerConfig cfg;
    cfg.options = WorkerBase(options, &store, &cancel, i);
    Model::Options& o = cfg.options;
    o.backend = Backend::kLns;
    o.seed = i == 0 ? options.seed : MixSeed(options.seed, static_cast<uint64_t>(i));
    // Every third walk explores wide neighborhoods; the rest keep the
    // caller's (or adaptive) relax-k.
    if (i % 3 == 2) o.lns_relax_base = static_cast<uint64_t>(decisions / 4 + 1);
    cfg.label =
        o.lns_relax_base > 0
            ? StrFormat("lns(seed=%llu,k=%llu)",
                        static_cast<unsigned long long>(o.seed),
                        static_cast<unsigned long long>(o.lns_relax_base))
            : StrFormat("lns(seed=%llu)",
                        static_cast<unsigned long long>(o.seed));
    configs.push_back(std::move(cfg));
  }
  return RunRace(model, std::move(configs), store, cancel,
                 options.context_cache);
}

}  // namespace cologne::solver
