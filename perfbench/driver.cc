// Repo benchmark driver: two closed-loop, single-client workloads that each
// load a different Cologne layer, driven through the public API
// (colog::CompileColog -> runtime::System / Instance fact calls and Solve ->
// System::RunUntil / RunToQuiescence) so every layer call is this file's own
// call and can be timed from the outside.
//
//   perfbench_driver --workload <acloud_replay|wireless_churn>
//                    --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// One run repeats the workload (a fresh deployment each time) for at most
// `--seconds`: it starts no repetition that the longest one so far would
// carry past that. Every solve has a deterministic budget (an
// iteration and/or node cap, time_limit_ms = 0), so the work of a repetition
// depends on the seed alone: the exact-repeat guard checks that objective and
// counters repeat bit for bit across repetitions, and the i-th COP or round
// of every repetition is the same computation. Latencies are percentiles over
// the per-index minima across repetitions; a round's time is the sum of the
// minima of its laps (the pieces between COP boundaries); set-up time is the
// median. With
// `--trace 1`, repetitions alternate untraced / traced; the traced ones record
// spans around each layer call and report per-layer self times and counters.
//
// The last stdout line is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/negotiation.h"
#include "apps/programs.h"
#include "apps/trace.h"
#include "apps/wireless.h"
#include "colog/planner.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "net/reliable_channel.h"
#include "runtime/instance.h"
#include "runtime/system.h"

using namespace cologne;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

// ---- Spans ------------------------------------------------------------------

// The layers whose calls the benchmark wraps.
enum Layer { kCompile, kInit, kApply, kSolve, kNet, kNumLayers };

using LayerMs = std::array<double, kNumLayers>;

// In-memory span recorder: name (layer), start, end and parent span. Off, it
// records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Open(Layer layer) {
    if (!on_) return -1;
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({layer, Clock::now(), {}, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end = Clock::now();
    stack_.pop_back();
  }

  // Self time per layer (span minus its child spans) of every span recorded
  // since the last call; all spans must be closed.
  LayerMs TakeSelfMs() {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      double ms = std::chrono::duration<double, std::milli>(spans_[i].end -
                                                            spans_[i].start)
                      .count();
      self[i] += ms;
      int parent = spans_[i].parent;
      if (parent >= 0) self[static_cast<size_t>(parent)] -= ms;
    }
    LayerMs out{};
    for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer] += self[i];
    spans_.clear();
    return out;
  }

 private:
  struct Span {
    Layer layer;
    Clock::time_point start, end;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer* t, Layer layer) : t_(t), idx_(t->Open(layer)) {}
  ~Scope() { t_->Close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// ---- Per-repetition accounting ---------------------------------------------

// Engine and network counters summed over a deployment.
struct Counters {
  uint64_t deltas = 0, rule_firings = 0, tuples_sent = 0;
  uint64_t messages = 0, bytes = 0, acks = 0, retransmits = 0, sim_events = 0;

  Counters operator-(const Counters& o) const {
    return {deltas - o.deltas,         rule_firings - o.rule_firings,
            tuples_sent - o.tuples_sent, messages - o.messages,
            bytes - o.bytes,           acks - o.acks,
            retransmits - o.retransmits, sim_events - o.sim_events};
  }
};

void AddEngine(const datalog::Engine& e, Counters* c) {
  c->deltas += e.stats().deltas_processed;
  c->rule_firings += e.stats().rule_firings;
  c->tuples_sent += e.stats().tuples_sent;
}

Counters SystemCounters(runtime::System& sys) {
  Counters c;
  for (size_t i = 0; i < sys.num_nodes(); ++i) {
    auto id = static_cast<NodeId>(i);
    AddEngine(sys.node(id).engine(), &c);
    c.messages += sys.network().StatsOf(id).messages_sent;
    c.bytes += sys.network().StatsOf(id).bytes_sent;
  }
  const net::ChannelStats& ch = sys.network().channel().stats();
  c.acks = ch.acks_sent;
  c.retransmits = ch.retransmits + ch.fast_retransmits;
  c.sim_events = sys.sim().executed();
  return c;
}

// Solver-side totals of the measured phase.
struct SolveTotals {
  uint64_t cops = 0, model_vars = 0, model_props = 0;
  uint64_t nodes = 0, failures = 0, propagations = 0, wakes_filtered = 0,
           props_skipped_entailed = 0, trail_saves = 0, iterations = 0;
  double search_ms = 0;
};

// One repetition of a workload: a fresh deployment, its set-up and its
// measured phase.
struct Rep {
  Rep(const std::string& workload, uint64_t seed, bool traced)
      : workload(workload), seed(seed), tracer(traced) {}

  std::string workload;
  uint64_t seed;
  Tracer tracer;
  bool measuring = false;

  uint64_t cops_attempted = 0;  // every COP, set-up included
  uint64_t cops_failed = 0;
  SolveTotals solves;           // measured phase only
  std::vector<double> cop_ms;   // measured phase only
  // A round of the measured phase is timed in laps: a lap ends at the start
  // and at the end of every COP and at the end of the round, so each lap is
  // one Solve or the work between two. round_laps holds the number of laps
  // of each round.
  std::vector<double> lap_ms;
  std::vector<size_t> round_laps;
  Clock::time_point lap_start;
  bool in_round = false;
  double objective = 0;
  double table_bytes = 0;

  double setup_s = 0, run_s = 0;
  LayerMs setup_layers{}, run_layers{};
  Counters counters;

  // A COP (or the round it belongs to) that errored, found no solution or
  // failed a check. Printed with the seed so the case can be replayed.
  void Fail(const std::string& what, uint64_t cops = 1) {
    cops_failed += cops;
    fprintf(stderr, "FAIL workload=%s seed=%llu: %s\n", workload.c_str(),
            static_cast<unsigned long long>(seed), what.c_str());
  }

  void BeginRound() {
    in_round = true;
    round_laps.push_back(0);
    lap_start = Clock::now();
  }
  void Lap() {
    if (!in_round) return;
    Clock::time_point now = Clock::now();
    lap_ms.push_back(
        std::chrono::duration<double, std::milli>(now - lap_start).count());
    ++round_laps.back();
    lap_start = now;
  }
  void EndRound() {
    Lap();
    in_round = false;
  }

  // --- The benchmark's own layer calls ---------------------------------------

  // Runs f inside a span of `layer`; returns what f returns.
  template <typename F>
  auto In(Layer layer, F&& f) {
    Scope s(&tracer, layer);
    return f();
  }
  Result<colog::CompiledProgram> Compile(const std::string& src) {
    Scope s(&tracer, kCompile);
    return colog::CompileColog(src);
  }

  // One Instance::Solve, timed end to end (model build, search, writeback).
  // Returns the output when the solve produced a solution.
  std::optional<runtime::SolveOutput> Solve(runtime::Instance& inst,
                                            const runtime::SolveRequest& req) {
    double ms = 0;
    Result<runtime::SolveOutput> out = [&] {
      Scope s(&tracer, kSolve);
      Lap();
      Clock::time_point t0 = Clock::now();
      Result<runtime::SolveOutput> r = inst.Solve(req);
      ms = MsSince(t0);
      Lap();
      return r;
    }();
    ++cops_attempted;
    if (!out.ok()) {
      Fail(StrFormat("node %d solve error: %s", static_cast<int>(inst.id()),
                     out.status().ToString().c_str()));
      return std::nullopt;
    }
    if (!out.value().has_solution()) {
      Fail(StrFormat("node %d solve returned %s", static_cast<int>(inst.id()),
                     solver::SolveStatusName(out.value().status)));
      return std::nullopt;
    }
    const runtime::SolveOutput& o = out.value();
    if (measuring) {
      cop_ms.push_back(ms);
      ++solves.cops;
      solves.model_vars += o.model_vars;
      solves.model_props += o.model_propagators;
      solves.nodes += o.stats.nodes;
      solves.failures += o.stats.failures;
      solves.propagations += o.stats.propagations;
      solves.wakes_filtered += o.stats.wakes_filtered;
      solves.props_skipped_entailed += o.stats.props_skipped_entailed;
      solves.trail_saves += o.stats.trail_saves;
      solves.iterations += o.stats.iterations;
      solves.search_ms += o.stats.wall_ms;
    }
    return std::move(out).value();
  }
};

// Read-modify-write the instance's solve options to the benchmark budget: a
// sequential LNS with an iteration cap and/or a node cap (0 = none) and no
// wall-clock limit, so the work is a function of the inputs alone.
void SetBudget(runtime::Instance& inst, uint64_t iterations, uint64_t nodes) {
  runtime::SolveOptions o = inst.solve_options();
  o.backend = solver::Backend::kLns;
  o.max_iterations = iterations;
  o.time_limit_ms = 0;
  o.node_limit = nodes;
  o.num_workers = 1;
  o.seed = 0x10C5;
  o.warm_start = true;
  inst.set_solve_options(o);
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Compile, deploy, load base facts and prime, up to the first quiescence.
  virtual Status Setup(Rep* rep) = 0;
  // The measured phase.
  virtual Status Run(Rep* rep) = 0;
  virtual Counters Snapshot() = 0;
  // Sum of the engines' table size estimates.
  virtual double TableBytes() = 0;
};

// ---- acloud_replay: solver-bound --------------------------------------------
//
// The ACloud COP (paper Section 4.2) replayed over the seeded synthetic
// data-center trace: one standalone Instance per data center, one COP per DC
// per interval. No network; the time goes to LNS search, which stops at a
// node cap (there is no iteration cap), so every COP explores the same
// number of nodes. Each VM's load follows its customer's per-processor CPU
// in the trace. Unlike the paper's replay, VMs are never powered off or
// filtered out below 20 % CPU: that would make the model size, and with it
// the work of a run, differ several fold from seed to seed. Every COP places
// the same number of VMs.
class ACloudReplay : public Workload {
 public:
  struct Size {
    int steps;
    uint64_t nodes;
  };

  ACloudReplay(uint64_t seed, Size size)
      : size_(size), trace_(TraceOf(seed)), rng_(seed * 7919 + 7) {}

  Status Setup(Rep* rep) override {
    COLOGNE_ASSIGN_OR_RETURN(prog, rep->Compile(apps::ACloudProgram(false)));
    prog_ = std::move(prog);
    for (int dc = 0; dc < kDcs; ++dc) {
      inst_.push_back(std::make_unique<runtime::Instance>(dc, &prog_));
      COLOGNE_RETURN_IF_ERROR(
          rep->In(kInit, [&] { return inst_.back()->Init(); }));
      SetBudget(*inst_.back(), /*iterations=*/0, size_.nodes);
    }
    // kVmsPerHost VMs start on every host, customers drawn from the seed.
    for (int h = 0; h < kDcs * kHostsPerDc; ++h) {
      for (int k = 0; k < kVmsPerHost; ++k) {
        Vm vm;
        vm.id = static_cast<int>(vms_.size());
        vm.customer =
            static_cast<int>(rng_.UniformInt(0, trace_.num_customers() - 1));
        vm.host = h;
        vms_.push_back(vm);
      }
    }
    // Priming: the initial placement at t = 0.
    return Step(rep, 0, nullptr);
  }

  Status Run(Rep* rep) override {
    double stdev_sum = 0;
    for (int step = 1; step <= size_.steps; ++step) {
      rep->BeginRound();
      COLOGNE_RETURN_IF_ERROR(Step(rep, step, &stdev_sum));
      rep->EndRound();
    }
    rep->objective = stdev_sum / size_.steps;
    return Status::OK();
  }

  Counters Snapshot() override {
    Counters c;
    for (auto& inst : inst_) AddEngine(inst->engine(), &c);
    return c;
  }
  double TableBytes() override {
    double b = 0;
    for (auto& inst : inst_) {
      b += static_cast<double>(inst->engine().MemoryEstimate());
    }
    return b;
  }

 private:
  static constexpr int kDcs = 3, kHostsPerDc = 4, kVmsPerHost = 4;
  static constexpr int kIntervalS = 1800;
  static constexpr int64_t kHostMemGb = 32, kVmMemGb = 2;

  struct Vm {
    int id = 0, customer = 0, host = 0;
    int64_t cpu = 0;
  };

  static apps::TraceConfig TraceOf(uint64_t seed) {
    apps::TraceConfig t;
    t.seed = seed * 104729 + 42;
    return t;
  }

  // One interval: update the loads, then per DC refresh the facts, run the
  // COP and apply its placement. Adds the mean DC stdev to `stdev_sum`.
  Status Step(Rep* rep, int step, double* stdev_sum) {
    for (Vm& vm : vms_) {
      vm.cpu = std::lround(
          trace_.CustomerCpu(vm.customer, step * kIntervalS));
    }
    double dc_stdev = 0;
    for (int dc = 0; dc < kDcs; ++dc) {
      COLOGNE_RETURN_IF_ERROR(LoadFacts(rep, dc));
      auto out = rep->Solve(*inst_[static_cast<size_t>(dc)],
                            runtime::SolveRequest{});
      if (out) dc_stdev += Place(rep, dc, *out);
    }
    if (stdev_sum != nullptr) *stdev_sum += dc_stdev / kDcs;
    return Status::OK();
  }

  // Refresh one DC's vm/host/hostMemThres facts through the journal
  // (ApplyFact), then flush to fixpoint. Only changed rows are applied:
  // re-inserting a visible row would raise its derivation count.
  Status LoadFacts(Rep* rep, int dc) {
    runtime::Instance& inst = *inst_[static_cast<size_t>(dc)];
    auto put = [&](const char* table, const Row& row) -> Status {
      if (inst.engine().GetTable(table)->Contains(row)) return Status::OK();
      return inst.ApplyFact(table, row, +1);
    };
    return rep->In(kApply, [&]() -> Status {
      for (const Vm& vm : vms_) {
        if (vm.host / kHostsPerDc != dc) continue;
        COLOGNE_RETURN_IF_ERROR(
            put("vm", {Value::Int(vm.id), Value::Int(vm.cpu),
                       Value::Int(kVmMemGb)}));
        COLOGNE_RETURN_IF_ERROR(
            put("origin", {Value::Int(vm.id), Value::Int(vm.host)}));
      }
      for (int h = dc * kHostsPerDc; h < (dc + 1) * kHostsPerDc; ++h) {
        COLOGNE_RETURN_IF_ERROR(
            put("host", {Value::Int(h), Value::Int(0), Value::Int(0)}));
        COLOGNE_RETURN_IF_ERROR(
            put("hostMemThres", {Value::Int(h), Value::Int(kHostMemGb)}));
      }
      return inst.Flush();
    });
  }

  // Check the COP's placement from the `assign` output table, then apply it:
  // every VM of the DC on exactly one of its hosts, host memory within its
  // threshold, and the solver's reported stdev equal to the one recomputed
  // from the placement. Returns the DC's host-CPU stdev after the COP.
  double Place(Rep* rep, int dc, const runtime::SolveOutput& out) {
    const int lo = dc * kHostsPerDc;
    std::map<int64_t, std::vector<int>> hosts_of;
    for (const Row& row :
         inst_[static_cast<size_t>(dc)]->engine().GetTable("assign")->Rows()) {
      if (row[2].as_int() == 1) {
        hosts_of[row[0].as_int()].push_back(static_cast<int>(row[1].as_int()));
      }
    }
    std::vector<int64_t> cpu(kHostsPerDc, 0), mem(kHostsPerDc, 0);
    std::vector<std::pair<size_t, int>> moves;
    for (size_t i = 0; i < vms_.size(); ++i) {
      if (vms_[i].host / kHostsPerDc != dc) continue;
      const std::vector<int>& hs = hosts_of[vms_[i].id];
      if (hs.size() != 1 || hs[0] < lo || hs[0] >= lo + kHostsPerDc) {
        rep->Fail(StrFormat("dc %d: vm %d placed on %zu hosts", dc,
                            vms_[i].id, hs.size()));
        return 0;
      }
      cpu[static_cast<size_t>(hs[0] - lo)] += vms_[i].cpu;
      mem[static_cast<size_t>(hs[0] - lo)] += kVmMemGb;
      moves.push_back({i, hs[0]});
    }
    for (int h = 0; h < kHostsPerDc; ++h) {
      if (mem[static_cast<size_t>(h)] > kHostMemGb) {
        rep->Fail(StrFormat("dc %d: host %d memory %lld > %lld", dc, lo + h,
                            static_cast<long long>(mem[static_cast<size_t>(h)]),
                            static_cast<long long>(kHostMemGb)));
        return 0;
      }
    }
    double mean = 0, var = 0;
    for (int64_t c : cpu) mean += static_cast<double>(c) / kHostsPerDc;
    for (int64_t c : cpu) var += (c - mean) * (c - mean) / kHostsPerDc;
    const double stdev = std::sqrt(var);
    if (!out.has_objective ||
        std::fabs(stdev - out.objective) > 1e-6 * std::max(1.0, stdev)) {
      rep->Fail(StrFormat("dc %d: reported stdev %.9g != recomputed %.9g", dc,
                          out.objective, stdev));
      return 0;
    }
    for (auto [i, h] : moves) vms_[i].host = h;
    return stdev;
  }

  Size size_;
  apps::DataCenterTrace trace_;
  Rng rng_;
  colog::CompiledProgram prog_;
  std::vector<std::unique_ptr<runtime::Instance>> inst_;
  std::vector<Vm> vms_;
};

// ---- wireless_churn: the distributed path ----------------------------------
//
// Distributed channel selection (Appendix A.3) on a grid over the reliable
// transport, batched per initiator. Each epoch moves the primary-user
// channels of a seeded subset of nodes, then renegotiates every link in
// simulator rounds. Solves are small, but each builds its model from the
// assign rows of a two-hop neighborhood: most time goes to the bridge's
// model build, the rest to search, the simulator with the reliable channel,
// and Datalog. It is the only workload with network traffic.
class WirelessChurn : public Workload {
 public:
  struct Size {
    int grid_w, grid_h, epochs, churn_nodes;
    uint64_t iterations;
  };

  WirelessChurn(uint64_t seed, Size size)
      : size_(size), topo_(TopoOf(size)), rng_(seed * 6151 + 3) {
    n_ = size.grid_w * size.grid_h;
    adj_.assign(static_cast<size_t>(n_), {});
    for (const apps::Link& l : topo_.links()) {
      adj_[static_cast<size_t>(l.first)].insert(l.second);
      adj_[static_cast<size_t>(l.second)].insert(l.first);
    }
    // Two blocked (primary-user) channels per node.
    blocked_.assign(static_cast<size_t>(n_), {});
    for (auto& b : blocked_) {
      while (b.size() < 2) {
        b.insert(static_cast<int>(rng_.UniformInt(1, kChannels)));
      }
    }
  }

  Status Setup(Rep* rep) override {
    COLOGNE_ASSIGN_OR_RETURN(
        prog, rep->Compile(apps::WirelessDistributedProgram(
                  kChannels, kMinDiff, /*two_hop=*/true, /*batched=*/true)));
    prog_ = std::move(prog);
    runtime::System::Options opts;
    opts.net_reliable = true;
    opts.seed = 3;
    sys_ = std::make_unique<runtime::System>(&prog_, static_cast<size_t>(n_),
                                             opts);
    COLOGNE_RETURN_IF_ERROR(rep->In(kInit, [&]() -> Status {
      COLOGNE_RETURN_IF_ERROR(sys_->Init());
      for (const apps::Link& l : topo_.links()) {
        COLOGNE_RETURN_IF_ERROR(sys_->AddLink(l.first, l.second));
      }
      return Status::OK();
    }));
    for (int v = 0; v < n_; ++v) {
      SetBudget(sys_->node(v), size_.iterations, 0);
    }
    COLOGNE_RETURN_IF_ERROR(rep->In(kApply, [&]() -> Status {
      for (const apps::Link& l : topo_.links()) {
        COLOGNE_RETURN_IF_ERROR(
            sys_->InsertFact(l.first, "link", {N(l.first), N(l.second)}));
        COLOGNE_RETURN_IF_ERROR(
            sys_->InsertFact(l.second, "link", {N(l.second), N(l.first)}));
      }
      for (int v = 0; v < n_; ++v) {
        for (int c : blocked_[static_cast<size_t>(v)]) {
          COLOGNE_RETURN_IF_ERROR(
              sys_->InsertFact(v, "primaryUser", {N(v), Value::Int(c)}));
        }
      }
      return Status::OK();
    }));
    rep->In(kNet, [&] { sys_->RunToQuiescence(); });
    // Priming: the initial channel assignment of every link.
    return Negotiate(rep);
  }

  Status Run(Rep* rep) override {
    double cost_sum = 0;
    for (int e = 0; e < size_.epochs; ++e) {
      rep->BeginRound();
      COLOGNE_RETURN_IF_ERROR(Churn(rep));
      uint64_t cops0 = rep->cops_attempted;
      COLOGNE_RETURN_IF_ERROR(Negotiate(rep));
      rep->EndRound();
      cost_sum += Check(rep, rep->cops_attempted - cops0);
    }
    rep->objective = cost_sum / size_.epochs;
    return Status::OK();
  }

  Counters Snapshot() override { return SystemCounters(*sys_); }
  double TableBytes() override {
    double b = 0;
    for (int v = 0; v < n_; ++v) {
      b += static_cast<double>(sys_->node(v).engine().MemoryEstimate());
    }
    return b;
  }

 private:
  static constexpr int kChannels = 8, kMinDiff = 2;
  static constexpr double kRoundS = 5.0;

  static Value N(int v) { return Value::Node(v); }

  static apps::WirelessScenario TopoOf(Size size) {
    apps::WirelessConfig c;
    c.grid_w = size.grid_w;
    c.grid_h = size.grid_h;
    c.num_channels = kChannels;
    c.f_mindiff = kMinDiff;
    return apps::WirelessScenario(c);
  }

  // Move one blocked channel of each of `churn_nodes` seeded nodes.
  Status Churn(Rep* rep) {
    return rep->In(kApply, [&]() -> Status {
      for (int k = 0; k < size_.churn_nodes; ++k) {
        int v = static_cast<int>(rng_.UniformInt(0, n_ - 1));
        std::set<int>& b = blocked_[static_cast<size_t>(v)];
        int old = *std::next(b.begin(), rng_.UniformInt(0, 1));
        int fresh = old;
        while (b.count(fresh)) {
          fresh = static_cast<int>(rng_.UniformInt(1, kChannels));
        }
        b.erase(old);
        b.insert(fresh);
        COLOGNE_RETURN_IF_ERROR(
            sys_->node(v).DeleteFact("primaryUser", {N(v), Value::Int(old)}));
        COLOGNE_RETURN_IF_ERROR(
            sys_->InsertFact(v, "primaryUser", {N(v), Value::Int(fresh)}));
      }
      return Status::OK();
    });
  }

  // Renegotiate every link: greedy batched matching per 5 s round (the
  // higher-id endpoint initiates), setLink at +0.1 s, the solve at +2 s, the
  // session torn down at +4 s; then drain.
  Status Negotiate(Rep* rep) {
    std::set<apps::Link> pending(topo_.links().begin(), topo_.links().end());
    Status failure;
    double t = sys_->sim().Now();
    while (!pending.empty()) {
      auto batches = apps::ClaimBatches(
          topo_.links(), &pending, static_cast<size_t>(n_), /*batch=*/true,
          /*max_link_batch=*/0,
          [](const apps::Link&) { return apps::LinkClaim::kClaim; });
      for (const auto& [init, peers] : batches) {
        int x = init;
        std::vector<int> ps = peers;
        sys_->sim().ScheduleAt(t + 0.1, [this, rep, x, ps, &failure] {
          Status s = rep->In(kApply, [&]() -> Status {
            for (int p : ps) {
              COLOGNE_RETURN_IF_ERROR(
                  sys_->InsertFact(x, "setLink", {N(x), N(p)}));
            }
            return Status::OK();
          });
          if (!s.ok() && failure.ok()) failure = s;
        });
        sys_->sim().ScheduleAt(t + 2.0, [this, rep, x] {
          runtime::Instance& inst = sys_->node(x);
          runtime::SolveRequest req;
          req.mode = runtime::SolveMode::kBatched;
          req.group_key_prefix = 2;
          req.changed_tables = inst.touched_tables();
          rep->Solve(inst, req);
        });
        sys_->sim().ScheduleAt(t + 4.0, [this, rep, x, ps, &failure] {
          Status s = rep->In(kApply, [&]() -> Status {
            for (int p : ps) {
              COLOGNE_RETURN_IF_ERROR(
                  sys_->node(x).DeleteFact("setLink", {N(x), N(p)}));
            }
            return Status::OK();
          });
          if (!s.ok() && failure.ok()) failure = s;
        });
      }
      t += kRoundS;
      rep->In(kNet, [&] { sys_->RunUntil(t); });
    }
    rep->In(kNet, [&] { sys_->RunToQuiescence(); });
    return failure;
  }

  // Coverage, channel range, primary users respected at both ends, the
  // symmetric copy at the peer, and the interference cost recounted
  // independently of the scenario library. Returns the interference cost.
  double Check(Rep* rep, uint64_t epoch_cops) {
    std::map<apps::Link, int> channel;
    for (const apps::Link& l : topo_.links()) {
      int init = std::max(l.first, l.second);
      int peer = std::min(l.first, l.second);
      int c = ChannelAt(init, peer);
      if (c < 1 || c > kChannels || c != ChannelAt(peer, init) ||
          blocked_[static_cast<size_t>(init)].count(c) ||
          blocked_[static_cast<size_t>(peer)].count(c)) {
        rep->Fail(StrFormat("link (%d,%d): channel %d at initiator, %d at peer",
                            init, peer, c, ChannelAt(peer, init)),
                  epoch_cops);
        return 0;
      }
      channel[l] = c;
    }
    double library = topo_.InterferenceCost(channel);
    double recount = Recount(channel);
    if (library != recount) {
      rep->Fail(StrFormat("interference %g != recount %g", library, recount),
                epoch_cops);
    }
    return recount;
  }

  int ChannelAt(int x, int y) const {
    const datalog::Table* t = sys_->node(x).engine().GetTable("assign");
    for (const Row& row : t->Rows()) {
      if (row[0].as_node() == x && row[1].as_node() == y) {
        return static_cast<int>(row[2].as_int());
      }
    }
    return -1;
  }

  // Two-hop model: links interfere when they share an endpoint or an
  // endpoint of one is adjacent to an endpoint of the other.
  double Recount(const std::map<apps::Link, int>& channel) const {
    auto near = [&](int u, const apps::Link& b) {
      for (int w : {b.first, b.second}) {
        if (w == u || adj_[static_cast<size_t>(u)].count(w)) return true;
      }
      return false;
    };
    double cost = 0;
    for (auto a = channel.begin(); a != channel.end(); ++a) {
      for (auto b = std::next(a); b != channel.end(); ++b) {
        bool close =
            near(a->first.first, b->first) || near(a->first.second, b->first);
        if (close && std::abs(a->second - b->second) < kMinDiff) {
          cost += 1;
        }
      }
    }
    return cost;
  }

  Size size_;
  apps::WirelessScenario topo_;
  Rng rng_;
  int n_ = 0;
  std::vector<std::set<int>> adj_;
  std::vector<std::set<int>> blocked_;
  colog::CompiledProgram prog_;
  std::unique_ptr<runtime::System> sys_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "acloud_replay") {
    return std::make_unique<ACloudReplay>(
        seed,
        smoke ? ACloudReplay::Size{4, 500} : ACloudReplay::Size{24, 6000});
  }
  if (name == "wireless_churn") {
    return std::make_unique<WirelessChurn>(
        seed, smoke ? WirelessChurn::Size{6, 5, 2, 3, 2}
                    : WirelessChurn::Size{40, 5, 10, 20, 4});
  }
  return nullptr;
}

// ---- Driver -----------------------------------------------------------------

// Peak resident set of this process image, from /proc/self/status (VmHWM).
// getrusage's ru_maxrss is not used: it survives exec, so it would report the
// launching process's peak whenever that one was larger.
double PeakRssMb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

// The values the exact-repeat guard compares across repetitions.
std::vector<double> Fingerprint(const Rep& r) {
  return {r.objective,
          static_cast<double>(r.solves.nodes),
          static_cast<double>(r.solves.propagations),
          static_cast<double>(r.counters.rule_firings),
          static_cast<double>(r.counters.messages),
          static_cast<double>(r.solves.cops),
          static_cast<double>(std::accumulate(
              r.round_laps.begin(), r.round_laps.end(), size_t{0})),
          static_cast<double>(r.round_laps.size())};
}

std::string Metric(const char* name, double value, const char* unit) {
  return StrFormat("\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", name, value,
                   unit);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      MakeWorkload(args.workload, args.seed, args.smoke) == nullptr) {
    fprintf(stderr,
            "usage: perfbench_driver --workload "
            "<acloud_replay|wireless_churn> --seed <n> "
            "--seconds <s> --trace <0|1> [--smoke]\n");
    return 2;
  }

  Clock::time_point start = Clock::now();
  std::vector<Rep> reps;
  // Untraced repetitions give the end-to-end numbers. With --trace 1 every
  // second repetition is traced; the two halves give the tracing overhead.
  const size_t min_reps = args.smoke ? 2 : args.trace ? 6 : 3;
  double longest_ms = 0;
  // The repetitions do identical work, so the i-th COP (lap) of each is the
  // same computation, and machine noise can only make it slower: its fastest
  // time across repetitions filters out noise that hits some of them. The
  // shorter the piece, the more often some repetition runs it undisturbed,
  // so rounds are summed from their laps' minima rather than taken whole.
  // The minima are kept as the run goes, so memory does not grow with the
  // number of repetitions.
  std::vector<double> cop_min, lap_min;
  auto keep_min = [](std::vector<double>* mins, std::vector<double>* xs) {
    if (mins->empty()) {
      *mins = *xs;
    } else {
      for (size_t i = 0; i < xs->size(); ++i) {
        (*mins)[i] = std::min((*mins)[i], (*xs)[i]);
      }
    }
    *xs = {};
  };
  while (reps.size() < min_reps ||
         (!args.smoke &&
          MsSince(start) + longest_ms < args.seconds * 1000)) {
    Clock::time_point rep_start = Clock::now();
    bool traced = args.trace && reps.size() % 2 == 1;
    reps.emplace_back(args.workload, args.seed, traced);
    Rep& rep = reps.back();
    std::unique_ptr<Workload> w =
        MakeWorkload(args.workload, args.seed, args.smoke);

    Clock::time_point t0 = Clock::now();
    Status s = w->Setup(&rep);
    rep.setup_s = MsSince(t0) / 1000;
    rep.setup_layers = rep.tracer.TakeSelfMs();
    if (s.ok()) {
      Counters c0 = w->Snapshot();
      rep.measuring = true;
      Clock::time_point t1 = Clock::now();
      s = w->Run(&rep);
      rep.run_s = MsSince(t1) / 1000;
      rep.run_layers = rep.tracer.TakeSelfMs();
      rep.counters = w->Snapshot() - c0;
      rep.table_bytes = w->TableBytes();
    }
    if (!s.ok()) {
      fprintf(stderr, "workload %s seed %llu failed: %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              s.ToString().c_str());
      return 1;
    }
    printf("rep %zu%s: setup %.3f s, run %.3f s, %llu COPs, objective %.6f\n",
           reps.size() - 1, traced ? " (traced)" : "", rep.setup_s, rep.run_s,
           static_cast<unsigned long long>(rep.solves.cops), rep.objective);
    if (Fingerprint(rep) != Fingerprint(reps.front())) {
      fprintf(stderr,
              "exact-repeat guard: workload %s seed %llu repetition %zu "
              "differs from repetition 0 (objective %.17g vs %.17g)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size() - 1, rep.objective, reps.front().objective);
      return 3;
    }
    if (!traced) {
      keep_min(&cop_min, &rep.cop_ms);
      keep_min(&lap_min, &rep.lap_ms);
    }
    longest_ms = std::max(longest_ms, MsSince(rep_start));
  }

  uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += r.cops_attempted;
    failed += r.cops_failed;
  }
  const double peak_rss_mb = PeakRssMb();

  auto values_of = [&](bool traced, auto&& get) {
    std::vector<double> xs;
    for (const Rep& r : reps) {
      if (r.tracer.on() == traced) xs.push_back(get(r));
    }
    return xs;
  };
  auto median_of = [&](bool traced, auto&& get) {
    return Median(values_of(traced, get));
  };
  auto sum = [](const std::vector<double>& xs) {
    double total = 0;
    for (double x : xs) total += x;
    return total;
  };

  std::vector<std::string> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back(Metric(name, value, unit));
  };
  if (!args.trace) {
    const std::vector<double>& cop = cop_min;
    std::vector<double> round;
    size_t next_lap = 0;
    for (size_t laps : reps.front().round_laps) {
      round.push_back(std::accumulate(lap_min.begin() + next_lap,
                                      lap_min.begin() + next_lap + laps, 0.0));
      next_lap += laps;
    }
    printf("%zu repetitions; per repetition %zu COPs, %zu rounds\n",
           reps.size(), cop.size(), round.size());
    add("setup_s", median_of(false, [](const Rep& r) { return r.setup_s; }),
        "s");
    add("run_s", sum(round) / 1000, "s");
    add("cop_ms_p50", Percentile(cop, 50), "ms");
    add("cop_ms_p90", Percentile(cop, 90), "ms");
    add("reconverge_ms_p50", Percentile(round, 50), "ms");
    add("reconverge_ms_p90", Percentile(round, 90), "ms");
    add("objective", reps.front().objective, "cost");
    add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Per-layer numbers of the traced repetitions (per repetition, median).
    auto layer = [&](bool setup, Layer l) {
      return median_of(true, [&](const Rep& r) {
        return setup ? r.setup_layers[l] : r.run_layers[l];
      });
    };
    const Rep& t = reps[1];  // counters repeat exactly across repetitions
    const SolveTotals& st = t.solves;
    double search_ms =
        median_of(true, [](const Rep& r) { return r.solves.search_ms; });
    double solve_ms = layer(false, kSolve);
    // The measured phase on the same footing as the layer times: the median
    // repetition, traced and untraced.
    auto run_ms_of = [&](bool traced) {
      return median_of(traced, [](const Rep& r) { return r.run_s * 1000; });
    };
    double run_ms = run_ms_of(true);
    double untraced_ms = run_ms_of(false);
    double nodes = static_cast<double>(st.nodes);
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    add("colog.compile_ms", layer(true, kCompile), "ms");
    add("runtime.init_ms", layer(true, kInit), "ms");
    add("datalog.apply_ms", layer(false, kApply), "ms");
    add("datalog.deltas", count(t.counters.deltas), "count");
    add("datalog.rule_firings", count(t.counters.rule_firings), "count");
    add("datalog.tuples_sent", count(t.counters.tuples_sent), "count");
    add("datalog.table_bytes", t.table_bytes, "bytes");
    add("runtime.solve_ms", solve_ms, "ms");
    add("runtime.bridge_ms", solve_ms - search_ms, "ms");
    add("runtime.model_vars", count(st.model_vars), "count");
    add("runtime.model_props", count(st.model_props), "count");
    add("solver.search_ms", search_ms, "ms");
    add("solver.nodes_per_s", search_ms > 0 ? nodes / (search_ms / 1000) : 0,
        "1/s");
    add("solver.props_per_node",
        nodes > 0 ? count(st.propagations) / nodes : 0, "ratio");
    add("solver.nodes", nodes, "count");
    add("solver.failures", count(st.failures), "count");
    add("solver.propagations", count(st.propagations), "count");
    add("solver.wakes_filtered", count(st.wakes_filtered), "count");
    add("solver.props_skipped_entailed", count(st.props_skipped_entailed),
        "count");
    add("solver.trail_saves", count(st.trail_saves), "count");
    add("solver.iterations", count(st.iterations), "count");
    add("net.run_ms", layer(false, kNet), "ms");
    add("net.messages", count(t.counters.messages), "count");
    add("net.bytes", count(t.counters.bytes), "bytes");
    add("net.acks", count(t.counters.acks), "count");
    add("net.retransmits", count(t.counters.retransmits), "count");
    add("net.sim_events", count(t.counters.sim_events), "count");
    add("bench.run_ms", run_ms, "ms");
    add("bench.trace_overhead_pct",
        untraced_ms > 0 ? (run_ms / untraced_ms - 1) * 100 : 0, "%");
  }
  std::string metrics;
  for (const std::string& s : m) metrics += (metrics.empty() ? "" : ", ") + s;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         failed == 0 ? "true" : "false",
         static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
