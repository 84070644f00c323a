// Property tests for the solver bridge: full Colog pipeline vs brute-force
// enumeration on randomized instances, and coverage of every symbolic
// aggregate construction.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "apps/programs.h"
#include "colog/planner.h"
#include "common/rng.h"
#include "runtime/instance.h"
#include "runtime/system.h"

namespace cologne::runtime {
namespace {

Row R(std::initializer_list<int64_t> xs) {
  Row r;
  for (int64_t x : xs) r.push_back(Value::Int(x));
  return r;
}

// Minimal balance program: minimize the scaled variance of host loads.
const char* kBalance = R"(
goal minimize C in spread(C).
var assign(Vid,Hid,V) forall toAssign(Vid,Hid) domain [0,1].
r1 toAssign(Vid,Hid) <- vm(Vid,Cpu), host(Hid).
d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu), C==V*Cpu.
d2 spread(STDEV<C>) <- hostCpu(Hid,C).
d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
c1 assignCount(Vid,V) -> V==1.
)";

class BridgeVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(BridgeVsBruteForceTest, PipelineOptimumMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  int vms = 3 + GetParam() % 3;    // 3..5
  int hosts = 2 + GetParam() % 2;  // 2..3
  std::vector<int64_t> cpu;
  for (int v = 0; v < vms; ++v) cpu.push_back(rng.UniformInt(10, 60));

  // Brute force: minimal sum of squared deviations over host assignments.
  double best = 1e18;
  std::vector<int> a(static_cast<size_t>(vms), 0);
  while (true) {
    std::vector<double> load(static_cast<size_t>(hosts), 0);
    for (int v = 0; v < vms; ++v) {
      load[static_cast<size_t>(a[static_cast<size_t>(v)])] +=
          static_cast<double>(cpu[static_cast<size_t>(v)]);
    }
    double mean = 0;
    for (double l : load) mean += l;
    mean /= hosts;
    double ss = 0;
    for (double l : load) ss += (l - mean) * (l - mean);
    best = std::min(best, std::sqrt(ss / hosts));
    int i = 0;
    while (i < vms && ++a[static_cast<size_t>(i)] >= hosts) {
      a[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == vms) break;
  }

  auto compiled = colog::CompileColog(kBalance);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int v = 0; v < vms; ++v) {
    ASSERT_TRUE(
        inst.InsertFact("vm", R({v, cpu[static_cast<size_t>(v)]})).ok());
  }
  for (int h = 0; h < hosts; ++h) {
    ASSERT_TRUE(inst.InsertFact("host", R({h})).ok());
  }
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  EXPECT_NEAR(out.value().objective, best, 1e-6)
      << "vms=" << vms << " hosts=" << hosts;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BridgeVsBruteForceTest,
                         ::testing::Range(0, 12));

TEST(BridgeAggregateTest, SumAbsMinimizesMagnitudes) {
  const char* src = R"(
goal minimize C in total(C).
var flow(E,F) forall edge(E) domain [-5,5].
d1 total(SUMABS<F>) <- flow(E,F).
d2 net(SUM<F>) <- flow(E,F).
c1 net(F) -> F==3.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int e = 0; e < 3; ++e) ASSERT_TRUE(inst.InsertFact("edge", R({e})).ok());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_DOUBLE_EQ(out.value().objective, 3) << "no cancellation: |sum|=3";
}

TEST(BridgeAggregateTest, MaxAggregateMinimizesPeak) {
  const char* src = R"(
goal minimize M in peak(M).
var put(I,B,V) forall slot(I,B) domain [0,1].
d1 cnt(I,SUM<V>) <- put(I,B,V).
c1 cnt(I,V) -> V==1.
d2 load(B,SUM<V>) <- put(I,B,V).
d3 peak(MAX<V>) <- load(B,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  // 4 items, 2 bins: min-max load is 2.
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 2; ++b) {
      ASSERT_TRUE(inst.InsertFact("slot", R({i, b})).ok());
    }
  }
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_DOUBLE_EQ(out.value().objective, 2);
}

TEST(BridgeAggregateTest, UniqueAggregateConstrainsDistinctValues) {
  const char* src = R"(
goal minimize C in spread(C).
var pick(I,V) forall item(I) domain [1,4].
d1 distinct(UNIQUE<V>) <- pick(I,V).
c1 distinct(N) -> N<=2.
d2 spread(SUM<V>) <- pick(I,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(inst.InsertFact("item", R({i})).ok());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Minimizing the sum picks all 1s (one distinct value, allowed).
  EXPECT_DOUBLE_EQ(out.value().objective, 5);
  std::set<int64_t> values;
  for (const Row& row : inst.engine().GetTable("pick")->Rows()) {
    values.insert(row[1].as_int());
  }
  EXPECT_LE(values.size(), 2u);
}

TEST(BridgeGoalTest, MaximizeGoal) {
  const char* src = R"(
goal maximize C in value(C).
var take(I,V) forall item(I) domain [0,1].
d1 weight(SUM<W>) <- take(I,V), itemW(I,X), W==V*X.
c1 weight(W) -> W<=10.
d2 value(SUM<P>) <- take(I,V), itemP(I,X), P==V*X.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  // Knapsack: weights {6,5,5}, profits {7,5,5}, cap 10 -> take items 2+3.
  int64_t w[3] = {6, 5, 5}, p[3] = {7, 5, 5};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(inst.InsertFact("item", R({i})).ok());
    ASSERT_TRUE(inst.InsertFact("itemW", R({i, w[i]})).ok());
    ASSERT_TRUE(inst.InsertFact("itemP", R({i, p[i]})).ok());
  }
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_DOUBLE_EQ(out.value().objective, 10);
}

TEST(BridgeGoalTest, SatisfyGoalFindsAnySolution) {
  const char* src = R"(
goal satisfy.
var color(N,C) forall node(N) domain [1,3].
c1 color(N,C) -> banned(N,B), C!=B.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int n = 0; n < 3; ++n) {
    ASSERT_TRUE(inst.InsertFact("node", R({n})).ok());
    ASSERT_TRUE(inst.InsertFact("banned", R({n, 1})).ok());
    ASSERT_TRUE(inst.InsertFact("banned", R({n, 2})).ok());
  }
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Universal constraint semantics: every banned row applies -> color 3.
  for (const Row& row : inst.engine().GetTable("color")->Rows()) {
    EXPECT_EQ(row[1].as_int(), 3);
  }
}

TEST(BridgeConstraintTest, CrossVariableEqualityViaConstraintBody) {
  // Wireless c2 pattern: a constraint body atom over the var table unifies
  // two solver variables.
  const char* src = R"(
goal minimize S in total(S).
var ch(A,B,C) forall pair(A,B) domain [1,5].
d1 total(SUM<C>) <- ch(A,B,C).
c1 ch(A,B,C) -> ch(B,A,C).
c2 ch(A,B,C) -> lo(A,L), C>=L.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  ASSERT_TRUE(inst.InsertFact("pair", R({1, 2})).ok());
  ASSERT_TRUE(inst.InsertFact("pair", R({2, 1})).ok());
  ASSERT_TRUE(inst.InsertFact("lo", R({1, 1})).ok());
  ASSERT_TRUE(inst.InsertFact("lo", R({2, 4})).ok());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Symmetry + per-endpoint lower bounds force both directions to 4.
  EXPECT_TRUE(inst.engine().GetTable("ch")->Contains(R({1, 2, 4})));
  EXPECT_TRUE(inst.engine().GetTable("ch")->Contains(R({2, 1, 4})));
}

TEST(BridgeErrorTest, JoinOnSolverAttributeRejected) {
  // Section 5.3: joins on solver attributes are not allowed in derivations.
  const char* src = R"(
goal minimize S in total(S).
var v1(I,V) forall item(I) domain [0,3].
var v2(I,V) forall item(I) domain [0,3].
d1 pairCost(I,J,V) <- v1(I,V), v2(J,V).
d2 total(SUM<V>) <- pairCost(I,J,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  ASSERT_TRUE(inst.InsertFact("item", R({0})).ok());
  auto out = inst.Solve();
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("join on a solver attribute"),
            std::string::npos);
}

// ---- Join semantics ---------------------------------------------------------
// Each case below pins one behaviour of the bridge's body join (binding
// order, guard readiness, re-binding, unification, table sources).

Result<SolveOutput> SolveProgram(
    const char* src, const std::vector<std::pair<std::string, Row>>& facts,
    colog::CompiledProgram* prog, std::unique_ptr<Instance>* inst) {
  auto compiled = colog::CompileColog(src);
  if (!compiled.ok()) return compiled.status();
  *prog = std::move(compiled).value();
  *inst = std::make_unique<Instance>(0, prog);
  COLOGNE_RETURN_IF_ERROR((*inst)->Init());
  for (const auto& [table, row] : facts) {
    COLOGNE_RETURN_IF_ERROR((*inst)->InsertFact(table, row));
  }
  return (*inst)->Solve();
}

std::set<Row> RowsOf(const SolveOutput& out, const std::string& table) {
  auto it = out.tables.find(table);
  if (it == out.tables.end()) return {};
  return {it->second.begin(), it->second.end()};
}

TEST(BridgeJoinTest, SelfJoinOverOneEngineTable) {
  // d1 joins `e` with itself: V(I) is summed once per two-hop path from I.
  const char* src = R"(
goal minimize S in total(S).
var x(I,V) forall item(I) domain [0,3].
d1 paths(I,SUM<V>) <- x(I,V), e(I,J), e(J,K).
c1 paths(I,S) -> S>=2.
d2 total(SUM<V>) <- x(I,V).
)";
  colog::CompiledProgram prog;
  std::unique_ptr<Instance> inst;
  // Two-hop paths: 0 -> {0-1-2, 0-1-3}, 1 -> {1-2-0}, 2 -> {2-0-1}, 3 -> none.
  auto out = SolveProgram(src,
                          {{"item", R({0})}, {"item", R({1})},
                           {"item", R({2})}, {"item", R({3})},
                           {"e", R({0, 1})}, {"e", R({1, 2})},
                           {"e", R({1, 3})}, {"e", R({2, 0})}},
                          &prog, &inst);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(out.value().objective, 5);
  EXPECT_EQ(RowsOf(out.value(), "x"),
            (std::set<Row>{R({0, 1}), R({1, 2}), R({2, 2}), R({3, 0})}));
  EXPECT_EQ(RowsOf(out.value(), "paths"),
            (std::set<Row>{R({0, 2}), R({1, 2}), R({2, 2})}));
}

TEST(BridgeJoinTest, BindingGuardReadyOnlyAtLastAtom) {
  // (C==1)==(V>=T) needs T, which only the last body atom binds.
  const char* src = R"(
goal minimize S in total(S).
var x(I,V) forall item(I) domain [0,4].
d1 hit(I,C) <- x(I,V), thr(I,T), (C==1)==(V>=T).
d2 hits(SUM<C>) <- hit(I,C).
c1 hits(H) -> H>=2.
d3 total(SUM<V>) <- x(I,V).
)";
  colog::CompiledProgram prog;
  std::unique_ptr<Instance> inst;
  auto out = SolveProgram(src,
                          {{"item", R({0})}, {"item", R({1})},
                           {"item", R({2})}, {"thr", R({0, 3})},
                           {"thr", R({1, 1})}, {"thr", R({2, 2})}},
                          &prog, &inst);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  // Cheapest two hits: item 1 at V=1 and item 2 at V=2.
  EXPECT_DOUBLE_EQ(out.value().objective, 3);
  EXPECT_EQ(RowsOf(out.value(), "hit"),
            (std::set<Row>{R({0, 0}), R({1, 1}), R({2, 1})}));
}

TEST(BridgeJoinTest, AssignmentRebindingMustAgree) {
  // W is bound by want(I,W) before `W := I+1` is ready: rows where the two
  // disagree are filtered out, so c1 only reaches items 0 and 2.
  const char* src = R"(
goal minimize S in total(S).
var x(I,V) forall item(I) domain [0,4].
d1 good(I,V) <- want(I,W), x(I,V), W:=I+1.
c1 good(I,V) -> V>=2.
d2 total(SUM<V>) <- x(I,V).
)";
  colog::CompiledProgram prog;
  std::unique_ptr<Instance> inst;
  auto out = SolveProgram(src,
                          {{"item", R({0})}, {"item", R({1})},
                           {"item", R({2})}, {"want", R({0, 1})},
                           {"want", R({1, 5})}, {"want", R({2, 3})}},
                          &prog, &inst);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(out.value().objective, 4);
  EXPECT_EQ(RowsOf(out.value(), "good"),
            (std::set<Row>{R({0, 2}), R({2, 2})}));
}

TEST(BridgeJoinTest, ConstraintHeadUnifiesTwoSymbolicCells) {
  // c1's head repeats C over two solver cells: matching a `both` row posts
  // x == y, so y's lower bound reaches x.
  const char* src = R"(
goal minimize S in total(S).
var x(A,V) forall item(A) domain [0,5].
var y(A,V) forall item(A) domain [0,5].
d1 both(A,C1,C2) <- x(A,C1), y(A,C2).
c1 both(A,C,C) -> A>=0.
c2 y(A,V) -> V>=3.
d2 total(SUM<V>) <- x(A,V).
)";
  colog::CompiledProgram prog;
  std::unique_ptr<Instance> inst;
  auto out = SolveProgram(src, {{"item", R({0})}, {"item", R({1})}}, &prog,
                          &inst);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(out.value().objective, 6);
  EXPECT_EQ(RowsOf(out.value(), "x"), (std::set<Row>{R({0, 3}), R({1, 3})}));
}

TEST(BridgeJoinTest, MissingAndEmptyEngineTablesJoinNothing) {
  const char* src = R"(
goal minimize S in total(S).
var x(I,V) forall item(I) domain [1,3].
d1 total(SUM<V>) <- x(I,V), extra(I).
c1 x(I,V) -> cap(I,M), V<=M.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  // Empty: every table declared, `extra` and `cap` hold no rows. No cost
  // row and no constraint: the goal degrades to satisfaction.
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  ASSERT_TRUE(inst.InsertFact("item", R({0})).ok());
  auto empty = inst.Solve();
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_TRUE(empty.value().has_solution());
  EXPECT_DOUBLE_EQ(empty.value().objective, 0);
  EXPECT_TRUE(RowsOf(empty.value(), "total").empty());
  EXPECT_EQ(RowsOf(empty.value(), "x").size(), 1u);

  // Missing: an engine that declares only the forall table.
  datalog::Engine engine;
  ASSERT_TRUE(engine.DeclareTable(prog.tables.at("item")).ok());
  ASSERT_TRUE(engine.InsertFact("item", R({0})).ok());
  SolverBridge bridge(&prog, &engine);
  auto missing = bridge.Solve(SolveOptions{});
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  ASSERT_TRUE(missing.value().has_solution());
  EXPECT_DOUBLE_EQ(missing.value().objective, 0);
  EXPECT_TRUE(RowsOf(missing.value(), "total").empty());
  EXPECT_EQ(missing.value().model_propagators,
            empty.value().model_propagators);
}

TEST(BridgeJoinTest, BodyReadsTableDerivedByEarlierSolverRule) {
  // d2 reads d1's output and d3 self-joins d2's: both live only in the
  // bridge during the solve.
  const char* src = R"(
goal minimize S in total(S).
var x(I,V) forall item(I) domain [1,3].
d1 a(I,W) <- x(I,V), W==V*2.
d2 b(I,U) <- a(I,W), U==W+1.
d3 pair(I,J,T) <- b(I,U1), b(J,U2), I<J, T==U1+U2.
d4 total(SUM<T>) <- pair(I,J,T).
c1 x(I,V) -> lo(I,L), V>=L.
)";
  colog::CompiledProgram prog;
  std::unique_ptr<Instance> inst;
  auto out = SolveProgram(src,
                          {{"item", R({0})}, {"item", R({1})},
                           {"item", R({2})}, {"lo", R({1, 2})}},
                          &prog, &inst);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  // x = (1,2,1): b = (3,5,3); pairs (0,1)=8, (0,2)=6, (1,2)=8.
  EXPECT_DOUBLE_EQ(out.value().objective, 22);
  EXPECT_EQ(RowsOf(out.value(), "b"),
            (std::set<Row>{R({0, 3}), R({1, 5}), R({2, 3})}));
  EXPECT_EQ(RowsOf(out.value(), "pair"),
            (std::set<Row>{R({0, 1, 8}), R({0, 2, 6}), R({1, 2, 8})}));
}

// ---- Model identity ---------------------------------------------------------
// The bridge must create the same variables and post the same propagators in
// the same order for a given engine state. An incremental solve of an
// ungrouped model (prefix 0) stores one fingerprint that hashes every var
// row's table, key and initial domain, every propagator's DebugString() in
// posting order, and the objective. Decision groups are marked after the
// build, so prefix 0 sees the same model a batched solve builds.

struct ModelIdentity {
  uint64_t fingerprint;
  size_t vars;
  size_t props;
};

Result<ModelIdentity> IdentityOf(Instance* inst) {
  SolveRequest req;
  req.mode = SolveMode::kIncremental;
  req.group_key_prefix = 0;
  COLOGNE_ASSIGN_OR_RETURN(out, inst->Solve(req));
  const auto& fps = inst->incremental_state().fingerprints;
  if (fps.size() != 1 || !fps.count("")) {
    return Status::RuntimeError("expected one ungrouped fingerprint");
  }
  return ModelIdentity{fps.at(""), out.model_vars, out.model_propagators};
}

TEST(BridgeModelIdentityTest, BatchedTwoHopWirelessNode) {
  auto compiled = colog::CompileColog(apps::WirelessDistributedProgram(
      /*num_channels=*/8, /*f_mindiff=*/2, /*two_hop=*/true,
      /*batched=*/true));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  // 2x3 grid: 0-1-2 over 3-4-5.
  System sys(&prog, 6);
  ASSERT_TRUE(sys.Init().ok());
  auto N = [](int n) { return Value::Node(n); };
  const std::vector<std::pair<int, int>> links = {
      {0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}};
  for (const auto& [a, b] : links) {
    ASSERT_TRUE(sys.AddLink(a, b).ok());
    ASSERT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
  }
  ASSERT_TRUE(sys.InsertFact(1, "primaryUser", {N(1), Value::Int(3)}).ok());
  ASSERT_TRUE(sys.InsertFact(4, "primaryUser", {N(4), Value::Int(5)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "primaryUser", {N(0), Value::Int(1)}).ok());
  sys.RunToQuiescence();

  // Round 1: node 4 negotiates its three links in one batched solve, so
  // node 1 later sees concrete neighbor channels.
  for (int peer : {1, 3, 5}) {
    ASSERT_TRUE(sys.InsertFact(4, "setLink", {N(4), N(peer)}).ok());
  }
  sys.RunToQuiescence();
  SolveRequest batched;
  batched.mode = SolveMode::kBatched;
  batched.group_key_prefix = 2;
  auto first = sys.node(4).Solve(batched);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().has_solution());
  sys.RunToQuiescence();
  for (int peer : {1, 3, 5}) {
    ASSERT_TRUE(sys.node(4).DeleteFact("setLink", {N(4), N(peer)}).ok());
  }
  sys.RunToQuiescence();

  // Round 2: node 1 batches links to 0 and 2.
  for (int peer : {0, 2}) {
    ASSERT_TRUE(sys.InsertFact(1, "setLink", {N(1), N(peer)}).ok());
  }
  sys.RunToQuiescence();
  auto id = IdentityOf(&sys.node(1));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Pinned at the commit before the bridge join was rewritten.
  EXPECT_EQ(id.value().fingerprint, 458751884043867733ull);
  EXPECT_EQ(id.value().vars, 21u);
  EXPECT_EQ(id.value().props, 22u);
}

TEST(BridgeModelIdentityTest, OneACloudDataCenter) {
  auto compiled = colog::CompileColog(apps::ACloudProgram(
      /*migration_limit=*/true, /*max_migrates=*/2));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  // 3 hosts with residual load, 6 movable VMs.
  const int64_t residual[3] = {10, 0, 25};
  for (int h = 0; h < 3; ++h) {
    ASSERT_TRUE(inst.InsertFact("host", R({h, residual[h], 0})).ok());
    ASSERT_TRUE(inst.InsertFact("hostMemThres", R({h, 8})).ok());
  }
  const int64_t cpu[6] = {45, 30, 60, 25, 50, 35};
  for (int v = 0; v < 6; ++v) {
    ASSERT_TRUE(inst.InsertFact("vm", R({v, cpu[v], 2})).ok());
    ASSERT_TRUE(inst.InsertFact("origin", R({v, v % 3})).ok());
  }
  auto id = IdentityOf(&inst);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Pinned at the commit before the bridge join was rewritten.
  EXPECT_EQ(id.value().fingerprint, 17557373615943150514ull);
  EXPECT_EQ(id.value().vars, 43u);
  EXPECT_EQ(id.value().props, 35u);
}

}  // namespace
}  // namespace cologne::runtime
