/**
 * @file
 * Scheduler substrate tests: dependence-graph construction (RAW/WAR/WAW,
 * cascade relaxation, branch ordering, priorities, and equivalence with
 * a reference implementation on random blocks), list scheduling against
 * the MDES, cascade selection, FSA/RU-map agreement, and schedule
 * verification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/transforms.h"
#include "fsa/automaton.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "sched/dep_graph.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "support/rng.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using sched::Block;
using sched::BlockSchedule;
using sched::DepGraph;
using sched::Instr;
using sched::ListScheduler;
using sched::SchedStats;

/** A 2-wide machine: 2 slots, ops take one slot; ADD cascades on S[1]. */
LowMdes
twoWide()
{
    static const char *src = R"(
machine "two-wide" {
    resource S[2];
    ortree AnyS { for i in 0 .. 1 { option { use S[i] at 0; } } }
    ortree S1 { option { use S[1] at 0; } }
    table Any = AnyS;
    table Casc = S1;
    operation ADD { table Any; latency 1; cascade Casc; }
    operation LOAD { table Any; latency 3; }
    operation BR { table Any; latency 1; }
}
)";
    Mdes m = hmdes::compileOrThrow(src);
    return LowMdes::lower(m, {});
}

Instr
instr(uint32_t cls, std::vector<int32_t> srcs, std::vector<int32_t> dsts,
      bool cascadable = false, bool is_branch = false)
{
    Instr in;
    in.op_class = cls;
    in.srcs = std::move(srcs);
    in.dsts = std::move(dsts);
    in.cascadable = cascadable;
    in.is_branch = is_branch;
    return in;
}

// --------------------------------------------------------------- DepGraph

TEST(DepGraph, RawWarWawEdges)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {
        instr(LOAD, {1}, {2}), // 0: r2 = load r1
        instr(ADD, {2}, {3}),  // 1: r3 = r2 + ...   RAW 0->1 dist 3
        instr(ADD, {9}, {2}),  // 2: r2 = ...        WAW 0->2, WAR 1->2
    };
    DepGraph g = DepGraph::build(b, low);

    bool raw = false, waw = false, war = false;
    for (const auto &e : g.edges()) {
        if (e.pred == 0 && e.succ == 1) {
            raw = true;
            EXPECT_EQ(e.min_dist, 3);
        }
        if (e.pred == 0 && e.succ == 2) {
            waw = true;
            EXPECT_EQ(e.min_dist, 1);
        }
        if (e.pred == 1 && e.succ == 2) {
            war = true;
            EXPECT_EQ(e.min_dist, 0);
        }
    }
    EXPECT_TRUE(raw && waw && war);
}

TEST(DepGraph, CascadeRelaxOnlyForSingleCycleProducers)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {
        instr(ADD, {1}, {2}),              // 0
        instr(ADD, {2}, {3}, true),        // 1: cascadable consumer
        instr(LOAD, {9}, {4}),             // 2
        instr(ADD, {4}, {5}, true),        // 3: load-fed: no relax
    };
    DepGraph g = DepGraph::build(b, low);
    for (const auto &e : g.edges()) {
        if (e.pred == 0 && e.succ == 1) {
            EXPECT_TRUE(e.cascade_relax);
        }
        if (e.pred == 2 && e.succ == 3) {
            EXPECT_FALSE(e.cascade_relax);
        }
    }
}

TEST(DepGraph, NoSelfEdges)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    // Reads and writes the same register, plus a double write.
    b.instrs = {instr(ADD, {1}, {1}), instr(ADD, {2}, {3, 3})};
    DepGraph g = DepGraph::build(b, low);
    for (const auto &e : g.edges())
        EXPECT_NE(e.pred, e.succ);
}

TEST(DepGraph, BranchOrderedLast)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t BR = low.findOpClass("BR");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {3}, {4}),
                instr(BR, {}, {}, false, true)};
    DepGraph g = DepGraph::build(b, low);
    int edges_to_branch = 0;
    for (const auto &e : g.edges())
        edges_to_branch += e.succ == 2;
    EXPECT_EQ(edges_to_branch, 2);
}

TEST(DepGraph, PrioritiesAreCriticalPath)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {
        instr(LOAD, {1}, {2}), // 0: feeds the chain, lat 3
        instr(ADD, {2}, {3}),  // 1
        instr(ADD, {3}, {4}),  // 2
        instr(ADD, {9}, {8}),  // 3: independent
    };
    DepGraph g = DepGraph::build(b, low);
    // height(2) = 1, height(1) = 1 + 1, height(0) = 3 + 2.
    EXPECT_EQ(g.priorities()[0], 5);
    EXPECT_EQ(g.priorities()[1], 2);
    EXPECT_EQ(g.priorities()[2], 1);
    EXPECT_EQ(g.priorities()[3], 1);
}

// ---------------------------------------------------------- ListScheduler

TEST(Scheduler, PacksIndependentOpsByWidth)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    for (int i = 0; i < 4; ++i)
        b.instrs.push_back(instr(ADD, {10 + i}, {20 + i}));
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // 4 independent single-slot ops on a 2-wide machine: 2 cycles.
    EXPECT_EQ(sched.length, 2);
    EXPECT_EQ(stats.ops_scheduled, 4u);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 0);
    EXPECT_EQ(sched.cycles[2], 1);
    EXPECT_EQ(sched.cycles[3], 1);
}

TEST(Scheduler, HonorsLatency)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(LOAD, {1}, {2}), instr(ADD, {2}, {3})};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 3);
}

TEST(Scheduler, CascadeExecutesSameCycle)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {2}, {3}, true)};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // The flow-dependent consumer cascades into the same cycle using
    // the dedicated cascade slot.
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 0);
    EXPECT_EQ(sched.used_cascade[1], 1);
    EXPECT_EQ(sched.length, 1);
}

TEST(Scheduler, NonCascadableWaitsFullLatency)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {2}, {3}, false)};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[1], 1);
    EXPECT_EQ(sched.used_cascade[1], 0);
}

TEST(Scheduler, CountsAttemptsPerTree)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    for (int i = 0; i < 3; ++i)
        b.instrs.push_back(instr(ADD, {10 + i}, {20 + i}));
    ListScheduler s(low);
    SchedStats stats;
    s.scheduleBlock(b, stats);
    // 2 fit in cycle 0, third fails once then lands in cycle 1: four
    // attempts total on the ADD tree.
    EXPECT_EQ(stats.checks.attempts, 4u);
    uint32_t add_tree = low.opClasses()[ADD].tree;
    EXPECT_EQ(stats.checks.attempts_per_tree[add_tree], 4u);
}

TEST(Scheduler, EmptyBlock)
{
    LowMdes low = twoWide();
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock({}, stats);
    EXPECT_EQ(sched.length, 0);
    EXPECT_EQ(stats.ops_scheduled, 0u);
}

// ----------------------------------------------------------------- Verify

TEST(Verify, AcceptsSchedulerOutput)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(LOAD, {1}, {2}), instr(ADD, {2}, {3}, true),
                instr(ADD, {3}, {4}, true), instr(ADD, {9}, {5})};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched::verifySchedule(b, sched, low), "");
}

TEST(Verify, RejectsDependenceViolation)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(LOAD, {1}, {2}), instr(ADD, {2}, {3})};
    BlockSchedule bad;
    bad.cycles = {0, 1}; // needs distance 3
    bad.used_cascade = {0, 0};
    bad.length = 2;
    EXPECT_NE(sched::verifySchedule(b, bad, low).find("dependence"),
              std::string::npos);
}

TEST(Verify, RejectsResourceOversubscription)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {3}, {4}),
                instr(ADD, {5}, {6})};
    BlockSchedule bad;
    bad.cycles = {0, 0, 0}; // 3 ops on a 2-wide machine
    bad.used_cascade = {0, 0, 0};
    bad.length = 1;
    EXPECT_NE(sched::verifySchedule(b, bad, low).find("resource"),
              std::string::npos);
}

TEST(Verify, RejectsUnscheduledAndSizeMismatch)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2})};
    BlockSchedule bad;
    bad.cycles = {-1};
    bad.used_cascade = {0};
    EXPECT_NE(sched::verifySchedule(b, bad, low).find("never scheduled"),
              std::string::npos);
    BlockSchedule wrong;
    EXPECT_NE(sched::verifySchedule(b, wrong, low).find("size"),
              std::string::npos);
}

// -------------------------------------------------- SuperSPARC integration

TEST(Scheduler, SuperSparcCascadePairsIssueTogether)
{
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    LowMdes low = LowMdes::lower(m, {});
    uint32_t ADD_I = low.findOpClass("ADD_I");

    Block b;
    b.instrs = {instr(ADD_I, {1}, {2}, true),
                instr(ADD_I, {2}, {3}, true)};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 0);
    EXPECT_EQ(sched.used_cascade[1], 1);
    EXPECT_EQ(sched::verifySchedule(b, sched, low), "");
}

TEST(Scheduler, SuperSparcIssueWidthIsThree)
{
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    LowMdes low = LowMdes::lower(m, {});
    uint32_t ADD_I = low.findOpClass("ADD_I");
    Block b;
    for (int i = 0; i < 6; ++i)
        b.instrs.push_back(instr(ADD_I, {10 + i}, {20 + i}));
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // Six independent IALU ops: 3 decoders but only 2 IALUs and 2 write
    // ports per cycle, so 2 per cycle -> 3 cycles.
    EXPECT_EQ(sched.length, 3);
}

// ------------------------------------------ DepGraph reference equivalence

/** A dependence graph as the original algorithm built it - registers in a
 * linearly scanned list, duplicate edges found by scanning the
 * predecessor's successors, adjacency in per-instruction vectors. The
 * flat DepGraph must reproduce it exactly. */
struct RefGraph
{
    std::vector<sched::DepEdge> edges;
    std::vector<std::vector<uint32_t>> preds, succs;
    std::vector<int32_t> priorities;
};

RefGraph
referenceGraph(const Block &block, const LowMdes &low)
{
    const size_t n = block.instrs.size();
    RefGraph g;
    g.preds.resize(n);
    g.succs.resize(n);
    auto addEdge = [&](uint32_t pred, uint32_t succ, int32_t dist,
                       bool relax) {
        if (pred == succ)
            return;
        for (uint32_t e : g.succs[pred]) {
            sched::DepEdge &edge = g.edges[e];
            if (edge.succ == succ) {
                if (dist > edge.min_dist) {
                    edge.min_dist = dist;
                    edge.cascade_relax = relax;
                } else if (dist == edge.min_dist && !relax) {
                    edge.cascade_relax = false;
                }
                return;
            }
        }
        g.edges.push_back({pred, succ, dist, relax});
        g.succs[pred].push_back(uint32_t(g.edges.size() - 1));
        g.preds[succ].push_back(uint32_t(g.edges.size() - 1));
    };
    struct Reg
    {
        int32_t reg;
        bool has_writer;
        uint32_t last_writer;
        std::vector<uint32_t> readers;
    };
    std::vector<Reg> regs;
    auto state = [&](int32_t r) -> Reg & {
        for (Reg &st : regs)
            if (st.reg == r)
                return st;
        regs.push_back({r, false, 0, {}});
        return regs.back();
    };
    for (uint32_t i = 0; i < n; ++i) {
        const Instr &in = block.instrs[i];
        for (int32_t r : in.srcs) {
            Reg &st = state(r);
            if (st.has_writer) {
                int32_t lat = low.flowLatency(
                    block.instrs[st.last_writer].op_class, in.op_class);
                addEdge(st.last_writer, i, lat, in.cascadable && lat == 1);
            }
            st.readers.push_back(i);
        }
        for (int32_t r : in.dsts) {
            Reg &st = state(r);
            if (st.has_writer)
                addEdge(st.last_writer, i, 1, false);
            for (uint32_t reader : st.readers)
                addEdge(reader, i, 0, false);
            st.readers.clear();
            st.last_writer = i;
            st.has_writer = true;
        }
    }
    if (n > 0 && block.instrs[n - 1].is_branch) {
        for (uint32_t i = 0; i + 1 < n; ++i)
            addEdge(i, uint32_t(n - 1), 0, false);
    }
    g.priorities.assign(n, 0);
    for (size_t i = n; i > 0; --i) {
        uint32_t u = uint32_t(i - 1);
        int32_t h = low.opClasses()[block.instrs[u].op_class].latency;
        for (uint32_t e : g.succs[u])
            h = std::max(h, g.edges[e].min_dist +
                                g.priorities[g.edges[e].succ]);
        g.priorities[u] = h;
    }
    return g;
}

/** A random block over every register-id shape the IR admits. */
Block
randomBlock(Rng &rng, const LowMdes &low, size_t n)
{
    static const int32_t kEdgeIds[] = {
        0, 4095, 4096, 99999, 100000,
        std::numeric_limits<int32_t>::max(),
        std::numeric_limits<int32_t>::min()};
    auto reg = [&]() -> int32_t {
        switch (rng.below(5)) {
        case 0:
        case 1:
            return int32_t(rng.below(8)); // heavy reuse
        case 2:
            return int32_t(rng.below(100001)); // sasm's whole range
        case 3:
            return -1 - int32_t(rng.below(4)); // negative ids
        default:
            return kEdgeIds[rng.below(std::size(kEdgeIds))];
        }
    };
    Block b;
    for (size_t i = 0; i < n; ++i) {
        Instr in;
        in.op_class = uint32_t(rng.below(low.opClasses().size()));
        for (uint64_t k = rng.below(4); k > 0; --k)
            in.srcs.push_back(reg());
        for (uint64_t k = rng.below(3); k > 0; --k)
            in.dsts.push_back(reg());
        if (!in.srcs.empty() && rng.chance(0.25)) // read and write one reg
            in.dsts.push_back(in.srcs[rng.below(in.srcs.size())]);
        in.cascadable = rng.chance(0.5);
        b.instrs.push_back(std::move(in));
    }
    if (n > 0 && rng.chance(0.5))
        b.instrs.back().is_branch = true;
    return b;
}

TEST(DepGraph, RebuildMatchesReferenceAndFsaMatchesList)
{
    // Block sizes grow, then shrink, so one reused graph (and one
    // reused scheduler of each kind) sees stale storage of every size.
    std::vector<size_t> sizes;
    for (size_t n : {0, 1, 2, 3, 5, 8, 13, 21, 40, 80, 160, 300})
        sizes.push_back(n);
    for (size_t i = sizes.size() - 1; i > 0; --i)
        sizes.push_back(sizes[i - 1]);

    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        shiftUsageTimes(m); // the automaton needs non-negative times
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = true;
        LowMdes low = LowMdes::lower(m, lopts);

        DepGraph graph;
        ListScheduler list(low);
        fsa::SchedulerAutomaton automaton(low);
        fsa::FsaListScheduler fsa_list(low, automaton);
        Rng rng(0xD16 + info->name.size());
        for (size_t round = 0; round < 3; ++round) {
            for (size_t n : sizes) {
                SCOPED_TRACE("block of " + std::to_string(n));
                Block b = randomBlock(rng, low, n);
                RefGraph ref = referenceGraph(b, low);
                graph.rebuild(b, low);

                ASSERT_EQ(graph.edges().size(), ref.edges.size());
                for (size_t e = 0; e < ref.edges.size(); ++e) {
                    const sched::DepEdge &x = graph.edges()[e];
                    const sched::DepEdge &y = ref.edges[e];
                    ASSERT_EQ(x.pred, y.pred) << "edge " << e;
                    ASSERT_EQ(x.succ, y.succ) << "edge " << e;
                    ASSERT_EQ(x.min_dist, y.min_dist) << "edge " << e;
                    ASSERT_EQ(x.cascade_relax, y.cascade_relax)
                        << "edge " << e;
                }
                for (size_t u = 0; u < n; ++u) {
                    auto preds = graph.predEdges()[u];
                    auto succs = graph.succEdges()[u];
                    ASSERT_EQ(std::vector<uint32_t>(preds.begin(),
                                                    preds.end()),
                              ref.preds[u]);
                    ASSERT_EQ(std::vector<uint32_t>(succs.begin(),
                                                    succs.end()),
                              ref.succs[u]);
                }
                ASSERT_EQ(graph.priorities(), ref.priorities);

                // The ready-list order is the stable sort by priority.
                std::vector<uint32_t> order, stable(n);
                sched::orderByKey(order, graph.priorities());
                for (uint32_t i = 0; i < n; ++i)
                    stable[i] = i;
                std::stable_sort(stable.begin(), stable.end(),
                                 [&](uint32_t x, uint32_t y) {
                                     return ref.priorities[x] >
                                            ref.priorities[y];
                                 });
                ASSERT_EQ(order, stable);

                SchedStats list_stats, fsa_stats;
                BlockSchedule a = list.scheduleBlock(b, list_stats);
                BlockSchedule f = fsa_list.scheduleBlock(b, fsa_stats);
                ASSERT_EQ(a, f);
                ASSERT_EQ(list_stats.checks.attempts,
                          fsa_stats.checks.attempts);
                ASSERT_EQ(sched::verifySchedule(b, a, low), "");
            }
        }
    }
}

} // namespace
} // namespace mdes
