#ifndef MDES_SCHED_LIST_SCHEDULER_H
#define MDES_SCHED_LIST_SCHEDULER_H

/**
 * @file
 * The MDES-driven, multi-platform forward list scheduler.
 *
 * The scheduler never hard-codes machine behavior: all execution
 * constraints come from the low-level MDES via the constraint checker,
 * which is exactly the paper's experimental setup (a generic list
 * scheduler driven by per-machine descriptions). Each TrySchedule of one
 * operation at one cycle is one *scheduling attempt*; the checker
 * tallies attempts, options checked, and resource checks.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "sched/dep_graph.h"
#include "sched/ir.h"
#include "support/histogram.h"

namespace mdes::sched {

/** The schedule of one basic block. */
struct BlockSchedule
{
    /** Issue cycle per instruction. */
    std::vector<int32_t> cycles;
    /** Whether each instruction used its cascade reservation table. */
    std::vector<uint8_t> used_cascade;
    /** Schedule length (one past the last issue cycle). */
    int32_t length = 0;
    /**
     * Instructions in the order their reservations were made. Schedule
     * validation replays reservations in this order so the checker's
     * greedy option choices match the scheduler's; left empty, replay
     * uses (cycle, critical-path priority) order.
     */
    std::vector<uint32_t> issue_order;

    bool operator==(const BlockSchedule &) const = default;
};

/** Aggregated scheduling results and statistics. */
struct SchedStats
{
    uint64_t ops_scheduled = 0;
    uint64_t total_schedule_length = 0;
    rumap::CheckStats checks;
    /** Scheduling attempts each operation needed before it was placed.
     * Filled by the schedulers' probe hooks only while a trace span is
     * active (tracing enabled), so the hot loop pays nothing when off. */
    Histogram attempts_per_op;

    double
    avgAttemptsPerOp() const
    {
        return ops_scheduled
                   ? double(checks.attempts) / double(ops_scheduled)
                   : 0;
    }
};

/**
 * Fill @p order with the instructions 0..key.size()-1 by descending
 * @p key, ties in source order - what a stable sort gives, without the
 * stable sort's temporary buffer.
 */
void orderByKey(std::vector<uint32_t> &order,
                const std::vector<int32_t> &key);

/** Throw the error of a scheduler @p who that ran past its cycle bound
 * (the description cannot issue some operation). */
[[noreturn]] void throwCycleBound(const char *who);

/**
 * Generous safety bound on a block's schedule length: every op needs at
 * least one cycle, plus dependence spans bounded by per-op latency sums.
 */
int64_t cycleBound(const Block &block, const lmdes::LowMdes &low);

/**
 * The forward cycle-driven list-scheduling loop: dependence graph, ready
 * list and readiness bookkeeping. ListScheduler and
 * fsa::FsaListScheduler both run it and differ only in the resource
 * model they plug in, so their schedules are identical by construction.
 *
 * Each cycle makes one pass over the ready list (critical path first,
 * then source order). An operation whose predecessors are all placed is
 * tried once the cycle reaches its earliest cycle - or, if it can
 * cascade, the earlier cycle its relaxable RAW edges allow, in which case
 * it uses its cascade reservation table while below the normal earliest
 * cycle. Both earliest cycles are raised as each predecessor is placed,
 * so a waiting operation costs one comparison per cycle.
 */
class ForwardListLoop
{
  public:
    /**
     * Schedule @p block. `try_issue(u, tree, cycle)` makes one scheduling
     * attempt of instruction u with AND/OR-tree `tree` and returns
     * whether the resources were reserved; `end_cycle()` runs after each
     * cycle's pass. @p who names the scheduler in errors.
     */
    template <class TryIssue, class EndCycle>
    BlockSchedule run(const Block &block, const lmdes::LowMdes &low,
                      TryIssue &&try_issue, EndCycle &&end_cycle,
                      const char *who);

  private:
    // Per-block scratch, reused across blocks: blocks are a handful of
    // operations, so allocation would cost more than the scheduling.
    DepGraph graph_;
    std::vector<uint32_t> ready_;
    std::vector<uint32_t> unscheduled_preds_;
    std::vector<int32_t> normal_ready_;
    std::vector<int32_t> cascade_ready_;
};

template <class TryIssue, class EndCycle>
BlockSchedule
ForwardListLoop::run(const Block &block, const lmdes::LowMdes &low,
                     TryIssue &&try_issue, EndCycle &&end_cycle,
                     const char *who)
{
    const size_t n = block.instrs.size();
    BlockSchedule sched;
    sched.cycles.assign(n, -1);
    sched.used_cascade.assign(n, 0);
    sched.issue_order.reserve(n);

    graph_.rebuild(block, low);
    orderByKey(ready_, graph_.priorities());
    const EdgeRows preds = graph_.predEdges();
    const EdgeRows succs = graph_.succEdges();
    const std::vector<DepEdge> &edges = graph_.edges();
    unscheduled_preds_.resize(n);
    for (uint32_t u = 0; u < n; ++u)
        unscheduled_preds_[u] = uint32_t(preds[u].size());
    normal_ready_.assign(n, 0);
    cascade_ready_.assign(n, 0);

    size_t remaining = n;
    const int64_t cycle_bound = cycleBound(block, low);
    for (int32_t cycle = 0; remaining > 0; ++cycle) {
        if (cycle > cycle_bound)
            throwCycleBound(who);
        // Compact out the operations placed this cycle (order-preserving,
        // so priority ties keep resolving by source order).
        size_t w = 0;
        for (size_t i = 0; i < ready_.size(); ++i) {
            uint32_t u = ready_[i];
            ready_[w++] = u;
            if (unscheduled_preds_[u] > 0)
                continue;
            const Instr &in = block.instrs[u];
            const lmdes::LowOpClass &cls = low.opClasses()[in.op_class];
            bool can_cascade =
                in.cascadable && cls.cascade_tree != kInvalidId;
            if (cycle < (can_cascade ? cascade_ready_[u] : normal_ready_[u]))
                continue;
            bool use_cascade = can_cascade && cycle < normal_ready_[u];
            if (!try_issue(u, use_cascade ? cls.cascade_tree : cls.tree,
                           cycle))
                continue;

            sched.cycles[u] = cycle;
            sched.used_cascade[u] = use_cascade ? 1 : 0;
            sched.length = std::max(sched.length, cycle + 1);
            sched.issue_order.push_back(u);
            --remaining;
            for (uint32_t e : succs[u]) {
                const DepEdge &edge = edges[e];
                int32_t at = cycle + edge.min_dist;
                normal_ready_[edge.succ] =
                    std::max(normal_ready_[edge.succ], at);
                cascade_ready_[edge.succ] =
                    std::max(cascade_ready_[edge.succ],
                             edge.cascade_relax ? cycle : at);
                --unscheduled_preds_[edge.succ];
            }
            --w; // drop u from the ready list
        }
        ready_.resize(w);
        end_cycle();
    }
    return sched;
}

/** Forward cycle-driven list scheduler. */
class ListScheduler
{
  public:
    explicit ListScheduler(const lmdes::LowMdes &low)
        : low_(low), checker_(low)
    {
    }

    /**
     * Schedule one basic block with a fresh RU map, accumulating
     * statistics into @p stats.
     */
    BlockSchedule scheduleBlock(const Block &block, SchedStats &stats);

    /** Schedule every block of @p program; returns per-block schedules. */
    std::vector<BlockSchedule> scheduleProgram(const Program &program,
                                               SchedStats &stats);

  private:
    const lmdes::LowMdes &low_;
    rumap::Checker checker_;

    ForwardListLoop loop_;
    rumap::RuMap ru_;
    std::vector<uint32_t> op_attempts_;
};

} // namespace mdes::sched

#endif // MDES_SCHED_LIST_SCHEDULER_H
