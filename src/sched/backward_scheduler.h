#ifndef MDES_SCHED_BACKWARD_SCHEDULER_H
#define MDES_SCHED_BACKWARD_SCHEDULER_H

/**
 * @file
 * Backward (bottom-up) list scheduler.
 *
 * Schedules a basic block from its exit toward its entry: an operation
 * becomes ready once all of its *successors* are placed, and is tried at
 * the latest cycle its outgoing dependences allow, walking earlier one
 * cycle at a time on resource conflicts. Useful when the consumers'
 * timing is what matters (e.g. scheduling toward a branch).
 *
 * This is the scheduler flavor Section 7 of the paper parameterizes
 * differently: the usage-time shift should make each resource's *latest*
 * usage time zero and the usage checks should be probed
 * latest-time-first (SchedDirection::Backward), since for a backward
 * scheduler the conflicts concentrate at the latest usage times. The
 * direction-tuning ablation bench measures exactly this effect.
 *
 * Cascade reservation tables are not used when scheduling backward (the
 * producer is not yet placed when the consumer is scheduled).
 */

#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "sched/dep_graph.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"

namespace mdes::sched {

/** Bottom-up cycle-driven list scheduler. */
class BackwardListScheduler
{
  public:
    explicit BackwardListScheduler(const lmdes::LowMdes &low)
        : low_(low), checker_(low)
    {
    }

    /**
     * Schedule one basic block with a fresh RU map. The returned cycles
     * are normalized so the earliest operation issues at cycle 0.
     */
    BlockSchedule scheduleBlock(const Block &block, SchedStats &stats);

    /** Schedule every block of @p program. */
    std::vector<BlockSchedule> scheduleProgram(const Program &program,
                                               SchedStats &stats);

  private:
    const lmdes::LowMdes &low_;
    rumap::Checker checker_;

    // Per-block scratch, reused across scheduleBlock() calls (see
    // ListScheduler).
    DepGraph graph_;
    rumap::RuMap ru_;
    std::vector<int32_t> depth_;
    std::vector<uint32_t> ready_;
    std::vector<uint32_t> unscheduled_succs_;
    std::vector<int32_t> latest_;
    std::vector<uint32_t> op_attempts_;
};

} // namespace mdes::sched

#endif // MDES_SCHED_BACKWARD_SCHEDULER_H
