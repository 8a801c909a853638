#include "sched/list_scheduler.h"

#include <string>

#include "support/diagnostics.h"
#include "support/trace.h"

namespace mdes::sched {

void
orderByKey(std::vector<uint32_t> &order, const std::vector<int32_t> &key)
{
    const uint32_t n = uint32_t(key.size());
    order.resize(n);
    // Insertion sort: blocks are mostly a handful of operations, and
    // critical-path keys mostly fall in source order, so each insert
    // moves little. Even at its quadratic worst it costs no more than
    // the scheduling loop's own pass over the ready list per cycle.
    for (uint32_t i = 0; i < n; ++i) {
        uint32_t j = i;
        for (; j > 0 && key[order[j - 1]] < key[i]; --j)
            order[j] = order[j - 1];
        order[j] = i;
    }
}

void
throwCycleBound(const char *who)
{
    throw MdesError(std::string(who) +
                    " exceeded cycle bound; the machine description "
                    "cannot issue some operation");
}

int64_t
cycleBound(const Block &block, const lmdes::LowMdes &low)
{
    int64_t bound = 64;
    for (const auto &in : block.instrs)
        bound += 2 + low.opClasses()[in.op_class].latency;
    return bound;
}

BlockSchedule
ListScheduler::scheduleBlock(const Block &block, SchedStats &stats)
{
    const size_t n = block.instrs.size();
    if (n == 0)
        return {};

    // Probe hook: per-op attempt counts, collected only under a live
    // span so the untraced loop pays a flag test and nothing more.
    trace::ScopedSpan span("sched/block");
    if (span.active())
        op_attempts_.assign(n, 0);
    const uint64_t attempts_before = stats.checks.attempts;
    const uint64_t prefilter_before = stats.checks.prefilter_hits;

    stats.checks.sizeFor(low_);
    ru_.clear();
    BlockSchedule sched = loop_.run(
        block, low_,
        [&](uint32_t u, uint32_t tree, int32_t cycle) {
            if (span.active())
                ++op_attempts_[u];
            return checker_.tryReserve(tree, cycle, ru_, stats.checks);
        },
        [] {}, "list scheduler");

    stats.ops_scheduled += n;
    stats.total_schedule_length += uint64_t(sched.length);
    if (span.active()) {
        for (uint32_t a : op_attempts_)
            stats.attempts_per_op.add(a);
        span.counter("ops", n);
        span.counter("length", uint64_t(sched.length));
        span.counter("attempts", stats.checks.attempts - attempts_before);
        span.counter("prefilter_hits",
                     stats.checks.prefilter_hits - prefilter_before);
    }
    return sched;
}

std::vector<BlockSchedule>
ListScheduler::scheduleProgram(const Program &program, SchedStats &stats)
{
    std::vector<BlockSchedule> schedules;
    schedules.reserve(program.blocks.size());
    for (const auto &block : program.blocks)
        schedules.push_back(scheduleBlock(block, stats));
    return schedules;
}

} // namespace mdes::sched
