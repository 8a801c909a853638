#ifndef MDES_SCHED_VERIFY_H
#define MDES_SCHED_VERIFY_H

/**
 * @file
 * Independent schedule validation: replays a block schedule against the
 * dependence graph and a fresh RU map, proving (a) every dependence
 * distance is honored (cascaded operations may shrink relaxable RAW
 * edges to zero) and (b) the machine's resource constraints admit the
 * schedule. Used by tests and by the property suite to show that every
 * representation/transformation combination produced a legal schedule.
 *
 * verifyScheduleEx() returns a typed verdict so callers can branch on
 * the failure class (the exact/portfolio paths distinguish a resource
 * replay mismatch from a dependence bug); verifySchedule() keeps the
 * original string contract - empty means valid.
 */

#include <cstdint>
#include <string>

#include "lmdes/low_mdes.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"
#include "support/fnv.h"

namespace mdes::sched {

/**
 * FNV-1a fingerprint of a program's block schedules (lengths, issue
 * cycles, cascade use), continued from state @p h. Two engines that
 * make identical scheduling decisions hash identically; the pinned
 * schedule fingerprints in bench/baseline_perf.json are this hash.
 */
inline uint64_t
scheduleFingerprint(const std::vector<BlockSchedule> &schedules,
                    uint64_t h = kFnvOffset)
{
    for (const BlockSchedule &s : schedules) {
        h = fnvMix64(h, uint64_t(s.length));
        for (int32_t c : s.cycles)
            h = fnvMix64(h, uint64_t(uint32_t(c)));
        for (uint8_t u : s.used_cascade)
            h = fnvMix64(h, u);
    }
    return h;
}

/** The first violation class a schedule replay hit. */
enum class VerifyFault : uint8_t
{
    None = 0,
    /** cycles/used_cascade arrays do not match the block size. */
    SizeMismatch,
    /** An instruction has no issue cycle. */
    Unscheduled,
    /** A dependence edge's minimum distance is violated. */
    DependenceViolated,
    /** issue_order is present but not a permutation of the block. */
    BadIssueOrder,
    /** used_cascade set for a class without a cascade table. */
    MissingCascadeTree,
    /** The RU-map replay could not re-reserve an instruction. */
    ResourceConflict,
};

/** Stable lowercase name for @p fault (metrics / CLI output). */
const char *verifyFaultName(VerifyFault fault);

/** Typed verdict of one schedule validation. */
struct VerifyResult
{
    VerifyFault fault = VerifyFault::None;
    /** Offending instruction, kInvalidId when not instruction-specific. */
    uint32_t instr = kInvalidId;
    /** Human-readable description; empty when the schedule is valid. */
    std::string message;

    bool ok() const { return fault == VerifyFault::None; }
};

/**
 * Validate @p sched for @p block under @p low. The resource replay
 * follows the schedule's recorded issue_order when present (the exact
 * search issues out of (cycle, priority) order), else (cycle,
 * critical-path priority) order.
 */
VerifyResult verifyScheduleEx(const Block &block, const BlockSchedule &sched,
                              const lmdes::LowMdes &low);

/**
 * Validate @p sched for @p block under @p low.
 * @return an empty string when valid, else a description of the first
 *         violation found.
 */
std::string verifySchedule(const Block &block, const BlockSchedule &sched,
                           const lmdes::LowMdes &low);

} // namespace mdes::sched

#endif // MDES_SCHED_VERIFY_H
