#ifndef MDES_PERFBENCH_COMMON_H
#define MDES_PERFBENCH_COMMON_H

/**
 * @file
 * What the three workloads share: run options, the result they hand
 * back, timing helpers, and the benchmark's own timed wrappers around
 * the compile layers (hmdes, core passes, lmdes).
 *
 * The benchmark adds no spans inside the program: every layer time is
 * taken here, around a call into that module's public functions.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/transforms.h"
#include "exp/runner.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "report.h"
#include "sched/list_scheduler.h"
#include "workload/workload.h"

namespace mdes::perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Microseconds since @p t0. */
inline double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured time of the run's timed loop. */
    double seconds = 10;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Scratch directory for stores (inside the checkout). */
    std::string work_dir = ".bench_work";
    /** Where bench/baseline_perf.json is found. */
    std::string repo_root = ".";
};

/** What a workload hands back. */
struct RunOutcome
{
    Tally tally;
    Metrics metrics;
    /** Human-readable report lines printed before the result line. */
    std::vector<std::string> notes;
};

/** Set-up is repeated this many times per run; setup_s is the median. */
inline constexpr int kSetupReps = 21;

/**
 * The calibration probe: a fixed burst of ordered-map work (lower_bound,
 * erase, insert over 64K nodes) that shares no code with the program
 * under test. Like the schedulers and the service, it chases pointers
 * through the heap and allocates, so it slows down with them when other
 * tenants of the host contend for its caches and memory; a core-bound
 * loop does not (on the 4-vCPU Xeon VM the benchmark was written on,
 * sched-bulk's rate swung 1.5x between stretches of a run while an ALU
 * loop held within 4%, and the map burst followed the workload with a
 * correlation near 0.9).
 *
 * Each workload reads the probe between windows of its measured loop,
 * with its own load paused, and scales each window by the host speed
 * read beside it (see Windows in report.h).
 */
class Probe
{
  public:
    Probe();
    /** Run one burst; its rate over kReferenceRate. */
    double speed();

    /** Map operations per burst (about 4 ms). */
    static constexpr int kOps = 4096;
    /** The burst's rate at reference speed, operations per second (its
     * median reading on the machine above, rounded). */
    static constexpr double kReferenceRate = 1.0e6;

  private:
    uint32_t next();

    std::map<uint32_t, uint32_t> map_;
    uint64_t state_ = 0x2545F4914F6CDD1Dull;
};

/** Host speed of a window from the probe readings on either side. */
inline double
windowSpeed(double before, double after)
{
    return 0.5 * (before + after);
}

/** Per-layer times of compile requests, summed over @c compiles. */
struct CompileLayers
{
    uint64_t compiles = 0;
    double hmdes_us = 0;
    /** Indexed like kPassNames. */
    double pass_us[6] = {};
    double lower_us = 0;
    double image_bytes = 0;
    double from_image_us = 0;
    PipelineStats applied;
    /** Mismatches between the pass-by-pass and the one-call lowering. */
    uint64_t mismatches = 0;

    /** Add the per-compile means to @p out (zeros when none). */
    void report(Metrics &out) const;
    /** Mean layer time of one compile, microseconds. */
    double meanUs() const;
};

/** The six paper passes in runPipeline's canonical order. */
inline constexpr const char *kPassNames[6] = {
    "cse", "redundant_options", "time_shift",
    "hoist", "sort_usages", "sort_or_trees"};

/**
 * Compile @p source the way exp::compileSourceToLow does, but one call
 * per layer: hmdes::compile, runPipeline once per single-pass config in
 * canonical order, LowMdes::lower, then save + fromImage of the v7
 * image. Each step is timed into @p acc. The result, and its image
 * attached with fromImage, must equal exp::compileSourceToLow of the
 * same inputs (LowMdes content equality).
 */
lmdes::LowMdes compileByLayer(std::string_view source,
                              const PipelineConfig &config,
                              bool bit_vector, exp::Rep rep,
                              CompileLayers &acc);

/**
 * FNV-1a over a program's block schedules (lengths, issue cycles,
 * cascade use) - the same hash bench/baseline_perf.json pins as
 * schedule/<machine>/<rep>/<stage> fingerprints.
 */
uint64_t
scheduleFingerprint(const std::vector<sched::BlockSchedule> &schedules);

/**
 * Replay each block's issue_order through rumap::Checker::tryReserve on
 * a fresh RuMap. Returns false when any reservation the scheduler made
 * is refused (the replayed schedule is not resource-feasible).
 */
bool replaySchedules(const lmdes::LowMdes &low,
                     const sched::Program &program,
                     const std::vector<sched::BlockSchedule> &schedules,
                     rumap::CheckStats &stats);

/**
 * Per-layer times of scheduling programs, summed: workload generation,
 * rumap::Checker construction, DepGraph::rebuild per block, the scheduler
 * call, the checker replay of its result, and verifyScheduleEx.
 */
struct ScheduleLayers
{
    uint64_t programs = 0;
    uint64_t generated = 0;
    uint64_t ops = 0;
    uint64_t blocks = 0;
    /** Ops scheduled by the list scheduler (list_ns covers these). */
    uint64_t list_ops = 0;
    uint64_t verify_ops = 0;
    double generate_us = 0;
    double checker_us = 0;
    double dep_ns = 0;
    double replay_ns = 0;
    double list_ns = 0;
    double verify_ns = 0;
    /** Checker counters of the list-scheduled programs. */
    rumap::CheckStats checks;

    /** Schedule @p prog (list or backward), replay it, and verify it
     * when asked; replay or verify failures count against @p tally. */
    std::vector<sched::BlockSchedule>
    add(const lmdes::LowMdes &low, const sched::Program &prog,
        bool backward, bool verify, Tally &tally);
    /** Generate the program for @p spec, timed, then add() it. */
    void addGenerated(const lmdes::LowMdes &low,
                      const workload::WorkloadSpec &spec, bool backward,
                      bool verify, Tally &tally);
    void merge(const ScheduleLayers &other);

    /** rumap.{attempts_per_op,options_per_attempt,checks_per_attempt,
     * prefilter_hit_rate,replay_ns_per_op}.<rep> and
     * sched.{list,residual}_ns_per_op.<rep>. */
    void reportRep(Metrics &out, const std::string &rep) const;
    /** workload.generate_us, rumap.checker_build_us,
     * sched.{dep_graph,verify}_ns_per_op, sched.ops_per_block. */
    void reportShared(Metrics &out) const;
    /** Mean time of the named layers per program, microseconds. */
    double meanUs() const;
};

/** The six built-in machines: the paper's four, then the extensions. */
std::vector<const machines::MachineInfo *> builtinMachines();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Run @p setup kSetupReps times and return the median of its wall
 * times (s), each scaled to reference speed by the probe readings on
 * either side; the last result is left in @p state. */
template <class State, class Fn>
double
timedSetup(State &state, Probe &probe, Fn &&setup)
{
    std::vector<double> times;
    double before = probe.speed();
    for (int i = 0; i < kSetupReps; ++i) {
        Clock::time_point t0 = Clock::now();
        state = setup();
        double s = secondsSince(t0);
        double after = probe.speed();
        times.push_back(s * windowSpeed(before, after));
        before = after;
    }
    return median(times);
}

RunOutcome runSchedBulk(const RunOptions &opts);
RunOutcome runServeSmall(const RunOptions &opts);
RunOutcome runCompileCold(const RunOptions &opts);

} // namespace mdes::perfbench

#endif // MDES_PERFBENCH_COMMON_H
