#ifndef MDES_BENCH_BENCH_UTIL_H
#define MDES_BENCH_BENCH_UTIL_H

/**
 * @file
 * Shared scaffolding for the bench binaries: the paper's optimization
 * stages, table printing, and the pinned results of
 * bench/baseline_perf.json (timing-dependent bands are checked here by
 * the bench that measures them; every deterministic pin is recomputed
 * by the test_pinned ctest).
 *
 * Each bench binary regenerates one table or figure from the paper. The
 * transformation *stages* here mirror the paper's narrative order, so
 * "before/after" columns in Tables 7-13 compare adjacent stages:
 *
 *   Original   - straight from the high-level description (Section 4).
 *   Cleaned    - + CSE/copy-propagation/dead-code and redundant-option
 *                removal (Section 5).
 *   BitVector  - + one-cycle-per-word check packing (Section 6).
 *   TimeShifted- + per-resource usage-time shift and time-zero-first
 *                check sorting (Section 7).
 *   Full       - + common-usage hoisting and OR-subtree sorting
 *                (Section 8); the paper's fully optimized setting.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "sched/list_scheduler.h"
#include "support/text_table.h"

namespace mdes::bench {

/** Cumulative optimization stages in the paper's order. */
enum class Stage { Original, Cleaned, BitVector, TimeShifted, Full };

/** Human-readable stage name. */
const char *stageName(Stage stage);

/** Experiment configuration for (machine, rep, stage). */
exp::RunConfig stageConfig(const machines::MachineInfo &machine,
                           exp::Rep rep, Stage stage);

/** Run an experiment at a stage (scheduling enabled). */
exp::RunResult runStage(const machines::MachineInfo &machine,
                        exp::Rep rep, Stage stage);

/** Run an experiment at a stage without scheduling (size-only). */
exp::RunResult runStageSizeOnly(const machines::MachineInfo &machine,
                                exp::Rep rep, Stage stage);

/** Percent-reduction string: "(before-after)/before" formatted. */
std::string reduction(double before, double after);

/** One entry of bench/baseline_perf.json's results[]. */
struct Pin
{
    std::string name;
    /** Decimal fingerprint; empty when the entry pins none. */
    std::string fingerprint;
    /** The gated metric's key (checks_per_op, shed_rate, ...). */
    std::string metric;
    double value = 0;
    /** Inclusive range a timing-dependent metric must stay in. Without
     * one the metric may not exceed value * 1.05. */
    std::optional<std::pair<double, double>> band;
};

/** Parse a baseline document's results[]; throws MdesError when it is
 * malformed. */
std::vector<Pin> parsePins(std::string_view json);

/** Read and parse the committed bench/baseline_perf.json. */
std::vector<Pin> loadPins();

/**
 * Whether @p value lies inside the band pinned for @p name. Prints the
 * verdict; false also when @p pins has no banded entry of that name.
 */
bool inPinnedBand(const std::vector<Pin> &pins, std::string_view name,
                  double value);

/** One row of a paper option-breakdown table (Tables 1-4). */
struct PaperBreakdownRow
{
    uint64_t options;
    /** The paper's "% of scheduling attempts" (negative = illegible in
     * the source scan). */
    double paper_percent;
    const char *description;
};

/**
 * Reproduce a Table 1-4 option breakdown: schedule the machine's
 * workload, group scheduling attempts by each reservation table's
 * expanded option count, and print measured shares next to the paper's.
 */
void printBreakdown(const machines::MachineInfo &machine,
                    const std::vector<PaperBreakdownRow> &paper);

/** Print the standard bench header. */
void printHeader(const std::string &artifact, const std::string &what);

/**
 * Footnote reminding readers that absolute values are from the
 * reproduction's workload/accounting; shapes are the comparison target.
 */
void printFootnote();

} // namespace mdes::bench

#endif // MDES_BENCH_BENCH_UTIL_H
