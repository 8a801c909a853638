#ifndef MDES_PERFBENCH_REPORT_H
#define MDES_PERFBENCH_REPORT_H

/**
 * @file
 * The benchmark's metric arithmetic and result line. Kept free of any
 * mdes library dependency so the unit test links it alone.
 *
 * Conventions shared by every workload:
 *  - A tail latency is the highest nearest-rank percentile (at most the
 *    requested one) that still leaves at least kMinTailSamples samples
 *    above it, and is reported with its percentile and sample count.
 *  - Every failed or mismatched output counts against the attempts;
 *    a run with any of either is not correct and exits non-zero.
 *  - Layer coverage is the share of a workload's end-to-end time that
 *    its named, separately timed layers account for.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mdes::perfbench {

/** Samples a tail percentile must leave above it. */
inline constexpr size_t kMinTailSamples = 10;

/** The tail percentile every workload reports (latency_p99_ms). */
inline constexpr double kTailPct = 99;

/** A percentile read from a sample set. */
struct Percentile
{
    double value = 0;
    /** The percentile actually used, in percent (0 when empty). */
    double pct = 0;
    /** Samples the percentile was read from. */
    size_t samples = 0;
};

/** Nearest-rank @p pct percentile of @p samples (sorted in place). */
Percentile percentile(std::vector<double> &samples, double pct);

/**
 * The tail rule: the highest nearest-rank percentile no higher than
 * @p pct with at least kMinTailSamples samples above it. With too few
 * samples for any such percentile, the maximum is used and pct reports
 * 100.
 */
Percentile tailPercentile(std::vector<double> &samples, double pct);

/** Median of @p values; 0 when empty. */
double median(std::vector<double> values);

/**
 * A run's measured work in consecutive windows, each paired with the
 * host speed that the calibration probe read beside it (probe rate over
 * its reference rate; see Probe in common.h). Rates are scaled to the
 * reference speed by dividing by the window's speed, and latencies by
 * multiplying with it, so a stretch of memory contention from other
 * tenants of the machine slows the probe and the workload alike and
 * cancels out. Rates, p50 and the tail are medians over the windows.
 */
class Windows
{
  public:
    /** Record one completed request of the open window. */
    void add(double work, double latency_ms);
    /** Record work of the open window that has no request latency. */
    void addWork(double work) { open_.work += work; }
    /** End a stretch of the open window: the requests added since the
     * last stretch took @p seconds of measured time at host speed
     * @p speed. */
    void stretch(double seconds, double speed);
    /** Close the open window. */
    void close();
    /** A window of one stretch: stretch(seconds, speed), then close(). */
    void
    close(double seconds, double speed)
    {
        stretch(seconds, speed);
        close();
    }

    /** Median scaled work per second over the closed windows. */
    double medianRate() const;
    /** Median scaled requests per second, likewise. */
    double medianRequestRate() const;
    /** Median of the windows' scaled p50 latencies. */
    double medianP50() const;
    /** The tail rule (at kTailPct) applied to each closed window's
     * scaled latencies; the median window's reading, with the percentile
     * and sample count of the window it came from. */
    Percentile medianTail() const;
    /** Unscaled work per second over all closed windows. */
    double rawRate() const;
    /** Median host speed (time-weighted within a window) over the
     * closed windows. */
    double medianSpeed() const;
    size_t size() const { return windows_.size(); }

  private:
    /** A window; closed windows keep only their latency summaries, so
     * the benchmark's own memory does not grow with the run. */
    struct Window
    {
        double work = 0;
        uint64_t requests = 0;
        double seconds = 0;
        /** Sum of each stretch's seconds times its speed. */
        double scaled_seconds = 0;
        /** Scaled p50 and tail (0 without requests). */
        double p50 = 0;
        Percentile tail;
    };
    Window open_;
    /** Scaled latencies of the open window's ended stretches. */
    std::vector<double> open_ms_;
    /** Unscaled latencies of the open stretch. */
    std::vector<double> pending_ms_;
    std::vector<Window> windows_;
};

/** Outcome counts for one run: every output is checked. */
struct Tally
{
    uint64_t attempted = 0;
    /** Operations that returned an error. */
    uint64_t errors = 0;
    /** Operations that returned a result differing from its reference. */
    uint64_t mismatches = 0;

    /** Count one attempt with its outcome. */
    void
    record(bool ok, bool matches)
    {
        ++attempted;
        if (!ok)
            ++errors;
        else if (!matches)
            ++mismatches;
    }
    /** Count a standalone check (self-test, invariant) as an attempt. */
    void check(bool holds) { record(true, holds); }
    void merge(const Tally &other);

    uint64_t failed() const { return errors + mismatches; }
    /** failed / attempted (0 when nothing was attempted). */
    double errorRate() const;
    /** 1 - errorRate(); the share of attempts that succeeded. */
    double okRate() const;
    bool correct() const { return attempted > 0 && failed() == 0; }
};

/** Sum of @p layer_times over @p end_to_end (0 when end_to_end <= 0). */
double layerCoverage(const std::vector<double> &layer_times,
                     double end_to_end);

/** 100 * (plain_rate / traced_rate - 1): how much slower the traced
 * half of a run went, in percent (0 when either rate is not positive). */
double traceOverheadPct(double plain_rate, double traced_rate);

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Named metrics of one run (sorted by name in the output). */
using Metrics = std::map<std::string, Metric>;

/** Render a number with every significant digit (%.17g); non-finite
 * values render as 0 so the line stays valid JSON. */
std::string formatNumber(double v);

/** The final result line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. */
std::string resultLine(const Tally &tally, const Metrics &metrics);

} // namespace mdes::perfbench

#endif // MDES_PERFBENCH_REPORT_H
