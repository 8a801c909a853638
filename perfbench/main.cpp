/**
 * @file
 * mdbench: the repository's end-to-end benchmark program.
 *
 *   mdbench --workload sched-bulk|serve-small|compile-cold --seed N
 *           --seconds S --trace 0|1 [--root DIR] [--work-dir DIR]
 *
 * Prints human-readable report lines, then one JSON result line:
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
 * end-to-end metrics, traced runs the per-layer ones (a layer a workload
 * never calls reads 0). Exits non-zero when any output check failed.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

namespace {

using namespace mdes::perfbench;

/** Every end-to-end metric each untraced run reports. */
constexpr const char *kEndToEnd[] = {
    "setup_s",        "ops_per_s",    "req_per_s",   "latency_p50_ms",
    "latency_p99_ms", "sched_cycles", "lmdes_bytes", "ok_rate",
    "peak_rss_mb"};

/** Every per-layer metric each traced run reports, with its unit. */
constexpr const char *kPerLayer[][2] = {
    {"hmdes.compile_us", "us"},
    {"core.pass_us.cse", "us"},
    {"core.pass_us.redundant_options", "us"},
    {"core.pass_us.time_shift", "us"},
    {"core.pass_us.hoist", "us"},
    {"core.pass_us.sort_usages", "us"},
    {"core.pass_us.sort_or_trees", "us"},
    {"core.applied.merged", "count"},
    {"core.applied.options_removed", "count"},
    {"core.applied.resources_shifted", "count"},
    {"core.applied.usages_hoisted", "count"},
    {"core.applied.trees_reordered", "count"},
    {"lmdes.lower_us", "us"},
    {"lmdes.image_bytes", "bytes"},
    {"lmdes.from_image_us", "us"},
    {"store.publish_us", "us"},
    {"store.load_us", "us"},
    {"store.mapped_hit_rate", "ratio"},
    {"store.retries", "count"},
    {"service.queue_wait_us_p50", "us"},
    {"service.total_us_p50", "us"},
    {"service.cache_hit_rate", "ratio"},
    {"service.shed", "count"},
    {"workload.generate_us", "us"},
    {"rumap.checker_build_us", "us"},
    {"rumap.attempts_per_op.andor_full", "count"},
    {"rumap.attempts_per_op.or_original", "count"},
    {"rumap.options_per_attempt.andor_full", "count"},
    {"rumap.options_per_attempt.or_original", "count"},
    {"rumap.checks_per_attempt.andor_full", "count"},
    {"rumap.checks_per_attempt.or_original", "count"},
    {"rumap.prefilter_hit_rate.andor_full", "ratio"},
    {"rumap.prefilter_hit_rate.or_original", "ratio"},
    {"rumap.replay_ns_per_op.andor_full", "ns"},
    {"rumap.replay_ns_per_op.or_original", "ns"},
    {"sched.dep_graph_ns_per_op", "ns"},
    {"sched.list_ns_per_op.andor_full", "ns"},
    {"sched.list_ns_per_op.or_original", "ns"},
    {"sched.residual_ns_per_op.andor_full", "ns"},
    {"sched.residual_ns_per_op.or_original", "ns"},
    {"sched.verify_ns_per_op", "ns"},
    {"sched.ops_per_block", "ops"},
    {"sched.time_ratio.PA7100", "ratio"},
    {"sched.time_ratio.Pentium", "ratio"},
    {"sched.time_ratio.SuperSPARC", "ratio"},
    {"sched.time_ratio.K5", "ratio"},
    {"rumap.checks_ratio.PA7100", "ratio"},
    {"rumap.checks_ratio.Pentium", "ratio"},
    {"rumap.checks_ratio.SuperSPARC", "ratio"},
    {"rumap.checks_ratio.K5", "ratio"},
    {"net.transport_us_p50", "us"},
    {"net.fingerprint_mismatches", "count"},
    {"bench.layer_coverage", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mdbench: %s\nusage: mdbench --workload "
                 "sched-bulk|serve-small|compile-cold --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--work-dir DIR]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (i + 1 >= argc)
                return usage(("missing value for " + a).c_str());
            std::string v = argv[++i];
            if (a == "--workload") {
                opts.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                opts.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opts.seconds = std::stod(v);
            } else if (a == "--trace") {
                opts.trace = std::stoi(v) != 0;
            } else if (a == "--root") {
                opts.repo_root = v;
            } else if (a == "--work-dir") {
                opts.work_dir = v;
            } else {
                return usage(("unknown option " + a).c_str());
            }
        }
    } catch (const std::exception &) {
        return usage("bad numeric option");
    }
    if (!have_workload || !(opts.seconds > 0))
        return usage("--workload and a positive --seconds are required");

    RunOutcome out;
    try {
        if (opts.workload == "sched-bulk")
            out = runSchedBulk(opts);
        else if (opts.workload == "serve-small")
            out = runServeSmall(opts);
        else if (opts.workload == "compile-cold")
            out = runCompileCold(opts);
        else
            return usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mdbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }

    Metrics reported;
    if (opts.trace) {
        for (const auto &[name, unit] : kPerLayer) {
            auto it = out.metrics.find(name);
            reported[name] = it != out.metrics.end() ? it->second
                                                     : Metric{0, unit};
            reported[name].unit = unit;
        }
    } else {
        // A workload may sample its peak earlier, after a fixed amount
        // of work; otherwise it is the peak of the whole run.
        out.metrics.emplace("peak_rss_mb", Metric{peakRssMb(), "MB"});
        for (const char *name : kEndToEnd) {
            auto it = out.metrics.find(name);
            if (it == out.metrics.end()) {
                std::fprintf(stderr, "mdbench: %s did not report %s\n",
                             opts.workload.c_str(), name);
                return 1;
            }
            reported[name] = it->second;
        }
    }
    for (const std::string &line : out.notes)
        std::printf("%s\n", line.c_str());
    std::printf("%s\n", resultLine(out.tally, reported).c_str());
    std::fflush(stdout);
    return out.tally.correct() ? 0 : 1;
}
