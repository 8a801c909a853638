/**
 * @file
 * sched-bulk: the compiler's in-process use of a compiled description,
 * single-threaded, closed loop (one caller).
 *
 * Set-up compiles each paper machine (PA7100, Pentium, SuperSPARC, K5)
 * twice - the service default (AND/OR trees, PipelineConfig::all(),
 * bit-vector packing) and the paper's original OR-tree form with
 * PipelineConfig::none() - and generates large programs from each
 * machine's SPEC-mix generator. The timed loop constructs a
 * ListScheduler per program and calls scheduleProgram, so only per-op
 * work counts: dependence graph, ready list and checker probes. In the
 * OR-original half checker probes dominate; in the AND/OR half they are
 * a minority, so checker gains and dep-graph/ready-list gains move this
 * workload in ways the per-layer split tells apart.
 *
 * The measured loop runs in windows of whole passes over the programs;
 * each pass is scaled by the probe readings taken before and after it.
 */

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common.h"
#include "machines/machines.h"
#include "support/json.h"
#include "support/rng.h"
#include "workload/workload.h"

namespace mdes::perfbench {

namespace {

/** Programs per machine and their size: 6 x 3000 ops per machine. */
constexpr int kPrograms = 6;
constexpr size_t kOpsPerProgram = 3000;

/** Call time of one window of the measured loop: enough calls (over
 * 1000) for each window's p99 to leave ten beyond it. */
constexpr double kWindowS = 2.0;

enum RepIdx { kAndOr = 0, kOrig = 1 };
constexpr const char *kRepNames[2] = {"andor_full", "or_original"};

exp::RunConfig
repConfig(const machines::MachineInfo &m, int rep)
{
    exp::RunConfig c = rep == kAndOr
                           ? exp::optimizedConfig(m, exp::Rep::AndOrTree)
                           : exp::originalConfig(m, exp::Rep::OrTree);
    c.schedule = false;
    return c;
}

struct Machine
{
    const machines::MachineInfo *info = nullptr;
    lmdes::LowMdes low[2];
    /** programs[rep][p]: the same generator draw resolved per lowering. */
    std::vector<sched::Program> programs[2];
};

struct State
{
    std::vector<Machine> machines;
};

std::unique_ptr<State>
setUp(uint64_t seed)
{
    auto st = std::make_unique<State>();
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
    for (const machines::MachineInfo *m : machines::all()) {
        Machine mc;
        mc.info = m;
        for (int rep : {kAndOr, kOrig})
            mc.low[rep] = exp::run(repConfig(*m, rep)).low;
        for (int p = 0; p < kPrograms; ++p) {
            workload::WorkloadSpec spec = m->workload;
            spec.num_ops = kOpsPerProgram;
            spec.seed = rng.next() | 1;
            for (int rep : {kAndOr, kOrig})
                mc.programs[rep].push_back(
                    workload::generate(spec, mc.low[rep]));
        }
        st->machines.push_back(std::move(mc));
    }
    return st;
}

/** One machine-rep's totals over the timed loop. */
struct RepTotals
{
    double call_s = 0;
    /** Resource checks of the first pass over the programs. */
    uint64_t first_pass_checks = 0;
};

/**
 * The sched-bulk self-test: at each machine's default seed with 20000
 * ops, every (rep, stage) must reproduce the schedule fingerprint pinned
 * in bench/baseline_perf.json under schedule/<machine>/<rep>/<stage>.
 */
void
selfTest(const RunOptions &opts, Tally &tally,
         std::vector<std::string> &notes)
{
    std::string path = opts.repo_root + "/bench/baseline_perf.json";
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::map<std::string, uint64_t> pinned;
    if (in) {
        JsonValue doc = parseJson(buf.str());
        if (const JsonValue *results = doc.find("results")) {
            for (const JsonValue &r : results->array) {
                const JsonValue *name = r.find("name");
                const JsonValue *fp = r.find("fingerprint");
                if (name && fp && name->string.rfind("schedule/", 0) == 0)
                    pinned[name->string] = std::stoull(fp->string);
            }
        }
    }
    size_t matched = 0, checked = 0;
    for (const machines::MachineInfo *m : machines::all()) {
        for (exp::Rep rep : {exp::Rep::OrTree, exp::Rep::AndOrTree}) {
            for (bool full : {false, true}) {
                exp::RunConfig c = full ? exp::optimizedConfig(*m, rep)
                                        : exp::originalConfig(*m, rep);
                c.num_ops_override = 20000;
                exp::RunResult r = exp::run(c);
                std::string name =
                    "schedule/" + m->name + "/" +
                    (rep == exp::Rep::OrTree ? "or" : "andor") + "/" +
                    (full ? "full" : "original");
                auto it = pinned.find(name);
                bool ok = it != pinned.end() &&
                          it->second == scheduleFingerprint(r.schedules);
                tally.check(ok);
                ++checked;
                matched += ok;
                if (!ok)
                    std::fprintf(stderr, "self-test: %s does not match %s\n",
                                 name.c_str(), path.c_str());
            }
        }
    }
    notes.push_back("self-test: " + std::to_string(matched) + "/" +
                    std::to_string(checked) +
                    " schedule fingerprints match bench/baseline_perf.json");
}

} // namespace

RunOutcome
runSchedBulk(const RunOptions &opts)
{
    RunOutcome out;
    Probe probe;
    std::unique_ptr<State> st;
    double setup_s =
        timedSetup(st, probe, [&] { return setUp(opts.seed); });

    const size_t nm = st->machines.size();
    // Reference fingerprints: the AND/OR result of each program's first
    // call; every later call of either rep must reproduce it (the
    // paper's Section 4 invariant).
    std::vector<std::vector<uint64_t>> ref(nm,
                                           std::vector<uint64_t>(kPrograms));
    std::vector<std::array<RepTotals, 2>> machine_totals(nm);
    uint64_t sched_cycles = 0;
    double phase_s[2] = {0, 0};
    uint64_t phase_ops[2] = {0, 0};
    uint64_t calls = 0;

    // Traced runs split the loop in two halves and report the drift
    // between them as the trace overhead: the benchmark's layer timers
    // run after the loop, never inside the measured calls.
    const int phases = opts.trace ? 2 : 1;
    // A window is whole passes over the programs, at least kWindowS of
    // call time; the probe is read between passes.
    Windows windows[2];
    for (int phase = 0; phase < phases; ++phase) {
        const double budget = opts.seconds / phases;
        Clock::time_point start = Clock::now();
        double before = probe.speed();
        double window_s = 0;
        for (int pass = 0; pass == 0 || secondsSince(start) < budget;
             ++pass) {
            const bool first = phase == 0 && pass == 0;
            double pass_s = 0;
            for (size_t mi = 0; mi < nm; ++mi) {
                Machine &mc = st->machines[mi];
                for (int p = 0; p < kPrograms; ++p) {
                    for (int rep : {kAndOr, kOrig}) {
                        const sched::Program &prog = mc.programs[rep][p];
                        sched::SchedStats stats;
                        Clock::time_point t0 = Clock::now();
                        sched::ListScheduler scheduler(mc.low[rep]);
                        auto schedules =
                            scheduler.scheduleProgram(prog, stats);
                        double s = secondsSince(t0);

                        pass_s += s;
                        ++calls;
                        windows[phase].add(double(stats.ops_scheduled),
                                           s * 1e3);
                        phase_ops[phase] += stats.ops_scheduled;
                        RepTotals &t = machine_totals[mi][rep];
                        t.call_s += s;
                        if (first)
                            t.first_pass_checks +=
                                stats.checks.resource_checks;
                        uint64_t fp = scheduleFingerprint(schedules);
                        if (first && rep == kAndOr) {
                            ref[mi][p] = fp;
                            sched_cycles += stats.total_schedule_length;
                        }
                        out.tally.record(true, fp == ref[mi][p]);
                    }
                }
            }
            double after = probe.speed();
            windows[phase].stretch(pass_s, windowSpeed(before, after));
            before = after;
            phase_s[phase] += pass_s;
            window_s += pass_s;
            if (window_s >= kWindowS) {
                windows[phase].close();
                window_s = 0;
            }
        }
        if (windows[phase].size() == 0)
            windows[phase].close();
    }
    selfTest(opts, out.tally, out.notes);

    const double total_s = phase_s[0] + phase_s[1];
    const uint64_t total_ops = phase_ops[0] + phase_ops[1];
    Percentile p99 = windows[0].medianTail();
    double lmdes_bytes = 0;
    for (const Machine &mc : st->machines)
        for (const auto &low : mc.low)
            lmdes_bytes += double(low.memory().total());

    char line[256];
    std::snprintf(line, sizeof line,
                  "sched-bulk: %llu program calls, %llu ops in %.3f s "
                  "scheduling (%.0f ops/s unscaled, median host speed "
                  "%.3f); p%.2f over %zu samples",
                  (unsigned long long)calls, (unsigned long long)total_ops,
                  total_s, windows[0].rawRate(), windows[0].medianSpeed(),
                  p99.pct, p99.samples);
    out.notes.push_back(line);

    if (!opts.trace) {
        Metrics &m = out.metrics;
        m["setup_s"] = {setup_s, "s"};
        m["ops_per_s"] = {windows[0].medianRate(), "1/s"};
        m["req_per_s"] = {windows[0].medianRequestRate(), "1/s"};
        m["latency_p50_ms"] = {windows[0].medianP50(), "ms"};
        m["latency_p99_ms"] = {p99.value, "ms"};
        m["sched_cycles"] = {double(sched_cycles), "cycles"};
        m["lmdes_bytes"] = {lmdes_bytes, "bytes"};
        m["ok_rate"] = {out.tally.okRate(), "ratio"};
        return out;
    }

    // ---- Traced run: per-layer accounting over one pass --------------
    Metrics &m = out.metrics;
    CompileLayers compile;
    for (const Machine &mc : st->machines) {
        for (int rep : {kAndOr, kOrig}) {
            exp::RunConfig c = repConfig(*mc.info, rep);
            compileByLayer(mc.info->source, c.transforms, c.bit_vector,
                           c.rep, compile);
        }
    }
    out.tally.check(compile.mismatches == 0);
    compile.report(m);

    ScheduleLayers layers[2];
    for (Machine &mc : st->machines)
        for (int rep : {kAndOr, kOrig})
            for (const sched::Program &prog : mc.programs[rep])
                layers[rep].add(mc.low[rep], prog, false, false, out.tally);
    ScheduleLayers both = layers[kAndOr];
    both.merge(layers[kOrig]);
    both.reportShared(m);
    for (int rep : {kAndOr, kOrig})
        layers[rep].reportRep(m, kRepNames[rep]);
    for (size_t mi = 0; mi < nm; ++mi) {
        const auto &mt = machine_totals[mi];
        const std::string &name = st->machines[mi].info->name;
        // Both reps schedule the same programs equally often.
        m["sched.time_ratio." + name] = {mt[kAndOr].call_s / mt[kOrig].call_s,
                                         "ratio"};
        m["rumap.checks_ratio." + name] = {
            double(mt[kAndOr].first_pass_checks) /
                double(mt[kOrig].first_pass_checks),
            "ratio"};
    }
    // Named layers per program call (checker construction, dep graph,
    // replay) against the measured call time.
    m["bench.layer_coverage"] = {
        layerCoverage({both.meanUs() * 1e-6 * double(calls)}, total_s),
        "ratio"};
    m["bench.trace_overhead_pct"] = {
        traceOverheadPct(windows[0].medianRate(), windows[1].medianRate()),
        "%"};
    return out;
}

} // namespace mdes::perfbench
