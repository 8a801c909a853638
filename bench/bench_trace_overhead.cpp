/**
 * @file
 * Enforces mdes::trace's overhead budget on the scheduler hot loop:
 * with tracing *disabled*, a full list-scheduling run of the pinned
 * schedule/SuperSPARC/andor/full workload (fully optimized AND/OR
 * description, 20k ops) must cost within 1% of the same run before
 * tracing was ever enabled - the probe hooks reduce to one relaxed
 * atomic load per block and per-span scope.
 *
 * Method: median of repeated runs in one binary, comparing the
 * never-enabled state against the disabled-after-use state (ring
 * registered, one capture drained - the steady state of a long-lived
 * service that traced one request). A failed comparison re-samples both
 * sides a few times before declaring failure, since a 1% budget sits near
 * machine noise. The enabled-tracing cost is reported informationally,
 * not asserted: it pays for per-op attempt counts and the conflict
 * heat table by design.
 *
 * `--json <path>` writes the measurements for CI artifact upload.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sched/list_scheduler.h"
#include "support/flightrec.h"
#include "support/json.h"
#include "support/trace.h"
#include "workload/workload.h"

namespace {

using namespace mdes;
using namespace mdes::bench;

double
scheduleOnce(const lmdes::LowMdes &low, const sched::Program &program,
             uint64_t *ops_out = nullptr)
{
    auto t0 = std::chrono::steady_clock::now();
    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    scheduler.scheduleProgram(program, stats);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (ops_out)
        *ops_out = stats.ops_scheduled;
    return ms;
}

double
medianRunMs(const lmdes::LowMdes &low, const sched::Program &program,
            int samples)
{
    std::vector<double> ms;
    for (int i = 0; i < samples; ++i)
        ms.push_back(scheduleOnce(low, program));
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_trace_overhead [--json <path>]\n");
            return 2;
        }
    }

    printHeader("trace overhead",
                "scheduler hot-loop cost of tracing: "
                "never-enabled vs disabled-after-use vs enabled");

    const machines::MachineInfo *machine = nullptr;
    for (const auto *m : machines::all()) {
        if (m->name == "SuperSPARC")
            machine = m;
    }
    if (!machine) {
        std::fprintf(stderr, "SuperSPARC not built in\n");
        return 1;
    }

    exp::RunConfig config = stageConfig(*machine, exp::Rep::AndOrTree,
                                        Stage::Full);
    config.schedule = false;
    exp::RunResult built = exp::run(config);

    workload::WorkloadSpec spec = machine->workload;
    spec.num_ops = 20000;
    sched::Program program = workload::generate(spec, built.low);

    constexpr int kSamples = 9;
    constexpr double kBudget = 0.01;

    // Warm the caches, then measure the pristine state: tracing has
    // never been enabled in this process.
    scheduleOnce(built.low, program);
    scheduleOnce(built.low, program);
    double baseline_ms = medianRunMs(built.low, program, kSamples);

    // One traced run: exercises the probe hooks (informational cost)
    // and sanity-checks that the enabled path records spans with their
    // args into the ring.
    trace::setEnabled(true);
    uint64_t traced_ops = 0;
    double enabled_ms = scheduleOnce(built.low, program, &traced_ops);
    trace::setEnabled(false);
    const flightrec::Capture capture = flightrec::endCapture();
    const size_t spans = capture.events.size();
    const bool has_args =
        std::any_of(capture.events.begin(), capture.events.end(),
                    [](const flightrec::Event &e) {
                        return !e.args.empty();
                    });
    bool ok = true;
    if (spans == 0 || !has_args || traced_ops == 0) {
        std::fprintf(stderr,
                     "FAIL: enabled run drained %zu spans (%s args) for "
                     "%llu ops (tracing inert?)\n",
                     spans, has_args ? "with" : "without",
                     (unsigned long long)traced_ops);
        ok = false;
    }

    // The asserted state: disabled again, ring registered. A 1%
    // budget is close to timer noise, so a miss re-samples both sides
    // before counting as a regression.
    double disabled_ms = medianRunMs(built.low, program, kSamples);
    double overhead = disabled_ms / baseline_ms - 1.0;
    int rounds = 1;
    while (overhead > kBudget && rounds < 5) {
        baseline_ms = medianRunMs(built.low, program, kSamples);
        disabled_ms = medianRunMs(built.low, program, kSamples);
        overhead = disabled_ms / baseline_ms - 1.0;
        ++rounds;
    }
    if (overhead > kBudget) {
        std::fprintf(stderr,
                     "FAIL: disabled tracing costs %.2f%% (budget "
                     "%.0f%%) after %d measurement rounds\n",
                     overhead * 100.0, kBudget * 100.0, rounds);
        ok = false;
    }

    double enabled_overhead = enabled_ms / baseline_ms - 1.0;

    // The flight recorder is on by default, so every measurement above
    // already paid its ring stores. Its own budget is asserted the
    // other way around: turning the recorder *off* must not make the
    // run more than 1% faster, i.e. the always-on ring costs <1%.
    uint64_t flight_before = flightrec::recordedCount();
    scheduleOnce(built.low, program);
    if (flightrec::recordedCount() == flight_before) {
        std::fprintf(stderr,
                     "FAIL: flight recorder captured nothing "
                     "(recorder inert?)\n");
        ok = false;
    }
    flightrec::setEnabled(false);
    double recorder_off_ms = medianRunMs(built.low, program, kSamples);
    flightrec::setEnabled(true);
    double recorder_on_ms = medianRunMs(built.low, program, kSamples);
    double flight_overhead = recorder_on_ms / recorder_off_ms - 1.0;
    int flight_rounds = 1;
    while (flight_overhead > kBudget && flight_rounds < 5) {
        flightrec::setEnabled(false);
        recorder_off_ms = medianRunMs(built.low, program, kSamples);
        flightrec::setEnabled(true);
        recorder_on_ms = medianRunMs(built.low, program, kSamples);
        flight_overhead = recorder_on_ms / recorder_off_ms - 1.0;
        ++flight_rounds;
    }
    if (flight_overhead > kBudget) {
        std::fprintf(stderr,
                     "FAIL: flight recorder costs %.2f%% (budget "
                     "%.0f%%) after %d measurement rounds\n",
                     flight_overhead * 100.0, kBudget * 100.0,
                     flight_rounds);
        ok = false;
    }

    TextTable table;
    table.setHeader({"State", "Median ms", "vs never-enabled"});
    table.addRow({"never-enabled", TextTable::num(baseline_ms, 2), "-"});
    table.addRow({"disabled-after-use", TextTable::num(disabled_ms, 2),
                  TextTable::percent(overhead)});
    table.addRow({"enabled (1 run)", TextTable::num(enabled_ms, 2),
                  TextTable::percent(enabled_overhead)});
    table.addRow({"flight recorder off",
                  TextTable::num(recorder_off_ms, 2), "-"});
    table.addRow({"flight recorder on",
                  TextTable::num(recorder_on_ms, 2),
                  TextTable::percent(flight_overhead) + " vs off"});
    std::printf("%s", table.toString().c_str());
    std::printf("\n%d-sample medians, %llu ops/run, %zu spans drained "
                "after the enabled run; budget: disabled <= %.0f%% over "
                "never-enabled, recorder-on <= %.0f%% over "
                "recorder-off (%s).\n",
                kSamples, (unsigned long long)traced_ops, spans,
                kBudget * 100.0, kBudget * 100.0,
                ok ? "met" : "MISSED");

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject();
        w.key("bench").value("trace_overhead");
        w.key("ok").value(ok);
        w.key("ops_per_run").value(traced_ops);
        w.key("samples").value(uint64_t(kSamples));
        w.key("rounds").value(uint64_t(rounds));
        w.key("never_enabled_ms").value(baseline_ms);
        w.key("disabled_after_use_ms").value(disabled_ms);
        w.key("disabled_overhead").value(overhead);
        w.key("enabled_ms").value(enabled_ms);
        w.key("enabled_overhead").value(enabled_overhead);
        w.key("spans_recorded").value(uint64_t(spans));
        w.key("flightrec_off_ms").value(recorder_off_ms);
        w.key("flightrec_on_ms").value(recorder_on_ms);
        w.key("flightrec_overhead").value(flight_overhead);
        w.key("flightrec_rounds").value(uint64_t(flight_rounds));
        w.endObject();
        std::ofstream out(json_path, std::ios::trunc);
        out << w.str() << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            ok = false;
        } else {
            std::printf("wrote %s\n", json_path.c_str());
        }
    }

    printFootnote();
    return ok ? 0 : 1;
}
