/**
 * @file
 * compile-cold: translation plus the persistent store. In-process
 * MdesServices with 2 workers, driven by 2 closed-loop callers. Every
 * cold request names a key the serving instance never compiled: 6
 * built-in machines x 64 subsets of the six paper passes x bit-vector
 * on/off, each scheduling a 50-op program. A first pass publishes every
 * key into a fresh store directory. Each round then compiles every key
 * cold in a fresh memory-only service and requests every key again from
 * a fresh service over the store, disk-warm: the store is read (mmap,
 * trailer check, fromImage validation) where the first pass wrote it.
 *
 * Rounds repeat until the run's time is spent; rates and the p50 are
 * medians over the rounds, each scaled by the probe readings taken
 * around its phases.
 */

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "common.h"
#include "machines/machines.h"
#include "service/service.h"
#include "store/store.h"
#include "support/rng.h"
#include "workload/workload.h"

namespace mdes::perfbench {

namespace {

constexpr unsigned kCallers = 2;
constexpr unsigned kWorkers = 2;
constexpr size_t kOps = 50;

PipelineConfig
subset(unsigned mask)
{
    PipelineConfig c = PipelineConfig::none();
    c.cse = mask & 1;
    c.redundant_options = mask & 2;
    c.time_shift = mask & 4;
    c.hoist = mask & 8;
    c.sort_usages = mask & 16;
    c.sort_or_trees = mask & 32;
    return c;
}

struct Key
{
    const machines::MachineInfo *machine = nullptr;
    unsigned mask = 0;
    bool bit_vector = false;
    service::ScheduleRequest req;
    /** The same program scheduled under PipelineConfig::none(). */
    uint64_t ref_fingerprint = 0;
    uint64_t ref_cycles = 0;
};

struct State
{
    std::vector<Key> keys;
};

std::unique_ptr<State>
setUp(uint64_t seed, Tally &tally)
{
    auto st = std::make_unique<State>();
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 33);
    for (const machines::MachineInfo *m : builtinMachines()) {
        for (unsigned mask = 0; mask < 64; ++mask) {
            for (bool bv : {false, true}) {
                Key k;
                k.machine = m;
                k.mask = mask;
                k.bit_vector = bv;
                k.req.machine = m->name;
                k.req.transforms = subset(mask);
                k.req.bit_vector = bv;
                k.req.synth_ops = kOps;
                k.req.seed = rng.below(1u << 30) + 1;
                st->keys.push_back(std::move(k));
            }
        }
    }
    for (size_t i = st->keys.size(); i > 1; --i)
        std::swap(st->keys[i - 1], st->keys[rng.below(i)]);

    std::vector<service::ScheduleRequest> refs;
    for (const Key &k : st->keys) {
        service::ScheduleRequest r = k.req;
        r.transforms = PipelineConfig::none();
        r.bit_vector = false;
        refs.push_back(r);
    }
    service::ServiceConfig cfg;
    cfg.num_workers = kWorkers;
    service::MdesService local(cfg);
    auto resps = local.runBatch(refs);
    for (size_t i = 0; i < resps.size(); ++i) {
        tally.check(resps[i].ok());
        st->keys[i].ref_fingerprint = service::scheduleFingerprint(resps[i]);
        st->keys[i].ref_cycles = resps[i].total_cycles;
    }
    return st;
}

/** One phase: kCallers closed-loop callers split the keys. */
struct Phase
{
    double wall_s = 0;
    uint64_t ops = 0;
    std::vector<double> latencies_ms;
    Tally tally;
};

using CheckFn =
    std::function<bool(size_t, const service::ScheduleResponse &)>;

Phase
runPhase(service::MdesService &svc, const std::vector<Key> &keys,
         const CheckFn &matches)
{
    struct PerCaller
    {
        std::vector<double> latencies_ms;
        uint64_t ops = 0;
        Tally tally;
    };
    std::vector<PerCaller> per(kCallers);
    std::atomic<size_t> next{0};
    Clock::time_point start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kCallers; ++c) {
            threads.emplace_back([&, c] {
                PerCaller &me = per[c];
                for (size_t i = next++; i < keys.size(); i = next++) {
                    Clock::time_point t0 = Clock::now();
                    service::ScheduleResponse r =
                        svc.wait(svc.submit(keys[i].req));
                    me.latencies_ms.push_back(usSince(t0) * 1e-3);
                    me.tally.record(r.ok(), r.ok() && matches(i, r));
                    me.ops += r.stats.ops_scheduled;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    Phase out;
    out.wall_s = secondsSince(start);
    for (PerCaller &pc : per) {
        out.ops += pc.ops;
        out.tally.merge(pc.tally);
        out.latencies_ms.insert(out.latencies_ms.end(),
                                pc.latencies_ms.begin(),
                                pc.latencies_ms.end());
    }
    return out;
}

/** A key's cold answer, which its disk-warm answers must equal. */
struct ColdAnswer
{
    std::vector<sched::BlockSchedule> schedules;
    service::CompiledMdes low;
};

/** Checks a cold answer against the PipelineConfig::none() reference
 * and records it in @p answers. */
CheckFn
coldCheck(const State &st, std::vector<ColdAnswer> &answers)
{
    answers.assign(st.keys.size(), {});
    return [&st, &answers](size_t i, const service::ScheduleResponse &r) {
        const Key &k = st.keys[i];
        answers[i] = {r.schedules, r.low};
        return !r.cache_hit && !r.disk_hit &&
               service::scheduleFingerprint(r) == k.ref_fingerprint &&
               r.total_cycles == k.ref_cycles;
    };
}

/** Totals over the rounds of one half of the run. */
struct Rounds
{
    /** Summed time and requests of the cold and the warm phases. */
    double cold_s = 0, warm_s = 0;
    uint64_t cold_requests = 0;
    Tally tally;
    uint64_t rounds = 0;
    service::ServiceMetrics cold_metrics;
    uint64_t disk_retries = 0;
    /** One window per round: its cold phase, its warm phase, and both
     * phases together. */
    Windows cold_windows, warm_windows, both_windows;
    /** The last probe reading. */
    double speed = 1;
};

/**
 * One round: every key compiled cold by a fresh memory-only service,
 * then served disk-warm by a fresh service over the store in
 * @p store_dir, each warm answer equal to this round's cold one.
 */
void
runRound(const State &st, const std::string &store_dir, Probe &probe,
         Rounds &acc)
{
    service::ServiceConfig cfg;
    cfg.num_workers = kWorkers;
    std::vector<ColdAnswer> cold;
    Phase cold_phase, warm_phase;
    {
        service::MdesService svc(cfg);
        cold_phase = runPhase(svc, st.keys, coldCheck(st, cold));
        acc.cold_metrics = svc.metricsSnapshot();
    }
    double after = probe.speed();
    const double cold_speed = windowSpeed(acc.speed, after);
    acc.speed = after;
    cfg.store_dir = store_dir;
    {
        service::MdesService svc(cfg);
        warm_phase = runPhase(svc, st.keys,
                         [&](size_t i, const service::ScheduleResponse &r) {
                             return r.disk_hit && cold[i].low &&
                                    r.schedules == cold[i].schedules &&
                                    *r.low == *cold[i].low;
                         });
        acc.disk_retries += svc.metricsSnapshot().cache.disk_retries;
    }
    after = probe.speed();
    const double warm_speed = windowSpeed(acc.speed, after);
    acc.speed = after;

    for (double ms : cold_phase.latencies_ms)
        acc.cold_windows.add(0, ms);
    acc.cold_windows.addWork(double(cold_phase.ops));
    acc.cold_windows.close(cold_phase.wall_s, cold_speed);
    for (double ms : warm_phase.latencies_ms)
        acc.warm_windows.add(0, ms);
    acc.warm_windows.addWork(double(warm_phase.ops));
    acc.warm_windows.close(warm_phase.wall_s, warm_speed);
    const double cold_s = cold_phase.wall_s, warm_s = warm_phase.wall_s;
    acc.cold_s += cold_s;
    acc.warm_s += warm_s;
    acc.cold_requests += cold_phase.latencies_ms.size();
    acc.tally.merge(cold_phase.tally);
    acc.tally.merge(warm_phase.tally);
    const uint64_t cold_ops = cold_phase.ops, warm_ops = warm_phase.ops;
    // Both phases as one window at their time-weighted speed, so its
    // scaled rate is ops over the sum of the phases' scaled times.
    acc.both_windows.addWork(double(cold_ops + warm_ops));
    acc.both_windows.close(cold_s + warm_s,
                           (cold_s * cold_speed + warm_s * warm_speed) /
                               (cold_s + warm_s));
    ++acc.rounds;
}

} // namespace

RunOutcome
runCompileCold(const RunOptions &opts)
{
    RunOutcome out;
    Probe probe;
    std::unique_ptr<State> st;
    double setup_s = timedSetup(st, probe,
                                [&] { return setUp(opts.seed, out.tally); });

    const std::string base =
        opts.work_dir + "/compile-cold-" + std::to_string(getpid());
    const std::string store_dir = base + "-store";
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(opts.work_dir);

    // Publish every key once, cold, through a store-backed service: the
    // store the disk-warm phases read. Its answers are checked like any
    // cold answer, but its rate stays out of the reported medians: file
    // creation on a shared disk swings several-fold over minutes, which
    // would drown the compile path. store.publish_us times it per layer.
    std::vector<ColdAnswer> published;
    Phase publish;
    uint64_t publish_retries = 0;
    {
        service::ServiceConfig cfg;
        cfg.num_workers = kWorkers;
        cfg.store_dir = store_dir;
        service::MdesService svc(cfg);
        publish = runPhase(svc, st->keys, coldCheck(*st, published));
        out.tally.merge(publish.tally);
        publish_retries = svc.metricsSnapshot().cache.disk_retries;
    }
    double lmdes_bytes = 0;
    for (const ColdAnswer &a : published)
        if (a.low)
            lmdes_bytes += double(a.low->memory().total());

    const int halves = opts.trace ? 2 : 1;
    Rounds rounds[2];
    // Peak RSS after set-up, the publishing pass and one round: every
    // round starts fresh services whose worker threads keep their
    // flight-recorder rings after they exit (see NOTES.md), so the
    // whole run's peak would grow with the number of rounds, that is,
    // with the speed of the host and of the program.
    double peak_rss_mb = 0;
    for (int h = 0; h < halves; ++h) {
        Clock::time_point start = Clock::now();
        rounds[h].speed = probe.speed();
        do {
            runRound(*st, store_dir, probe, rounds[h]);
            if (peak_rss_mb == 0)
                peak_rss_mb = peakRssMb();
        } while (secondsSince(start) < opts.seconds / halves);
        out.tally.merge(rounds[h].tally);
    }
    std::filesystem::remove_all(store_dir);
    // Flush the deletion now: its journal and discard work would slow
    // file creation in whatever runs next.
    sync();

    const Rounds &r = rounds[opts.trace ? 1 : 0];
    Percentile p99 = r.cold_windows.medianTail();
    uint64_t sched_cycles = 0;
    for (const Key &k : st->keys)
        sched_cycles += k.ref_cycles;

    char line[384];
    std::snprintf(line, sizeof line,
                  "compile-cold: %llu rounds of %zu keys; cold %.3f s, "
                  "warm %.3f s (median host speed %.3f); compile p%.2f "
                  "over %zu samples; load_ms_p50 %.4f; "
                  "publishing pass %.1f req/s",
                  (unsigned long long)r.rounds, st->keys.size(), r.cold_s,
                  r.warm_s, r.cold_windows.medianSpeed(), p99.pct,
                  p99.samples, r.warm_windows.medianP50(),
                  double(publish.latencies_ms.size()) / publish.wall_s);
    out.notes.push_back(line);

    if (!opts.trace) {
        Metrics &m = out.metrics;
        m["setup_s"] = {setup_s, "s"};
        // Both phases: a slower disk-warm load shows here.
        m["ops_per_s"] = {r.both_windows.medianRate(), "1/s"};
        m["req_per_s"] = {r.cold_windows.medianRequestRate(), "1/s"};
        m["latency_p50_ms"] = {r.cold_windows.medianP50(), "ms"};
        m["latency_p99_ms"] = {p99.value, "ms"};
        m["sched_cycles"] = {double(sched_cycles), "cycles"};
        m["lmdes_bytes"] = {lmdes_bytes, "bytes"};
        m["ok_rate"] = {out.tally.okRate(), "ratio"};
        m["peak_rss_mb"] = {peak_rss_mb, "MB"};
        return out;
    }

    // ---- Traced run: every key once, layer by layer ------------------
    Metrics &m = out.metrics;
    const std::string layer_dir = base + "-layers";
    std::filesystem::remove_all(layer_dir);
    CompileLayers compile;
    ScheduleLayers sched_all, sched_default;
    double publish_us = 0, load_us = 0;
    store::StoreStats store_stats;
    {
        store::StoreConfig sc;
        sc.dir = layer_dir;
        store::ArtifactStore store(sc);
        std::vector<uint64_t> artifact_keys;
        for (const Key &k : st->keys) {
            lmdes::LowMdes low =
                compileByLayer(k.machine->source, k.req.transforms,
                               k.bit_vector, exp::Rep::AndOrTree, compile);
            uint64_t key = store::artifactKey(k.machine->source,
                                              k.req.transforms, k.bit_vector);
            Clock::time_point t = Clock::now();
            out.tally.check(store.store(
                key, low,
                store::configFingerprint(k.req.transforms, k.bit_vector)));
            publish_us += usSince(t);
            artifact_keys.push_back(key);

            workload::WorkloadSpec spec = k.machine->workload;
            spec.num_ops = kOps;
            spec.seed = k.req.seed;
            sched_all.addGenerated(low, spec, false, false, out.tally);
            if (k.mask == 63 && k.bit_vector)
                sched_default.addGenerated(low, spec, false, false,
                                           out.tally);
        }
        for (uint64_t key : artifact_keys) {
            Clock::time_point t = Clock::now();
            out.tally.check(store.load(key) != nullptr);
            load_us += usSince(t);
        }
        store_stats = store.stats();
    }
    std::filesystem::remove_all(layer_dir);
    out.tally.check(compile.mismatches == 0);
    compile.report(m);
    sched_all.reportShared(m);
    sched_default.reportRep(m, "andor_full");

    const double n = double(st->keys.size());
    const uint64_t lookups = store_stats.hits + store_stats.misses;
    m["store.publish_us"] = {publish_us / n, "us"};
    m["store.load_us"] = {load_us / n, "us"};
    m["store.mapped_hit_rate"] = {
        lookups ? double(store_stats.mapped_hits) / double(lookups) : 0,
        "ratio"};
    m["store.retries"] = {double(store_stats.retries + publish_retries +
                                 rounds[0].disk_retries +
                                 rounds[1].disk_retries),
                          "count"};
    const service::ServiceMetrics &sm = r.cold_metrics;
    m["service.queue_wait_us_p50"] = {
        double(sm.queue_wait.approxPercentileUs(0.5)), "us"};
    m["service.total_us_p50"] = {double(sm.total.approxPercentileUs(0.5)),
                                 "us"};
    m["service.cache_hit_rate"] = {sm.cache.hitRate(), "ratio"};
    m["service.shed"] = {double(sm.requests_shed), "count"};

    // Mean cold request: compile layers + scheduling layers (the cold
    // rounds run without a store; publishing is timed above on its own).
    const double cold_mean_us =
        r.cold_s * 1e6 * kCallers / double(r.cold_requests);
    m["bench.layer_coverage"] = {
        layerCoverage({compile.meanUs(), sched_all.meanUs()}, cold_mean_us),
        "ratio"};
    m["bench.trace_overhead_pct"] = {
        traceOverheadPct(rounds[0].cold_windows.medianRequestRate(),
                         rounds[1].cold_windows.medianRequestRate()),
        "%"};
    return out;
}

} // namespace mdes::perfbench
