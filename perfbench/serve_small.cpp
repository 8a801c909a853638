/**
 * @file
 * serve-small: the socket tier with a warm cache. A closed loop of 3
 * binary-frame net::BlockingClient connections (callers are compilers
 * that wait for each reply) against a 2-worker net::Server on loopback,
 * all in this one process.
 *
 * Requests are 50-200-op synthetic programs spread over all six
 * built-in machines; of every 8, 6 use the list scheduler, 1 the
 * backward scheduler and 1 the list scheduler with verify. Per-op work
 * is small, so fixed per-request costs dominate: frame handling, the
 * queue hand-off, cache lookup, workload generation, checker
 * construction, flight-recorder spans and metrics recording.
 *
 * The loop runs in half-second windows; between windows the clients
 * pause while the probe reads the host's speed, which scales the window.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "machines/machines.h"
#include "net/client.h"
#include "net/server.h"
#include "service/request_parse.h"
#include "service/service.h"
#include "support/rng.h"
#include "workload/workload.h"

namespace mdes::perfbench {

namespace {

constexpr size_t kPoolSize = 384;
constexpr unsigned kClients = 3;
constexpr unsigned kWorkers = 2;

struct PoolEntry
{
    service::ScheduleRequest req;
    std::string line;
    uint64_t route = 0;
    /** The in-process MdesService answer to the same request. */
    uint64_t fingerprint = 0;
    uint64_t total_cycles = 0;
    uint64_t ops = 0;
    service::CompiledMdes low;
};

struct State
{
    std::vector<PoolEntry> pool;
    double lmdes_bytes = 0;
    std::unique_ptr<net::Server> server;
};

std::unique_ptr<State>
setUp(uint64_t seed, Tally &tally)
{
    auto st = std::make_unique<State>();
    const auto builtins = builtinMachines();
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 22);
    for (size_t i = 0; i < kPoolSize; ++i) {
        PoolEntry e;
        e.req.machine = builtins[i % builtins.size()]->name;
        e.req.synth_ops = 50 + (i * 53) % 151;
        e.req.seed = rng.below(1u << 30) + 1;
        if (i % 8 == 6)
            e.req.scheduler = service::SchedulerKind::Backward;
        e.req.verify = i % 8 == 7;
        st->pool.push_back(std::move(e));
    }
    for (size_t i = st->pool.size(); i > 1; --i)
        std::swap(st->pool[i - 1], st->pool[rng.below(i)]);

    std::vector<service::ScheduleRequest> reqs;
    for (PoolEntry &e : st->pool) {
        e.line = service::renderRequestLine(e.req);
        e.route = net::routeKey(e.req);
        reqs.push_back(e.req);
    }
    {
        service::ServiceConfig cfg;
        cfg.num_workers = kWorkers;
        service::MdesService local(cfg);
        auto resps = local.runBatch(reqs);
        std::map<std::string, double> bytes;
        for (size_t i = 0; i < resps.size(); ++i) {
            PoolEntry &e = st->pool[i];
            tally.check(resps[i].ok());
            if (!resps[i].ok())
                continue;
            e.fingerprint = service::scheduleFingerprint(resps[i]);
            e.total_cycles = resps[i].total_cycles;
            e.ops = resps[i].stats.ops_scheduled;
            e.low = resps[i].low;
            bytes[e.req.machine] = double(e.low->memory().total());
        }
        for (const auto &[name, b] : bytes)
            st->lmdes_bytes += b;
    }

    net::ServerConfig sc;
    sc.service.num_workers = kWorkers;
    sc.service.cache_capacity = 8;
    st->server = std::make_unique<net::Server>(sc);
    st->server->start();
    // Warm the cache: one request per machine.
    net::BlockingClient warm("127.0.0.1", st->server->port());
    std::map<std::string, bool> warmed;
    for (const PoolEntry &e : st->pool) {
        if (!warmed[e.req.machine])
            tally.check(warm.request(e.line, 0, e.route).ok());
        warmed[e.req.machine] = true;
    }
    return st;
}

/** Length of one window of the closed loop; the load pauses between
 * windows for a probe reading. */
constexpr double kWindowS = 0.5;

/** One closed-loop phase: every client walks the pool from its own
 * offset until the budget is spent. */
struct LoopResult
{
    /** Time under load: the windows' lengths, without the probes. */
    double load_s = 0;
    uint64_t requests = 0;
    uint64_t ops = 0;
    /** Unscaled client round trips, kept when asked for. */
    std::vector<double> latencies_ms;
    Windows windows;
    Tally tally;
};

LoopResult
closedLoop(const State &st, Probe &probe, double budget_s,
           bool keep_latencies)
{
    struct PerClient
    {
        std::unique_ptr<net::BlockingClient> client;
        size_t next = 0;
        /** (ops, latency) of each request of the open window. */
        std::vector<std::pair<uint64_t, double>> done;
        Tally tally;
    };
    LoopResult out;
    std::vector<PerClient> per(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        per[c].client = std::make_unique<net::BlockingClient>(
            "127.0.0.1", st.server->port());
        per[c].next = c * st.pool.size() / kClients;
        if (!per[c].client->connected())
            out.tally.record(false, false);
    }
    const int windows =
        std::max(1, int(budget_s / kWindowS + 0.5));
    double before = probe.speed();
    for (int w = 0; w < windows; ++w) {
        Clock::time_point start = Clock::now();
        {
            std::vector<std::thread> threads;
            for (PerClient &pc : per) {
                if (!pc.client->connected())
                    continue;
                threads.emplace_back([&, self = &pc] {
                    PerClient &me = *self;
                    while (secondsSince(start) < kWindowS) {
                        const PoolEntry &e = st.pool[me.next];
                        me.next = (me.next + 1) % st.pool.size();
                        Clock::time_point t0 = Clock::now();
                        net::NetResponse r =
                            me.client->request(e.line, 0, e.route);
                        me.done.emplace_back(r.ok() ? e.ops : 0,
                                             usSince(t0) * 1e-3);
                        bool same = r.fingerprint == e.fingerprint &&
                                    r.total_cycles == e.total_cycles;
                        me.tally.record(r.ok(), same);
                    }
                });
            }
            for (std::thread &t : threads)
                t.join();
        }
        const double window_s = secondsSince(start);
        const double after = probe.speed();
        for (PerClient &pc : per) {
            for (const auto &[ops, ms] : pc.done) {
                out.windows.add(double(ops), ms);
                if (keep_latencies)
                    out.latencies_ms.push_back(ms);
                out.ops += ops;
            }
            out.requests += pc.done.size();
            pc.done.clear();
        }
        out.windows.close(window_s, windowSpeed(before, after));
        out.load_s += window_s;
        before = after;
    }
    for (PerClient &pc : per)
        out.tally.merge(pc.tally);
    return out;
}

/** In-process per-layer times of one pass over the pool. */
ScheduleLayers
poolLayers(const State &st, Tally &tally)
{
    ScheduleLayers layers;
    for (const PoolEntry &e : st.pool) {
        if (!e.low)
            continue;
        workload::WorkloadSpec spec =
            machines::byName(e.req.machine)->workload;
        spec.num_ops = e.req.synth_ops;
        spec.seed = e.req.seed;
        layers.addGenerated(
            *e.low, spec, e.req.scheduler == service::SchedulerKind::Backward,
            e.req.verify, tally);
    }
    return layers;
}

} // namespace

RunOutcome
runServeSmall(const RunOptions &opts)
{
    RunOutcome out;
    Probe probe;
    std::unique_ptr<State> st;
    double setup_s = timedSetup(st, probe, [&] {
        return setUp(opts.seed, out.tally);
    });

    const int phases = opts.trace ? 2 : 1;
    LoopResult loops[2];
    for (int phase = 0; phase < phases; ++phase) {
        loops[phase] =
            closedLoop(*st, probe, opts.seconds / phases, opts.trace);
        out.tally.merge(loops[phase].tally);
    }
    service::ServiceMetrics sm = st->server->metrics();
    st->server->stop();

    const LoopResult &main = loops[opts.trace ? 1 : 0];
    Percentile p99 = main.windows.medianTail();
    uint64_t sched_cycles = 0;
    for (const PoolEntry &e : st->pool)
        sched_cycles += e.total_cycles;

    char line[256];
    std::snprintf(line, sizeof line,
                  "serve-small: %u clients, %llu requests in %.3f s "
                  "(%.0f ops/s unscaled, median host speed %.3f); "
                  "p%.2f over %zu samples; shed %llu",
                  kClients, (unsigned long long)main.requests, main.load_s,
                  main.windows.rawRate(), main.windows.medianSpeed(),
                  p99.pct, p99.samples,
                  (unsigned long long)sm.requests_shed);
    out.notes.push_back(line);

    if (!opts.trace) {
        Metrics &m = out.metrics;
        m["setup_s"] = {setup_s, "s"};
        m["ops_per_s"] = {main.windows.medianRate(), "1/s"};
        m["req_per_s"] = {main.windows.medianRequestRate(), "1/s"};
        m["latency_p50_ms"] = {main.windows.medianP50(), "ms"};
        m["latency_p99_ms"] = {p99.value, "ms"};
        m["sched_cycles"] = {double(sched_cycles), "cycles"};
        m["lmdes_bytes"] = {st->lmdes_bytes, "bytes"};
        m["ok_rate"] = {out.tally.okRate(), "ratio"};
        return out;
    }

    // ---- Traced run --------------------------------------------------
    Metrics &m = out.metrics;
    CompileLayers compile;
    for (const machines::MachineInfo *mi : builtinMachines())
        compileByLayer(mi->source, PipelineConfig::all(), true,
                       exp::Rep::AndOrTree, compile);
    out.tally.check(compile.mismatches == 0);
    compile.report(m);

    const double queue_p50 = double(sm.queue_wait.approxPercentileUs(0.5));
    const double total_p50 = double(sm.total.approxPercentileUs(0.5));
    m["service.queue_wait_us_p50"] = {queue_p50, "us"};
    m["service.total_us_p50"] = {total_p50, "us"};
    m["service.cache_hit_rate"] = {sm.cache.hitRate(), "ratio"};
    m["service.shed"] = {double(sm.requests_shed), "count"};
    std::vector<double> lat = main.latencies_ms;
    m["net.transport_us_p50"] = {percentile(lat, 50).value * 1e3 - total_p50,
                                 "us"};
    m["net.fingerprint_mismatches"] = {
        double(loops[0].tally.mismatches + loops[1].tally.mismatches),
        "count"};

    ScheduleLayers pl = poolLayers(*st, out.tally);
    pl.reportShared(m);
    pl.reportRep(m, "andor_full");

    // Mean time per request: client round trip versus its named parts.
    const double client_us = main.load_s * 1e6 * kClients /
                             double(std::max<uint64_t>(main.requests, 1));
    const double service_us = sm.total.meanUs() + sm.queue_wait.meanUs();
    m["bench.layer_coverage"] = {
        layerCoverage({client_us - service_us, sm.queue_wait.meanUs(),
                       pl.meanUs()},
                      client_us),
        "ratio"};
    m["bench.trace_overhead_pct"] = {
        traceOverheadPct(loops[0].windows.medianRequestRate(),
                         loops[1].windows.medianRequestRate()),
        "%"};
    return out;
}

} // namespace mdes::perfbench
