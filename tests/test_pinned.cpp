/**
 * @file
 * The pinned-behaviour gate. bench/baseline_perf.json pins what the
 * engines decide: checker and schedule fingerprints, the paper's checks
 * per attempt / per operation, and the list-schedule and service
 * fingerprints behind the exact and socket benches. This test
 * recomputes every deterministic pin in-process, without timing:
 *
 *   - a fingerprint must match bit-for-bit;
 *   - an unbanded metric may not exceed its pinned value by more than
 *     5% (an improvement passes);
 *   - a banded metric is timing-dependent, so the bench that measures
 *     it checks the band (bench::inPinnedBand) and exits non-zero
 *     outside it; here it only has to name that bench;
 *   - a pin that nothing computes fails, and so does a computed name
 *     that has no pin.
 *
 * A failure prints the computed value, so an intended behaviour change
 * can be re-pinned on purpose.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "rumap/checker.h"
#include "sched/verify.h"
#include "service/service.h"
#include "support/fnv.h"

namespace mdes {
namespace {

using bench::Pin;

/** What this tree computes for one pinned name. */
struct Computed
{
    std::string name;
    std::optional<uint64_t> fingerprint;
    /** The unbanded metric; nullopt where band_bench checks the band. */
    std::optional<double> metric;
    const char *band_bench = nullptr;
};

/** How far an unbanded metric may rise over its pin. */
constexpr double kTolerance = 0.05;

/** "<machine>/<or|andor>/<original|full>" */
std::string
variantName(const machines::MachineInfo &m, exp::Rep rep, bool full)
{
    return m.name + (rep == exp::Rep::OrTree ? "/or/" : "/andor/") +
           (full ? "full" : "original");
}

exp::RunConfig
variantConfig(const machines::MachineInfo &m, exp::Rep rep, bool full)
{
    return full ? exp::optimizedConfig(m, rep) : exp::originalConfig(m, rep);
}

/**
 * checker/<variant>: every operation class attempted at cycles 0..31 against
 * one filling RU map. The fingerprint hashes each attempt's outcome and
 * chosen options, then the final RU-map window.
 */
Computed
checkerPin(const machines::MachineInfo &m, exp::Rep rep, bool full)
{
    exp::RunConfig config = variantConfig(m, rep, full);
    config.schedule = false;
    exp::RunResult built = exp::run(config);
    rumap::Checker checker(built.low);
    rumap::RuMap ru;
    rumap::CheckStats stats;
    std::vector<uint32_t> chosen;
    uint64_t h = kFnvOffset;
    for (int cycle = 0; cycle < 32; ++cycle) {
        for (const auto &oc : built.low.opClasses()) {
            bool ok = checker.tryReserve(oc.tree, cycle, ru, stats, &chosen);
            h = fnvMix64(h, ok ? 1 : 0);
            if (ok)
                for (uint32_t id : chosen)
                    h = fnvMix64(h, id);
        }
    }
    for (int32_t s = 0; s < int32_t(ru.windowSize()); ++s)
        h = fnvMix64(h, ru.wordSlot(ru.windowBase() + s));
    return {"checker/" + variantName(m, rep, full), h,
            double(stats.resource_checks) / double(stats.attempts)};
}

/** schedule/<variant>: list-schedule 20000 operations of the machine's
 * workload. */
Computed
schedulePin(const machines::MachineInfo &m, exp::Rep rep, bool full)
{
    exp::RunConfig config = variantConfig(m, rep, full);
    config.num_ops_override = 20000;
    exp::RunResult r = exp::run(config);
    return {"schedule/" + variantName(m, rep, full),
            sched::scheduleFingerprint(r.schedules),
            double(r.stats.checks.resource_checks) /
                double(r.stats.ops_scheduled)};
}

std::vector<Computed>
computeAll()
{
    std::vector<Computed> out;
    for (const machines::MachineInfo *m : machines::all())
        for (exp::Rep rep : {exp::Rep::OrTree, exp::Rep::AndOrTree})
            for (bool full : {false, true})
                out.push_back(checkerPin(*m, rep, full));
    for (const machines::MachineInfo *m : machines::all())
        for (exp::Rep rep : {exp::Rep::OrTree, exp::Rep::AndOrTree})
            for (bool full : {false, true})
                out.push_back(schedulePin(*m, rep, full));

    // net/loopback/*: the in-process fingerprints of the sustained mix
    // every socket response is compared against; which overload
    // requests are shed is timing-dependent, so that pin is 0.
    std::vector<service::ScheduleRequest> mix;
    for (const char *name : {"K5", "Pentium", "PA7100", "SuperSPARC"}) {
        service::ScheduleRequest r;
        r.machine = name;
        r.synth_ops = 200;
        r.seed = 5;
        mix.push_back(r);
    }
    service::MdesService svc({.num_workers = 2});
    uint64_t h = kFnvOffset;
    for (const service::ScheduleResponse &resp : svc.runBatch(mix))
        h = fnvMix64(h, service::scheduleFingerprint(resp));
    out.push_back({"net/loopback/sustained", h, {}, "bench_net_throughput"});
    out.push_back({"net/loopback/overload", 0, {}, "bench_net_throughput"});

    // exact/*: the list schedule the exact bench starts every block
    // from (1500 operations, every transform, bit-vector).
    for (const char *name : {"SuperSPARC", "K5", "PA7100"}) {
        exp::RunConfig config = exp::optimizedConfig(
            *machines::byName(name), exp::Rep::AndOrTree);
        config.num_ops_override = 1500;
        uint64_t fp = sched::scheduleFingerprint(exp::run(config).schedules);
        for (const char *metric : {"/proven_rate", "/len_ratio"})
            out.push_back({std::string("exact/") + name + metric, fp, {},
                           "bench_exact_scheduler"});
    }

    out.push_back({"store/coldstart/disk_vs_memory", {}, {},
                   "bench_store_coldstart"});
    return out;
}

/** Computed once per process: the gate tests below reuse it. */
const std::vector<Computed> &
computed()
{
    static const std::vector<Computed> all = computeAll();
    return all;
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

/** The first entry of @p list named @p name, or nullptr. */
template <typename T>
const T *
named(const std::vector<T> &list, const std::string &name)
{
    for (const T &e : list)
        if (e.name == name)
            return &e;
    return nullptr;
}

/** Every way @p computed departs from @p pins, one line each. */
std::vector<std::string>
comparePins(const std::vector<Pin> &pins,
            const std::vector<Computed> &computed)
{
    std::vector<std::string> failures;
    for (const Pin &pin : pins) {
        const std::string where = pin.name + ": ";
        if (named(pins, pin.name) != &pin) {
            failures.push_back(where + "pinned twice");
            continue;
        }
        const Computed *c = named(computed, pin.name);
        if (!c) {
            failures.push_back(where + "pinned, but nothing computes it");
            continue;
        }
        std::string fp = c->fingerprint ? std::to_string(*c->fingerprint)
                                        : std::string();
        if (fp != pin.fingerprint)
            failures.push_back(where + "fingerprint pinned '" +
                               pin.fingerprint + "', computed '" + fp + "'");
        if (pin.band) {
            if (!c->band_bench)
                failures.push_back(where + "band with no bench checking it");
            continue;
        }
        if (!c->metric) {
            failures.push_back(where + pin.metric + " is not computed");
            continue;
        }
        double limit = pin.value * (1 + kTolerance);
        if (*c->metric > limit)
            failures.push_back(where + pin.metric + " pinned " +
                               fmt(pin.value) + ", computed " +
                               fmt(*c->metric) + " (limit " + fmt(limit) +
                               ")");
    }
    for (const Computed &c : computed)
        if (!named(pins, c.name))
            failures.push_back(
                c.name + ": computed, but not pinned (fingerprint '" +
                (c.fingerprint ? std::to_string(*c.fingerprint) : "") +
                "', metric " + (c.metric ? fmt(*c.metric) : "-") + ")");
    return failures;
}

/** The first pin of @p pins gated by the 5% rule. */
size_t
firstUnbanded(const std::vector<Pin> &pins)
{
    size_t i = 0;
    while (i < pins.size() && pins[i].band)
        ++i;
    return i;
}

TEST(PinnedBehaviour, EveryPinHolds)
{
    for (const std::string &f : comparePins(bench::loadPins(), computed()))
        ADD_FAILURE() << f;
}

TEST(PinGate, FlippedFingerprintDigitFails)
{
    std::vector<Pin> pins = bench::loadPins();
    char &digit = pins[0].fingerprint.back();
    digit = digit == '1' ? '2' : '1';
    auto failures = comparePins(pins, computed());
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].rfind(pins[0].name + ": fingerprint pinned", 0), 0u)
        << failures[0];
}

TEST(PinGate, MetricSixPercentOverFails)
{
    std::vector<Pin> pins = bench::loadPins();
    std::vector<Computed> mine = computed();
    size_t i = firstUnbanded(pins);
    ASSERT_LT(i, pins.size());
    for (Computed &c : mine)
        if (c.name == pins[i].name)
            c.metric = pins[i].value * 1.06;
    auto failures = comparePins(pins, mine);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].find(pins[i].metric + " pinned"), std::string::npos)
        << failures[0];
}

TEST(PinGate, MetricFourPercentOverPasses)
{
    std::vector<Pin> pins = bench::loadPins();
    std::vector<Computed> mine = computed();
    size_t i = firstUnbanded(pins);
    ASSERT_LT(i, pins.size());
    for (Computed &c : mine)
        if (c.name == pins[i].name)
            c.metric = pins[i].value * 1.04;
    EXPECT_TRUE(comparePins(pins, mine).empty());
}

TEST(PinGate, OrphanEntryFails)
{
    std::vector<Pin> pins = bench::loadPins();
    Pin orphan = pins[0];
    orphan.name = "checker/NoSuchMachine/or/full";
    pins.push_back(orphan);
    auto failures = comparePins(pins, computed());
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0], orphan.name + ": pinned, but nothing computes it");
}

TEST(PinGate, MissingEntryFails)
{
    std::vector<Pin> pins = bench::loadPins();
    std::string dropped = pins.back().name;
    pins.pop_back();
    auto failures = comparePins(pins, computed());
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].rfind(dropped + ": computed, but not pinned", 0),
              0u)
        << failures[0];
}

TEST(PinGate, OutOfBandValueFailsTheBandHelper)
{
    std::vector<Pin> pins = bench::loadPins();
    EXPECT_TRUE(bench::inPinnedBand(pins, "net/loopback/overload", 0.5));
    EXPECT_FALSE(bench::inPinnedBand(pins, "net/loopback/overload", 0.99));
    EXPECT_FALSE(bench::inPinnedBand(pins, "net/loopback/overload", 0.01));
    EXPECT_TRUE(bench::inPinnedBand(pins, "net/loopback/sustained", 0.0));
    EXPECT_FALSE(
        bench::inPinnedBand(pins, "net/loopback/sustained", 1.0 / 288));
    // A name without a band fails rather than passing unchecked.
    EXPECT_FALSE(bench::inPinnedBand(pins, pins[0].name, pins[0].value));
    EXPECT_FALSE(bench::inPinnedBand(pins, "no/such/pin", 0.5));
}

TEST(PinGate, MalformedBaselineThrows)
{
    EXPECT_THROW(bench::parsePins("{}"), MdesError);
    EXPECT_THROW(bench::parsePins(R"({"results": [{"name": "x"}]})"),
                 MdesError);
    std::vector<Pin> pins = bench::parsePins(
        R"({"results": [{"name": "x", "checks_per_op": 1.5,)"
        R"( "band": [0, 2], "fingerprint": "7"}]})");
    ASSERT_EQ(pins.size(), 1u);
    EXPECT_EQ(pins[0].metric, "checks_per_op");
    EXPECT_EQ(pins[0].value, 1.5);
    EXPECT_EQ(pins[0].fingerprint, "7");
    ASSERT_TRUE(pins[0].band);
    EXPECT_EQ(pins[0].band->second, 2.0);
}

} // namespace
} // namespace mdes
