/**
 * @file
 * mdes::trace tests: spans recorded with tracing off carry no args,
 * enabled spans carry ids/counters/labels into the flight-recorder
 * ring and out through a capture, draining is safe against concurrent
 * recording, a ring that overflows before it is drained reports the
 * loss without exporting torn events, per-request drains keep a long
 * traced batch whole, the Chrome export is well-formed JSON, and the
 * scheduler probe hooks populate attempts-per-op and the conflict heat
 * table only while tracing is on.
 */

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "machines/machines.h"
#include "service/service.h"
#include "support/flightrec.h"
#include "support/json.h"
#include "support/trace.h"

namespace mdes {
namespace {

/** Trace ids far away from the service's small sequential request ids,
 * so a lookup by id never matches a request from another test. */
constexpr uint64_t kIdBase = 0x7ACE0000ull;

const machines::MachineInfo &
machineNamed(const std::string &name)
{
    for (const auto *m : machines::all()) {
        if (m->name == name)
            return *m;
    }
    ADD_FAILURE() << "no machine named " << name;
    return *machines::all().front();
}

/** The events of @p capture named @p name. */
std::vector<flightrec::Event>
named(const flightrec::Capture &capture, const std::string &name)
{
    std::vector<flightrec::Event> out;
    for (const flightrec::Event &e : capture.events) {
        if (name == e.name)
            out.push_back(e);
    }
    return out;
}

/** The arg of @p e keyed @p key, or null. */
const flightrec::Arg *
argOf(const flightrec::Event &e, const std::string &key)
{
    for (const flightrec::Arg &a : e.args) {
        if (key == a.key)
            return &a;
    }
    return nullptr;
}

/**
 * Tracing is process-global and other tests in this binary use it too:
 * every test starts from a disabled state with no capture pending and
 * restores that on the way out.
 */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::setEnabled(false);
        (void)flightrec::endCapture();
    }

    void
    TearDown() override
    {
        trace::setEnabled(false);
        (void)flightrec::endCapture();
    }

    /** Stop tracing and take everything it captured. */
    static flightrec::Capture
    finish()
    {
        trace::setEnabled(false);
        return flightrec::endCapture();
    }
};

TEST_F(TraceTest, DisabledSpansCarryNoArgs)
{
    ASSERT_FALSE(trace::enabled());
    const uint64_t id = kIdBase + 1;
    {
        trace::IdScope scope(id);
        TRACE_SPAN("test/anonymous");
        trace::ScopedSpan span("test/named");
        EXPECT_FALSE(span.active());
        // Attachments on an inactive span must be dropped, not stored.
        span.counter("ignored", 1);
        span.label("ignored", "x");
    }
    // The flight recorder still saw both spans, without args.
    std::vector<flightrec::Event> events = flightrec::eventsForTrace(id);
    ASSERT_EQ(events.size(), 2u);
    for (const flightrec::Event &e : events)
        EXPECT_TRUE(e.args.empty()) << e.name;
}

TEST_F(TraceTest, SpanCarriesIdCountersAndLabels)
{
    const uint64_t id = kIdBase + 2;
    const std::string long_label(flightrec::kLabelCap + 10, 'x');
    trace::setEnabled(true);
    {
        trace::IdScope scope(id);
        trace::ScopedSpan span("test/work");
        ASSERT_TRUE(span.active());
        span.counter("widgets", 7);
        span.label("machine", "TestMachine");
        span.label("long", long_label);
        // Same thread, same lane; another live thread, another lane.
        TRACE_SPAN("test/same-thread");
        std::thread([] { TRACE_SPAN("test/other-thread"); }).join();
    }
    flightrec::Capture capture = finish();
    EXPECT_EQ(capture.dropped, 0u);

    std::vector<flightrec::Event> spans = named(capture, "test/work");
    ASSERT_EQ(spans.size(), 1u);
    const flightrec::Event &s = spans[0];
    EXPECT_EQ(s.trace_id, id);
    EXPECT_NE(s.tid, 0u);
    ASSERT_EQ(named(capture, "test/same-thread").size(), 1u);
    ASSERT_EQ(named(capture, "test/other-thread").size(), 1u);
    EXPECT_EQ(named(capture, "test/same-thread")[0].tid, s.tid);
    EXPECT_NE(named(capture, "test/other-thread")[0].tid, s.tid);
    EXPECT_LE(s.ts_us + s.dur_us, trace::nowUs());
    ASSERT_EQ(s.args.size(), 3u);
    EXPECT_STREQ(s.args[0].key, "widgets");
    EXPECT_FALSE(s.args[0].is_label);
    EXPECT_EQ(s.args[0].value, 7u);
    EXPECT_STREQ(s.args[1].key, "machine");
    EXPECT_TRUE(s.args[1].is_label);
    EXPECT_EQ(s.args[1].text, "TestMachine");
    // Labels live inline in their ring slot, cut to the fixed cap.
    EXPECT_EQ(s.args[2].text, long_label.substr(0, flightrec::kLabelCap));
}

TEST_F(TraceTest, NestedSpansTimestampsAreConsistent)
{
    trace::setEnabled(true);
    {
        TRACE_SPAN("test/outer");
        TRACE_SPAN("test/inner");
    }
    flightrec::Capture capture = finish();

    std::vector<flightrec::Event> inner = named(capture, "test/inner");
    std::vector<flightrec::Event> outer = named(capture, "test/outer");
    ASSERT_EQ(inner.size(), 1u);
    ASSERT_EQ(outer.size(), 1u);
    EXPECT_GE(inner[0].ts_us, outer[0].ts_us);
    EXPECT_LE(inner[0].ts_us + inner[0].dur_us,
              outer[0].ts_us + outer[0].dur_us);
}

TEST_F(TraceTest, IdScopeRestoresPreviousId)
{
    EXPECT_EQ(trace::currentTraceId(), 0u);
    {
        trace::IdScope outer(5);
        EXPECT_EQ(trace::currentTraceId(), 5u);
        {
            trace::IdScope inner(9);
            EXPECT_EQ(trace::currentTraceId(), 9u);
        }
        EXPECT_EQ(trace::currentTraceId(), 5u);
    }
    EXPECT_EQ(trace::currentTraceId(), 0u);
}

TEST_F(TraceTest, ConcurrentRecordingAndDraining)
{
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 250;

    trace::setEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            trace::IdScope id(kIdBase + 100 + uint64_t(t));
            for (int i = 0; i < kSpansPerThread; ++i) {
                trace::ScopedSpan span("test/mt");
                span.counter("i", uint64_t(i));
            }
            // Half the threads drain their own ring, as a service
            // worker does after each request.
            if (t % 2 == 0)
                flightrec::drainThread();
        });
    }
    // Drains race the recorders by design; they must stay safe, and
    // every span must come out exactly once across all of them.
    std::vector<flightrec::Event> all;
    uint64_t dropped = 0;
    auto take = [&] {
        flightrec::Capture c = flightrec::endCapture();
        dropped += c.dropped;
        for (flightrec::Event &e : c.events)
            all.push_back(std::move(e));
    };
    for (int i = 0; i < 10; ++i)
        take();
    for (auto &th : threads)
        th.join();
    trace::setEnabled(false);
    take();

    EXPECT_EQ(dropped, 0u);
    std::map<uint64_t, std::set<uint32_t>> tids_by_id;
    std::map<uint64_t, std::set<uint64_t>> counters_by_id;
    for (const flightrec::Event &e : all) {
        if (std::string(e.name) != "test/mt")
            continue;
        tids_by_id[e.trace_id].insert(e.tid);
        ASSERT_EQ(e.args.size(), 1u);
        EXPECT_TRUE(counters_by_id[e.trace_id].insert(e.args[0].value)
                        .second)
            << "span drained twice";
    }
    // Each recording thread kept its own id and its own ring.
    ASSERT_EQ(tids_by_id.size(), size_t(kThreads));
    for (const auto &[id, tids] : tids_by_id) {
        EXPECT_EQ(tids.size(), 1u) << id;
        EXPECT_EQ(counters_by_id[id].size(), size_t(kSpansPerThread))
            << id;
    }
}

TEST_F(TraceTest, RingOverflowReportsDroppedAndNoTornEvent)
{
    // One request whose spans (a sched/block span plus four counter
    // slots per block) outgrow one ring before the per-request drain.
    trace::setEnabled(true);
    {
        service::MdesService svc({.num_workers = 1});
        service::ScheduleRequest req;
        req.machine = "SuperSPARC";
        req.synth_ops = 20000;
        ASSERT_TRUE(svc.wait(svc.submit(req)).ok());
    }
    flightrec::Capture capture = finish();
    EXPECT_GT(capture.dropped, 0u);

    // What survived is whole: every block span kept all its args, and
    // the request span (the newest) is there with its labels.
    std::vector<flightrec::Event> blocks = named(capture, "sched/block");
    ASSERT_FALSE(blocks.empty());
    EXPECT_LT(blocks.size() * 5, flightrec::kRingSlots);
    for (const flightrec::Event &e : blocks) {
        ASSERT_EQ(e.args.size(), 4u);
        EXPECT_STREQ(e.args[0].key, "ops");
        EXPECT_STREQ(e.args[3].key, "prefilter_hits");
    }
    std::vector<flightrec::Event> requests = named(capture, "request");
    ASSERT_EQ(requests.size(), 1u);
    ASSERT_NE(argOf(requests[0], "machine"), nullptr);
    EXPECT_EQ(argOf(requests[0], "machine")->text, "SuperSPARC");
}

TEST_F(TraceTest, PerRequestDrainsKeepALongBatchWhole)
{
    // One worker pushes many rings' worth of traced 300-op requests
    // through its ring; draining after each request loses nothing.
    constexpr size_t kRequests = 48;
    const uint64_t recorded_before = flightrec::recordedCount();
    trace::setEnabled(true);
    std::set<uint64_t> ids;
    {
        service::MdesService svc({.num_workers = 1});
        std::vector<service::ScheduleRequest> batch(kRequests);
        for (size_t i = 0; i < kRequests; ++i) {
            batch[i].machine = "SuperSPARC";
            batch[i].synth_ops = 300;
            batch[i].seed = i + 1;
        }
        for (const auto &resp : svc.runBatch(batch))
            ASSERT_TRUE(resp.ok()) << resp.error.message;
    }
    flightrec::Capture capture = finish();
    EXPECT_GT(flightrec::recordedCount() - recorded_before,
              flightrec::kRingSlots);
    EXPECT_EQ(capture.dropped, 0u);

    std::vector<flightrec::Event> requests = named(capture, "request");
    for (const flightrec::Event &e : requests)
        ids.insert(e.trace_id);
    EXPECT_EQ(requests.size(), kRequests);
    EXPECT_EQ(ids.size(), kRequests);
}

TEST_F(TraceTest, ChromeExportIsWellFormedJson)
{
    trace::setEnabled(true);
    {
        trace::IdScope id(7);
        trace::ScopedSpan span("test/json \"quoted\"");
        span.counter("n", 3);
        span.label("kind", "unit\ttest");
    }
    flightrec::Capture capture = finish();

    JsonValue doc = parseJson(flightrec::toChromeJson(
        capture.events, 0, "trace", capture.dropped));
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(jsonU64(*other->find("dropped")), 0u);
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_EQ(events->array.size(), 1u);

    const JsonValue &e = events->array[0];
    EXPECT_EQ(e.find("name")->string, "test/json \"quoted\"");
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_EQ(e.find("pid")->number, 1.0);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    const JsonValue *args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("trace_id")->number, 7.0);
    EXPECT_EQ(args->find("n")->number, 3.0);
    EXPECT_EQ(args->find("kind")->string, "unit\ttest");
}

TEST_F(TraceTest, SchedulerProbesPopulateOnlyWhileEnabled)
{
    const machines::MachineInfo &m = machineNamed("SuperSPARC");
    exp::RunConfig config =
        exp::optimizedConfig(m, exp::Rep::AndOrTree);
    config.num_ops_override = 400;

    // Tracing off: the probe hooks must stay dormant.
    exp::RunResult off = exp::run(config);
    EXPECT_EQ(off.stats.attempts_per_op.total(), 0u);
    EXPECT_TRUE(off.stats.checks.conflicts_per_resource.empty());

    trace::setEnabled(true);
    exp::RunResult on = exp::run(config);
    trace::setEnabled(false);

    // One attempts-per-op sample per scheduled operation.
    EXPECT_EQ(on.stats.attempts_per_op.total(), on.stats.ops_scheduled);
    EXPECT_GE(on.stats.attempts_per_op.maxValue(), 1u);

    // Every failed probe charged some resource; the charge count can
    // exceed failures (an option can conflict on several resources) but
    // a contended workload must register at least one.
    uint64_t conflicts = 0;
    for (uint64_t n : on.stats.checks.conflicts_per_resource)
        conflicts += n;
    EXPECT_GT(conflicts, 0u);

    // The probe hooks observe scheduling without perturbing it.
    EXPECT_EQ(on.stats.ops_scheduled, off.stats.ops_scheduled);
    EXPECT_EQ(on.stats.total_schedule_length,
              off.stats.total_schedule_length);
    EXPECT_EQ(on.schedules, off.schedules);
}

TEST_F(TraceTest, ServiceRequestProducesEndToEndSpans)
{
    trace::setEnabled(true);
    {
        service::ServiceConfig config;
        config.num_workers = 2;
        service::MdesService svc(config);
        service::ScheduleRequest req;
        req.machine = "SuperSPARC";
        req.synth_ops = 300;
        std::vector<service::ScheduleResponse> responses =
            svc.runBatch({req});
        ASSERT_EQ(responses.size(), 1u);
        ASSERT_TRUE(responses[0].ok()) << responses[0].error.message;

        service::ServiceMetrics metrics = svc.metricsSnapshot();
        EXPECT_EQ(metrics.attempts_per_op.total(),
                  metrics.ops_scheduled);
        EXPECT_FALSE(metrics.resource_conflicts.empty());
        for (const auto &[name, n] : metrics.resource_conflicts) {
            EXPECT_NE(name.find("SuperSPARC."), std::string::npos)
                << name;
            EXPECT_GT(n, 0u);
        }
        EXPECT_GT(metrics.transform_effects.total(), 0u);
    }
    flightrec::Capture capture = finish();
    std::set<std::string> names;
    uint64_t request_id = 0;
    for (const flightrec::Event &s : capture.events) {
        names.insert(s.name);
        if (std::string(s.name) == "request")
            request_id = s.trace_id;
    }
    for (const char *expected :
         {"request", "cache/lookup", "compile/hmdes", "compile/lower",
          "workload/build", "sched/block", "pass/cse"}) {
        EXPECT_TRUE(names.count(expected))
            << "missing span " << expected;
    }
    // The request span carries the job's trace id, and every span the
    // worker recorded while processing it is stamped with the same id.
    EXPECT_NE(request_id, 0u);
    for (const flightrec::Event &s : capture.events) {
        if (std::string(s.name) == "compile/hmdes" ||
            std::string(s.name) == "sched/block") {
            EXPECT_EQ(s.trace_id, request_id) << s.name;
        }
    }
}

} // namespace
} // namespace mdes
