#ifndef MDES_SERVICE_SERVICE_H
#define MDES_SERVICE_SERVICE_H

/**
 * @file
 * The in-process MDES compile-and-schedule service.
 *
 * The paper's division of labor - compile the machine description once,
 * query it cheaply forever - implies a serving architecture: one shared,
 * immutable compiled description per machine and many concurrent
 * scheduler clients. MdesService is that architecture in miniature:
 *
 *  - A bounded LRU DescriptionCache holds compiled descriptions as
 *    `shared_ptr<const LowMdes>`; every request against the same
 *    (source, transforms) pair shares one artifact.
 *  - A fixed pool of worker threads drains a FIFO job queue. All mutable
 *    scheduling state (RU map, Checker, CheckStats) is created fresh per
 *    job, so workers never share anything writable; results are
 *    deterministic and byte-identical for any worker count.
 *  - Requests carry optional deadlines and can be cancelled; failures
 *    surface as a typed ServiceError in the response, never as an
 *    exception escaping a worker thread.
 *  - Per-worker ServiceMetrics are merged on demand into one snapshot
 *    (counters, cache hit rate, per-stage latency histograms).
 *
 * Thread-safety contract (DESIGN.md §7): LowMdes is immutable after
 * lower()/load() - every accessor is const and workers only ever hold
 * `const LowMdes &`. RuMap/Checker/CheckStats are mutable and strictly
 * worker-local. The static_asserts below pin the parts of the contract
 * the type system can see.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/transforms.h"
#include "sched/list_scheduler.h"
#include "sched/modulo_scheduler.h"
#include "service/cache.h"
#include "service/metrics.h"

namespace mdes::service {

// The compiled artifact crosses threads; it must be handed out
// const-qualified, and the scheduling entry points must accept it as
// const (immutable-after-build contract).
static_assert(std::is_same_v<CompiledMdes::element_type,
                             const lmdes::LowMdes>,
              "compiled descriptions must be shared as const");
static_assert(
    std::is_constructible_v<sched::ListScheduler, const lmdes::LowMdes &>,
    "schedulers must consume the description read-only");

/** Which scheduler answers the request. Exact runs the branch-and-bound
 * search (list incumbent, proven lower bounds); Portfolio races
 * list/backward/modulo/exact per block under the request deadline and
 * keeps the shortest schedule. */
enum class SchedulerKind { List, Backward, Modulo, Exact, Portfolio };

/** Printable scheduler name. */
const char *schedulerKindName(SchedulerKind kind);

/** Typed failure carried in a ScheduleResponse. */
struct ServiceError
{
    ErrorCode code = ErrorCode::Ok;
    std::string message;

    explicit operator bool() const { return code != ErrorCode::Ok; }
};

/** One unit of service work. */
struct ScheduleRequest
{
    /** Built-in machine name (PA7100, Pentium, SuperSPARC, K5,
     * PentiumPro, PA8000); ignored when @c source is set. */
    std::string machine;
    /** Inline high-level MDES source (wins over @c machine). */
    std::string source;

    /** .sasm workload text; empty selects the synthetic generator
     * (built-in machines only, since the generator needs the machine's
     * class mix). */
    std::string sasm;
    /** Synthetic workload size override (0 = machine default). */
    size_t synth_ops = 0;
    /** Synthetic workload seed override (0 = machine default). */
    uint64_t seed = 0;

    SchedulerKind scheduler = SchedulerKind::List;
    /** Transformation pipeline for the description (cache key input). */
    PipelineConfig transforms = PipelineConfig::all();
    bool bit_vector = true;

    /** Re-verify the produced schedules (all but modulo). */
    bool verify = false;

    /** Soft deadline in milliseconds from submission (0 = none). For
     * exact/portfolio the deadline also truncates the per-block search:
     * the response carries the best schedules found so far instead of
     * failing. */
    int64_t deadline_ms = 0;

    /** Exact/portfolio: per-block search wall-time budget in
     * milliseconds (0 = no time cap - deterministic searches for tests;
     * the request default is 50 ms as in the acceptance workloads). */
    int64_t exact_ms = 50;
    /** Exact/portfolio: per-block search node budget (0 = the
     * scheduler's built-in default). */
    uint64_t exact_nodes = 0;
};

/** Per-block outcome of an exact or portfolio request. */
struct BlockOutcome
{
    /** Backend whose schedule was kept (Exact also stands for "the
     * search's incumbent", i.e. list, when nothing improved it). */
    SchedulerKind winner = SchedulerKind::List;
    /** Kept schedule length. */
    int32_t length = 0;
    /** Proven lower bound on the block's schedule length. */
    int32_t lower_bound = 0;
    /** length == proven optimum. */
    bool proven_optimal = false;
    /** Search stopped on its node/time budget. */
    bool budget_exhausted = false;
    /** Search nodes expanded for this block. */
    uint64_t nodes = 0;
};

/** Search totals across an exact/portfolio request's blocks. */
struct ExactSearchTotals
{
    uint64_t blocks = 0;
    uint64_t proven_optimal = 0;
    uint64_t budget_exhausted = 0;
    uint64_t nodes = 0;
    uint64_t bound_prunes = 0;
    uint64_t dominance_prunes = 0;
    uint64_t probes = 0;
    /** Sum over blocks of (length - lower_bound). */
    uint64_t gap_cycles = 0;
    /** Portfolio win counts by backend. */
    uint64_t wins_list = 0;
    uint64_t wins_backward = 0;
    uint64_t wins_modulo = 0;
    uint64_t wins_exact = 0;
};

/** What a request produces. */
struct ScheduleResponse
{
    ServiceError error;
    std::string machine;
    /** The shared compiled artifact (null on pre-compile failures). */
    CompiledMdes low;
    /** Served from an existing in-memory entry (no new compilation). */
    bool cache_hit = false;
    /** Served by loading the persistent store's artifact from disk. */
    bool disk_hit = false;
    /** The optimizer pipeline faulted and this response was served from
     * the unoptimized lowered description instead (same schedules - the
     * Section 4 invariant - but slower constraint checks). */
    bool degraded = false;

    /** Per-block schedules (all but the modulo scheduler). */
    std::vector<sched::BlockSchedule> schedules;
    /** Per-loop modulo schedules (modulo scheduler). */
    std::vector<sched::ModuloSchedule> modulo;
    /** Per-block search outcomes (exact/portfolio schedulers). */
    std::vector<BlockOutcome> outcomes;
    /** Aggregated search counters (exact/portfolio schedulers). */
    ExactSearchTotals exact;
    sched::SchedStats stats;

    /** Sum of block schedule lengths / achieved IIs. */
    uint64_t total_cycles = 0;

    bool ok() const { return !error; }
};

/**
 * Content hash of a response's schedules: sched::scheduleFingerprint of
 * its blocks, continued over its modulo results. Equal workloads
 * scheduled by any worker count must produce equal fingerprints (the
 * determinism tests and bench assert this).
 */
uint64_t scheduleFingerprint(const ScheduleResponse &response);

/** Service construction parameters. Every member has an initializer,
 * so a designated-initializer literal may name any subset. */
struct ServiceConfig
{
    /** Worker threads (0 = hardware_concurrency, at least 1). */
    unsigned num_workers = 0;
    /** Compiled-description cache capacity (entries). */
    size_t cache_capacity = 16;
    /**
     * Persistent compiled-description store directory; when non-empty
     * the cache gains a disk tier (memory → disk → compile) shared
     * across service instances and process restarts. Created if
     * absent; the constructor throws MdesError when it cannot be.
     */
    std::string store_dir = {};
    /** Disk-store size budget in bytes (0 = unbounded); publishes over
     * budget trigger an LRU eviction sweep. */
    uint64_t store_max_bytes = 0;
    /**
     * Admission-queue bound (jobs waiting, not running); a submit that
     * would exceed it is shed immediately with ErrorCode::Overloaded
     * instead of growing the queue without limit. 0 = unbounded.
     */
    size_t max_queue = 0;
    /** Consecutive compile failures of one description that open its
     * circuit breaker (fail fast instead of recompiling a poisoned
     * input on every request). 0 disables the breaker. */
    uint32_t breaker_threshold = 4;
    /** Open-breaker cooldown before one half-open trial compile. */
    uint32_t breaker_cooldown_ms = 10000;
};

/**
 * The concurrent compile-and-schedule service. Submit jobs from any
 * thread; the destructor drains outstanding work before returning.
 */
class MdesService
{
  public:
    using RequestId = uint64_t;

    /**
     * Completion callback for submit(): invoked exactly once with the
     * finished response, from the worker thread that processed the
     * request (or from inside submit() itself when the request is shed
     * at admission). Callbacks must be fast and must not call back into
     * the service except for submit()/cancel() — the network front end
     * uses one to hand responses to its event loop.
     */
    using Completion = std::function<void(ScheduleResponse)>;

    explicit MdesService(ServiceConfig config = {});
    ~MdesService();

    MdesService(const MdesService &) = delete;
    MdesService &operator=(const MdesService &) = delete;

    /**
     * Enqueue @p request; the returned id is waitable/cancellable.
     * With @p on_complete set the response is delivered through the
     * callback instead and the id must NOT be waited on (it remains
     * valid for cancel() until the callback fires).
     */
    RequestId submit(ScheduleRequest request, Completion on_complete = {});

    /**
     * Block until request @p id completes and return its response.
     * Each id may be waited on once.
     */
    ScheduleResponse wait(RequestId id);

    /**
     * Best-effort cancel: a request not yet started completes with
     * ErrorCode::Cancelled; a running request is cancelled at its next
     * stage boundary. @return false when @p id is unknown (already
     * waited, or never submitted).
     */
    bool cancel(RequestId id);

    /** Submit every request and wait for all; responses are returned in
     * request order regardless of completion order. */
    std::vector<ScheduleResponse>
    runBatch(std::vector<ScheduleRequest> requests);

    /** Merged metrics across all workers plus current cache counters. */
    ServiceMetrics metricsSnapshot() const;

    /** Close every description's circuit breaker (operator override
     * after fixing a bad description, and test support). */
    void resetBreakers() { cache_.resetBreakers(); }

    unsigned numWorkers() const { return unsigned(workers_.size()); }

    const DescriptionCache &cache() const { return cache_; }

  private:
    struct Job
    {
        RequestId id = 0;
        ScheduleRequest request;
        std::promise<ScheduleResponse> promise;
        /** Non-null for callback-style submissions (see submit()). */
        Completion completion;
        std::atomic<bool> cancelled{false};
        /** steady_clock deadline (time_point::max() = none). */
        std::chrono::steady_clock::time_point deadline;
        /** When the job entered the admission queue (queue-wait metric). */
        std::chrono::steady_clock::time_point enqueued;
    };

    struct Worker
    {
        std::thread thread;
        /** Guards metrics only; taken once per completed job and during
         * snapshots, never on the scheduling hot path. */
        mutable std::mutex metrics_mu;
        ServiceMetrics metrics;
    };

    void workerLoop(Worker &worker);
    ScheduleResponse process(Job &job, ServiceMetrics &metrics,
                             std::mutex &metrics_mu);
    /** Flight-recorder tail capture: spool the request's ring events
     * when it errored or exceeded the armed latency threshold. */
    static void maybeSpoolFlight(RequestId id, ErrorCode code,
                                 uint64_t latency_us);
    /** Hand @p resp to the job's waiter (promise) or callback. */
    void deliver(Job &job, ScheduleResponse resp);

    DescriptionCache cache_;

    std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    bool stopping_ = false;

    std::mutex jobs_mu_;
    std::unordered_map<RequestId, std::shared_ptr<Job>> jobs_;
    std::atomic<RequestId> next_id_{1};
    /** Submissions rejected by the admission-queue bound. */
    std::atomic<uint64_t> requests_shed_{0};
    /** Windowed view of shed submissions (they never reach a worker,
     * so the per-worker window rings cannot see them). */
    mutable std::mutex shed_windows_mu_;
    WindowRing shed_windows_;
    size_t max_queue_ = 0;

    std::vector<std::unique_ptr<Worker>> workers_;
};

} // namespace mdes::service

#endif // MDES_SERVICE_SERVICE_H
