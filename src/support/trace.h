#ifndef MDES_SUPPORT_TRACE_H
#define MDES_SUPPORT_TRACE_H

/**
 * @file
 * mdes::trace - low-overhead, end-to-end tracing for the compile/store/
 * schedule stack.
 *
 * The paper's argument is quantitative: every transformation is justified
 * by how many options, usages, and checks it eliminates. This layer makes
 * those quantities observable *per request* instead of per offline
 * benchmark run:
 *
 *  - Spans: RAII-timed regions (ScopedSpan, or TRACE_SPAN when
 *    unnamed) stamped with flightrec ticks and recorded into the
 *    calling thread's flight-recorder ring (support/flightrec.h), the
 *    one span store. While tracing is on, a span also carries its
 *    counters and labels into the ring.
 *  - Trace ids: a thread-local current id (IdScope) stamps every span
 *    recorded while a request is being processed, so one slow request is
 *    attributable across cache, store, compile, and scheduler tiers.
 *  - Export: turning tracing on starts a capture that drains the rings;
 *    flightrec::endCapture() hands it over for flightrec::toChromeJson().
 *
 * Overhead budget (asserted by bench_trace_overhead): with tracing
 * disabled, a span costs two relaxed atomic loads, two tick reads and
 * one ring push; the schedulers' probe hooks test a plain flag or null
 * pointer. The scheduler hot loop must stay within 1% of its untraced
 * cost.
 */

#include <atomic>
#include <cstdint>
#include <string_view>

#include "support/flightrec.h"

namespace mdes::trace {

/** Global runtime switch. Off by default; flipped by setEnabled(). */
extern std::atomic<bool> g_trace_enabled;

/** True when tracing is on (relaxed load; hot-path safe). */
inline bool
enabled()
{
    return g_trace_enabled.load(std::memory_order_relaxed);
}

/** Turn tracing on or off process-wide. Turning it on starts a fresh
 * capture (flightrec::beginCapture()). */
void setEnabled(bool on);

/** Monotonic microseconds since the process's first query: the
 * reference flightrec calibrates its ticks against. */
uint64_t nowUs();

/** The thread-local trace id stamped on recorded spans (0 = none). */
uint64_t currentTraceId();

/** RAII scope setting the calling thread's trace id (restores on exit).
 * Spans a request's worker thread records - including compile passes run
 * on behalf of other requests collapsed into this single-flight - carry
 * this id. */
class IdScope
{
  public:
    explicit IdScope(uint64_t id);
    ~IdScope();

    IdScope(const IdScope &) = delete;
    IdScope &operator=(const IdScope &) = delete;

  private:
    uint64_t prev_;
};

/**
 * RAII span: times its scope in flightrec ticks and pushes it into the
 * calling thread's ring on destruction. Args are kept only while
 * tracing is on (active()), at most flightrec::kMaxArgs of them.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** True when this span keeps args (tracing was enabled at entry). */
    bool active() const { return active_; }

    /** Attach a numeric arg (shown under "args" in the trace viewer). */
    void
    counter(const char *key, uint64_t value)
    {
        if (active_ && nargs_ < flightrec::kMaxArgs)
            args_[nargs_++] = flightrec::counterArg(key, value);
    }

    /** Attach a string arg, cut to flightrec::kLabelCap bytes. */
    void
    label(const char *key, std::string_view value)
    {
        if (active_ && nargs_ < flightrec::kMaxArgs) {
            label_mask_ |= 1u << nargs_;
            args_[nargs_++] = flightrec::labelArg(key, value);
        }
    }

  private:
    const char *name_;
    uint64_t start_ticks_ = 0;
    bool active_;
    /** True when the span goes into the ring (tracing or the flight
     * recorder is on). */
    bool recorded_;
    uint8_t nargs_ = 0;
    uint8_t label_mask_ = 0;
    flightrec::ArgSlot args_[flightrec::kMaxArgs];
};

#define MDES_TRACE_CAT2(a, b) a##b
#define MDES_TRACE_CAT(a, b) MDES_TRACE_CAT2(a, b)

/** Time the enclosing scope as an anonymous span (name a ScopedSpan
 * to attach args). */
#define TRACE_SPAN(name_literal)                                          \
    ::mdes::trace::ScopedSpan MDES_TRACE_CAT(mdes_trace_span_,            \
                                             __LINE__)(name_literal)

} // namespace mdes::trace

#endif // MDES_SUPPORT_TRACE_H
