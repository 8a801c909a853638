#include "support/trace.h"

#include <chrono>

namespace mdes::trace {

std::atomic<bool> g_trace_enabled{false};

namespace {

thread_local uint64_t t_trace_id = 0;

} // namespace

void
setEnabled(bool on)
{
    if (on && !enabled())
        flightrec::beginCapture();
    g_trace_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - origin)
                        .count());
}

uint64_t
currentTraceId()
{
    return t_trace_id;
}

IdScope::IdScope(uint64_t id) : prev_(t_trace_id)
{
    t_trace_id = id;
}

IdScope::~IdScope()
{
    t_trace_id = prev_;
}

ScopedSpan::ScopedSpan(const char *name)
    : name_(name), active_(enabled()),
      recorded_(active_ || flightrec::enabled())
{
    if (recorded_)
        start_ticks_ = flightrec::nowTicks();
}

ScopedSpan::~ScopedSpan()
{
    if (recorded_)
        flightrec::record(name_, t_trace_id, start_ticks_,
                          flightrec::nowTicks() - start_ticks_, args_,
                          nargs_, label_mask_);
}

} // namespace mdes::trace
