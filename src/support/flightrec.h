#ifndef MDES_SUPPORT_FLIGHTREC_H
#define MDES_SUPPORT_FLIGHTREC_H

/**
 * @file
 * mdes::flightrec - the span store behind mdes::trace.
 *
 * Every thread keeps a small fixed-size ring of its most recent span
 * events, recorded unconditionally (even with tracing off) at a cost of
 * a few relaxed atomic stores per span. The ring remembers the last
 * ~4096 events per thread and silently overwrites older ones. It is the
 * only place spans are stored, and every consumer reads it:
 *
 *  - --trace (trace::setEnabled): spans also carry their counters and
 *    labels, as extra ring slots written next to the span, and the
 *    capture drains the rings - each service worker after every
 *    request, and endCapture() once at the end for everything else.
 *  - Tail-based capture: when a request ends badly - typed error,
 *    breaker trip, deadline blown, or latency beyond a configurable
 *    threshold - the service asks the recorder to *spool* that trace
 *    id: every ring event carrying the id is gathered across threads
 *    and written to a bounded on-disk directory (a size-capped FIFO:
 *    oldest files are deleted first and the total never exceeds the
 *    byte cap, so a misbehaving fleet cannot fill a disk).
 *  - Crash capture: a fatal-signal handler dumps the raw rings.
 *
 * All three render through toChromeJson(), the one Chrome trace-event
 * writer.
 *
 * Concurrency: each ring is written only by the thread holding it
 * (release stores into atomic slot words, then a release store of the
 * head counter once per span); a reader snapshots the head, copies the
 * window, then re-reads the head and discards any slot the writer may
 * have lapped during the copy or be overwriting for an unpublished
 * span. Torn events are therefore
 * discarded, never reported, and the scheme is clean under
 * ThreadSanitizer without any lock on the record path. A thread's ring
 * goes back to a free list when the thread exits and is handed to the
 * next new thread; rings are never freed.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mdes::flightrec {

/** Slots per thread ring (power of two; 128KiB per thread). A span
 * takes one slot plus one per arg. */
inline constexpr size_t kRingSlots = 4096;

/** Most args one span carries into the ring (later ones are ignored). */
inline constexpr size_t kMaxArgs = 8;

/** Bytes of a label value kept in its slot (longer values are cut). */
inline constexpr size_t kLabelCap = 24;

/** Global runtime switch. On by default. */
extern std::atomic<bool> g_flightrec_enabled;

/** True when ring recording is active (relaxed load; hot-path safe). */
inline bool
enabled()
{
    return g_flightrec_enabled.load(std::memory_order_relaxed);
}

/** Turn ring recording on or off process-wide. While tracing is on
 * (trace::enabled()) spans are recorded either way. */
void setEnabled(bool on);

/**
 * Cheapest available monotone timestamp, in unspecified "ticks" (TSC
 * cycles on x86-64, steady-clock nanoseconds elsewhere). Ring events
 * are stamped in ticks on the hot path - a vdso clock_gettime pair per
 * span would alone blow the recorder's <1% budget - and converted to
 * microseconds only when events are read, using a rate calibrated
 * against trace::nowUs() since process start.
 */
uint64_t nowTicks();

/** One span arg as it sits in its ring slot: the key (a string
 * literal's address), then the counter value or the label's first
 * kLabelCap bytes packed inline. */
struct ArgSlot
{
    uint64_t word[4];
};

/** A counter arg. */
ArgSlot counterArg(const char *key, uint64_t value);

/** A label arg (the value is copied, cut to kLabelCap bytes). */
ArgSlot labelArg(const char *key, std::string_view value);

/** Append one span and its @p nargs args to the calling thread's ring
 * (wait-free). Bit i of @p label_mask marks args[i] as a label.
 * Timestamps are nowTicks() values; readers convert. */
void record(const char *name, uint64_t trace_id, uint64_t ts_ticks,
            uint64_t dur_ticks, const ArgSlot *args = nullptr,
            size_t nargs = 0, uint32_t label_mask = 0);

/** One span arg copied out of a ring. */
struct Arg
{
    const char *key = "";
    /** A label (text) rather than a counter (value). */
    bool is_label = false;
    uint64_t value = 0;
    std::string text;
};

/** One span copied out of a ring. */
struct Event
{
    const char *name = "";
    uint64_t trace_id = 0;
    uint64_t ts_us = 0;
    uint64_t dur_us = 0;
    /** Lane of the ring that held the event. */
    uint32_t tid = 0;
    std::vector<Arg> args;
};

/** Every ring event stamped with @p trace_id, across all threads,
 * ordered by timestamp and converted from ticks to microseconds on
 * trace::nowUs()'s axis. Best-effort: events the writers lapped during
 * the copy are omitted, and events stamped before the recorder's
 * first use clamp to the calibration origin. */
std::vector<Event> eventsForTrace(uint64_t trace_id);

/** Total ring slots ever written across all rings (monotone; for
 * tests). */
uint64_t recordedCount();

/** Rings the registry has ever created (for tests): at most the
 * number of threads that held one at the same time. */
size_t ringCount();

// ---- --trace capture ----------------------------------------------
//
// A capture is a drain of the rings. Each ring keeps a cursor: the
// first slot not yet drained. beginCapture() moves every cursor to its
// ring's head; a drain moves the events between a cursor and the head
// into the capture buffer. Slots the ring overwrote before they were
// drained are counted as dropped.

/** Start a fresh capture (trace::setEnabled(true) calls this). */
void beginCapture();

/** Drain the calling thread's ring into the capture. The service calls
 * this after each request while tracing is on. */
void drainThread();

/** A finished capture. */
struct Capture
{
    /** Every drained event, ordered by timestamp. */
    std::vector<Event> events;
    /** Ring slots (spans and their args) overwritten before they were
     * drained. */
    uint64_t dropped = 0;
};

/** Drain every ring, then hand over and reset the capture buffer. */
Capture endCapture();

/** Render events as a standalone Chrome trace-event JSON document:
 * "ph":"X" complete events with ts/dur in microseconds and the span's
 * trace id, counters and labels under "args"; @p trace_id, @p reason
 * and @p dropped go under "otherData". Loadable in chrome://tracing or
 * Perfetto. The one writer for --trace, spool files and crash
 * captures. */
std::string toChromeJson(const std::vector<Event> &events,
                         uint64_t trace_id, const char *reason,
                         uint64_t dropped = 0);

/** Disk spool configuration. Unarmed by default: the library never
 * writes to disk unless a tool arms a directory. */
struct SpoolConfig
{
    /** Directory for spool files (created if missing). */
    std::string dir;
    /** Byte cap for the whole directory (FIFO eviction; never
     * exceeded after a spool() returns). */
    uint64_t max_bytes = 8ull << 20;
    /** End-to-end request latency (µs) beyond which an otherwise
     * successful request is spooled. 0 disables the latency trigger;
     * errors always trigger. */
    uint64_t slow_us = 0;
};

/** Arm disk spooling. Scans @p config.dir for existing spool files so
 * the byte cap holds across restarts. Replaces any previous config. */
void armSpool(const SpoolConfig &config);

/** Disarm disk spooling (ring recording is unaffected). */
void disarmSpool();

/** True when a spool directory is armed. */
bool spoolArmed();

/** The armed latency trigger in µs (0 when unarmed or disabled). */
uint64_t slowThresholdUs();

/**
 * Gather @p trace_id's ring events and write them to the spool
 * directory as one Chrome-trace JSON file named
 * "NNNNNNNN-<reason>-<trace_id>.json", then evict oldest files until
 * the directory is back under its byte cap. Returns the path written,
 * or "" when unarmed, the trace has no buffered events, or the write
 * failed. Never throws.
 */
std::string spool(uint64_t trace_id, const char *reason);

/** Spool-side counters (monotone since arm; for tests and tables). */
struct SpoolStats
{
    uint64_t files_written = 0;
    uint64_t files_evicted = 0;
    uint64_t empty_skipped = 0;
    /** Bytes currently on disk under the armed directory. */
    uint64_t bytes = 0;
};

SpoolStats spoolStats();

// ---- Crash capture (DESIGN.md §15) --------------------------------
//
// The spool path above gathers/serializes under locks and allocates -
// none of which is legal inside a fatal-signal handler. Crash capture
// is its async-signal-safe sibling: a pre-registered, lock-free table
// of ring pointers lets a SIGSEGV/SIGBUS/SIGABRT handler dump every
// thread's raw ring (plus a minimal crash report) to one ".mdcr" file
// using only open/write/close, so every crash arrives with its last
// milliseconds of spans. The binary capture is decoded offline by
// `mdesc flight decode`.

/** Crash report decoded from a .mdcr capture header. */
struct CrashInfo
{
    int signo = 0;
    uint64_t pid = 0;
    uint64_t fault_addr = 0;
    uint64_t rings = 0;
    uint64_t events = 0;
};

/**
 * Arm the crash handler: SIGSEGV, SIGBUS and SIGABRT write
 * "<dir>/crash-<pid>-<signo>.mdcr" (raw ring snapshot + crash report)
 * and then re-raise with the default disposition, preserving the exit
 * status a supervisor observes. Handlers run on an alternate stack so
 * stack-overflow SIGSEGVs are captured too. Safe to call again after
 * fork() to point a child at its own directory. Returns false when
 * @p dir is empty/oversized or handler installation failed.
 */
bool armCrashCapture(const std::string &dir);

/** True once armCrashCapture() installed handlers in this process. */
bool crashCaptureArmed();

/**
 * Decode a .mdcr capture into a standalone Chrome trace-event JSON
 * document (the spool-file shape). Fills @p info when non-null.
 * Throws MdesError on unreadable or malformed input.
 */
std::string decodeCrashCapture(const std::string &path,
                               CrashInfo *info = nullptr);

} // namespace mdes::flightrec

#endif // MDES_SUPPORT_FLIGHTREC_H
