#include "support/flightrec.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <system_error>
#include <utility>

#include "support/diagnostics.h"

#include "support/json.h"
#include "support/trace.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace mdes::flightrec {

std::atomic<bool> g_flightrec_enabled{true};

namespace {

namespace fs = std::filesystem;

static_assert((kRingSlots & (kRingSlots - 1)) == 0,
              "ring size must be a power of two");

/** Ticks -> microseconds between two calibration points. Conversion
 * only has to be *monotone* for ordering to hold; absolute accuracy
 * converges within milliseconds of the origin. */
struct TickClock
{
    uint64_t origin_ticks = 0;
    uint64_t origin_us = 0;
    /** Ticks per microsecond. */
    double rate = 1.0;

    static TickClock
    between(uint64_t ticks0, uint64_t us0, uint64_t ticks1, uint64_t us1)
    {
        const uint64_t dus = us1 > us0 ? us1 - us0 : 1;
        const uint64_t dticks = ticks1 > ticks0 ? ticks1 - ticks0 : dus;
        return {ticks0, us0, double(dticks) / double(dus)};
    }

    /** Pre-origin stamps clamp to the origin. */
    uint64_t
    toUs(uint64_t ticks) const
    {
        if (ticks <= origin_ticks)
            return origin_us;
        return origin_us + uint64_t(double(ticks - origin_ticks) / rate);
    }
};

/** The origin pair, pinned when the first ring registers or a capture
 * begins (long before anything is read in practice). */
const TickClock &
tickOrigin()
{
    static const TickClock origin{nowTicks(), trace::nowUs()};
    return origin;
}

/** The live clock: the rate is re-derived at each read from the span
 * since the origin, so it improves as the process ages. */
TickClock
liveClock()
{
    const TickClock &o = tickOrigin();
    return TickClock::between(o.origin_ticks, o.origin_us, nowTicks(),
                              trace::nowUs());
}

// A span occupies one slot per arg followed by one span slot, and the
// ring's head only ever advances past a whole span, so a reader walks
// backwards from the head. Span slot words: name, trace id, start
// ticks, and a meta word holding the duration in its low kDurBits, the
// arg count in the next 4 bits and the label mask in the top 8. Arg
// slot words: see ArgSlot.
inline constexpr unsigned kDurBits = 52;
inline constexpr uint64_t kDurMask = (uint64_t(1) << kDurBits) - 1;
static_assert(kMaxArgs <= 8, "label mask holds 8 bits");
static_assert(kLabelCap == 3 * sizeof(uint64_t),
              "labels fill an arg slot's last three words");

/** A slot copied out of a ring (every slot has ArgSlot's shape). */
using RawSlot = ArgSlot;

uint64_t
pointerWord(const char *p)
{
    return uint64_t(reinterpret_cast<uintptr_t>(p));
}

const char *
wordPointer(uint64_t w)
{
    return reinterpret_cast<const char *>(uintptr_t(w));
}

/**
 * Decode @p window - consecutive ring slots ending at a span boundary -
 * into events for @p trace_id (every event when 0), appended to @p out
 * oldest first. Spans with a null name are skipped. Returns how many
 * leading slots belong to no whole span (it was partly overwritten).
 */
size_t
decodeWindow(const std::vector<RawSlot> &window, uint32_t tid,
             const TickClock &clock, uint64_t trace_id,
             std::vector<Event> &out)
{
    const size_t first = out.size();
    size_t end = window.size();
    while (end > 0) {
        const uint64_t *span = window[end - 1].word;
        const size_t nargs = size_t(span[3] >> kDurBits) & 0xf;
        if (nargs > kMaxArgs || nargs > end - 1)
            break;
        end -= nargs + 1;
        if (span[0] == 0 || (trace_id != 0 && span[1] != trace_id))
            continue;
        // The end converts like the start, so a span exported inside
        // another also ends inside it, and no span ends after the
        // clock's reading point.
        const uint64_t ts_us = clock.toUs(span[2]);
        Event e{wordPointer(span[0]), span[1], ts_us,
                clock.toUs(span[2] + (span[3] & kDurMask)) - ts_us, tid,
                {}};
        for (size_t i = 0; i < nargs; ++i) {
            const uint64_t *arg = window[end + i].word;
            Arg &a = e.args.emplace_back();
            a.key = arg[0] != 0 ? wordPointer(arg[0]) : "";
            a.is_label = (span[3] >> (kDurBits + 4 + i)) & 1;
            if (a.is_label) {
                const char *text = reinterpret_cast<const char *>(arg + 1);
                a.text.assign(text, ::strnlen(text, kLabelCap));
            } else {
                a.value = arg[1];
            }
        }
        out.push_back(std::move(e));
    }
    std::reverse(out.begin() + std::ptrdiff_t(first), out.end());
    return end;
}

struct Ring
{
    /** Slots ever written; slot i is slots[i % kRingSlots]. Written
     * only by the thread holding the ring, once per span. */
    std::atomic<uint64_t> head{0};
    /** Lane shown as the events' tid; kept when the ring is reused. */
    uint32_t tid = 0;
    /** First slot not yet drained into the capture (guarded by the
     * capture mutex). */
    uint64_t cursor = 0;
    /** All words are atomics so a concurrent reader is a well-defined
     * (if possibly torn) read; copyWindow() discards torn slots. */
    std::array<std::array<std::atomic<uint64_t>, 4>, kRingSlots> slots{};

    /** Release stores (plain moves on x86-64): a reader whose acquire
     * load sees one of them also sees the head published before the
     * push that wrote it, which copyWindow() relies on. */
    void
    store(uint64_t index, const uint64_t (&word)[4])
    {
        auto &slot = slots[index & (kRingSlots - 1)];
        for (size_t k = 0; k < 4; ++k)
            slot[k].store(word[k], std::memory_order_release);
    }

    void
    push(const char *name, uint64_t trace_id, uint64_t ts_ticks,
         uint64_t dur_ticks, const ArgSlot *args, size_t nargs,
         uint32_t label_mask)
    {
        const uint64_t h = head.load(std::memory_order_relaxed);
        for (size_t i = 0; i < nargs; ++i)
            store(h + i, args[i].word);
        store(h + nargs, {pointerWord(name), trace_id, ts_ticks,
                          std::min(dur_ticks, kDurMask) |
                              uint64_t(nargs) << kDurBits |
                              uint64_t(label_mask & 0xff)
                                  << (kDurBits + 4)});
        // Publish: a reader that observes the new head sees these
        // slots (or a later overwrite it will discard).
        head.store(h + nargs + 1, std::memory_order_release);
    }

    /** Copy the slots from index @p from (or the oldest still held)
     * up to the head into @p out, keeping only slots the writer did
     * not lap during the copy. Returns the index of the first slot
     * kept. */
    uint64_t
    copyWindow(uint64_t from, std::vector<RawSlot> &out) const
    {
        const uint64_t h1 = head.load(std::memory_order_acquire);
        const uint64_t lo =
            std::max(from, h1 > kRingSlots ? h1 - kRingSlots : 0);
        out.clear();
        for (uint64_t i = lo; i < h1; ++i) {
            RawSlot &r = out.emplace_back();
            for (size_t k = 0; k < 4; ++k)
                r.word[k] = slots[i & (kRingSlots - 1)][k].load(
                    std::memory_order_acquire);
        }
        // Anything the writer lapped while we copied may be torn:
        // keep only indices still inside the window at h2. push()
        // stores a span's slots (up to kMaxArgs args, then the span)
        // *before* publishing the new head, so while head still reads
        // h2 the kMaxArgs + 1 slot indices from h2 on reuse (one lap
        // back) may already be mid-overwrite - discard those too (the
        // window is effectively kRingSlots - kMaxArgs - 1 slots deep).
        // A slot a later push wrote is discarded as well: reading it
        // (acquire) shows h2 at or past that push's first index.
        const uint64_t h2 = head.load(std::memory_order_acquire);
        constexpr uint64_t kUnsafe = kMaxArgs + 1;
        const uint64_t lo2 =
            h2 + kUnsafe > kRingSlots ? h2 + kUnsafe - kRingSlots : 0;
        const uint64_t kept = std::min(std::max(lo, lo2), h1);
        out.erase(out.begin(), out.begin() + std::ptrdiff_t(kept - lo));
        return kept;
    }
};

// ---- Crash-capture ring table -------------------------------------
//
// The registry below guards its rings with a mutex, which a fatal-
// signal handler must never take. Rings are registered once and never
// freed, so a parallel lock-free table of raw pointers is safe for the
// handler to walk: registration publishes the pointer with a release
// store before bumping the count, and the handler loads the count with
// acquire. Capped; threads past the cap simply aren't captured.

inline constexpr size_t kMaxCrashRings = 256;
std::atomic<Ring *> g_crash_rings[kMaxCrashRings];
std::atomic<size_t> g_crash_ring_count{0};

void
publishCrashRing(Ring *ring)
{
    // Serialized by the registry mutex; only the count's ordering
    // against the slot store matters for the signal-handler reader.
    const size_t idx = g_crash_ring_count.load(std::memory_order_relaxed);
    if (idx >= kMaxCrashRings)
        return;
    g_crash_rings[idx].store(ring, std::memory_order_release);
    g_crash_ring_count.store(idx + 1, std::memory_order_release);
}

/** Ring registry: rings are handed to threads, returned to a free list
 * when a thread exits and reused by the next new thread; never freed.
 * Also holds the --trace capture. */
struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<Ring>> rings;
    std::vector<Ring *> free;
    /** Guards the capture and every ring's cursor; taken before mu. */
    std::mutex capture_mu;
    Capture capture;
    std::vector<RawSlot> window;

    /** Move @p ring's slots from its cursor to its head into the
     * capture; the caller holds capture_mu. */
    void
    drainLocked(Ring &ring, const TickClock &clock)
    {
        const uint64_t kept = ring.copyWindow(ring.cursor, window);
        const size_t orphans =
            decodeWindow(window, ring.tid, clock, 0, capture.events);
        capture.dropped += kept - ring.cursor + orphans;
        ring.cursor = kept + window.size();
    }
};

Registry &
registry()
{
    // Never destroyed: the crash handler may walk the rings, and other
    // threads may still record, while statics are torn down at exit.
    static Registry *r = new Registry;
    return *r;
}

void
sortByTime(std::vector<Event> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts_us < b.ts_us;
                     });
}

/** Disk spool: serialized under one mutex (spooling is the rare tail
 * path; contention here is a non-goal). */
class Spool
{
  public:
    static Spool &
    instance()
    {
        static Spool spool;
        return spool;
    }

    void
    arm(const SpoolConfig &config)
    {
        std::lock_guard<std::mutex> lock(mu_);
        config_ = config;
        armed_ = !config.dir.empty();
        stats_ = SpoolStats{};
        files_.clear();
        bytes_ = 0;
        if (!armed_)
            return;
        std::error_code ec;
        fs::create_directories(config_.dir, ec);
        // Adopt files from a previous run so the cap holds across
        // restarts; names sort oldest-first by construction.
        for (const auto &entry : fs::directory_iterator(config_.dir, ec)) {
            if (!entry.is_regular_file(ec) ||
                entry.path().extension() != ".json")
                continue;
            const uint64_t size = uint64_t(entry.file_size(ec));
            files_.push_back({entry.path().string(), size});
            bytes_ += size;
        }
        std::sort(files_.begin(), files_.end(),
                  [](const File &a, const File &b) {
                      return a.path < b.path;
                  });
        // Resume numbering after the adopted run: names lead with an
        // 8-digit sequence, and restarting at 1 would make new spools
        // sort before (or collide with and silently overwrite) the
        // adopted files, breaking oldest-first eviction and the cap
        // accounting.
        next_seq_ = 1;
        for (const File &f : files_) {
            const std::string base =
                fs::path(f.path).filename().string();
            uint64_t seq = 0;
            size_t i = 0;
            while (i < base.size() && i < 8 && base[i] >= '0' &&
                   base[i] <= '9')
                seq = seq * 10 + uint64_t(base[i++] - '0');
            if (i == 8)
                next_seq_ = std::max(next_seq_, seq + 1);
        }
        evictLocked();
        stats_.bytes = bytes_;
    }

    void
    disarm()
    {
        std::lock_guard<std::mutex> lock(mu_);
        armed_ = false;
        config_ = SpoolConfig{};
        files_.clear();
        bytes_ = 0;
    }

    bool
    armed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return armed_;
    }

    uint64_t
    slowUs() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return armed_ ? config_.slow_us : 0;
    }

    SpoolStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    std::string
    write(uint64_t trace_id, const char *reason)
    {
        std::vector<Event> events =
            eventsForTrace(trace_id);
        std::lock_guard<std::mutex> lock(mu_);
        if (!armed_)
            return "";
        if (events.empty()) {
            ++stats_.empty_skipped;
            return "";
        }
        const std::string doc = toChromeJson(events, trace_id, reason);
        char seq[16];
        std::snprintf(seq, sizeof seq, "%08llu",
                      (unsigned long long)next_seq_++);
        const std::string path = config_.dir + "/" + seq + "-" +
                                 sanitize(reason) + "-" +
                                 std::to_string(trace_id) + ".json";
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            if (!out) {
                return "";
            }
            out.write(doc.data(), std::streamsize(doc.size()));
            if (!out) {
                std::error_code ec;
                fs::remove(path, ec);
                return "";
            }
        }
        files_.push_back({path, doc.size()});
        bytes_ += doc.size();
        ++stats_.files_written;
        evictLocked();
        stats_.bytes = bytes_;
        // The new file itself may have been evicted if it alone
        // exceeds the cap; report "" so callers don't dangle a path.
        return bytes_ == 0 ? "" : path;
    }

  private:
    struct File
    {
        std::string path;
        uint64_t bytes = 0;
    };

    static std::string
    sanitize(const char *reason)
    {
        std::string s = reason != nullptr ? reason : "unknown";
        for (char &c : s) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-';
            if (!ok)
                c = '-';
        }
        return s.empty() ? "unknown" : s;
    }

    void
    evictLocked()
    {
        while (bytes_ > config_.max_bytes && !files_.empty()) {
            const File oldest = files_.front();
            files_.pop_front();
            std::error_code ec;
            fs::remove(oldest.path, ec);
            bytes_ -= std::min(bytes_, oldest.bytes);
            ++stats_.files_evicted;
        }
    }

    mutable std::mutex mu_;
    SpoolConfig config_;
    bool armed_ = false;
    std::deque<File> files_;
    uint64_t bytes_ = 0;
    uint64_t next_seq_ = 1;
    SpoolStats stats_;
};

} // namespace

namespace {

/** The calling thread's ring, as a plain TLS pointer so the record
 * hot path is one TLS load and a branch - no static-init guard. */
thread_local Ring *t_ring = nullptr;
/** Set once the thread has given its ring back (thread exit). */
thread_local bool t_ring_returned = false;

/** Gives the thread's ring back to the registry when the thread exits,
 * so the next new thread reuses it instead of growing the registry. */
struct RingLease
{
    ~RingLease()
    {
        if (t_ring == nullptr)
            return;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.free.push_back(t_ring);
        t_ring = nullptr;
        t_ring_returned = true;
    }
};

/** Slow path of record(): take a ring for the calling thread (none once
 * the thread has begun exiting). */
Ring *
acquireLocalRing()
{
    if (t_ring_returned)
        return nullptr;
    thread_local RingLease lease;
    // Pin the calibration origin before anything could be read.
    (void)tickOrigin();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free.empty()) {
        t_ring = r.free.back();
        r.free.pop_back();
        return t_ring;
    }
    r.rings.push_back(std::make_unique<Ring>());
    t_ring = r.rings.back().get();
    t_ring->tid = uint32_t(r.rings.size());
    publishCrashRing(t_ring);
    return t_ring;
}

} // namespace

void
setEnabled(bool on)
{
    g_flightrec_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
nowTicks()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return uint64_t(std::chrono::steady_clock::now()
                        .time_since_epoch()
                        .count());
#endif
}

ArgSlot
counterArg(const char *key, uint64_t value)
{
    return {{pointerWord(key), value, 0, 0}};
}

ArgSlot
labelArg(const char *key, std::string_view value)
{
    ArgSlot slot{{pointerWord(key), 0, 0, 0}};
    std::memcpy(&slot.word[1], value.data(),
                std::min(value.size(), kLabelCap));
    return slot;
}

void
record(const char *name, uint64_t trace_id, uint64_t ts_ticks,
       uint64_t dur_ticks, const ArgSlot *args, size_t nargs,
       uint32_t label_mask)
{
    Ring *ring = t_ring;
    if (ring == nullptr && (ring = acquireLocalRing()) == nullptr)
        return;
    ring->push(name, trace_id, ts_ticks, dur_ticks, args,
               std::min(nargs, kMaxArgs), label_mask);
}

std::vector<Event>
eventsForTrace(uint64_t trace_id)
{
    std::vector<Event> out;
    const TickClock clock = liveClock();
    std::vector<RawSlot> window;
    Registry &r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto &ring : r.rings) {
            ring->copyWindow(0, window);
            decodeWindow(window, ring->tid, clock, trace_id, out);
        }
    }
    sortByTime(out);
    return out;
}

uint64_t
recordedCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    uint64_t n = 0;
    for (const auto &ring : r.rings)
        n += ring->head.load(std::memory_order_relaxed);
    return n;
}

size_t
ringCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.rings.size();
}

void
beginCapture()
{
    // Pin the calibration origin before the first captured span
    // starts, so no captured timestamp clamps to it.
    (void)tickOrigin();
    Registry &r = registry();
    std::lock_guard<std::mutex> capture_lock(r.capture_mu);
    r.capture = Capture{};
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &ring : r.rings)
        ring->cursor = ring->head.load(std::memory_order_acquire);
}

void
drainThread()
{
    if (t_ring == nullptr)
        return;
    Registry &r = registry();
    std::lock_guard<std::mutex> capture_lock(r.capture_mu);
    r.drainLocked(*t_ring, liveClock());
}

Capture
endCapture()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> capture_lock(r.capture_mu);
    {
        const TickClock clock = liveClock();
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto &ring : r.rings)
            r.drainLocked(*ring, clock);
    }
    Capture done = std::exchange(r.capture, Capture{});
    sortByTime(done.events);
    return done;
}

std::string
toChromeJson(const std::vector<Event> &events, uint64_t trace_id,
             const char *reason, uint64_t dropped)
{
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("tool").value("mdes::flightrec");
    w.key("trace_id").value(trace_id);
    w.key("reason").value(reason != nullptr ? reason : "unknown");
    w.key("events").value(uint64_t(events.size()));
    w.key("dropped").value(dropped);
    w.endObject();
    w.key("traceEvents").beginArray();
    for (const Event &e : events) {
        w.beginObject();
        w.key("name").value(e.name);
        w.key("cat").value("mdes");
        w.key("ph").value("X");
        w.key("pid").value(uint64_t(1));
        w.key("tid").value(uint64_t(e.tid));
        w.key("ts").value(e.ts_us);
        w.key("dur").value(e.dur_us);
        w.key("args").beginObject();
        if (e.trace_id != 0)
            w.key("trace_id").value(e.trace_id);
        for (const Arg &a : e.args) {
            if (a.is_label)
                w.key(a.key).value(a.text);
            else
                w.key(a.key).value(a.value);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
armSpool(const SpoolConfig &config)
{
    Spool::instance().arm(config);
}

void
disarmSpool()
{
    Spool::instance().disarm();
}

bool
spoolArmed()
{
    return Spool::instance().armed();
}

uint64_t
slowThresholdUs()
{
    return Spool::instance().slowUs();
}

std::string
spool(uint64_t trace_id, const char *reason)
{
    return Spool::instance().write(trace_id, reason);
}

SpoolStats
spoolStats()
{
    return Spool::instance().stats();
}

// ---- Crash capture ------------------------------------------------

namespace {

// On-disk .mdcr layout, host-endian (captures are decoded on the
// machine that wrote them). A fixed header, then ring_count rings of
// (CrashRingHeader + nrec CrashRecords). Timestamps stay in raw ticks;
// the header carries two (ticks, us) calibration points - the origin
// pinned at arm time and the crash instant - so the decoder can derive
// the tick rate without trusting the dying process to do math.
struct CrashFileHeader
{
    char magic[4]; // "MDCR"
    uint32_t version;
    uint32_t signo;
    uint32_t ring_count;
    uint64_t pid;
    uint64_t fault_addr;
    uint64_t origin_ticks;
    uint64_t origin_us;
    uint64_t crash_ticks;
    uint64_t crash_us;
};

struct CrashRingHeader
{
    uint32_t tid;
    uint32_t nrec;
};

/** One ring slot: its first word (a span name or arg key, both string
 * literals in the crashed process) copied out as text, the other three
 * words raw. */
struct CrashRecord
{
    char name[40]; // NUL-terminated, truncated
    uint64_t word[3];
};

inline constexpr char kCrashMagic[4] = {'M', 'D', 'C', 'R'};
inline constexpr uint32_t kCrashVersion = 1;

// Handler state, all set before sigaction() installs anything. The
// directory is a plain char buffer: the handler may not touch
// std::string.
char g_crash_dir[3584];
std::atomic<bool> g_crash_armed{false};
uint64_t g_crash_origin_ticks = 0;
uint64_t g_crash_origin_us = 0;
alignas(16) char g_crash_stack[64 * 1024];

/** write() all of @p len, ignoring EINTR; best-effort. */
void
crashWrite(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        p += n;
        len -= size_t(n);
    }
}

/** Decimal-format @p v into @p out; returns digits written. */
size_t
crashFmtU64(char *out, uint64_t v)
{
    char tmp[20];
    size_t n = 0;
    do {
        tmp[n++] = char('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

/** The fatal-signal handler. Restricted to async-signal-safe calls:
 * open/write/close/getpid/raise, atomic loads, and clock_gettime via
 * trace::nowUs() (whose statics armCrashCapture() pre-initialized). */
extern "C" void
crashCaptureHandler(int sig, siginfo_t *info, void *)
{
    // "<dir>/crash-<pid>-<signo>.mdcr"
    char path[4096];
    size_t off = 0;
    const size_t dirlen = ::strlen(g_crash_dir);
    ::memcpy(path, g_crash_dir, dirlen);
    off = dirlen;
    ::memcpy(path + off, "/crash-", 7);
    off += 7;
    off += crashFmtU64(path + off, uint64_t(::getpid()));
    path[off++] = '-';
    off += crashFmtU64(path + off, uint64_t(sig));
    ::memcpy(path + off, ".mdcr", 6);

    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        const size_t nrings = std::min(
            g_crash_ring_count.load(std::memory_order_acquire),
            kMaxCrashRings);
        CrashFileHeader h{};
        ::memcpy(h.magic, kCrashMagic, sizeof(kCrashMagic));
        h.version = kCrashVersion;
        h.signo = uint32_t(sig);
        h.ring_count = uint32_t(nrings);
        h.pid = uint64_t(::getpid());
        h.fault_addr =
            info != nullptr ? uint64_t(uintptr_t(info->si_addr)) : 0;
        h.origin_ticks = g_crash_origin_ticks;
        h.origin_us = g_crash_origin_us;
        h.crash_us = trace::nowUs();
        h.crash_ticks = nowTicks();
        crashWrite(fd, &h, sizeof h);

        for (size_t r = 0; r < nrings; ++r) {
            Ring *ring =
                g_crash_rings[r].load(std::memory_order_acquire);
            if (ring == nullptr)
                continue;
            // Other threads may still be pushing; the slots of their
            // in-progress span can tear. Crash forensics tolerates one
            // garbled span per surviving thread.
            const uint64_t head =
                ring->head.load(std::memory_order_acquire);
            const uint64_t lo =
                head > kRingSlots ? head - kRingSlots : 0;
            CrashRingHeader rh{ring->tid, uint32_t(head - lo)};
            crashWrite(fd, &rh, sizeof rh);
            CrashRecord batch[64];
            size_t filled = 0;
            for (uint64_t i = lo; i < head; ++i) {
                const auto &slot = ring->slots[i & (kRingSlots - 1)];
                CrashRecord &rec = batch[filled];
                ::memset(rec.name, 0, sizeof rec.name);
                const char *name =
                    wordPointer(slot[0].load(std::memory_order_relaxed));
                if (name != nullptr) {
                    // Names and keys are string literals in this
                    // process; copy by hand (strncpy is not on the
                    // safe list).
                    size_t k = 0;
                    while (k < sizeof(rec.name) - 1 && name[k] != '\0') {
                        rec.name[k] = name[k];
                        ++k;
                    }
                }
                for (size_t k = 0; k < 3; ++k)
                    rec.word[k] =
                        slot[k + 1].load(std::memory_order_relaxed);
                if (++filled == sizeof(batch) / sizeof(batch[0])) {
                    crashWrite(fd, batch, sizeof batch);
                    filled = 0;
                }
            }
            if (filled > 0)
                crashWrite(fd, batch, filled * sizeof(CrashRecord));
        }
        ::close(fd);
    }

    // SA_RESETHAND restored the default disposition on entry; re-raise
    // so the process dies with the real signal (status, cores intact).
    ::raise(sig);
}

} // namespace

bool
armCrashCapture(const std::string &dir)
{
    if (dir.empty() || dir.size() >= sizeof(g_crash_dir) - 1)
        return false;
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::memcpy(g_crash_dir, dir.c_str(), dir.size() + 1);
    // Pre-initialize every static the handler touches while it is
    // still legal to take locks: the tick origin pair and the
    // trace-clock epoch inside trace::nowUs().
    g_crash_origin_ticks = tickOrigin().origin_ticks;
    g_crash_origin_us = tickOrigin().origin_us;

    stack_t ss{};
    ss.ss_sp = g_crash_stack;
    ss.ss_size = sizeof g_crash_stack;
    if (sigaltstack(&ss, nullptr) != 0)
        return false;

    struct sigaction sa{};
    sa.sa_sigaction = crashCaptureHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESETHAND | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGABRT}) {
        if (sigaction(sig, &sa, nullptr) != 0)
            return false;
    }
    g_crash_armed.store(true, std::memory_order_relaxed);
    return true;
}

bool
crashCaptureArmed()
{
    return g_crash_armed.load(std::memory_order_relaxed);
}

std::string
decodeCrashCapture(const std::string &path, CrashInfo *info)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw MdesError("flightrec: cannot open crash capture '" + path +
                        "'");
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    if (raw.size() < sizeof(CrashFileHeader))
        throw MdesError("flightrec: truncated crash capture '" + path +
                        "'");
    CrashFileHeader h;
    std::memcpy(&h, raw.data(), sizeof h);
    if (std::memcmp(h.magic, kCrashMagic, sizeof(kCrashMagic)) != 0)
        throw MdesError("flightrec: bad crash-capture magic in '" + path +
                        "'");
    if (h.version != kCrashVersion)
        throw MdesError("flightrec: unsupported crash-capture version " +
                        std::to_string(h.version));

    // Tick rate from the two calibration points the handler recorded.
    const TickClock clock = TickClock::between(
        h.origin_ticks, h.origin_us, h.crash_ticks, h.crash_us);

    std::deque<std::string> names; // stable storage behind names, keys
    std::vector<Event> events;
    std::vector<RawSlot> window;
    size_t off = sizeof h;
    for (uint32_t r = 0; r < h.ring_count; ++r) {
        if (off + sizeof(CrashRingHeader) > raw.size())
            throw MdesError("flightrec: truncated ring header in '" +
                            path + "'");
        CrashRingHeader rh;
        std::memcpy(&rh, raw.data() + off, sizeof rh);
        off += sizeof rh;
        if (rh.nrec > kRingSlots)
            throw MdesError("flightrec: implausible ring length in '" +
                            path + "'");
        window.clear();
        for (uint32_t i = 0; i < rh.nrec; ++i) {
            if (off + sizeof(CrashRecord) > raw.size())
                throw MdesError("flightrec: truncated record in '" +
                                path + "'");
            CrashRecord rec;
            std::memcpy(&rec, raw.data() + off, sizeof rec);
            off += sizeof rec;
            rec.name[sizeof(rec.name) - 1] = '\0';
            // A never-written or torn slot keeps a null name, which
            // decodeWindow() skips.
            RawSlot slot{{0, rec.word[0], rec.word[1], rec.word[2]}};
            if (rec.name[0] != '\0') {
                names.emplace_back(rec.name);
                slot.word[0] = pointerWord(names.back().c_str());
            }
            window.push_back(slot);
        }
        decodeWindow(window, rh.tid, clock, 0, events);
    }
    sortByTime(events);

    if (info != nullptr) {
        info->signo = int(h.signo);
        info->pid = h.pid;
        info->fault_addr = h.fault_addr;
        info->rings = h.ring_count;
        info->events = events.size();
    }
    const char *reason = h.signo == SIGSEGV  ? "crash-sigsegv"
                         : h.signo == SIGBUS ? "crash-sigbus"
                         : h.signo == SIGABRT
                             ? "crash-sigabrt"
                             : "crash";
    return toChromeJson(events, 0, reason);
}

} // namespace mdes::flightrec
