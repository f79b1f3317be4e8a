/**
 * @file
 * Tracer implementation.
 *
 * Recording path: the owning thread appends to its own ring buffer
 * under a per-buffer mutex (uncontended except during a flush), so
 * scheduler workers never serialize on each other. The global mutex
 * only guards the thread registry and configuration.
 *
 * Output is the Chrome trace-event format: a top-level object with a
 * "traceEvents" array of complete ("X"), instant ("i") and metadata
 * ("M") events, timestamps in microseconds. The file loads directly in
 * Perfetto or chrome://tracing. Written atomically (tmp + rename) so a
 * crash mid-write never leaves a torn trace next to a good sweep.
 */
#include "common/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/crash_handler.hpp"
#include "common/env.hpp"

namespace evrsim {

std::atomic<unsigned> g_trace_mask{0};

namespace {

/** Per-thread ring capacity; the newest events win when it wraps. */
constexpr std::size_t kRingCapacity = 32768;

/** Sample rates mirrored out of the installed config so the span
 *  constructor never takes the global lock. */
std::atomic<unsigned> g_sample[kTraceCatCount] = {};

/** One recorded event (complete, instant, or metadata). */
struct TraceEvent {
    const char *name = "";     ///< string literal
    TraceCat cat = TraceCat::Driver;
    char phase = 'X';          ///< 'X' complete, 'i' instant
    std::uint64_t ts_ns = 0;   ///< since epoch
    std::uint64_t dur_ns = 0;  ///< complete events only
    std::int64_t value = INT64_MIN; ///< args.value when != INT64_MIN
    std::string detail;        ///< args.detail when non-empty
};

/** One thread's recording state. Owned jointly by the thread (via a
 *  thread_local shared_ptr) and the registry, so a worker thread that
 *  exits before the flush still gets its events written. */
struct ThreadBuf {
    std::mutex mu;
    std::vector<TraceEvent> ring;
    std::uint64_t count = 0;   ///< events ever appended
    int tid = 0;               ///< registration ordinal (1-based)
    /** Per-category span counters driving the 1-in-N sampling filter.
     *  Owner-thread only; no lock needed. */
    std::uint64_t sample_seq[kTraceCatCount] = {};

    void
    append(TraceEvent e)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (ring.size() < kRingCapacity) {
            ring.push_back(std::move(e));
        } else {
            ring[static_cast<std::size_t>(count % kRingCapacity)] =
                std::move(e);
        }
        ++count;
    }
};

struct Global {
    std::mutex mu;
    TraceConfig config;
    std::vector<std::shared_ptr<ThreadBuf>> threads;
    int next_tid = 1;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    bool atexit_armed = false;
};

Global &
global()
{
    static Global *g = new Global; // never destroyed: threads + atexit
    return *g;
}

thread_local std::shared_ptr<ThreadBuf> tls_buf;
thread_local int tls_depth = 0;

/** Categories whose spans feed the totals accumulator. */
std::atomic<unsigned> g_totals_mask{0};

/** One (category, name) bucket. Names are string literals, so pointer
 *  pairs identify buckets; two TUs spelling the same literal simply
 *  yield two buckets that are merged at snapshot time. */
struct TotalsBucket {
    TraceCat cat;
    const char *name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
};

struct Totals {
    std::mutex mu;
    std::vector<TotalsBucket> buckets;
};

Totals &
totals()
{
    static Totals *t = new Totals; // never destroyed (atexit ordering)
    return *t;
}

inline bool
totalsEnabled(TraceCat cat)
{
    return (g_totals_mask.load(std::memory_order_relaxed) &
            (1u << static_cast<unsigned>(cat))) != 0;
}

void
totalsAdd(TraceCat cat, const char *name, std::uint64_t dur_ns)
{
    Totals &t = totals();
    std::lock_guard<std::mutex> lock(t.mu);
    for (TotalsBucket &b : t.buckets) {
        if (b.cat == cat && b.name == name) {
            ++b.count;
            b.total_ns += dur_ns;
            return;
        }
    }
    t.buckets.push_back({cat, name, 1, dur_ns});
}

ThreadBuf &
threadBuf()
{
    if (!tls_buf) {
        tls_buf = std::make_shared<ThreadBuf>();
        Global &g = global();
        std::lock_guard<std::mutex> lock(g.mu);
        tls_buf->tid = g.next_tid++;
        g.threads.push_back(tls_buf);
    }
    return *tls_buf;
}

/** JSON string escaping for detail payloads (names are literals but
 *  get the same treatment — it is cheap and uniformly correct). */
void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Microseconds with nanosecond precision, as Chrome expects. */
void
appendUs(std::string &out, std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    out += buf;
}

void
appendEvent(std::string &out, const TraceEvent &e, int pid, int tid)
{
    out += "{\"name\":";
    appendEscaped(out, e.name);
    out += ",\"cat\":";
    appendEscaped(out, traceCatName(e.cat));
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\"";
    if (e.phase == 'i')
        out += ",\"s\":\"t\""; // thread-scoped instant
    out += ",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ts\":";
    appendUs(out, e.ts_ns);
    if (e.phase == 'X') {
        out += ",\"dur\":";
        appendUs(out, e.dur_ns);
    }
    if (e.value != INT64_MIN || !e.detail.empty()) {
        out += ",\"args\":{";
        if (e.value != INT64_MIN)
            out += "\"value\":" + std::to_string(e.value);
        if (!e.detail.empty()) {
            if (e.value != INT64_MIN)
                out += ',';
            out += "\"detail\":";
            appendEscaped(out, e.detail);
        }
        out += '}';
    }
    out += '}';
}

void
appendMetadata(std::string &out, const char *name, int pid, int tid,
               const std::string &value)
{
    out += "{\"name\":";
    appendEscaped(out, name);
    out += ",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(tid) + ",\"ts\":0,\"args\":{";
    out += "\"name\":";
    appendEscaped(out, value);
    out += "}}";
}

void
atexitWrite()
{
    if (traceActive())
        (void)traceWrite();
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
    case TraceCat::Driver:
        return "driver";
    case TraceCat::Cache:
        return "cache";
    case TraceCat::Frame:
        return "frame";
    case TraceCat::Stage:
        return "stage";
    case TraceCat::Tile:
        return "tile";
    case TraceCat::kCount:
        break;
    }
    return "?";
}

Result<TraceConfig>
traceConfigFromEnv()
{
    TraceConfig cfg;
    const char *raw = std::getenv("EVRSIM_TRACE");
    if (!raw)
        return cfg; // unset: disabled
    std::string text = raw;

    const std::string grammar =
        " (expected <categories>[:<path>] with categories from "
        "driver,cache,frame,stage,tile or 'all', each optionally "
        "sampled as <cat>/N)";

    std::string cats = text;
    std::string::size_type colon = text.find(':');
    if (colon != std::string::npos) {
        cats = text.substr(0, colon);
        std::string path = text.substr(colon + 1);
        if (path.empty())
            return Status::invalidArgument("EVRSIM_TRACE='" + text +
                                           "' has an empty path" + grammar);
        cfg.path = path;
    }
    if (cats.empty())
        return Status::invalidArgument("EVRSIM_TRACE='" + text +
                                       "' has no categories" + grammar);

    std::string::size_type pos = 0;
    while (pos <= cats.size()) {
        std::string::size_type comma = cats.find(',', pos);
        std::string token = cats.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? cats.size() + 1 : comma + 1;

        unsigned sample = 1;
        std::string::size_type slash = token.find('/');
        if (slash != std::string::npos) {
            Result<long long> n = parseIntStrict(token.substr(slash + 1));
            if (!n.ok() || n.value() < 1 || n.value() > 1000000)
                return Status::invalidArgument(
                    "EVRSIM_TRACE: bad sample rate in '" + token + "'" +
                    grammar);
            sample = static_cast<unsigned>(n.value());
            token = token.substr(0, slash);
        }

        if (token == "all" || token == "*") {
            cfg.mask = (1u << kTraceCatCount) - 1;
            if (sample != 1)
                for (unsigned &s : cfg.sample)
                    s = sample;
            continue;
        }
        bool known = false;
        for (std::size_t c = 0; c < kTraceCatCount; ++c) {
            if (token == traceCatName(static_cast<TraceCat>(c))) {
                cfg.mask |= 1u << c;
                cfg.sample[c] = sample;
                known = true;
                break;
            }
        }
        if (!known)
            return Status::invalidArgument("EVRSIM_TRACE: unknown "
                                           "category '" +
                                           token + "'" + grammar);
    }
    return cfg;
}

void
traceConfigure(const TraceConfig &config)
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.config = config;
    g.epoch = std::chrono::steady_clock::now();
    // Drop anything recorded under a previous configuration so a
    // reconfigured trace (tests do this repeatedly) starts clean.
    for (const std::shared_ptr<ThreadBuf> &t : g.threads) {
        std::lock_guard<std::mutex> tl(t->mu);
        t->ring.clear();
        t->count = 0;
    }
    if (config.enabled() && !g.atexit_armed) {
        g.atexit_armed = true;
        std::atexit(atexitWrite);
    }
    for (std::size_t c = 0; c < kTraceCatCount; ++c)
        g_sample[c].store(config.sample[c], std::memory_order_relaxed);
    g_trace_mask.store(config.mask, std::memory_order_relaxed);
}

TraceConfig
traceConfig()
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    return g.config;
}

std::uint64_t
traceNowNs()
{
    Global &g = global();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g.epoch)
            .count());
}

std::uint64_t
traceDroppedEvents()
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    std::uint64_t dropped = 0;
    for (const std::shared_ptr<ThreadBuf> &t : g.threads) {
        std::lock_guard<std::mutex> tl(t->mu);
        if (t->count > kRingCapacity)
            dropped += t->count - kRingCapacity;
    }
    return dropped;
}

int
traceActiveDepth()
{
    return tls_depth;
}

void
traceTotalsEnable(unsigned mask)
{
    traceTotalsReset();
    g_totals_mask.store(mask, std::memory_order_relaxed);
}

void
traceTotalsReset()
{
    Totals &t = totals();
    std::lock_guard<std::mutex> lock(t.mu);
    t.buckets.clear();
}

std::vector<TraceTotal>
traceTotals()
{
    std::vector<TraceTotal> out;
    {
        Totals &t = totals();
        std::lock_guard<std::mutex> lock(t.mu);
        for (const TotalsBucket &b : t.buckets) {
            // Merge buckets whose literals live at different addresses
            // but spell the same (category, name).
            bool merged = false;
            for (TraceTotal &o : out) {
                if (std::strcmp(o.cat, traceCatName(b.cat)) == 0 &&
                    std::strcmp(o.name, b.name) == 0) {
                    o.count += b.count;
                    o.total_ns += b.total_ns;
                    merged = true;
                    break;
                }
            }
            if (!merged)
                out.push_back(
                    {traceCatName(b.cat), b.name, b.count, b.total_ns});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceTotal &a, const TraceTotal &b) {
                  int c = std::strcmp(a.cat, b.cat);
                  if (c != 0)
                      return c < 0;
                  return std::strcmp(a.name, b.name) < 0;
              });
    return out;
}

void
traceInstant(TraceCat cat, const char *name)
{
    traceInstant(cat, name, std::string());
}

std::vector<TraceShippedEvent>
traceCollect(std::uint64_t since_ns)
{
    std::vector<TraceShippedEvent> out;
    if (!traceActive())
        return out;
    Global &g = global();
    std::vector<std::shared_ptr<ThreadBuf>> threads;
    {
        std::lock_guard<std::mutex> lock(g.mu);
        threads = g.threads;
    }
    for (const std::shared_ptr<ThreadBuf> &t : threads) {
        std::lock_guard<std::mutex> tl(t->mu);
        std::size_t n = t->ring.size();
        if (n == 0)
            continue;
        std::size_t first =
            t->count > kRingCapacity
                ? static_cast<std::size_t>(t->count % kRingCapacity)
                : 0;
        for (std::size_t i = 0; i < n; ++i) {
            const TraceEvent &e = t->ring[(first + i) % n];
            if (e.ts_ns < since_ns)
                continue;
            TraceShippedEvent s;
            s.name = e.name;
            s.cat = traceCatName(e.cat);
            s.phase = e.phase;
            s.ts_ns = e.ts_ns - since_ns;
            s.dur_ns = e.dur_ns;
            out.push_back(std::move(s));
        }
    }
    return out;
}

void
traceInstant(TraceCat cat, const char *name, std::string detail)
{
    if (!traceEnabled(cat))
        return;
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.phase = 'i';
    e.ts_ns = traceNowNs();
    e.detail = std::move(detail);
    threadBuf().append(std::move(e));
}

void
traceComplete(TraceCat cat, const char *name, std::uint64_t start_ns,
              std::uint64_t dur_ns, std::string detail, std::int64_t value)
{
    if (!traceEnabled(cat))
        return;
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.phase = 'X';
    e.ts_ns = start_ns;
    e.dur_ns = dur_ns;
    e.detail = std::move(detail);
    e.value = value;
    threadBuf().append(std::move(e));
}

TraceSpan::TraceSpan(TraceCat cat, const char *name)
    : active_(false), cat_(cat), name_(name)
{
    totals_ = totalsEnabled(cat);
    if (traceEnabled(cat)) {
        ThreadBuf &buf = threadBuf();
        std::size_t c = static_cast<std::size_t>(cat);
        unsigned sample = g_sample[c].load(std::memory_order_relaxed);
        // Sampling filters trace *events* only; totals count every span.
        if (sample <= 1 || (buf.sample_seq[c]++ % sample) == 0)
            active_ = true;
    }
    if (!active_ && !totals_)
        return;
    start_ns_ = traceNowNs();
    if (active_) {
        ++tls_depth;
        crashContextPushSpan(traceCatName(cat_), name_);
    }
}

TraceSpan::~TraceSpan()
{
    if (!active_ && !totals_)
        return;
    std::uint64_t end = traceNowNs();
    std::uint64_t dur = end > start_ns_ ? end - start_ns_ : 0;
    if (totals_)
        totalsAdd(cat_, name_, dur);
    if (!active_)
        return;
    crashContextPopSpan();
    --tls_depth;
    TraceEvent e;
    e.name = name_;
    e.cat = cat_;
    e.phase = 'X';
    e.ts_ns = start_ns_;
    e.dur_ns = dur;
    e.value = value_;
    e.detail = std::move(detail_);
    threadBuf().append(std::move(e));
}

Status
traceWrite()
{
    Global &g = global();
    std::string path;
    std::vector<std::shared_ptr<ThreadBuf>> threads;
    {
        std::lock_guard<std::mutex> lock(g.mu);
        if (!g.config.enabled())
            return {};
        path = g.config.path;
        threads = g.threads;
    }

    int pid = static_cast<int>(::getpid());
    std::string out;
    out.reserve(1u << 20);
    out += "{\"traceEvents\":[\n";
    appendMetadata(out, "process_name", pid, 0, "evrsim");

    std::uint64_t dropped = 0;
    for (const std::shared_ptr<ThreadBuf> &t : threads) {
        std::lock_guard<std::mutex> tl(t->mu);
        if (t->count == 0)
            continue;
        out += ",\n";
        appendMetadata(out, "thread_name", pid, t->tid,
                       "evrsim-thread-" + std::to_string(t->tid));
        // Chronological emit order: the ring overwrites oldest-first,
        // so the oldest surviving event sits at count % capacity once
        // the buffer has wrapped.
        std::size_t n = t->ring.size();
        std::size_t first =
            t->count > kRingCapacity
                ? static_cast<std::size_t>(t->count % kRingCapacity)
                : 0;
        for (std::size_t i = 0; i < n; ++i) {
            out += ",\n";
            appendEvent(out, t->ring[(first + i) % n], pid, t->tid);
        }
        if (t->count > kRingCapacity)
            dropped += t->count - kRingCapacity;
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":" +
           std::to_string(dropped) + "}\n";

    return atomicWriteFile(path, out);
}

} // namespace evrsim
