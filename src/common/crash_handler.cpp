/**
 * @file
 * Crash handler implementation.
 *
 * Everything the handler touches is pre-formatted or plain-old-data:
 * the run identity is copied into fixed thread-local buffers at set
 * time, so the handler itself only concatenates bytes and calls
 * write(2) — both async-signal-safe.
 */
#include "common/crash_handler.hpp"

#include <signal.h>
#include <string.h>
#include <unistd.h>

namespace evrsim {

namespace {

constexpr int kNameMax = 64;

thread_local char tls_workload[kNameMax] = {0};
thread_local char tls_config[kNameMax] = {0};
thread_local int tls_frame = -1;
thread_local int tls_tile = -1;

/** Fixed-depth stack of active trace spans (literal pointers only, so
 *  the handler can read them from a signal context without copying). */
constexpr int kSpanDepthMax = 16;
thread_local const char *tls_span_cat[kSpanDepthMax] = {nullptr};
thread_local const char *tls_span_name[kSpanDepthMax] = {nullptr};
thread_local int tls_span_depth = 0;

bool installed = false;

/** Bounded copy into a fixed buffer, always NUL-terminated. */
void
copyName(char (&dst)[kNameMax], const char *src)
{
    if (!src) {
        dst[0] = '\0';
        return;
    }
    size_t n = strlen(src);
    if (n >= kNameMax)
        n = kNameMax - 1;
    memcpy(dst, src, n);
    dst[n] = '\0';
}

/** write(2) a NUL-terminated string; EINTR-tolerant best effort. */
void
put(const char *s)
{
    size_t len = strlen(s);
    while (len > 0) {
        ssize_t w = write(STDERR_FILENO, s, len);
        if (w <= 0)
            return;
        s += w;
        len -= static_cast<size_t>(w);
    }
}

/** Signal-safe signed decimal formatting. */
void
putInt(long v)
{
    char buf[24];
    char *p = buf + sizeof(buf);
    bool neg = v < 0;
    unsigned long u = neg ? 0ul - static_cast<unsigned long>(v)
                          : static_cast<unsigned long>(v);
    do {
        *--p = static_cast<char>('0' + (u % 10));
        u /= 10;
    } while (u != 0);
    if (neg)
        *--p = '-';
    while (p < buf + sizeof(buf)) {
        char c[1] = {*p++};
        if (write(STDERR_FILENO, c, 1) <= 0)
            return;
    }
}

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGBUS:
        return "SIGBUS";
      case SIGFPE:
        return "SIGFPE";
      case SIGILL:
        return "SIGILL";
    }
    return "signal";
}

void
crashHandler(int sig)
{
    put("\n=== evrsim crash: ");
    put(signalName(sig));
    put(" ===\n");
    if (tls_workload[0] || tls_config[0]) {
        put("active run: ");
        put(tls_workload[0] ? tls_workload : "?");
        put("/");
        put(tls_config[0] ? tls_config : "?");
        put("\n");
    } else {
        put("active run: (none recorded on this thread)\n");
    }
    if (tls_frame >= 0) {
        put("frame: ");
        putInt(tls_frame);
        put("\n");
    }
    if (tls_tile >= 0) {
        put("tile: ");
        putInt(tls_tile);
        put("\n");
    }
    int depth = tls_span_depth;
    if (depth > kSpanDepthMax)
        depth = kSpanDepthMax;
    if (depth > 0 && tls_span_name[depth - 1]) {
        put("active span: ");
        put(tls_span_cat[depth - 1] ? tls_span_cat[depth - 1] : "?");
        put("/");
        put(tls_span_name[depth - 1]);
        put(" (depth ");
        putInt(tls_span_depth);
        put(")\n");
    }
    put("=== re-raising with default disposition ===\n");

    // Restore the default action and re-raise so the process still dies
    // of the original signal (correct exit status, core dump, and a
    // parent process or shell sees the truth).
    signal(sig, SIG_DFL);
    raise(sig);
}

} // namespace

void
installCrashHandler()
{
    if (installed)
        return;
    installed = true;

    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESETHAND: the handler restores SIG_DFL itself; SA_NODEFER
    // unneeded since the handler never returns.
    const int signals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
    for (int sig : signals) {
        struct sigaction old;
        if (sigaction(sig, nullptr, &old) == 0 &&
            old.sa_handler != SIG_DFL && old.sa_handler != SIG_IGN) {
            // Something else (a sanitizer runtime, a test harness)
            // already handles this signal; leave it in charge.
            continue;
        }
        sigaction(sig, &sa, nullptr);
    }
}

void
crashContextSetRun(const char *workload, const char *config)
{
    copyName(tls_workload, workload);
    copyName(tls_config, config);
}

void
crashContextSetFrame(int frame)
{
    tls_frame = frame;
}

void
crashContextSetTile(int tile)
{
    tls_tile = tile;
}

void
crashContextPushSpan(const char *category, const char *name)
{
    if (tls_span_depth < kSpanDepthMax) {
        tls_span_cat[tls_span_depth] = category;
        tls_span_name[tls_span_depth] = name;
    }
    ++tls_span_depth;
}

void
crashContextPopSpan()
{
    if (tls_span_depth > 0)
        --tls_span_depth;
}

const char *
crashContextInnermostSpanCategory()
{
    int depth = tls_span_depth;
    if (depth > kSpanDepthMax)
        depth = kSpanDepthMax;
    if (depth <= 0 || !tls_span_cat[depth - 1])
        return "";
    return tls_span_cat[depth - 1];
}

const char *
crashContextInnermostSpanName()
{
    int depth = tls_span_depth;
    if (depth > kSpanDepthMax)
        depth = kSpanDepthMax;
    if (depth <= 0 || !tls_span_name[depth - 1])
        return "";
    return tls_span_name[depth - 1];
}

void
crashContextClear()
{
    tls_workload[0] = '\0';
    tls_config[0] = '\0';
    tls_frame = -1;
    tls_tile = -1;
    tls_span_depth = 0;
}

} // namespace evrsim
