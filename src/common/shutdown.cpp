/**
 * @file
 * Cooperative shutdown implementation.
 *
 * The handler writes one sig_atomic_t-sized atomic — nothing else — so
 * it is trivially async-signal-safe. Everything observable (the flag,
 * the signal number, the exit code) reads that one word.
 */
#include "common/shutdown.hpp"

#include <signal.h>
#include <string.h>

#include <atomic>

namespace evrsim {

namespace {

/** 0 = no shutdown requested, else the delivering signal number. */
std::atomic<int> g_shutdown_signal{0};

bool installed = false;

void
shutdownHandler(int sig)
{
    // First signal wins; a second Ctrl-C while draining keeps the
    // original exit code rather than flapping between 130 and 143.
    int expected = 0;
    g_shutdown_signal.compare_exchange_strong(expected, sig);
}

} // namespace

void
installShutdownHandler()
{
    if (installed)
        return;
    installed = true;

    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_handler = shutdownHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART; // cache writes resume, not fail
    for (int sig : {SIGINT, SIGTERM}) {
        struct sigaction old;
        if (sigaction(sig, nullptr, &old) == 0 &&
            old.sa_handler != SIG_DFL && old.sa_handler != SIG_IGN) {
            // A test harness or embedding runtime already handles it.
            continue;
        }
        sigaction(sig, &sa, nullptr);
    }
}

bool
shutdownRequested()
{
    return g_shutdown_signal.load(std::memory_order_relaxed) != 0;
}

int
shutdownSignal()
{
    return g_shutdown_signal.load(std::memory_order_relaxed);
}

int
shutdownExitCode(int fallback)
{
    int sig = shutdownSignal();
    return sig != 0 ? 128 + sig : fallback;
}

void
requestShutdown(int signal)
{
    int expected = 0;
    g_shutdown_signal.compare_exchange_strong(expected, signal);
}

void
resetShutdownForTest()
{
    g_shutdown_signal.store(0);
}

} // namespace evrsim
