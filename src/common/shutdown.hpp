/**
 * @file
 * Cooperative SIGINT/SIGTERM shutdown for sweeps.
 *
 * The crash handler (crash_handler.hpp) covers *fatal* signals; an
 * operator's Ctrl-C or a systemd stop is different — it should end the
 * sweep cleanly, not kill it mid-write. Before this module, SIGINT
 * killed a bench with the default disposition: no sweep summary and
 * no trace flush.
 *
 * installShutdownHandler() arms SIGINT/SIGTERM handlers that only set a
 * flag (async-signal-safe by construction). The experiment scheduler
 * checks the flag before *starting* each job — already-running
 * simulations finish, queued ones are shed with ErrorCode::Cancelled —
 * so the sweep drains to a clean end: every finished run cached, the
 * sweep summary and the trace written by the normal end-of-sweep path,
 * and the process exits 128+signal (130 for SIGINT, 143 for SIGTERM)
 * like a conventional well-behaved daemon.
 */
#ifndef EVRSIM_COMMON_SHUTDOWN_HPP
#define EVRSIM_COMMON_SHUTDOWN_HPP

namespace evrsim {

/**
 * Install the cooperative SIGINT/SIGTERM handlers. Idempotent; leaves
 * any non-default handler (a test harness, an embedding runtime) in
 * charge of its signal.
 */
void installShutdownHandler();

/** Whether a shutdown signal has been received (or injected). */
bool shutdownRequested();

/** The signal that requested shutdown (SIGINT/SIGTERM), 0 = none. */
int shutdownSignal();

/**
 * Conventional exit status for the received signal: 128 + signo (130
 * for SIGINT, 143 for SIGTERM); @p fallback when none was received.
 */
int shutdownExitCode(int fallback);

/**
 * Inject a shutdown request as if @p signal had been delivered — tests
 * use it to exercise the cooperative path without racing a real signal
 * delivery.
 */
void requestShutdown(int signal);

/** Clear the flag (tests only: isolates cases from each other). */
void resetShutdownForTest();

} // namespace evrsim

#endif // EVRSIM_COMMON_SHUTDOWN_HPP
