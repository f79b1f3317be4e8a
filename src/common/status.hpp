/**
 * @file
 * Structured error propagation: Status and Result<T>.
 *
 * The simulator distinguishes three failure families (see DESIGN.md §8):
 *
 *  - panic():   internal invariant violations — simulator bugs. Abort.
 *  - fatal():   unrecoverable user errors at a process entry point
 *               (bad CLI/environment). Exit(1).
 *  - Status:    *recoverable* conditions inside the sweep machinery —
 *               a corrupt cache entry, an unknown workload alias, an
 *               I/O fault, a strict-validation failure — which must
 *               cost one run, never the whole sweep.
 *
 * Status carries a coarse ErrorCode plus a human-readable message.
 * Result<T> is a Status-or-value union for fallible producers. Both are
 * deliberately minimal (no payloads, no chaining beyond withContext) —
 * just enough structure for the experiment runner's cache-recovery and
 * failure-report policies to key off code().
 */
#ifndef EVRSIM_COMMON_STATUS_HPP
#define EVRSIM_COMMON_STATUS_HPP

#include <string>
#include <utility>

#include "common/log.hpp"

namespace evrsim {

/** Coarse error classification, in the spirit of absl::StatusCode. */
enum class ErrorCode {
    Ok = 0,
    InvalidArgument,  ///< malformed input (env knob, scene)
    NotFound,         ///< entity absent (workload alias, cache file)
    DataLoss,         ///< entity present but unusable (corrupt cache)
    Unavailable,      ///< I/O failure (e.g. a file could not be published)
    Internal,         ///< unexpected exception escaping a component
    /** A pipeline invariant failed under EVRSIM_VALIDATE=strict; the
     *  same inputs will violate it again. */
    InvariantViolation,
    /** The work was shed before it started (cooperative shutdown).
     *  Nothing about the job itself is wrong. */
    Cancelled,
};

/** Stable name for an ErrorCode ("DATA_LOSS"). */
const char *errorCodeName(ErrorCode code);

/** An ErrorCode plus context message; default-constructed is Ok. */
class Status
{
  public:
    Status() = default;
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status
    invalidArgument(std::string msg)
    {
        return {ErrorCode::InvalidArgument, std::move(msg)};
    }
    static Status
    notFound(std::string msg)
    {
        return {ErrorCode::NotFound, std::move(msg)};
    }
    static Status
    dataLoss(std::string msg)
    {
        return {ErrorCode::DataLoss, std::move(msg)};
    }
    static Status
    unavailable(std::string msg)
    {
        return {ErrorCode::Unavailable, std::move(msg)};
    }
    static Status
    internal(std::string msg)
    {
        return {ErrorCode::Internal, std::move(msg)};
    }
    static Status
    invariantViolation(std::string msg)
    {
        return {ErrorCode::InvariantViolation, std::move(msg)};
    }
    static Status
    cancelled(std::string msg)
    {
        return {ErrorCode::Cancelled, std::move(msg)};
    }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "DATA_LOSS: message" (or "OK"). */
    std::string
    toString() const
    {
        if (ok())
            return "OK";
        return std::string(errorCodeName(code_)) + ": " + message_;
    }

    /** Same code with "@p context: " prefixed to the message. */
    Status
    withContext(const std::string &context) const
    {
        if (ok())
            return *this;
        return {code_, context + ": " + message_};
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * A value or the Status explaining its absence.
 *
 * Constructed implicitly from either; value() panics on an error-state
 * Result, so callers must branch on ok() first (the point is that the
 * *caller* decides whether a failure is survivable — value() on an
 * unchecked error is a simulator bug, not a user error).
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Status status) : status_(std::move(status))
    {
        EVRSIM_ASSERT(!status_.ok());
    }

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    const T &
    value() const
    {
        if (!ok())
            panic("Result::value() on error: %s",
                  status_.toString().c_str());
        return value_;
    }

    T &
    value()
    {
        if (!ok())
            panic("Result::value() on error: %s",
                  status_.toString().c_str());
        return value_;
    }

  private:
    Status status_;
    T value_{};
};

} // namespace evrsim

#endif // EVRSIM_COMMON_STATUS_HPP
