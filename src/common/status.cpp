/**
 * @file
 * Status implementation.
 */
#include "common/status.hpp"

namespace evrsim {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return "OK";
      case ErrorCode::InvalidArgument:
        return "INVALID_ARGUMENT";
      case ErrorCode::NotFound:
        return "NOT_FOUND";
      case ErrorCode::DataLoss:
        return "DATA_LOSS";
      case ErrorCode::Unavailable:
        return "UNAVAILABLE";
      case ErrorCode::Internal:
        return "INTERNAL";
      case ErrorCode::InvariantViolation:
        return "INVARIANT_VIOLATION";
      case ErrorCode::Cancelled:
        return "CANCELLED";
    }
    return "UNKNOWN";
}

} // namespace evrsim
