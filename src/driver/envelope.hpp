/**
 * @file
 * CRC32-enveloped JSON framing for the on-disk result cache, the one
 * place the driver reads back a JSON document it cannot trust.
 *
 * An envelope is `{schema, payload_crc32, payload}`: the schema field
 * guards against a foreign or stale document that happens to land at a
 * current location, and the CRC32 of the payload's canonical
 * re-serialization detects any value-level damage (truncation is
 * caught earlier by the parse). Every failure is DataLoss — the
 * caller's recovery policy (discard and re-simulate) decides what that
 * costs.
 */
#ifndef EVRSIM_DRIVER_ENVELOPE_HPP
#define EVRSIM_DRIVER_ENVELOPE_HPP

#include <string>

#include "common/status.hpp"
#include "driver/json.hpp"

namespace evrsim {

/** Wrap @p payload in a `{schema, payload_crc32, payload}` envelope. */
Json wrapEnvelope(Json payload, int schema);

/**
 * Validate an envelope document and return its payload. DataLoss when
 * the schema field is missing or mismatched, the checksum field is
 * absent, or the payload bytes fail the CRC.
 */
Result<Json> unwrapEnvelope(const Json &doc, int expected_schema);

/** Json::tryParse + unwrapEnvelope in one step. */
Result<Json> parseEnvelope(const std::string &text, int expected_schema);

} // namespace evrsim

#endif // EVRSIM_DRIVER_ENVELOPE_HPP
