/**
 * @file
 * Envelope framing implementation.
 */
#include "driver/envelope.hpp"

#include "common/crc32.hpp"

namespace evrsim {

Json
wrapEnvelope(Json payload, int schema)
{
    std::string canonical = payload.dump(1);
    Json envelope = Json::object();
    envelope.set("schema", schema);
    envelope.set("payload_crc32",
                 static_cast<std::uint64_t>(
                     Crc32::of(canonical.data(), canonical.size())));
    envelope.set("payload", std::move(payload));
    return envelope;
}

Result<Json>
unwrapEnvelope(const Json &doc, int expected_schema)
{
    const Json *schema = doc.find("schema");
    if (!schema)
        return Status::dataLoss("missing schema field");
    Result<std::int64_t> schema_v = schema->tryAsI64();
    if (!schema_v.ok())
        return schema_v.status().withContext("schema");
    if (schema_v.value() != expected_schema)
        return Status::dataLoss(
            "schema version " + std::to_string(schema_v.value()) +
            " does not match expected " + std::to_string(expected_schema));

    const Json *crc = doc.find("payload_crc32");
    const Json *payload = doc.find("payload");
    if (!crc || !payload)
        return Status::dataLoss("missing payload or payload_crc32 field");
    Result<std::uint64_t> want = crc->tryAsU64();
    if (!want.ok())
        return want.status().withContext("payload_crc32");

    // The CRC covers the canonical re-serialization of the payload, so
    // it survives whitespace-preserving transport but catches any
    // value-level damage.
    std::string canonical = payload->dump(1);
    std::uint32_t got = Crc32::of(canonical.data(), canonical.size());
    if (got != static_cast<std::uint32_t>(want.value()))
        return Status::dataLoss("payload CRC mismatch (entry damaged)");

    return *payload;
}

Result<Json>
parseEnvelope(const std::string &text, int expected_schema)
{
    Result<Json> doc = Json::tryParse(text);
    if (!doc.ok())
        return doc.status();
    return unwrapEnvelope(doc.value(), expected_schema);
}

} // namespace evrsim
