// The serving status vocabulary: one typed enum shared verbatim by the
// in-process Request/Response API and the wire protocol (docs/PROTOCOL.md).
//
// Internally the library reports failures as smgcn::Status, whose codes are
// an implementation detail — new codes appear as subsystems grow, and their
// messages are free-form text. A wire response must not leak that surface
// as its only contract, so this header is the ONE place where every
// internal code is mapped onto the closed serving vocabulary:
//
//   kOk               the query was answered
//   kInvalidArgument  the request itself is malformed (empty symptom set,
//                     out-of-range ids, bad top_k, unparseable frame)
//   kDeadlineExceeded the request's deadline passed before it was scored
//   kShedding         the admission queue was full and the request was
//                     load-shed (retry with backoff; the server is healthy
//                     but saturated)
//   kUnavailable      the service cannot answer right now (shutting down,
//                     model/version not published, internal failure)
//
// The numeric values are pinned: they are the wire status byte. Never
// reorder or reuse them; add new codes at the end and bump
// net::kWireVersion if semantics change.
#ifndef SMGCN_SERVE_STATUS_H_
#define SMGCN_SERVE_STATUS_H_

#include <cstdint>
#include <string>

#include "src/util/status.h"

namespace smgcn {
namespace serve {

/// Closed serving status vocabulary; values are the wire status byte.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kDeadlineExceeded = 2,
  kShedding = 3,
  kUnavailable = 4,
};

/// Largest valid wire status byte (== kUnavailable).
inline constexpr std::uint8_t kMaxWireStatusByte = 4;

/// Canonical SCREAMING_SNAKE name ("OK", "INVALID_ARGUMENT", ...), used in
/// logs, the load-client summary and the JSON "status" field.
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName; InvalidArgument for unknown names.
Result<StatusCode> StatusCodeFromName(const std::string& name);

/// Maps an internal status code onto the serving vocabulary. Total: every
/// smgcn::StatusCode (current and future — unknown codes conservatively
/// become kUnavailable) has exactly one serving status.
StatusCode FromInternalCode(smgcn::StatusCode code);

/// Convenience: FromInternalCode(status.code()).
StatusCode FromInternalStatus(const Status& status);

/// The HTTP response status a serving status renders as:
/// 200 / 400 / 504 / 429 / 503.
int HttpStatusFor(StatusCode code);

/// Wire encoding: the status byte IS the enum value.
inline std::uint8_t ToWireByte(StatusCode code) {
  return static_cast<std::uint8_t>(code);
}

/// Validates and decodes a wire status byte; InvalidArgument beyond
/// kMaxWireStatusByte.
Result<StatusCode> FromWireByte(std::uint8_t byte);

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_STATUS_H_
