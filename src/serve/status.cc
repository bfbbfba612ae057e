#include "src/serve/status.h"

#include "src/util/string_util.h"

namespace smgcn {
namespace serve {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kShedding:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNAVAILABLE";
}

Result<StatusCode> StatusCodeFromName(const std::string& name) {
  for (std::uint8_t b = 0; b <= kMaxWireStatusByte; ++b) {
    const auto code = static_cast<StatusCode>(b);
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument(
      StrFormat("unknown serving status name '%s'", name.c_str()));
}

StatusCode FromInternalCode(smgcn::StatusCode code) {
  // THE mapping table. Every internal code routes to exactly one serving
  // status; keep this switch exhaustive (the compiler warns on a new
  // internal code) and conservative (when in doubt: kUnavailable, which
  // tells clients "not your fault, retry later").
  switch (code) {
    case smgcn::StatusCode::kOk:
      return StatusCode::kOk;
    case smgcn::StatusCode::kInvalidArgument:
    case smgcn::StatusCode::kOutOfRange:
    case smgcn::StatusCode::kAlreadyExists:
      return StatusCode::kInvalidArgument;
    case smgcn::StatusCode::kDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    case smgcn::StatusCode::kResourceExhausted:
      return StatusCode::kShedding;
    case smgcn::StatusCode::kNotFound:
    case smgcn::StatusCode::kFailedPrecondition:
    case smgcn::StatusCode::kIoError:
    case smgcn::StatusCode::kNotImplemented:
    case smgcn::StatusCode::kInternal:
    case smgcn::StatusCode::kUnavailable:
      return StatusCode::kUnavailable;
  }
  return StatusCode::kUnavailable;
}

StatusCode FromInternalStatus(const Status& status) {
  return FromInternalCode(status.code());
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kShedding:
      return 429;  // Too Many Requests: back off and retry
    case StatusCode::kUnavailable:
      return 503;
  }
  return 503;
}

Result<StatusCode> FromWireByte(std::uint8_t byte) {
  if (byte > kMaxWireStatusByte) {
    return Status::InvalidArgument(
        StrFormat("invalid wire status byte %u", byte));
  }
  return static_cast<StatusCode>(byte);
}

}  // namespace serve
}  // namespace smgcn
