#ifndef SKNN_COMMON_STATUS_H_
#define SKNN_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

// Lightweight Status/StatusOr error handling in the style of Abseil/Arrow.
// The project does not use exceptions; every fallible operation returns a
// Status or StatusOr<T>.

namespace sknn {

// Canonical error codes (subset of the Abseil canonical space that this
// project needs).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kFailedPrecondition = 2,
  kOutOfRange = 3,
  kInternal = 4,
  kNotFound = 5,
  kUnimplemented = 6,
  kResourceExhausted = 7,
  // Transport/fault taxonomy (see IsTransientCode below). kUnavailable: the
  // peer's message has not arrived (empty queue, delayed delivery);
  // kDeadlineExceeded: a bounded wait for it timed out; kDataLoss: a frame
  // arrived but failed integrity checks (corruption, truncation, desync);
  // kAborted: an operation was abandoned mid-flight and may be re-issued.
  kUnavailable = 8,
  kDeadlineExceeded = 9,
  kDataLoss = 10,
  kAborted = 11,
};

// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

// True for error codes that a retry (of the receive poll, or a whole-query
// re-execution on a fresh transport, PROTOCOL.md "Frame envelope &
// recovery") can plausibly cure: kUnavailable,
// kDeadlineExceeded, kDataLoss, kAborted. Everything else — malformed
// arguments, protocol-logic violations, unimplemented paths — is fatal.
bool IsTransientCode(StatusCode code);

// A Status holds either "OK" or an error code plus message. Cheap to copy
// in the OK case (empty message).
class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  // True if this is an error a retry may cure (never true for OK).
  bool IsTransient() const { return !ok() && IsTransientCode(code_); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Returns "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Returns `status` unchanged when OK; otherwise the same code with
// "<prefix>: <original message>". Used by recovery layers (worker
// reconnect, whole-query re-execution) to say *where* a transient error
// was handled without disturbing the typed code the caller dispatches on.
Status Annotate(const Status& status, const std::string& prefix);

// Convenience constructors mirroring absl::*Error.
Status InvalidArgumentError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status InternalError(std::string message);
Status NotFoundError(std::string message);
Status UnimplementedError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);
Status DataLossError(std::string message);
Status AbortedError(std::string message);

}  // namespace sknn

// Evaluates `expr` (a Status expression) and returns it from the enclosing
// function if it is not OK.
#define SKNN_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::sknn::Status sknn_status_tmp_ = (expr);        \
    if (!sknn_status_tmp_.ok()) return sknn_status_tmp_; \
  } while (false)

#define SKNN_STATUS_MACROS_CONCAT_INNER_(x, y) x##y
#define SKNN_STATUS_MACROS_CONCAT_(x, y) SKNN_STATUS_MACROS_CONCAT_INNER_(x, y)

// Evaluates `rexpr` (a StatusOr<T> expression); on error returns the status,
// otherwise assigns the value to `lhs`.
#define SKNN_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  SKNN_ASSIGN_OR_RETURN_IMPL_(                                             \
      SKNN_STATUS_MACROS_CONCAT_(sknn_statusor_, __LINE__), lhs, rexpr)

#define SKNN_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                                \
  if (!statusor.ok()) return std::move(statusor).status(); \
  lhs = std::move(statusor).value()

#endif  // SKNN_COMMON_STATUS_H_
