// Always-on runtime invariant layer.
//
// The simulator's correctness argument leans on a handful of structural
// invariants — PIT entries never outlive their lifetime, an interest is
// never re-forwarded for a nonce already pending, cache statistics obey
// conservation laws, the scheduler dispatches in (time, seq) order, links
// neither invent nor silently swallow packets. The fault-injection engine
// (sim/faults.hpp) deliberately pushes the pipeline into the corners where
// those invariants are easiest to break, so the checks live in the
// production code paths, guarded by NDNP_INVARIANT_CHECK.
//
// A violated invariant throws util::InvariantViolation carrying the
// component, source location and a formatted message; the chaos harness
// (sim/chaos.hpp) catches it per episode and reports the seed that
// reproduces it.
#pragma once

#include <stdexcept>
#include <string>

#define NDNP_INVARIANT 1  // read only by the bench/e2e host record

namespace ndnp::util {

/// Thrown by NDNP_INVARIANT_CHECK on a failed condition. Derives from
/// logic_error: an invariant violation is a bug in this repository (or a
/// deliberately broken test double), never a recoverable runtime state.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(std::string component, std::string message, const char* file, int line);

  [[nodiscard]] const std::string& component() const noexcept { return component_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }
  [[nodiscard]] const char* file() const noexcept { return file_; }
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  std::string component_;
  std::string message_;
  const char* file_;
  int line_;
};

/// Total NDNP_INVARIANT_CHECK failures raised in this thread (monotonic).
/// The chaos harness samples it around an episode so violations are counted
/// even when an intermediate layer swallows the exception.
[[nodiscard]] std::uint64_t invariant_violations() noexcept;

#if defined(__GNUC__)
#define NDNP_INVARIANT_PRINTF __attribute__((format(printf, 4, 5)))
#else
#define NDNP_INVARIANT_PRINTF
#endif

/// Formats the message, bumps the per-thread violation counter and throws
/// InvariantViolation. Out-of-line so the check macro stays one compare and
/// a never-taken call on the hot path.
[[noreturn]] void invariant_failed(const char* component, const char* file, int line,
                                   const char* fmt, ...) NDNP_INVARIANT_PRINTF;

#undef NDNP_INVARIANT_PRINTF

}  // namespace ndnp::util

/// NDNP_INVARIANT_CHECK(component, condition, fmt, ...) — throws
/// util::InvariantViolation when `condition` is false. `component` and
/// `fmt` must be string literals; format arguments are evaluated only on
/// failure paths reached, conditions only once.
#define NDNP_INVARIANT_CHECK(component, condition, ...)                                  \
  do {                                                                                   \
    if (!(condition))                                                                    \
      ::ndnp::util::invariant_failed((component), __FILE__, __LINE__, __VA_ARGS__);      \
  } while (0)
