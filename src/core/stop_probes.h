// Cooperative cancellation for engine jobs: a job's stop probes, polled
// between units of work, and the exception a fired probe throws.
#pragma once

#include <functional>
#include <stdexcept>

namespace jinjing::core {

/// Thrown by StopProbes::poll when a job was cancelled or ran past its
/// deadline.
class Interrupted : public std::runtime_error {
 public:
  explicit Interrupted(bool deadline)
      : std::runtime_error(deadline ? "deadline exceeded" : "cancelled"), deadline_(deadline) {}
  [[nodiscard]] bool deadline() const { return deadline_; }

 private:
  bool deadline_;
};

/// A job's cooperative stop probes, polled between units of work: fix
/// obligations and neighborhoods, generate classes, scan obligations.
/// Either may be empty (never fires).
struct StopProbes {
  std::function<bool()> cancelled;
  std::function<bool()> expired;  // true = deadline budget exhausted

  /// Throws Interrupted when a probe fires (cancellation first).
  void poll() const {
    if (cancelled && cancelled()) throw Interrupted{false};
    if (expired && expired()) throw Interrupted{true};
  }
};

}  // namespace jinjing::core
