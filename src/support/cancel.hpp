// Cooperative cancellation and wall-clock deadlines (DESIGN.md §11).
//
// A CancelToken is a cheap, copyable handle onto shared cancellation
// state: an atomic flag (explicit cancel) plus an atomic steady_clock
// deadline in nanoseconds.  Long-running loops — solver iterations,
// Monte-Carlo chunks, scenario-stage bodies — poll `expired()` or call
// `check(site)` between units of work; neither takes a lock, and a
// default-constructed token has no state at all, so the disarmed path
// costs one pointer test.
//
// Deadlines are monotone: `extend_deadline` only ever moves the expiry
// later (fetch-max).  That is exactly the rule coalesced computes need —
// every participant joins with its own deadline and the shared compute
// runs until the *latest* one passes, i.e. it cancels only when the last
// interested party has given up (api/session.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace icsdiv {

/// A request was cancelled explicitly (CancelToken::cancel).
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// A request's wall-clock deadline passed before the work finished.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what) : Error(what) {}
};

}  // namespace icsdiv

namespace icsdiv::support {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Sentinel "no deadline" value (never reached by a real clock).
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  /// Inert token: `valid()` is false, `expired()` is always false, and
  /// every check is a null-pointer test.  This is the default everywhere
  /// a caller does not opt into deadlines.
  CancelToken() = default;

  /// A live token with no deadline (cancellable only via cancel()).
  [[nodiscard]] static CancelToken cancellable();

  /// A live token expiring at `deadline`.
  [[nodiscard]] static CancelToken with_deadline(Clock::time_point deadline);

  /// A live token expiring `timeout_ms` milliseconds from now; a
  /// non-positive timeout, or one past what the clock can represent
  /// (about 292 years), yields a cancellable token with no deadline.
  [[nodiscard]] static CancelToken after_ms(std::int64_t timeout_ms);

  /// True when this token carries shared state (i.e. can ever fire).
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Raises the explicit-cancel flag.  No-op on an inert token.
  void cancel() const noexcept;

  /// True when cancel() has been called.
  [[nodiscard]] bool cancelled() const noexcept;

  /// True when cancelled or past the deadline.  The hot-loop poll.
  [[nodiscard]] bool expired() const noexcept;

  /// Throws CancelledError / DeadlineExceededError naming `site` when
  /// expired; otherwise returns.  `site` identifies the cancellation
  /// point for the structured error body ("trws.iteration", "sim.mttc").
  void check(std::string_view site) const;

  /// Moves the deadline later (never earlier).  A live token with no
  /// deadline is already "latest possible" and stays that way.  No-op on
  /// an inert token.
  void extend_deadline(Clock::time_point deadline) const noexcept;

  /// extend_deadline over raw nanosecond counts; kNoDeadline removes the
  /// deadline entirely (a participant without a deadline extends a shared
  /// compute indefinitely).  No-op on an inert token.
  void extend_deadline_ns(std::int64_t deadline_ns) const noexcept;

  /// The current deadline, kNoDeadline when unarmed or inert.
  [[nodiscard]] std::int64_t deadline_ns() const noexcept;

  /// The deadline as a time_point; callers must only use this when
  /// `deadline_ns() != kNoDeadline` (e.g. for condition-variable waits).
  [[nodiscard]] Clock::time_point deadline() const noexcept;

  /// Two tokens sharing one underlying state observe each other's
  /// cancel/extend calls; used by tests and the coalescing cache.
  [[nodiscard]] bool same_state(const CancelToken& other) const noexcept {
    return state_ == other.state_;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> deadline_ns{kNoDeadline};
  };

  explicit CancelToken(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace icsdiv::support
