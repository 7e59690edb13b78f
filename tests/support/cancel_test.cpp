// CancelToken: inert defaults, explicit cancel, deadlines, and the
// fetch-max extension rule the coalescing cache builds on (DESIGN.md §11).
#include "support/cancel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace icsdiv::support {
namespace {

TEST(CancelTokenTest, DefaultTokenIsInertAndNeverFires) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.deadline_ns(), CancelToken::kNoDeadline);
  EXPECT_NO_THROW(token.check("test.site"));
  token.cancel();  // no-op, not a crash
  EXPECT_FALSE(token.expired());
}

TEST(CancelTokenTest, ExplicitCancelFiresAndNamesTheSite) {
  const CancelToken token = CancelToken::cancellable();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.expired());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.expired());
  try {
    token.check("solver.sweep");
    FAIL() << "check must throw after cancel";
  } catch (const CancelledError& error) {
    EXPECT_NE(std::string(error.what()).find("solver.sweep"), std::string::npos);
  }
}

TEST(CancelTokenTest, PastDeadlineExpiresAsDeadlineExceeded) {
  const CancelToken token =
      CancelToken::with_deadline(CancelToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(token.expired());
  EXPECT_FALSE(token.cancelled());
  EXPECT_THROW(token.check("sim.mttc"), DeadlineExceededError);
}

TEST(CancelTokenTest, FutureDeadlineDoesNotFireEarly) {
  const CancelToken token = CancelToken::after_ms(60'000);
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.expired());
  EXPECT_LT(token.deadline_ns(), CancelToken::kNoDeadline);
}

TEST(CancelTokenTest, NonPositiveTimeoutMeansNoDeadline) {
  const CancelToken zero = CancelToken::after_ms(0);
  EXPECT_TRUE(zero.valid());
  EXPECT_EQ(zero.deadline_ns(), CancelToken::kNoDeadline);
  const CancelToken negative = CancelToken::after_ms(-5);
  EXPECT_EQ(negative.deadline_ns(), CancelToken::kNoDeadline);
}

TEST(CancelTokenTest, TimeoutPastTheClocksRangeMeansNoDeadline) {
  // now + 10^13 ms does not fit the clock's signed nanoseconds; such a
  // deadline never comes, so it must not wrap into the past.
  for (const std::int64_t timeout_ms : {std::int64_t{10'000'000'000'000}, INT64_MAX}) {
    const CancelToken token = CancelToken::after_ms(timeout_ms);
    EXPECT_TRUE(token.valid());
    EXPECT_FALSE(token.expired()) << timeout_ms;
    EXPECT_EQ(token.deadline_ns(), CancelToken::kNoDeadline) << timeout_ms;
  }
}

TEST(CancelTokenTest, CopiesShareState) {
  const CancelToken token = CancelToken::cancellable();
  const CancelToken copy = token;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.same_state(token));
  token.cancel();
  EXPECT_TRUE(copy.expired());
}

TEST(CancelTokenTest, ExtendDeadlineOnlyMovesLater) {
  const auto now = CancelToken::Clock::now();
  const CancelToken token = CancelToken::with_deadline(now + std::chrono::seconds(10));
  const std::int64_t original = token.deadline_ns();

  // Earlier target: rejected (fetch-max).
  token.extend_deadline(now + std::chrono::seconds(1));
  EXPECT_EQ(token.deadline_ns(), original);

  // Later target: accepted.
  token.extend_deadline(now + std::chrono::seconds(20));
  EXPECT_GT(token.deadline_ns(), original);
}

TEST(CancelTokenTest, ExtendWithNoDeadlineRemovesTheDeadline) {
  // The coalescing rule: a participant without a deadline keeps the
  // shared compute alive indefinitely.
  const CancelToken token =
      CancelToken::with_deadline(CancelToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(token.expired());
  token.extend_deadline_ns(CancelToken::kNoDeadline);
  EXPECT_EQ(token.deadline_ns(), CancelToken::kNoDeadline);
  EXPECT_FALSE(token.expired());
}

TEST(CancelTokenTest, NoDeadlineTokenStaysUnbounded) {
  // extend_deadline on a live token without a deadline cannot arm one:
  // kNoDeadline is already the maximum.
  const CancelToken token = CancelToken::cancellable();
  token.extend_deadline(CancelToken::Clock::now() + std::chrono::seconds(1));
  EXPECT_EQ(token.deadline_ns(), CancelToken::kNoDeadline);
}

TEST(CancelTokenTest, ConcurrentExtendsSettleOnTheMaximum) {
  const auto base = CancelToken::Clock::now();
  const CancelToken token = CancelToken::with_deadline(base + std::chrono::milliseconds(1));
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 1; i <= 8; ++i) {
    threads.emplace_back(
        [&, i] { token.extend_deadline(base + std::chrono::seconds(i)); });
  }
  for (std::thread& thread : threads) thread.join();
  const auto expected = base + std::chrono::seconds(8);
  EXPECT_EQ(token.deadline_ns(),
            std::chrono::duration_cast<std::chrono::nanoseconds>(expected.time_since_epoch())
                .count());
}

TEST(CancelTokenTest, CancelWinsOverFutureDeadline) {
  const CancelToken token = CancelToken::after_ms(60'000);
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.check("stage.solve"), CancelledError);
}

}  // namespace
}  // namespace icsdiv::support
