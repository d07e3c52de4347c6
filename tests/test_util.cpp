// Tests for utility components (util/*).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/bitops.hpp"
#include "util/crc32.hpp"
#include "util/fail_point.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace prt {
namespace {

// --- bitops ---------------------------------------------------------------

TEST(Bitops, Parity) {
  EXPECT_EQ(parity64(0), 0u);
  EXPECT_EQ(parity64(1), 1u);
  EXPECT_EQ(parity64(0b11), 0u);
  EXPECT_EQ(parity64(~0ULL), 0u);
  EXPECT_EQ(parity64(0x8000000000000001ULL), 0u);
  EXPECT_EQ(parity64(0x8000000000000000ULL), 1u);
}

TEST(Bitops, BitOfAndWithBit) {
  EXPECT_EQ(bit_of(0b1010, 1), 1u);
  EXPECT_EQ(bit_of(0b1010, 0), 0u);
  EXPECT_EQ(with_bit(0, 3, 1), 0b1000u);
  EXPECT_EQ(with_bit(0b1111, 2, 0), 0b1011u);
}

TEST(Bitops, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(4), 0xFu);
  EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(Bitops, PolyDegree) {
  EXPECT_EQ(poly_degree(0), -1);
  EXPECT_EQ(poly_degree(1), 0);
  EXPECT_EQ(poly_degree(0b10011), 4);
  EXPECT_EQ(poly_degree(1ULL << 63), 63);
}

TEST(Bitops, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bitops, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  Xoshiro256 c(43);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 10; ++i) differs |= a2() != c();
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RoughUniformity) {
  Xoshiro256 rng(11);
  std::array<int, 4> bucket{};
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) ++bucket[rng.below(4)];
  for (int b : bucket) {
    EXPECT_NEAR(b, draws / 4, draws / 40);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Xoshiro256 rng(3);
  shuffle(v.begin(), v.end(), rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

// --- table ---------------------------------------------------------------

TEST(TableTest, RendersHeaderSeparatorRows) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("beta", 2.5);
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.500"), std::string::npos);
  EXPECT_NE(s.find("|--"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(TableTest, AlignmentPadsCorrectly) {
  Table t({"h"});
  t.set_align(0, Align::kLeft);
  t.add_row({"x"});
  t.add_row({"xxxx"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| x    |"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add(1, 2);
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TableTest, BoolCells) {
  Table t({"flag"});
  t.add(true);
  t.add(false);
  const std::string s = t.str();
  EXPECT_NE(s.find("yes"), std::string::npos);
  EXPECT_NE(s.find("no"), std::string::npos);
}

TEST(TableTest, ScientificForExtremes) {
  EXPECT_NE(Table::to_cell(1e-9).find("e"), std::string::npos);
  EXPECT_NE(Table::to_cell(3.5e12).find("e"), std::string::npos);
  EXPECT_EQ(Table::to_cell(0.0), "0.000");
}

TEST(Formatting, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(100.0, 0), "100");
}

TEST(Formatting, FormatPow2Ratio) {
  EXPECT_EQ(format_pow2_ratio(0.25), "2^-2.0");
  EXPECT_EQ(format_pow2_ratio(1.0), "2^0.0");
  EXPECT_EQ(format_pow2_ratio(0.0), "0");
}

// --- fail points ----------------------------------------------------------

TEST(FailPoint, DisarmedHitIsANoOp) {
  util::FailPoint::hit("nothing.armed");  // must not throw
  EXPECT_EQ(util::FailPoint::hits("nothing.armed"), 0u);
}

TEST(FailPoint, SkipAndFiresSchedule) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.point", {.skip = 2, .fires = 1});
  util::FailPoint::hit("test.point");  // hit 0: skipped
  util::FailPoint::hit("test.point");  // hit 1: skipped
  EXPECT_THROW(util::FailPoint::hit("test.point"), util::FailPointError);
  util::FailPoint::hit("test.point");  // hit 3: past the fire window
  EXPECT_EQ(util::FailPoint::hits("test.point"), 4u);
}

TEST(FailPoint, UnboundedFiresAndDisarm) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.unbounded", {.fires = -1});
  EXPECT_THROW(util::FailPoint::hit("test.unbounded"), util::FailPointError);
  EXPECT_THROW(util::FailPoint::hit("test.unbounded"), util::FailPointError);
  util::FailPoint::disarm("test.unbounded");
  util::FailPoint::hit("test.unbounded");  // disarmed: no-op
}

TEST(FailPoint, DelayActionSleeps) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.delay",
                       {.action = util::FailPoint::Action::kDelay,
                        .fires = 1,
                        .delay = std::chrono::milliseconds(10)});
  const auto start = std::chrono::steady_clock::now();
  util::FailPoint::hit("test.delay");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(9));
}

// --- fail point spec strings ----------------------------------------------

TEST(FailPointSpec, PlainThrowFiresOnce) {
  util::FailPointScope scope;
  util::FailPoint::arm_spec("spec.throw=throw");
  EXPECT_THROW(util::FailPoint::hit("spec.throw"), util::FailPointError);
  util::FailPoint::hit("spec.throw");  // fires defaults to 1
}

TEST(FailPointSpec, SkipAndFiresModifiers) {
  util::FailPointScope scope;
  util::FailPoint::arm_spec("spec.sched=throw:skip=2:fires=1");
  util::FailPoint::hit("spec.sched");
  util::FailPoint::hit("spec.sched");
  EXPECT_THROW(util::FailPoint::hit("spec.sched"), util::FailPointError);
  util::FailPoint::hit("spec.sched");
  EXPECT_EQ(util::FailPoint::hits("spec.sched"), 4u);
}

TEST(FailPointSpec, ModifierOrderIsFree) {
  util::FailPointScope scope;
  util::FailPoint::arm_spec("spec.order=throw:fires=-1:skip=1");
  util::FailPoint::hit("spec.order");
  EXPECT_THROW(util::FailPoint::hit("spec.order"), util::FailPointError);
  EXPECT_THROW(util::FailPoint::hit("spec.order"), util::FailPointError);
}

TEST(FailPointSpec, DelayActionParsesMilliseconds) {
  util::FailPointScope scope;
  util::FailPoint::arm_spec("spec.delay=delay(10):fires=1");
  const auto start = std::chrono::steady_clock::now();
  util::FailPoint::hit("spec.delay");
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(9));
}

TEST(FailPointSpec, MalformedSpecsThrowInvalidArgument) {
  util::FailPointScope scope;
  // Missing '=' separator.
  EXPECT_THROW(util::FailPoint::arm_spec("no-separator"),
               std::invalid_argument);
  // Empty name.
  EXPECT_THROW(util::FailPoint::arm_spec("=throw"), std::invalid_argument);
  // Unknown action.
  EXPECT_THROW(util::FailPoint::arm_spec("p=explode"), std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p="), std::invalid_argument);
  // Malformed skip counts: non-numeric, empty, trailing junk, negative.
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:skip=x"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:skip="),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:skip=1junk"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:skip=-1"),
               std::invalid_argument);
  // Malformed fires counts.
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:fires=many"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:fires="),
               std::invalid_argument);
  // Malformed delay payloads.
  EXPECT_THROW(util::FailPoint::arm_spec("p=delay()"), std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=delay(abc)"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=delay(5"), std::invalid_argument);
  // Unknown / duplicate modifiers.
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=throw:skip=1:skip=2"),
               std::invalid_argument);
  // A rejected spec must arm nothing.
  util::FailPoint::hit("p");
  EXPECT_EQ(util::FailPoint::hits("p"), 0u);
  // Malformed partial_write payloads.
  EXPECT_THROW(util::FailPoint::arm_spec("p=partial_write()"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=partial_write(abc)"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=partial_write(-1)"),
               std::invalid_argument);
  EXPECT_THROW(util::FailPoint::arm_spec("p=partial_write(5"),
               std::invalid_argument);
}

TEST(FailPointSpec, PartialWriteParsesByteCount) {
  util::FailPointScope scope;
  util::FailPoint::arm_spec("spec.partial=partial_write(120):skip=1:fires=1");
  EXPECT_FALSE(util::FailPoint::poll("spec.partial").has_value());  // skipped
  const std::optional<util::FailPoint::Config> fired =
      util::FailPoint::poll("spec.partial");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->action, util::FailPoint::Action::kPartialWrite);
  EXPECT_EQ(fired->bytes, 120u);
  EXPECT_FALSE(util::FailPoint::poll("spec.partial").has_value());  // spent
  EXPECT_EQ(util::FailPoint::hits("spec.partial"), 3u);
}

TEST(FailPoint, PollSharesScheduleWithHit) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.poll", {.skip = 1, .fires = 1});
  EXPECT_FALSE(util::FailPoint::poll("test.never.armed").has_value());
  util::FailPoint::hit("test.poll");  // hit 0: skipped
  const std::optional<util::FailPoint::Config> fired =
      util::FailPoint::poll("test.poll");  // hit 1: fires
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->action, util::FailPoint::Action::kThrow);
  util::FailPoint::hit("test.poll");  // hit 2: past the window
}

TEST(FailPoint, PartialWriteAtPlainHitDegradesToThrow) {
  // A site without a byte stream cannot honor kPartialWrite; failing
  // hard beats silently ignoring the injection.
  util::FailPointScope scope;
  util::FailPoint::arm("test.pw",
                       {.action = util::FailPoint::Action::kPartialWrite,
                        .fires = 1,
                        .bytes = 10});
  EXPECT_THROW(util::FailPoint::hit("test.pw"), util::FailPointError);
}

// --- crc32 ----------------------------------------------------------------

TEST(Crc32, MatchesKnownVectorsAndDetectsFlips) {
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0x00000000u);
  const std::string payload = "shard 3 ops 120 overall 9 10";
  std::string flipped = payload;
  flipped[10] ^= 0x01;
  EXPECT_NE(util::crc32(payload), util::crc32(flipped));
}

// --- stop tokens ----------------------------------------------------------

TEST(StopToken, DefaultTokenNeverStops) {
  const util::StopToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), util::StopReason::kNone);
}

TEST(StopToken, RequestStopLatchesCancelled) {
  util::StopSource source;
  const util::StopToken token = source.token();
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), util::StopReason::kCancelled);
}

TEST(StopToken, DeadlineTripsAndLatches) {
  util::StopSource source;
  source.set_deadline_after(std::chrono::milliseconds(5));
  const util::StopToken token = source.token();
  EXPECT_FALSE(token.stop_requested());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), util::StopReason::kDeadline);
  // First cause wins: a later cancel does not overwrite the reason.
  source.request_stop();
  EXPECT_EQ(token.reason(), util::StopReason::kDeadline);
}

TEST(StopToken, CancelBeforeDeadlineReportsCancelled) {
  util::StopSource source;
  source.set_deadline_after(std::chrono::hours(1));
  source.request_stop();
  EXPECT_TRUE(source.stop_requested());
  EXPECT_EQ(source.token().reason(), util::StopReason::kCancelled);
}

TEST(StopToken, RequestStopCarriesExplicitReason) {
  util::StopSource source;
  source.request_stop(util::StopReason::kStalled);
  EXPECT_TRUE(source.stop_requested());
  EXPECT_EQ(source.token().reason(), util::StopReason::kStalled);
  // First cause wins.
  source.request_stop(util::StopReason::kCancelled);
  EXPECT_EQ(source.token().reason(), util::StopReason::kStalled);
}

TEST(StopToken, ChildObservesParentStop) {
  util::StopSource parent;
  util::StopSource child(parent.token());
  EXPECT_FALSE(child.token().stop_requested());
  parent.request_stop();
  EXPECT_TRUE(child.token().stop_requested());
  EXPECT_EQ(child.token().reason(), util::StopReason::kCancelled);
  // The parent's reason latches into the child: a later local stop
  // with a different reason does not overwrite it.
  child.request_stop(util::StopReason::kStalled);
  EXPECT_EQ(child.token().reason(), util::StopReason::kCancelled);
}

TEST(StopToken, ChildStopDoesNotPropagateToParent) {
  util::StopSource parent;
  util::StopSource child(parent.token());
  child.request_stop(util::StopReason::kStalled);
  EXPECT_TRUE(child.token().stop_requested());
  EXPECT_EQ(child.token().reason(), util::StopReason::kStalled);
  EXPECT_FALSE(parent.token().stop_requested());
  EXPECT_EQ(parent.token().reason(), util::StopReason::kNone);
}

TEST(StopToken, ParentDeadlinePropagatesToChild) {
  util::StopSource parent;
  parent.set_deadline_after(std::chrono::milliseconds(5));
  util::StopSource child(parent.token());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(child.token().stop_requested());
  EXPECT_EQ(child.token().reason(), util::StopReason::kDeadline);
}

// --- watchdog -------------------------------------------------------------

TEST(Watchdog, ExpiresOverdueWatchExactlyOnce) {
  util::Watchdog dog;
  std::atomic<int> fired{0};
  (void)dog.watch(std::chrono::milliseconds(5), [&] { ++fired; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(dog.expirations(), 1u);
  // An expired entry is gone; it never fires again.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(fired.load(), 1);
}

TEST(Watchdog, UnwatchBeforeBudgetSuppressesCallback) {
  util::Watchdog dog;
  std::atomic<int> fired{0};
  const util::Watchdog::Id id =
      dog.watch(std::chrono::seconds(60), [&] { ++fired; });
  dog.unwatch(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(dog.expirations(), 0u);
}

TEST(Watchdog, TracksManyWatchesIndependently) {
  util::Watchdog dog;
  std::atomic<int> fast_fired{0};
  std::atomic<int> slow_fired{0};
  (void)dog.watch(std::chrono::milliseconds(5), [&] { ++fast_fired; });
  const util::Watchdog::Id slow =
      dog.watch(std::chrono::seconds(60), [&] { ++slow_fired; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fast_fired.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fast_fired.load(), 1);
  EXPECT_EQ(slow_fired.load(), 0);
  dog.unwatch(slow);
  EXPECT_EQ(dog.expirations(), 1u);
}

TEST(Watchdog, CancelsAStalledStopTokenAttempt) {
  // The service-layer composition in miniature: a watchdog trips a
  // per-attempt child token with kStalled while the parent stays live.
  util::Watchdog dog;
  util::StopSource request;
  util::StopSource attempt(request.token());
  (void)dog.watch(std::chrono::milliseconds(5), [attempt] {
    attempt.request_stop(util::StopReason::kStalled);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!attempt.token().stop_requested() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(attempt.token().stop_requested());
  EXPECT_EQ(attempt.token().reason(), util::StopReason::kStalled);
  EXPECT_FALSE(request.token().stop_requested());
}

// --- thread pool exception safety -----------------------------------------

TEST(ThreadPool, ThrowingTaskDoesNotWedgeWaitIdle) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran, i] {
      if (i == 3) throw std::runtime_error("task crashed");
      ++ran;
    });
  }
  pool.wait_idle();  // must not deadlock on the thrown task
  EXPECT_EQ(ran.load(), 7);
  const std::exception_ptr error = pool.take_unhandled_error();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // The error was consumed.
  EXPECT_EQ(pool.take_unhandled_error(), nullptr);
}

TEST(ThreadPool, ShutdownWithThrowingTasksMidQueueIsClean) {
  // Destroying the pool with a queue of tasks, some of which throw,
  // must neither std::terminate (exception escaping a worker) nor
  // deadlock the destructor (skipped active_ decrement).
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran, i] {
        if (i % 5 == 0) throw std::runtime_error("mid-queue crash");
        ++ran;
      });
    }
    // No wait_idle(): the destructor drains the queue itself.
  }
  EXPECT_EQ(ran.load(), 25);
}

TEST(ThreadPool, FailPointInjectedTaskCrashIsCaptured) {
  util::FailPointScope scope;
  util::FailPoint::arm("thread_pool.task", {.skip = 1, .fires = 1});
  util::ThreadPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.wait_idle();
  // Exactly the second task was replaced by the injected crash.
  EXPECT_EQ(ran.load(), 3);
  EXPECT_NE(pool.take_unhandled_error(), nullptr);
}

// The next three tests pin the invariants that live in atomics (or in
// exchange-under-lock protocols) the thread-safety annotations cannot
// express — the "patterns the analysis can't see" audit (DESIGN.md
// §12): each has a `//` invariant comment at the declaration site and
// a regression test here.

TEST(StopToken, ConcurrentObserversAgreeOnOneReason) {
  // StopState.reason is a CAS latch: when a deadline expiry and an
  // explicit cancel race, exactly one cause wins and every observer —
  // on any thread, at any later time — reports that same cause.
  for (int round = 0; round < 20; ++round) {
    util::StopSource source;
    // A deadline already in the past: the first poll will try to latch
    // kDeadline while the cancel thread tries to latch kCancelled.
    source.set_deadline_after(std::chrono::nanoseconds(1));
    std::atomic<int> observed_cancelled{0};
    std::atomic<int> observed_deadline{0};
    {
      util::ThreadPool pool(4);
      pool.submit([&] { source.request_stop(); });
      for (int i = 0; i < 3; ++i) {
        pool.submit([&] {
          const util::StopToken token = source.token();
          while (!token.stop_requested()) {
          }
          if (token.reason() == util::StopReason::kCancelled) {
            ++observed_cancelled;
          } else if (token.reason() == util::StopReason::kDeadline) {
            ++observed_deadline;
          }
        });
      }
      pool.wait_idle();
    }
    // Every observer saw *some* latched reason, and they all agree.
    EXPECT_EQ(observed_cancelled.load() + observed_deadline.load(), 3);
    EXPECT_TRUE(observed_cancelled.load() == 0 ||
                observed_deadline.load() == 0)
        << "observers disagreed on the stop cause";
    // The source itself reports the same winner afterwards.
    const util::StopReason final_reason = source.token().reason();
    EXPECT_EQ(final_reason == util::StopReason::kCancelled,
              observed_cancelled.load() == 3);
  }
}

TEST(ThreadPool, ConcurrentTakeUnhandledErrorHandsOutExactlyOnce) {
  // take_unhandled_error() is exchange-under-lock: with several
  // threads racing to collect after a crash, exactly one receives the
  // exception and the rest see nullptr — the error is neither
  // duplicated nor dropped.
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("lone crash"); });
  pool.wait_idle();
  std::atomic<int> got_error{0};
  {
    util::ThreadPool takers(4);
    for (int i = 0; i < 4; ++i) {
      takers.submit([&] {
        if (pool.take_unhandled_error() != nullptr) ++got_error;
      });
    }
    takers.wait_idle();
  }
  EXPECT_EQ(got_error.load(), 1);
}

TEST(ErrorCollector, FirstErrorWinsUnderConcurrentGuards) {
  // ErrorCollector::guard is noexcept and captures the *first*
  // exception in completion order; later failures are dropped, never
  // torn.  rethrow_if_any takes the lock, so a collector polled while
  // guards still run is safe (it just may not see stragglers).
  util::ErrorCollector errors;
  {
    util::ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&errors, i] {
        errors.guard([i] {
          throw std::runtime_error("crash " + std::to_string(i));
        });
      });
    }
    pool.wait_idle();
  }
  EXPECT_THROW(errors.rethrow_if_any(), std::runtime_error);
  // Idempotent: the captured error is kept, not consumed.
  EXPECT_THROW(errors.rethrow_if_any(), std::runtime_error);
}

// --- for_each_chunk / work-stealing batch scheduler ------------------------

// The contiguous splitter is the partition every campaign merge trusts:
// dense ascending chunks, sizes differing by at most one.
TEST(ForEachChunk, DenseAscendingChunksWithBalancedSizes) {
  for (const std::size_t total : {1u, 2u, 7u, 64u, 1000u}) {
    for (const std::size_t parts : {1u, 2u, 3u, 5u, 8u, 64u, 2000u}) {
      std::size_t expect_begin = 0;
      unsigned chunks = 0;
      std::size_t min_size = total;
      std::size_t max_size = 0;
      util::for_each_chunk(total, parts,
                           [&](unsigned i, std::size_t begin, std::size_t end) {
                             EXPECT_EQ(i, chunks);
                             EXPECT_EQ(begin, expect_begin);
                             EXPECT_LT(begin, end);
                             min_size = std::min(min_size, end - begin);
                             max_size = std::max(max_size, end - begin);
                             expect_begin = end;
                             ++chunks;
                           });
      EXPECT_EQ(expect_begin, total) << total << "/" << parts;
      EXPECT_EQ(chunks, std::min(std::max<std::size_t>(parts, 1), total));
      EXPECT_LE(max_size - min_size, 1u) << total << "/" << parts;
    }
  }
}

TEST(ForEachChunk, ZeroTotalCallsNothing) {
  bool called = false;
  util::for_each_chunk(0, 8, [&](unsigned, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
  util::for_each_chunk(0, 0, [&](unsigned, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

// Every batch index must be claimed exactly once and cover exactly
// [b * batch_size, min((b+1) * batch_size, total)) — the whole
// determinism contract of the stealing scheduler rests on this.
TEST(ThreadPool, ParallelForBatchesRunsEveryBatchExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool pool(workers);
    for (const std::size_t total : {1u, 5u, 64u, 257u, 1000u}) {
      for (const std::size_t batch_size : {1u, 3u, 64u, 256u}) {
        const std::size_t nbatches = (total + batch_size - 1) / batch_size;
        std::vector<std::atomic<int>> runs(nbatches);
        std::vector<std::atomic<int>> covered(total);
        const util::StealCounters counters = pool.parallel_for_batches(
            total, batch_size,
            [&](std::size_t b, std::size_t begin, std::size_t end) {
              ASSERT_LT(b, nbatches);
              EXPECT_EQ(begin, b * batch_size);
              EXPECT_EQ(end, std::min(begin + batch_size, total));
              runs[b].fetch_add(1);
              for (std::size_t i = begin; i < end; ++i) covered[i].fetch_add(1);
            });
        for (std::size_t b = 0; b < nbatches; ++b) {
          EXPECT_EQ(runs[b].load(), 1)
              << "workers=" << workers << " total=" << total
              << " batch_size=" << batch_size << " batch=" << b;
        }
        for (std::size_t i = 0; i < total; ++i) {
          EXPECT_EQ(covered[i].load(), 1);
        }
        EXPECT_EQ(counters.batches, nbatches);
        EXPECT_LE(counters.steals, counters.batches);
      }
    }
  }
}

// Edge geometry: empty universe, fewer items than workers, one batch
// bigger than the whole shard, and the batch_size = 0 clamp.
TEST(ThreadPool, ParallelForBatchesEdgeCases) {
  util::ThreadPool pool(8);

  // total == 0: nothing runs, zero telemetry.
  bool called = false;
  const util::StealCounters empty = pool.parallel_for_batches(
      0, 16, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(empty.batches, 0u);
  EXPECT_EQ(empty.steals, 0u);

  // total < workers: three one-item batches, each exactly once.
  std::vector<std::atomic<int>> covered(3);
  const util::StealCounters tiny = pool.parallel_for_batches(
      3, 1, [&](std::size_t b, std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, b);
        EXPECT_EQ(end, b + 1);
        covered[b].fetch_add(1);
      });
  for (auto& c : covered) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(tiny.batches, 3u);

  // batch_size > total: a single batch spanning the whole range.
  std::atomic<int> whole_runs{0};
  const util::StealCounters whole = pool.parallel_for_batches(
      10, 1000, [&](std::size_t b, std::size_t begin, std::size_t end) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        whole_runs.fetch_add(1);
      });
  EXPECT_EQ(whole_runs.load(), 1);
  EXPECT_EQ(whole.batches, 1u);
  EXPECT_EQ(whole.steals, 0u);

  // batch_size == 0 clamps to 1 (one batch per item).
  std::atomic<int> clamped_batches{0};
  const util::StealCounters clamped = pool.parallel_for_batches(
      5, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        clamped_batches.fetch_add(1);
      });
  EXPECT_EQ(clamped_batches.load(), 5);
  EXPECT_EQ(clamped.batches, 5u);
}

// Property test for the ISSUE's merge-determinism claim: per-batch
// partials folded in batch-index order are bit-identical to the serial
// contiguous split, across random totals, batch sizes, worker counts
// and seeds — even with per-item costs skewed enough to force steals.
// The fold is deliberately order-sensitive (multiply-xor chain), so any
// double-run, dropped index or out-of-order merge changes the digest.
TEST(ThreadPool, StolenBatchMergeIsBitIdenticalToContiguousSplit) {
  auto fold = [](std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x9E3779B97F4A7C15ULL;
  };
  Xoshiro256 geometry_rng(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t total = 1 + geometry_rng.below(900);
    const std::size_t batch_size = 1 + geometry_rng.below(97);
    const std::uint64_t seed = geometry_rng();
    std::vector<std::uint64_t> items(total);
    Xoshiro256 item_rng(seed);
    for (auto& v : items) v = item_rng();

    // Serial reference: one pass, one fold.
    const std::size_t nbatches = (total + batch_size - 1) / batch_size;
    std::vector<std::uint64_t> ref_partial(nbatches, 0);
    for (std::size_t b = 0; b < nbatches; ++b) {
      const std::size_t begin = b * batch_size;
      const std::size_t end = std::min(begin + batch_size, total);
      for (std::size_t i = begin; i < end; ++i) {
        ref_partial[b] = fold(ref_partial[b], items[i]);
      }
    }
    std::uint64_t reference = 0;
    for (std::uint64_t p : ref_partial) reference = fold(reference, p);

    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
      util::ThreadPool pool(workers);
      std::vector<std::uint64_t> partial(nbatches, 0);
      pool.parallel_for_batches(
          total, batch_size,
          [&](std::size_t b, std::size_t begin, std::size_t end) {
            // Skew per-batch cost so fast workers finish their home
            // range early and go stealing.
            if (b % 3 == 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            for (std::size_t i = begin; i < end; ++i) {
              partial[b] = fold(partial[b], items[i]);
            }
          });
      std::uint64_t merged = 0;
      for (std::uint64_t p : partial) merged = fold(merged, p);
      EXPECT_EQ(merged, reference)
          << "trial=" << trial << " workers=" << workers << " total=" << total
          << " batch_size=" << batch_size;
    }
  }
}

// A throwing batch surfaces on the caller, and the pool stays usable
// afterwards.
TEST(ThreadPool, ParallelForBatchesRethrowsFirstBatchError) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_batches(
                   100, 8,
                   [](std::size_t b, std::size_t, std::size_t) {
                     if (b == 2) throw std::runtime_error("batch failed");
                   }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for_batches(16, 4,
                            [&ran](std::size_t, std::size_t begin,
                                   std::size_t end) {
                              ran += static_cast<int>(end - begin);
                            });
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace prt
