// Tests for src/rt: the unified async runtime. The timer edge cases here are
// the contract the migrated layers lean on — zero-delay posts (the scheduler
// pump), cancel-after-fire races (gateway deadline timers vs completed
// uploads), coalesced deadlines firing in order (EDF linger flushes), timers
// posted from within timer callbacks (heartbeat ticks rescheduling
// themselves), and executor drain with timers still pending (service
// teardown). The ParallelFor cases pin the fan-out contract the parse stage,
// the device farm and forest training rely on: exactly-once coverage, no
// deadlock from inside a task, nesting, and late helpers that never touch a
// returned call's body. RtSoak carries the stress label for the TSan tier.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "rt/runtime.h"

namespace apichecker::rt {
namespace {

using std::chrono::milliseconds;

bool WaitFor(const std::function<bool()>& predicate,
             milliseconds timeout = milliseconds(5'000)) {
  const Clock::time_point give_up = Clock::now() + timeout;
  while (Clock::now() < give_up) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return predicate();
}

TEST(Runtime, PostRunsTasksOnWorkers) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    rt.Post([&ran] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 100; }));
}

TEST(Runtime, ZeroDelayTimerFiresPromptly) {
  Runtime rt(RuntimeOptions{.workers = 2});
  std::promise<void> fired;
  auto done = fired.get_future();
  const Clock::time_point posted = Clock::now();
  rt.PostAfter(milliseconds(0), [&fired] { fired.set_value(); });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  // "Promptly" for a zero-delay post: well under the coarsest linger the
  // scheduler ever configures.
  EXPECT_LT(Clock::now() - posted, std::chrono::seconds(2));
}

TEST(Runtime, CancelBeforeFireSuppressesTheCallback) {
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<bool> ran{false};
  CancelToken token =
      rt.PostAfter(milliseconds(200), [&ran] { ran.store(true); });
  EXPECT_TRUE(token.Cancel());
  std::this_thread::sleep_for(milliseconds(350));
  EXPECT_FALSE(ran.load());
  EXPECT_FALSE(token.fired());
}

TEST(Runtime, CancelAfterFireRaceLosesExactlyOnce) {
  // A timer and its cancellation race: whichever CAS wins, the outcome is
  // coherent — Cancel() true means the callback never runs, Cancel() false
  // after the deadline means it ran (or is running).
  Runtime rt(RuntimeOptions{.workers = 2});
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    CancelToken token =
        rt.PostAfter(milliseconds(1), [&ran] { ran.fetch_add(1); });
    std::this_thread::sleep_for(milliseconds(round % 3));
    const bool cancelled = token.Cancel();
    // Let any in-flight fire land before asserting.
    ASSERT_TRUE(WaitFor([&] { return cancelled || ran.load() == 1; }));
    EXPECT_EQ(ran.load(), cancelled ? 0 : 1);
    EXPECT_NE(cancelled, token.fired());
  }
}

TEST(Runtime, CoalescedDeadlinesFireInDeadlineOrder) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  // All five deadlines land inside one sweep window; post them shuffled.
  const Clock::time_point base = Clock::now() + milliseconds(50);
  const int shuffled[] = {3, 0, 4, 1, 2};
  for (int i : shuffled) {
    rt.PostAt(base + milliseconds(i), [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      fired.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return fired.load() == 5; }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Runtime, TimerPostedFromWithinATimerCallback) {
  // The heartbeat-tick shape: a timer callback arms the next tick.
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    if (ticks.fetch_add(1) + 1 < 5) {
      rt.PostAfter(milliseconds(5), tick);
    }
  };
  rt.PostAfter(milliseconds(5), tick);
  EXPECT_TRUE(WaitFor([&] { return ticks.load() == 5; }));
}

TEST(Runtime, ShutdownDrainsPostedTasksAndCancelsPendingTimers) {
  std::atomic<int> ran{0};
  std::atomic<bool> late_timer_ran{false};
  {
    Runtime rt(RuntimeOptions{.workers = 2});
    for (int i = 0; i < 64; ++i) {
      // Draining tasks may themselves post: both halves must run.
      rt.Post([&ran, &rt] {
        rt.Post([&ran] { ran.fetch_add(1); });
        ran.fetch_add(1);
      });
    }
    rt.PostAfter(std::chrono::hours(1),
                 [&late_timer_ran] { late_timer_ran.store(true); });
    rt.Shutdown();
    // Idempotent: a second (and third) shutdown is a no-op.
    rt.Shutdown();
    rt.Shutdown();
  }
  EXPECT_EQ(ran.load(), 128);
  EXPECT_FALSE(late_timer_ran.load());
}

TEST(Runtime, PostAfterShutdownIsDropped) {
  Runtime rt(RuntimeOptions{.workers = 2});
  rt.Shutdown();
  std::atomic<bool> ran{false};
  rt.Post([&ran] { ran.store(true); });
  CancelToken token = rt.PostAfter(milliseconds(1), [&ran] { ran.store(true); });
  EXPECT_FALSE(token.valid());
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(ran.load());
}

TEST(Runtime, StrandSerializesButInterleavesAcrossStrands) {
  Runtime rt(RuntimeOptions{.workers = 4});
  auto a = rt.MakeStrand();
  auto b = rt.MakeStrand();
  std::atomic<int> in_a{0};
  std::atomic<int> max_in_a{0};
  std::atomic<int> total{0};
  for (int i = 0; i < 200; ++i) {
    a->Post([&] {
      const int now = in_a.fetch_add(1) + 1;
      int seen = max_in_a.load();
      while (now > seen && !max_in_a.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::yield();
      in_a.fetch_sub(1);
      total.fetch_add(1);
    });
    b->Post([&] { total.fetch_add(1); });
  }
  EXPECT_TRUE(WaitFor([&] { return total.load() == 400; }));
  EXPECT_EQ(max_in_a.load(), 1);  // Never two tasks of one strand at once.
}

TEST(Runtime, StrandPreservesFifoOrder) {
  Runtime rt(RuntimeOptions{.workers = 4});
  auto strand = rt.MakeStrand();
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    strand->Post([&, i] {
      order.push_back(i);  // Serialized by the strand: no lock needed.
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return done.load() == 500; }));
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(Runtime, PostFdFiresOnReadableAndSupportsRearm) {
  Runtime rt(RuntimeOptions{.workers = 2});
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<int> readable_events{0};
  std::function<void()> on_readable = [&] {
    char buffer[16];
    (void)!read(fds[0], buffer, sizeof(buffer));
    if (readable_events.fetch_add(1) + 1 < 3) {
      rt.PostFd(fds[0], on_readable);  // Re-arm from the callback.
    }
  };
  rt.PostFd(fds[0], on_readable);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(write(fds[1], "x", 1), 1);
    ASSERT_TRUE(WaitFor([&] { return readable_events.load() == i + 1; }));
  }
  close(fds[0]);
  close(fds[1]);
}

TEST(Runtime, CancelledFdWatchNeverFires) {
  Runtime rt(RuntimeOptions{.workers = 2});
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<bool> fired{false};
  CancelToken token = rt.PostFd(fds[0], [&fired] { fired.store(true); });
  EXPECT_TRUE(token.Cancel());
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(fired.load());
  close(fds[0]);
  close(fds[1]);
}

TEST(Runtime, WorkStealingKeepsAllWorkersBusy) {
  // Post a burst from one external thread (all tasks land round-robin, but
  // long tasks pile on some queues): stealing must still run everything.
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    rt.Post([&ran, i] {
      if (i % 8 == 0) std::this_thread::sleep_for(milliseconds(20));
      ran.fetch_add(1);
    });
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 64; }));
}

TEST(Runtime, ParallelForRunsEveryIndexExactlyOnce) {
  Runtime rt(RuntimeOptions{.workers = 4});
  for (const size_t n : {size_t{0}, size_t{1}, rt.workers() - 1, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    rt.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

// Occupies `count` workers with tasks that spin until `release` is set, and
// returns once all of them are running.
void BlockWorkers(Runtime& rt, size_t count, std::atomic<bool>& release) {
  std::atomic<size_t> blocked{0};
  for (size_t i = 0; i < count; ++i) {
    rt.Post([&release, &blocked] {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    });
  }
  ASSERT_TRUE(WaitFor([&] { return blocked.load() == count; }));
}

TEST(Runtime, ParallelForInsideATaskCompletesOnTheCallerAlone) {
  // Every other worker is blocked, so the helpers the call posts can never
  // start: the calling task must run every index itself, not deadlock.
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<bool> release{false};
  BlockWorkers(rt, rt.workers() - 1, release);
  std::promise<bool> all_on_caller;
  rt.Post([&] {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(100);
    rt.ParallelFor(ran_on.size(),
                   [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
    bool same = true;
    for (const std::thread::id& id : ran_on) same = same && id == caller;
    all_on_caller.set_value(same);
  });
  std::future<bool> done = all_on_caller.get_future();
  const bool finished =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.store(true);  // Unblock first, so a failure cannot hang teardown.
  ASSERT_TRUE(finished);
  EXPECT_TRUE(done.get());
}

TEST(Runtime, NestedParallelForCompletes) {
  Runtime rt(RuntimeOptions{.workers = 4});
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  rt.ParallelFor(kOuter, [&](size_t i) {
    rt.ParallelFor(kInner, [&](size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Runtime, LateHelperNeverTouchesTheBody) {
  // With every worker blocked the external caller runs all indices and
  // returns while its helpers are still queued. The body is then freed, so a
  // helper that dereferenced it once released would be a use-after-free
  // (caught under ASan).
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<bool> release{false};
  BlockWorkers(rt, rt.workers(), release);
  std::atomic<int> ran{0};
  auto body = std::make_unique<std::function<void(size_t)>>(
      [&ran](size_t) { ran.fetch_add(1); });
  rt.ParallelFor(64, *body);
  EXPECT_EQ(ran.load(), 64);
  body.reset();
  release.store(true);
  rt.Shutdown();  // Drains the late helpers.
  EXPECT_EQ(ran.load(), 64);
}

// Stress shape for the TSan tier: timers, strands, fd readiness, and plain
// posts all churning against a mid-flight Shutdown.
TEST(RtSoak, ConcurrentPostCancelShutdownIsRaceFree) {
  for (int round = 0; round < 5; ++round) {
    Runtime rt(RuntimeOptions{.workers = 4});
    auto strand = rt.MakeStrand();
    std::atomic<int> ran{0};
    std::vector<std::thread> posters;
    for (int t = 0; t < 4; ++t) {
      posters.emplace_back([&, t] {
        std::vector<CancelToken> tokens;
        for (int i = 0; i < 200; ++i) {
          rt.Post([&ran] { ran.fetch_add(1); });
          strand->Post([&ran] { ran.fetch_add(1); });
          tokens.push_back(
              rt.PostAfter(milliseconds(i % 7), [&ran] { ran.fetch_add(1); }));
          if (i % 3 == t % 3) tokens.back().Cancel();
        }
      });
    }
    for (std::thread& thread : posters) thread.join();
    rt.Shutdown();
    EXPECT_GT(ran.load(), 0);
  }
}

}  // namespace
}  // namespace apichecker::rt
