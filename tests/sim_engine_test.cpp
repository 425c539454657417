#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ppm::sim {
namespace {

TEST(Engine, RunsSingleFiberToCompletion) {
  Engine engine;
  bool ran = false;
  engine.spawn("f", [&] { ran = true; });
  engine.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(engine.all_fibers_finished());
}

TEST(Engine, AdvanceMovesVirtualTime) {
  Engine engine;
  int64_t t0 = -1, t1 = -1;
  engine.spawn("f", [&] {
    t0 = engine.now_ns();
    engine.advance_ns(1500);
    t1 = engine.now_ns();
  });
  engine.run();
  EXPECT_EQ(t0, 0);
  EXPECT_EQ(t1, 1500);
}

TEST(Engine, SleepWakesAtRequestedTime) {
  Engine engine;
  int64_t woke_at = -1;
  engine.spawn("f", [&] {
    engine.sleep_until_ns(42'000);
    woke_at = engine.now_ns();
  });
  engine.run();
  EXPECT_EQ(woke_at, 42'000);
}

TEST(Engine, FibersInterleaveByVirtualTime) {
  Engine engine;
  std::vector<std::string> order;
  engine.spawn("slow", [&] {
    engine.advance_ns(100);
    engine.yield();
    order.push_back("slow");
  });
  engine.spawn("fast", [&] {
    engine.advance_ns(10);
    engine.yield();
    order.push_back("fast");
  });
  engine.run();
  ASSERT_EQ(order.size(), 2u);
  // After the yields, the fiber with the smaller virtual clock runs first.
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "slow");
}

TEST(Engine, StartTimeOffsetsFiberClock) {
  Engine engine;
  int64_t t = -1;
  engine.spawn("late", [&] { t = engine.now_ns(); }, /*start_ns=*/5000);
  engine.run();
  EXPECT_EQ(t, 5000);
}

TEST(Engine, EventCallbacksFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(300, [&] { order.push_back(3); });
  engine.at(100, [&] { order.push_back(1); });
  engine.at(200, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFireInFifoOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.at(50, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SuspendAndWakeRoundTrip) {
  Engine engine;
  Fiber::Id sleeper_id = 0;
  int64_t woke_at = -1;
  sleeper_id = engine.spawn("sleeper", [&] {
    engine.suspend_current();
    woke_at = engine.now_ns();
  });
  engine.spawn("waker", [&] {
    engine.advance_ns(700);
    engine.wake(sleeper_id, engine.now_ns());
  });
  engine.run();
  EXPECT_EQ(woke_at, 700);
}

TEST(Engine, WakeInPastClampsToFiberClock) {
  Engine engine;
  Fiber::Id sleeper_id = 0;
  int64_t woke_at = -1;
  sleeper_id = engine.spawn("sleeper", [&] {
    engine.advance_ns(1000);  // sleeper is "busy" until t=1000
    engine.suspend_current();
    woke_at = engine.now_ns();
  });
  engine.spawn("waker", [&] {
    engine.advance_ns(10);
    engine.wake(sleeper_id, engine.now_ns());  // wake signal at t=10
  });
  engine.run();
  // Information can arrive early but the fiber's own clock never rewinds.
  EXPECT_EQ(woke_at, 1000);
}

TEST(Engine, FiberExceptionPropagatesFromRun) {
  Engine engine;
  engine.spawn("bad", [] { throw Error("boom"); });
  try {
    engine.run();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Engine, DeadlockIsDetectedAndNamed) {
  Engine engine;
  engine.spawn("stuck-fiber", [&] { engine.suspend_current(); });
  try {
    engine.run();
    FAIL() << "expected deadlock Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-fiber"), std::string::npos);
  }
}

TEST(Engine, ManyFibersAllComplete) {
  Engine engine;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    engine.spawn("f" + std::to_string(i), [&engine, &done, i] {
      engine.advance_ns(i * 3);
      engine.yield();
      ++done;
    });
  }
  engine.run();
  EXPECT_EQ(done, 200);
}

TEST(Engine, DeepStackUsageWithinLimit) {
  Engine engine;
  // ~100 frames x ~1KB of locals stays within the 512KB default stack.
  std::function<int(int)> rec = [&](int n) -> int {
    volatile char pad[1024];
    pad[0] = static_cast<char>(n);
    return n == 0 ? pad[0] : rec(n - 1) + 1;
  };
  int result = -1;
  engine.spawn("deep", [&] { result = rec(100); });
  engine.run();
  EXPECT_EQ(result, 100);
}

TEST(Engine, MeasuredCalibrationChargesComputeTime) {
  EngineConfig cfg;
  cfg.calibration = CalibrationMode::kMeasured;
  cfg.calibration_factor = 1.0;
  Engine engine(cfg);
  int64_t t = 0;
  engine.spawn("worker", [&] {
    // Burn a visible amount of CPU.
    volatile double x = 1.0;
    for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 1e-9;
    t = engine.now_ns();
  });
  engine.run();
  EXPECT_GT(t, 0);  // some wall time was charged
}

TEST(Engine, NestedSpawnFromFiber) {
  Engine engine;
  bool child_ran = false;
  engine.spawn("parent", [&] {
    engine.advance_ns(100);
    engine.spawn("child", [&] {
      EXPECT_GE(engine.now_ns(), 100);
      child_ran = true;
    }, engine.now_ns());
  });
  engine.run();
  EXPECT_TRUE(child_ran);
}

TEST(Engine, FreeFunctionsRequireFiber) {
  EXPECT_THROW(sim::now_ns(), Error);
  EXPECT_THROW(sim::advance_ns(1), Error);
  EXPECT_THROW(sim::yield(), Error);
}

TEST(Engine, FreeFunctionsWorkOnFiber) {
  Engine engine;
  int64_t t = -1;
  engine.spawn("f", [&] {
    sim::advance_ns(250);
    sim::yield();
    sim::sleep_for_ns(250);
    t = sim::now_ns();
  });
  engine.run();
  EXPECT_EQ(t, 500);
}


struct LiveValues {
  uint64_t u[8];
  double d[4];
};

// Updates twelve values per round and calls `between` after each round, so
// the compiler must keep them live across the call: in callee-saved
// registers where it can, in stack slots otherwise. The values depend on
// `seed`, so fibers that leak registers into each other get wrong results.
template <typename Between>
LiveValues churn(uint64_t seed, int rounds, Between between) {
  uint64_t a = seed, b = seed * 3 + 1, c = seed ^ 0x9e3779b97f4a7c15ULL,
           d = ~seed, e = seed << 17, f = seed * seed, g = seed + 12345,
           h = seed * 0x2545f4914f6cdd1dULL;
  double x = static_cast<double>(seed) * 0.25, y = 1.0 / (seed + 1.0),
         z = static_cast<double>(seed) + 0.5, w = -static_cast<double>(seed);
  for (int r = 0; r < rounds; ++r) {
    a = a * 6364136223846793005ULL + 1442695040888963407ULL;
    b ^= a >> 7;
    c += b * 31;
    d = (d ^ c) * 0x100000001b3ULL;
    e += d >> 11;
    f ^= e * 7;
    g = g * 5 + f;
    h += g ^ a;
    x = x * 0.999 + static_cast<double>(a >> 40);
    y += x / 3.0;
    z = z * 0.5 + y;
    w -= z / 7.0;
    between();
  }
  return LiveValues{{a, b, c, d, e, f, g, h}, {x, y, z, w}};
}

TEST(Engine, FibersKeepCalleeSavedStateAcrossSwitches) {
  constexpr int kFibers = 4;
  constexpr int kRounds = 150;
  Engine engine;
  std::vector<LiveValues> got(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    engine.spawn("churn" + std::to_string(i), [&, i] {
      got[i] = churn(i + 1, kRounds, [&] { engine.yield(); });
    });
  }
  engine.run();
  for (int i = 0; i < kFibers; ++i) {
    const LiveValues want = churn(i + 1, kRounds, [] {});
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(got[i].u[k], want.u[k]) << "fiber " << i << " u" << k;
    }
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(std::memcmp(&got[i].d[k], &want.d[k], sizeof(double)), 0)
          << "fiber " << i << " d" << k << ": " << got[i].d[k]
          << " != " << want.d[k];
    }
  }
}

TEST(Engine, RoundingModeIsPerFiber) {
  // fesetround sets both the x87 control word and the MXCSR; fegetround
  // reads the x87 word, and double division obeys the MXCSR. The switch
  // must carry both, so neither fiber sees the other's rounding mode.
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  const double upward = one / three;
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  ASSERT_NE(nearest, upward);

  Engine engine;
  int a_mode = -1, b_mode = -1;
  double a_before = 0, a_after = 0, b_quotient = 0;
  engine.spawn("a", [&] {
    std::fesetround(FE_UPWARD);
    a_before = one / three;
    engine.yield();
    a_mode = std::fegetround();
    a_after = one / three;
    std::fesetround(FE_TONEAREST);
  });
  engine.spawn("b", [&] {
    b_mode = std::fegetround();
    b_quotient = one / three;
  });
  engine.run();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(b_mode, FE_TONEAREST);
  EXPECT_EQ(b_quotient, nearest);
  EXPECT_EQ(a_mode, FE_UPWARD);
  EXPECT_EQ(a_before, upward);
  EXPECT_EQ(a_after, upward);
}

}  // namespace
}  // namespace ppm::sim
