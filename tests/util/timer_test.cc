#include "util/timer.h"

#include <gtest/gtest.h>

#include <thread>

namespace ssjoin {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double elapsed = watch.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 2.0);
  EXPECT_GE(watch.ElapsedMicros(), 15000);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 0.015);
}

}  // namespace
}  // namespace ssjoin
