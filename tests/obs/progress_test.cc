// Heartbeat thread-safety and lifecycle (obs/progress.h), run under TSan
// in CI via the `obs` ctest label: snapshots taken while worker threads
// hammer counters, DumpNow racing the background thread, the
// SIGUSR1-target seam, and clean shutdown on every Plan::Run exit path
// including a fault-injected guard trip.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/execution_guard.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "text/tokenizer.h"
#include "util/temp_dir.h"
#include "util/thread_pool.h"

namespace ssjoin::obs {
namespace {

SetCollection Workload(size_t n, uint64_t seed) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.2;
  options.max_typos = 2;
  options.seed = seed;
  WordTokenizer tokenizer;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

// A logger whose output is discarded (std::tmpfile) but whose line
// accounting still works — the tests assert on record counts, not bytes.
struct TempLogger {
  TempLogger()
      : file(std::tmpfile()), logger(std::make_unique<Logger>(file)) {}
  ~TempLogger() {
    logger.reset();  // the borrowing Logger must flush before fclose
    if (std::fclose(file) != 0) ADD_FAILURE() << "fclose tmpfile";
  }
  std::FILE* file;
  std::unique_ptr<Logger> logger;
};

TEST(ProgressTest, BackgroundBeatsFireAndStopIsPrompt) {
  TempLogger log;
  MetricsRegistry metrics;
  ProgressReporter progress(log.logger.get(), &metrics, nullptr,
                            /*interval_ms=*/5);
  progress.Start();
  progress.Start();  // idempotent
  while (progress.beats() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  progress.Stop();
  uint64_t after_stop = progress.beats();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(progress.beats(), after_stop) << "beats after Stop()";
  progress.Stop();  // idempotent
  EXPECT_EQ(metrics.counter("progress.beats").value(), after_stop);
  EXPECT_EQ(log.logger->lines(), after_stop);
}

TEST(ProgressTest, InertWithoutLogger) {
  MetricsRegistry metrics;
  ProgressReporter progress(nullptr, &metrics, nullptr, /*interval_ms=*/1);
  progress.Start();
  progress.DumpNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  progress.Stop();
  EXPECT_EQ(progress.beats(), 0u);
}

TEST(ProgressTest, DumpNowWorksWithoutBackgroundThread) {
  TempLogger log;
  MetricsRegistry metrics;
  metrics.counter("join.results").Add(3);
  ProgressReporter progress(log.logger.get(), &metrics, nullptr,
                            /*interval_ms=*/0);
  progress.Start();  // no-op: interval 0 means no thread
  progress.DumpNow();
  progress.DumpNow();
  EXPECT_EQ(progress.beats(), 2u);
  EXPECT_EQ(metrics.counter("progress.dumps").value(), 2u);
  EXPECT_EQ(log.logger->lines(), 2u);
}

TEST(ProgressTest, RequestDumpAndSignalTargetScheduleABeat) {
  TempLogger log;
  MetricsRegistry metrics;
  ProgressReporter progress(log.logger.get(), &metrics, nullptr,
                            /*interval_ms=*/60000);  // never beats on its own
  ProgressReporter::InstallSignalTarget(&progress);
  progress.Start();
  ProgressReporter::NotifySignalTarget();  // what the SIGUSR1 handler runs
  while (progress.beats() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  progress.Stop();
  EXPECT_GE(metrics.counter("progress.dumps").value(), 1u);
  ProgressReporter::InstallSignalTarget(nullptr);
  ProgressReporter::NotifySignalTarget();  // cleared target: no-op
}

TEST(ProgressTest, SnapshotsRaceMetricMutationSafely) {
  // Workers hammer a counter and a histogram while the heartbeat thread
  // snapshots the registry and extra threads call DumpNow — the TSan CI
  // job proves this interleaving race-free.
  TempLogger log;
  MetricsRegistry metrics;
  Counter& counter = metrics.counter("join.candidates");
  Histogram& hist = metrics.histogram("join.shard.micros");
  ProgressReporter progress(log.logger.get(), &metrics, nullptr,
                            /*interval_ms=*/1);
  progress.Start();
  ThreadPool pool(4);
  pool.RunOnAll([&](size_t worker) {
    for (int i = 0; i < 5000; ++i) {
      counter.Add(1);
      hist.Record(static_cast<uint64_t>(i));
      if (i % 1000 == 0) progress.DumpNow();
      if (worker == 0 && i % 500 == 0) progress.RequestDump();
    }
  });
  progress.Stop();
  EXPECT_EQ(counter.value(), 20000u);
  EXPECT_GE(progress.beats(), 20u);  // 4 workers x 5 DumpNow each
}

TEST(ProgressTest, HeartbeatDuringRealJoinSeesGuardFields) {
  auto dir = util::ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  std::string path = dir->path() + "/progress.jsonl";
  auto logger = Logger::Open(path);
  ASSERT_TRUE(logger.ok());

  SetCollection input = Workload(400, 71);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  MetricsRegistry metrics;
  ExecutionGuard guard(ExecutionBudget{});
  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.options.num_threads = 4;
  request.options.metrics = &metrics;
  request.options.guard = &guard;

  ProgressReporter progress(logger->get(), &metrics, &guard,
                            /*interval_ms=*/1);
  progress.Start();
  JoinResult result = Join(request);
  progress.DumpNow();  // at least one beat sees the final counters
  progress.Stop();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  (*logger)->Flush();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  ASSERT_EQ(std::fclose(f), 0);

  EXPECT_NE(text.find("\"event\":\"progress\""), std::string::npos);
  EXPECT_NE(text.find("\"guard.phase\""), std::string::npos);
  EXPECT_NE(text.find("\"guard.memory_bytes\""), std::string::npos);
  EXPECT_NE(text.find("\"guard.tripped\":false"), std::string::npos);
  // The final DumpNow saw the finished join's metric values.
  EXPECT_NE(text.find("\"join.results\""), std::string::npos);
}

TEST(ProgressTest, CleanShutdownOnGuardTripExitPath) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  TempLogger log;
  MetricsRegistry metrics;

  SetCollection input = Workload(300, 72);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  ExecutionGuard guard(ExecutionBudget{});
  ProgressReporter progress(log.logger.get(), &metrics, &guard,
                            /*interval_ms=*/1);
  progress.Start();
  fault::SetPlan({{fault::CheckpointTrip(JoinPhase::kCandGen,
                                         StatusCode::kResourceExhausted)}});
  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.options.metrics = &metrics;
  request.options.guard = &guard;
  JoinResult result = Join(request);
  fault::Clear();
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.tripped());
  progress.DumpNow();  // the reporter outlives the aborted join cleanly
  progress.Stop();
}

TEST(ProgressTest, DestructorStopsWithoutExplicitStop) {
  TempLogger log;
  MetricsRegistry metrics;
  {
    ProgressReporter progress(log.logger.get(), &metrics, nullptr,
                              /*interval_ms=*/1);
    progress.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }  // destructor joins the heartbeat thread
  SUCCEED();
}

}  // namespace
}  // namespace ssjoin::obs
