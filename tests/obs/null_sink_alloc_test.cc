// Enforces the null-sink contract from obs/join_telemetry.h: with no
// Tracer and no MetricsRegistry attached, every JoinTelemetry call must
// be a branch on a null pointer — zero heap allocations. This test links
// a counting global operator new/delete, so it lives in its own binary
// (obs_alloc_tests) apart from the rest of the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/explain.h"
#include "obs/join_telemetry.h"
#include "obs/log.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void CountAllocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAllocation();
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  CountAllocation();
  return std::malloc(size ? size : 1);
}

// GCC 12 inlines these replacements into call sites whose pointer came
// from the replacement operator new above, sees std::free paired with
// operator new, and warns -Wmismatched-new-delete. Both sides are this
// file's malloc/free pair, so the pairing is correct; suppress the
// warning for these definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ssjoin::obs {
namespace {

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

TEST(NullSinkAllocTest, TelemetryCallsNeverAllocate) {
  double seconds = 0;
  AllocationGuard guard;
  {
    JoinTelemetry telem(nullptr, nullptr, "join");
    telem.Attr("mode", "self");
    telem.Attr("candidates", uint64_t{42});
    telem.Attr("ratio", 0.5);
    telem.Event("guard_trip", "deadline");
    telem.AddCount("join.results", 7);
    telem.SetGauge("join.seconds.total", 1.5);
    {
      Stage stage(names::kOpSigGen, "", &seconds);
      stage.Bind(&telem, 0);
      {
        Stage::Timed timed(&stage);
        auto sample = telem.Sample("shard", nullptr, /*lane=*/1);
        EXPECT_EQ(sample.span(), kNoSpan);
      }
      stage.Close(nullptr);
    }
    EXPECT_FALSE(telem.tracing());
    EXPECT_EQ(telem.root(), kNoSpan);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "null-sink JoinTelemetry must not touch the heap";
  EXPECT_GT(seconds, 0.0);  // the stage still timed
}

TEST(NullSinkAllocTest, ExplainSeamsNeverAllocate) {
  // Same contract as JoinTelemetry (obs/explain.h): a null ExplainReport
  // costs one pointer compare per RecordActual call. The drivers call these
  // seams on every join exit, so a regression here taxes every un-explained
  // join.
  AdvisorTrace trace;  // empty: attaching it must still be free
  AllocationGuard guard;
  RecordActual(nullptr, "join.signatures", 990.0);
  AttachAdvisorTrace(nullptr, trace);
  EXPECT_EQ(guard.count(), 0u)
      << "null-sink explain seams must not touch the heap";
}

TEST(NullSinkAllocTest, NullLoggerSeamNeverAllocates) {
  // The drivers call obs::LogEvent on every join start/finish/abort; an
  // unconfigured JoinOptions::log must cost one null compare. The field
  // initializer list lives on the stack — building it must not touch the
  // heap either.
  AllocationGuard guard;
  LogEvent(nullptr, LogLevel::kInfo, "join_start",
           {{"mode", "self"}, {"input_sets", uint64_t{42}}});
  LogEvent(nullptr, LogLevel::kWarn, "join_abort",
           {{"error", "deadline"}, {"ratio", 0.5}, {"tripped", true}});
  EXPECT_EQ(guard.count(), 0u)
      << "null-sink LogEvent must not touch the heap";
}

TEST(NullSinkAllocTest, UnboundStageNeverAllocates) {
  // Every timed stage section is accounted into the ledger whatever
  // sinks are attached — the unbound path is the one every un-metered
  // join takes for every batch, so it must stay off the heap.
  Stage stage(names::kOpVerify, "", nullptr);
  AllocationGuard guard;
  for (int i = 0; i < 1000; ++i) {
    Stage::Timed timed(&stage);
    if (i % 2 == 0) timed.Produced();
    stage.rows_in = static_cast<uint64_t>(i);
    stage.rows_out = static_cast<uint64_t>(i);
  }
  stage.rows_in = 100;
  stage.rows_out = 50;
  stage.Close(nullptr);  // on every Close path
  EXPECT_FALSE(stage.publishing());
  EXPECT_EQ(stage.batches(), 500u);
  EXPECT_EQ(guard.count(), 0u) << "unbound Stage must not touch the heap";
}

TEST(NullSinkAllocTest, StageBindToNullSinksIsFreeAndStaysOff) {
  JoinTelemetry telem(nullptr, nullptr, "join");
  double seconds = 0;
  Stage stage(names::kOpSigGen, "", &seconds);
  AllocationGuard guard;
  stage.Bind(&telem, 0);  // no registry: publishes nothing
  EXPECT_FALSE(stage.publishing());
  stage.Bind(nullptr, 0);
  EXPECT_FALSE(stage.publishing());
  {
    Stage::Timed timed(&stage);
    timed.Produced();
    stage.rows_in = 1;
    stage.rows_out = 1;
  }
  stage.Close(nullptr);
  stage.Close(nullptr);  // idempotent: the time is added once
  EXPECT_EQ(stage.batches(), 1u);
  EXPECT_DOUBLE_EQ(seconds, static_cast<double>(stage.ns()) / 1e9);
  EXPECT_EQ(guard.count(), 0u);
}

TEST(NullSinkAllocTest, CounterHotPathDoesNotAllocate) {
  // The per-item hot-path idiom: instruments are looked up once (that
  // lookup may allocate) and then hammered via the cached pointer.
  MetricsRegistry registry;
  Counter& counter = registry.counter("join.candidates");
  Histogram& histogram = registry.histogram("join.shard.micros");
  AllocationGuard guard;
  for (int i = 0; i < 1000; ++i) {
    counter.Add(1);
    histogram.Record(static_cast<uint64_t>(i));
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(counter.value(), 1000u);
}

}  // namespace
}  // namespace ssjoin::obs
