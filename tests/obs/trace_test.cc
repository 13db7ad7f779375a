// Tracer unit tests: span tree recording, attribute/event payloads, and
// the exporter contracts — the deterministic JSONL stream must contain
// only kStable spans with re-numbered ids and no wall-clock fields, while
// the Chrome trace_event rendering carries every span with timestamps.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"

namespace ssjoin::obs {
namespace {

TEST(TracerTest, RecordsSpanTree) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("join");
  SpanId child = tracer.StartSpan("SigGen", root);
  tracer.EndSpan(child);
  tracer.EndSpan(root);

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "join");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].name, "SigGen");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_GE(spans[0].end_us, spans[0].start_us);
}

TEST(TracerTest, AttributesKeepInsertionOrderAndOverwrite) {
  Tracer tracer;
  SpanId span = tracer.StartSpan("join");
  tracer.SetAttr(span, "mode", "self");
  tracer.SetAttr(span, "candidates", uint64_t{42});
  tracer.SetAttr(span, "ratio", 0.5);
  tracer.SetAttr(span, "candidates", uint64_t{43});  // overwrite in place
  tracer.EndSpan(span);

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  const auto& attrs = spans[0].attrs;
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].first, "mode");
  EXPECT_EQ(attrs[0].second.s, "self");
  EXPECT_EQ(attrs[1].first, "candidates");
  EXPECT_EQ(attrs[1].second.u, 43u);
  EXPECT_EQ(attrs[2].first, "ratio");
  EXPECT_EQ(attrs[2].second.d, 0.5);
}

TEST(TracerTest, EventsAttachToSpan) {
  Tracer tracer;
  SpanId span = tracer.StartSpan("join");
  tracer.AddEvent(span, "guard_trip", "deadline");
  tracer.EndSpan(span);

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].events.size(), 1u);
  EXPECT_EQ(spans[0].events[0].name, "guard_trip");
  EXPECT_EQ(spans[0].events[0].detail, "deadline");
}

TEST(TracerDeathTest, UnknownSpanIdTripsContractCheck) {
  // Mutating a span the tracer never issued is a caller bug, not a
  // recoverable condition — the contract layer aborts. JoinTelemetry
  // guards the null-sink path itself, so kNoSpan never reaches here in
  // production code.
  Tracer tracer;
  EXPECT_DEATH(tracer.EndSpan(99), "unknown span id");
  EXPECT_DEATH(tracer.AddEvent(99, "x"), "unknown span id");
  EXPECT_DEATH(tracer.SetAttr(kNoSpan, "k", uint64_t{1}),
               "unknown span id");
}

TEST(TracerTest, ResetDropsSpans) {
  Tracer tracer;
  tracer.StartSpan("join");
  ASSERT_EQ(tracer.span_count(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TraceJsonlTest, StableOnlyRenumberedNoTiming) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("join");
  // A runtime span interleaved between two stable ones: it must vanish
  // from the deterministic stream and not perturb the stable ids.
  SpanId shard = tracer.StartSpan("shard", root, Stability::kRuntime, 3);
  SpanId phase = tracer.StartSpan("SigGen", root);
  tracer.EndSpan(shard);
  tracer.EndSpan(phase);
  tracer.EndSpan(root);

  std::string jsonl = TraceJsonl(tracer);
  EXPECT_EQ(jsonl,
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"join\","
            "\"attrs\":{},\"events\":[]}\n"
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"SigGen\","
            "\"attrs\":{},\"events\":[]}\n");
  EXPECT_EQ(jsonl.find("shard"), std::string::npos);
  EXPECT_EQ(jsonl.find("_us"), std::string::npos);
}

TEST(ChromeTraceTest, CarriesEverySpanWithTimestamps) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("join");
  SpanId shard = tracer.StartSpan("shard", root, Stability::kRuntime, 2);
  tracer.AddEvent(root, "guard_trip", "cancelled");
  tracer.EndSpan(shard);
  tracer.EndSpan(root);

  std::string json = ChromeTraceJson(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"join\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);  // lane = track
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the event
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST(RunReportTest, RendersSpanTreeAndMarksRuntime) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("join");
  SpanId phase = tracer.StartSpan("SigGen", root);
  SpanId shard = tracer.StartSpan("shard", phase, Stability::kRuntime, 1);
  tracer.EndSpan(shard);
  tracer.EndSpan(phase);
  tracer.EndSpan(root);

  std::string report = RunReportText(&tracer, nullptr);
  EXPECT_NE(report.find("join"), std::string::npos);
  EXPECT_NE(report.find("SigGen"), std::string::npos);
  EXPECT_NE(report.find("[runtime]"), std::string::npos);
  // Null inputs render an empty report without crashing.
  EXPECT_EQ(RunReportText(nullptr, nullptr).find("spans:"),
            std::string::npos);
}

TEST(RunReportTest, RendersChildrenUnderTheirParent) {
  // Both operator spans open first (as Plan::Run does); the sample of
  // the first one starts after its sibling, yet renders beneath it.
  Tracer tracer;
  SpanId root = tracer.StartSpan("join");
  SpanId first = tracer.StartSpan("candgen", root);
  SpanId second = tracer.StartSpan("verify", root);
  SpanId shard = tracer.StartSpan("shard", first, Stability::kRuntime, 1);
  for (SpanId id : {shard, second, first, root}) tracer.EndSpan(id);

  std::string report = RunReportText(&tracer, nullptr);
  size_t candgen = report.find("    candgen");
  size_t sample = report.find("      shard");
  size_t verify = report.find("    verify");
  ASSERT_NE(candgen, std::string::npos) << report;
  ASSERT_NE(sample, std::string::npos) << report;
  ASSERT_NE(verify, std::string::npos) << report;
  EXPECT_LT(candgen, sample);
  EXPECT_LT(sample, verify);
}

}  // namespace
}  // namespace ssjoin::obs
