#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json_util.h"

namespace ssjoin::obs {

namespace {

using json::AppendDouble;
using json::AppendEscaped;
using json::AppendInt;
using json::AppendJsonString;
using json::AppendUint;

void AppendAttrValue(std::string* out, const AttrValue& value) {
  switch (value.kind) {
    case AttrValue::Kind::kUint:
      AppendUint(out, value.u);
      break;
    case AttrValue::Kind::kDouble:
      AppendDouble(out, value.d);
      break;
    case AttrValue::Kind::kString:
      AppendJsonString(out, value.s);
      break;
  }
}

void AppendAttrs(std::string* out, const SpanRecord& span) {
  *out += "{";
  bool first = true;
  for (const auto& [key, value] : span.attrs) {
    if (!first) *out += ",";
    first = false;
    AppendJsonString(out, key);
    *out += ":";
    AppendAttrValue(out, value);
  }
  *out += "}";
}

void AppendEvents(std::string* out, const SpanRecord& span,
                  bool with_times) {
  *out += "[";
  for (size_t i = 0; i < span.events.size(); ++i) {
    const SpanEvent& event = span.events[i];
    if (i > 0) *out += ",";
    *out += "{\"name\":";
    AppendJsonString(out, event.name);
    *out += ",\"detail\":";
    AppendJsonString(out, event.detail);
    if (with_times) {
      *out += ",\"at_us\":";
      AppendInt(out, event.at_us);
    }
    *out += "}";
  }
  *out += "]";
}

}  // namespace

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return Status::IOError("cannot open " + path);
  size_t written = std::fwrite(content.data(), 1, content.size(), out);
  int close_failed = std::fclose(out);
  if (written != content.size() || close_failed != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

std::string TraceJsonl(const Tracer& tracer) {
  std::vector<SpanRecord> spans = tracer.Snapshot();
  // Re-number over the stable subset so runtime spans (whose creation
  // order may interleave arbitrarily) cannot perturb the ids.
  std::unordered_map<SpanId, uint32_t> stable_id;
  uint32_t next = 1;
  for (const SpanRecord& span : spans) {
    if (span.stability == Stability::kStable) stable_id[span.id] = next++;
  }
  std::string out;
  for (const SpanRecord& span : spans) {
    if (span.stability != Stability::kStable) continue;
    auto parent = stable_id.find(span.parent);
    out += "{\"type\":\"span\",\"id\":";
    AppendUint(&out, stable_id[span.id]);
    out += ",\"parent\":";
    AppendUint(&out, parent == stable_id.end() ? 0 : parent->second);
    out += ",\"name\":";
    AppendJsonString(&out, span.name);
    out += ",\"attrs\":";
    AppendAttrs(&out, span);
    out += ",\"events\":";
    AppendEvents(&out, span, /*with_times=*/false);
    out += "}\n";
  }
  return out;
}

std::string MetricsJsonl(const MetricsRegistry& metrics) {
  std::string out;
  for (const MetricRecord& record : metrics.Snapshot()) {
    if (record.stability != Stability::kStable) continue;
    switch (record.kind) {
      case MetricKind::kCounter:
        out += "{\"type\":\"counter\",\"name\":";
        AppendJsonString(&out, record.name);
        out += ",\"value\":";
        AppendUint(&out, record.counter_value);
        break;
      case MetricKind::kGauge:
        out += "{\"type\":\"gauge\",\"name\":";
        AppendJsonString(&out, record.name);
        out += ",\"value\":";
        AppendDouble(&out, record.gauge_value);
        break;
      case MetricKind::kHistogram:
        out += "{\"type\":\"histogram\",\"name\":";
        AppendJsonString(&out, record.name);
        out += ",\"count\":";
        AppendUint(&out, record.histogram_count);
        out += ",\"sum\":";
        AppendUint(&out, record.histogram_sum);
        out += ",\"buckets\":[";
        for (size_t i = 0; i < record.histogram_buckets.size(); ++i) {
          if (i > 0) out += ",";
          out += "[";
          AppendUint(&out, record.histogram_buckets[i].first);
          out += ",";
          AppendUint(&out, record.histogram_buckets[i].second);
          out += "]";
        }
        out += "]";
        break;
    }
    out += "}\n";
  }
  return out;
}

std::string ChromeTraceJson(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (!first) out += ",";
    first = false;
    // Complete ("X") events; a still-open span renders with dur 0.
    int64_t dur = span.end_us >= 0 ? span.end_us - span.start_us : 0;
    out += "\n{\"name\":";
    AppendJsonString(&out, span.name);
    out += ",\"cat\":";
    AppendJsonString(&out, span.stability == Stability::kStable
                               ? "stable"
                               : "runtime");
    out += ",\"ph\":\"X\",\"pid\":0,\"tid\":";
    AppendUint(&out, span.lane);
    out += ",\"ts\":";
    AppendInt(&out, span.start_us);
    out += ",\"dur\":";
    AppendInt(&out, dur);
    out += ",\"args\":";
    AppendAttrs(&out, span);
    out += "}";
    for (const SpanEvent& event : span.events) {
      out += ",\n{\"name\":";
      AppendJsonString(&out, event.name);
      out += ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,"
             "\"tid\":";
      AppendUint(&out, span.lane);
      out += ",\"ts\":";
      AppendInt(&out, event.at_us);
      out += ",\"args\":{\"detail\":";
      AppendJsonString(&out, event.detail);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::string RunReportText(const Tracer* tracer,
                          const MetricsRegistry* metrics) {
  std::string out;
  if (tracer != nullptr) {
    std::vector<SpanRecord> spans = tracer->Snapshot();
    // Depth-first, children in creation order: a join's stage spans all
    // open before its first stage runs, so a sample span starts after its
    // stage's later siblings and creation order alone would misplace
    // it. Span ids are creation index + 1 (0 = no parent); a parent id
    // not created before its child (one dropped by Tracer::Reset) reads
    // as a root.
    std::vector<std::vector<size_t>> children(spans.size() + 1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanId parent = spans[i].parent;
      children[parent < spans[i].id ? parent : kNoSpan].push_back(i);
    }
    std::vector<std::pair<size_t, uint32_t>> pending;  // (index, depth)
    for (auto it = children[kNoSpan].rbegin(); it != children[kNoSpan].rend();
         ++it) {
      pending.emplace_back(*it, 0);
    }
    out += "spans:\n";
    while (!pending.empty()) {
      const auto [index, d] = pending.back();
      pending.pop_back();
      const SpanRecord& span = spans[index];
      for (auto it = children[span.id].rbegin();
           it != children[span.id].rend(); ++it) {
        pending.emplace_back(*it, d + 1);
      }
      out += "  ";
      out.append(2 * d, ' ');
      out += span.name;
      char buf[64];
      if (span.end_us >= 0) {
        std::snprintf(buf, sizeof(buf), "  %.3f ms",
                      (span.end_us - span.start_us) / 1000.0);
        out += buf;
      } else {
        out += "  (open)";
      }
      if (span.stability == Stability::kRuntime) out += "  [runtime]";
      for (const auto& [key, value] : span.attrs) {
        out += "  " + key + "=";
        AppendAttrValue(&out, value);
      }
      out += "\n";
      for (const SpanEvent& event : span.events) {
        out += "  ";
        out.append(2 * d + 2, ' ');
        out += "! " + event.name;
        if (!event.detail.empty()) out += ": " + event.detail;
        out += "\n";
      }
    }
  }
  if (metrics != nullptr) {
    out += "metrics:\n";
    for (const MetricRecord& record : metrics->Snapshot()) {
      out += "  " + record.name + " = ";
      switch (record.kind) {
        case MetricKind::kCounter:
          AppendUint(&out, record.counter_value);
          break;
        case MetricKind::kGauge:
          AppendDouble(&out, record.gauge_value);
          break;
        case MetricKind::kHistogram: {
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "count=%" PRIu64 " sum=%" PRIu64 " mean=%.1f",
                        record.histogram_count, record.histogram_sum,
                        record.histogram_count > 0
                            ? static_cast<double>(record.histogram_sum) /
                                  static_cast<double>(
                                      record.histogram_count)
                            : 0.0);
          out += buf;
          break;
        }
      }
      if (record.stability == Stability::kRuntime) out += "  [runtime]";
      out += "\n";
    }
  }
  return out;
}

Status WriteTraceJsonl(const Tracer& tracer, const std::string& path) {
  return WriteTextFile(path, TraceJsonl(tracer));
}

Status WriteMetricsJsonl(const MetricsRegistry& metrics,
                         const std::string& path) {
  return WriteTextFile(path, MetricsJsonl(metrics));
}

Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  return WriteTextFile(path, ChromeTraceJson(tracer));
}

Status WriteJsonlReport(const Tracer* tracer,
                        const MetricsRegistry* metrics,
                        const std::string& path) {
  std::string content;
  if (tracer != nullptr) content += TraceJsonl(*tracer);
  if (metrics != nullptr) content += MetricsJsonl(*metrics);
  return WriteTextFile(path, content);
}

Status WriteTraceAuto(const Tracer& tracer, const std::string& path) {
  constexpr std::string_view kJsonl = ".jsonl";
  if (path.size() >= kJsonl.size() &&
      path.compare(path.size() - kJsonl.size(), kJsonl.size(), kJsonl) ==
          0) {
    return WriteTraceJsonl(tracer, path);
  }
  return WriteChromeTrace(tracer, path);
}

}  // namespace ssjoin::obs
