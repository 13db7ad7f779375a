#include "obs/explain.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/export.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/stability.h"

namespace ssjoin::obs {

namespace {

using json::AppendBool;
using json::AppendDouble;
using json::AppendJsonString;
using json::AppendUint;

void AppendKeyString(std::string* out, std::string_view key,
                     std::string_view value) {
  *out += ",";
  AppendJsonString(out, key);
  *out += ":";
  AppendJsonString(out, value);
}

void AppendKeyUint(std::string* out, std::string_view key, uint64_t value) {
  *out += ",";
  AppendJsonString(out, key);
  *out += ":";
  AppendUint(out, value);
}

void AppendKeyDouble(std::string* out, std::string_view key, double value) {
  *out += ",";
  AppendJsonString(out, key);
  *out += ":";
  AppendDouble(out, value);
}

void AppendKeyBool(std::string* out, std::string_view key, bool value) {
  *out += ",";
  AppendJsonString(out, key);
  *out += ":";
  AppendBool(out, value);
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const AdvisorCandidate* AdvisorTrace::Chosen() const {
  for (const AdvisorCandidate& candidate : candidates) {
    if (candidate.chosen) return &candidate;
  }
  return nullptr;
}

double DriftEntry::Ratio() const {
  if (!has_predicted || !has_actual) return 0;
  if (actual == 0) {
    return predicted == 0 ? 1.0
                          : std::numeric_limits<double>::infinity();
  }
  return predicted / actual;
}

void ExplainReport::SetParam(std::string_view key, std::string_view value) {
  for (auto& [k, v] : params) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  params.emplace_back(std::string(key), std::string(value));
}

DriftEntry* ExplainReport::Find(std::string_view name) {
  for (DriftEntry& entry : drift) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const DriftEntry* ExplainReport::Find(std::string_view name) const {
  for (const DriftEntry& entry : drift) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

void ExplainReport::Predict(std::string_view name, double value) {
  DriftEntry* entry = Find(name);
  if (entry == nullptr) {
    drift.emplace_back();
    entry = &drift.back();
    entry->name = std::string(name);
  }
  entry->predicted += value;
  entry->has_predicted = true;
}

void ExplainReport::Actual(std::string_view name, double value) {
  DriftEntry* entry = Find(name);
  if (entry == nullptr) {
    drift.emplace_back();
    entry = &drift.back();
    entry->name = std::string(name);
  }
  entry->actual += value;
  entry->has_actual = true;
}

void AttachAdvisorTrace(ExplainReport* report, const AdvisorTrace& trace) {
  if (report == nullptr) return;
  AdvisorTrace& dest = report->advisor;
  dest.method = trace.method;
  dest.sample_size = trace.sample_size;
  dest.target_input_size = trace.target_input_size;
  dest.used_ams_sketch = trace.used_ams_sketch;
  dest.candidates.insert(dest.candidates.end(), trace.candidates.begin(),
                         trace.candidates.end());
  const AdvisorCandidate* chosen = trace.Chosen();
  if (chosen != nullptr) {
    report->Predict(names::kJoinSignatures, chosen->predicted_signatures);
    report->Predict(names::kJoinSignatureCollisions,
                    chosen->predicted_collisions);
    report->Predict(names::kJoinF2, chosen->predicted_f2);
  }
}

std::string ExplainJsonl(const ExplainReport& report) {
  std::string out;
  out += "{\"type\":\"explain\",\"mode\":";
  AppendJsonString(&out, report.mode);
  AppendKeyUint(&out, "joins", report.joins);
  if (!report.trip.empty()) AppendKeyString(&out, "trip", report.trip);
  out += "}\n";
  for (const auto& [key, value] : report.params) {
    out += "{\"type\":\"param\",\"key\":";
    AppendJsonString(&out, key);
    AppendKeyString(&out, "value", value);
    out += "}\n";
  }
  for (const PlanOp& op : report.plan) {
    out += "{\"type\":\"plan_op\",\"op\":";
    AppendJsonString(&out, op.op);
    if (!op.detail.empty()) AppendKeyString(&out, "detail", op.detail);
    AppendKeyUint(&out, "rows_in", op.rows_in);
    AppendKeyUint(&out, "rows_out", op.rows_out);
    out += "}\n";
  }
  const AdvisorTrace& advisor = report.advisor;
  if (!advisor.method.empty() || !advisor.candidates.empty()) {
    out += "{\"type\":\"advisor\",\"method\":";
    AppendJsonString(&out, advisor.method);
    AppendKeyUint(&out, "sample_size", advisor.sample_size);
    AppendKeyUint(&out, "target_input_size", advisor.target_input_size);
    AppendKeyBool(&out, "ams", advisor.used_ams_sketch);
    out += "}\n";
  }
  for (const AdvisorCandidate& candidate : advisor.candidates) {
    out += "{\"type\":\"advisor_candidate\",\"label\":";
    AppendJsonString(&out, candidate.label);
    AppendKeyUint(&out, "signatures_per_set", candidate.signatures_per_set);
    AppendKeyUint(&out, "sample_signatures", candidate.sample_signatures);
    AppendKeyDouble(&out, "sample_collisions", candidate.sample_collisions);
    AppendKeyDouble(&out, "predicted_signatures",
                    candidate.predicted_signatures);
    AppendKeyDouble(&out, "predicted_collisions",
                    candidate.predicted_collisions);
    AppendKeyDouble(&out, "predicted_f2", candidate.predicted_f2);
    AppendKeyBool(&out, "pruned", candidate.pruned);
    AppendKeyBool(&out, "chosen", candidate.chosen);
    out += "}\n";
  }
  for (const DriftEntry& entry : report.drift) {
    out += "{\"type\":\"drift\",\"name\":";
    AppendJsonString(&out, entry.name);
    if (entry.has_predicted) {
      AppendKeyDouble(&out, "predicted", entry.predicted);
    }
    if (entry.has_actual) AppendKeyDouble(&out, "actual", entry.actual);
    // Infinity is not valid JSON; an absent ratio marks a zero actual
    // (or a one-sided entry), which readers must treat as "no ratio".
    double ratio = entry.Ratio();
    if (entry.has_predicted && entry.has_actual && std::isfinite(ratio)) {
      AppendKeyDouble(&out, "ratio", ratio);
    }
    out += "}\n";
  }
  return out;
}

std::string ExplainText(const ExplainReport& report,
                        const MetricsRegistry* metrics) {
  std::string out;
  char buf[160];
  out += "EXPLAIN join (mode=" +
         (report.mode.empty() ? std::string("?") : report.mode) +
         ", joins=" + std::to_string(report.joins) + ")\n";
  if (!report.trip.empty()) {
    out += "  GUARD TRIP: " + report.trip + " (accounting is partial)\n";
  }
  if (!report.params.empty()) {
    out += "  parameters:\n";
    for (const auto& [key, value] : report.params) {
      out += "    " + key + " = " + value + "\n";
    }
  }
  if (!report.plan.empty()) {
    out += "  plan (executed stage chain, source first):\n";
    for (size_t i = 0; i < report.plan.size(); ++i) {
      const PlanOp& op = report.plan[i];
      std::snprintf(buf, sizeof(buf),
                    "    %s%s%s%s%s  rows_in=%llu rows_out=%llu "
                    "self=%.3fs\n",
                    std::string(2 * i, ' ').c_str(), i == 0 ? "" : "-> ",
                    op.op.c_str(), op.detail.empty() ? "" : " ",
                    op.detail.c_str(),
                    static_cast<unsigned long long>(op.rows_in),
                    static_cast<unsigned long long>(op.rows_out),
                    op.self_seconds);
      out += buf;
    }
  }
  const AdvisorTrace& advisor = report.advisor;
  if (!advisor.candidates.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "  advisor search (method=%s, sample=%llu sets, "
                  "target=%llu sets, collisions=%s):\n",
                  advisor.method.c_str(),
                  static_cast<unsigned long long>(advisor.sample_size),
                  static_cast<unsigned long long>(
                      advisor.target_input_size),
                  advisor.used_ams_sketch ? "ams" : "exact");
    out += buf;
    std::snprintf(buf, sizeof(buf), "    %-2s %-18s %10s %14s %14s %14s\n",
                  "", "setting", "sigs/set", "pred_sigs", "pred_coll",
                  "est_F2");
    out += buf;
    // A pruned row's figures are the lower bound at which the search
    // stopped scoring it, hence the ">" in front of its estimate.
    for (const AdvisorCandidate& candidate : advisor.candidates) {
      std::snprintf(buf, sizeof(buf),
                    "    %-2s %-18s %10llu %14s %14s %14s%s\n",
                    candidate.chosen ? "->" : "", candidate.label.c_str(),
                    static_cast<unsigned long long>(
                        candidate.signatures_per_set),
                    FormatDouble(candidate.predicted_signatures).c_str(),
                    FormatDouble(candidate.predicted_collisions).c_str(),
                    ((candidate.pruned ? ">" : "") +
                     FormatDouble(candidate.predicted_f2))
                        .c_str(),
                    candidate.pruned ? "  pruned" : "");
      out += buf;
    }
  }
  if (!report.drift.empty()) {
    out += "  drift (predicted / actual):\n";
    for (const DriftEntry& entry : report.drift) {
      std::string predicted =
          entry.has_predicted ? FormatDouble(entry.predicted) : "-";
      std::string actual =
          entry.has_actual ? FormatDouble(entry.actual) : "-";
      std::string ratio = (entry.has_predicted && entry.has_actual)
                              ? FormatDouble(entry.Ratio())
                              : "-";
      std::snprintf(buf, sizeof(buf),
                    "    %-26s predicted=%-12s actual=%-12s ratio=%s\n",
                    entry.name.c_str(), predicted.c_str(), actual.c_str(),
                    ratio.c_str());
      out += buf;
    }
  }
  // Bitmap pre-filter stage summary (derived from the drift actuals the
  // drivers record; both names are registered in obs/stability.h).
  double bitmap_checked = 0, bitmap_pruned = 0;
  for (const DriftEntry& entry : report.drift) {
    if (!entry.has_actual) continue;
    if (entry.name == "join.bitmap_filter_checked") {
      bitmap_checked = entry.actual;
    } else if (entry.name == "join.bitmap_filter_pruned") {
      bitmap_pruned = entry.actual;
    }
  }
  if (bitmap_checked > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  bitmap filter: checked=%.0f pruned=%.0f "
                  "prune_rate=%.1f%%\n",
                  bitmap_checked, bitmap_pruned,
                  100.0 * bitmap_pruned / bitmap_checked);
    out += buf;
  }
  out += "  runtime (excluded from the stable JSONL export):\n";
  std::snprintf(buf, sizeof(buf),
                "    siggen=%.3fs candpair=%.3fs postfilter=%.3fs\n",
                report.siggen_seconds, report.candpair_seconds,
                report.postfilter_seconds);
  out += buf;
  if (metrics != nullptr) {
    for (const MetricRecord& record : metrics->Snapshot()) {
      if (record.kind != MetricKind::kHistogram ||
          record.histogram_count == 0) {
        continue;
      }
      std::snprintf(
          buf, sizeof(buf),
          "    %s count=%llu p50<=%llu p95<=%llu p99<=%llu\n",
          record.name.c_str(),
          static_cast<unsigned long long>(record.histogram_count),
          static_cast<unsigned long long>(HistogramQuantile(record, 0.50)),
          static_cast<unsigned long long>(HistogramQuantile(record, 0.95)),
          static_cast<unsigned long long>(HistogramQuantile(record, 0.99)));
      out += buf;
    }
  }
  return out;
}

Status WriteExplainJsonl(const ExplainReport& report,
                         const std::string& path) {
  return WriteTextFile(path, ExplainJsonl(report));
}

}  // namespace ssjoin::obs
