// Structured, leveled JSONL logging (DESIGN.md Section 14).
//
// One Logger writes one JSON object per line to a FILE* sink — a path it
// owns or a borrowed stream (stderr, a test pipe). Records are flat:
// timestamp, sequence number, level, event name, then the call's typed
// fields. The event name is part of the telemetry vocabulary
// (obs/stability.h; the telemetry-registry lint checks Log()/LogEvent()
// call sites), so log streams, traces and metrics agree on naming.
//
// Contracts:
//
//   * Thread-safe: one internal util::Mutex serializes formatting and
//     the write, so concurrent records never interleave bytes. Level
//     filtering is a lock-free atomic read — a suppressed record costs
//     one load and never formats anything.
//   * Null-sink: instrumented code logs through the null-safe LogEvent()
//     seam; a null Logger* costs one pointer compare — no allocation,
//     no clock read (same contract as obs/join_telemetry.h, enforced by
//     tests/obs/null_sink_alloc_test.cc).
//   * Deterministic in tests: the clock is injectable
//     (LoggerOptions::clock returns microseconds); with a scripted clock
//     and a fixed sequence of calls the emitted bytes are reproducible.
//     The default clock is the system wall clock — log records are for
//     humans and log shippers, not for the byte-diffed deterministic
//     exports (those stay in obs/export.h).
//
// The level vocabulary is the conventional four: debug < info < warn <
// error. Runtime diagnostics from the join paths go through here; the
// one exception is WtEnum's budget-overflow warning, which has no
// Logger in reach and prints to stderr directly.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace ssjoin::obs {

class MetricsRegistry;
class Counter;

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Stable lowercase name ("debug", "info", "warn", "error").
std::string_view LogLevelName(LogLevel level);

/// Parses a level name (the --log-level flag). Returns false (and leaves
/// `*out` untouched) for anything but the four names above.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// One typed key/value of a log record. Keys and string values are
/// borrowed string_views: they must outlive the Log() call (string
/// literals and registered names:: constants always do).
struct LogField {
  enum class Kind { kUint, kInt, kDouble, kBool, kString };

  LogField(std::string_view key, uint64_t value)
      : key(key), kind(Kind::kUint), u(value) {}
  LogField(std::string_view key, int64_t value)
      : key(key), kind(Kind::kInt), i(value) {}
  LogField(std::string_view key, int value)
      : LogField(key, static_cast<int64_t>(value)) {}
  LogField(std::string_view key, unsigned value)
      : LogField(key, static_cast<uint64_t>(value)) {}
  LogField(std::string_view key, double value)
      : key(key), kind(Kind::kDouble), d(value) {}
  LogField(std::string_view key, bool value)
      : key(key), kind(Kind::kBool), b(value) {}
  LogField(std::string_view key, std::string_view value)
      : key(key), kind(Kind::kString), s(value) {}
  LogField(std::string_view key, const char* value)
      : LogField(key, std::string_view(value)) {}

  std::string_view key;
  Kind kind = Kind::kUint;
  uint64_t u = 0;
  int64_t i = 0;
  double d = 0;
  bool b = false;
  std::string_view s;
};

struct LoggerOptions {
  /// Records below this level are dropped before formatting.
  LogLevel min_level = LogLevel::kInfo;
  /// Microsecond timestamp source for the "ts_us" field. Null = the
  /// system wall clock. Tests inject a scripted clock for byte-stable
  /// output.
  std::function<int64_t()> clock;
};

class Logger {
 public:
  /// Logs to a borrowed stream (never closed); `sink` must outlive the
  /// Logger. The stderr constructor for CLI diagnostics.
  explicit Logger(std::FILE* sink, LoggerOptions options = {});
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Opens `path` for appending and owns the stream (closed on
  /// destruction). IOError when the file cannot be opened.
  static Result<std::unique_ptr<Logger>> Open(const std::string& path,
                                              LoggerOptions options = {});

  /// Lock-free level check — the guard for callers that would do work
  /// just to build fields.
  bool ShouldLog(LogLevel level) const {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  /// Emits one record:
  ///   {"ts_us":..,"seq":..,"level":"..","event":"..",<fields>}
  /// `event` must be a registered name (obs/stability.h). Suppressed
  /// levels return after the ShouldLog() load.
  void Log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields = {})
      SSJOIN_EXCLUDES(mutex_) {
    Log(level, event, fields.begin(), fields.size());
  }

  /// Same, with a dynamically built field array (the heartbeat renders
  /// one field per live metric).
  void Log(LogLevel level, std::string_view event, const LogField* fields,
           size_t num_fields) SSJOIN_EXCLUDES(mutex_);

  /// Re-aims the level filter (thread-safe; takes effect immediately).
  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  /// Publishes per-level line counts as log.lines.<level> counters (and
  /// failed writes as log.write_errors). Not owned; nullptr detaches.
  void BindMetrics(MetricsRegistry* metrics) SSJOIN_EXCLUDES(mutex_);

  /// Records emitted (post-filter) since construction.
  uint64_t lines() const { return lines_.load(std::memory_order_relaxed); }

  void Flush() SSJOIN_EXCLUDES(mutex_);

 private:
  void WriteLine(const std::string& line) SSJOIN_REQUIRES(mutex_);

  std::atomic<int> min_level_;
  std::atomic<uint64_t> lines_{0};

  mutable util::Mutex mutex_;
  std::FILE* sink_ SSJOIN_GUARDED_BY(mutex_);
  bool owns_sink_ SSJOIN_GUARDED_BY(mutex_) = false;
  uint64_t seq_ SSJOIN_GUARDED_BY(mutex_) = 0;
  std::function<int64_t()> clock_ SSJOIN_GUARDED_BY(mutex_);
  /// Per-level emit counters + write-error counter, cached on
  /// BindMetrics so Log() never takes the registry mutex.
  Counter* level_counters_[4] SSJOIN_GUARDED_BY(mutex_) = {};
  Counter* write_errors_ SSJOIN_GUARDED_BY(mutex_) = nullptr;
};

/// Null-safe emission seam for instrumented code (core/spill/CLI): a
/// null logger costs one pointer compare, mirroring the Record* explain
/// seams.
inline void LogEvent(Logger* logger, LogLevel level, std::string_view event,
                     std::initializer_list<LogField> fields = {}) {
  if (logger != nullptr) logger->Log(level, event, fields);
}

}  // namespace ssjoin::obs
