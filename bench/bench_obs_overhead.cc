// Observability overhead: the DESIGN.md Section 8 contract says the
// null-sink default (JoinOptions::tracer == nullptr, ::metrics ==
// nullptr) must leave the join within noise (<2%) of a build with no
// telemetry at all, and attached sinks must not change the output. This
// harness measures both on the paper's synthetic equi-sized workload at
// Scaled(100000) sets: the advisor-tuned PEN self-join runs alternately
// with null sinks and with a live Tracer + MetricsRegistry, outputs
// byte-compared. The best-of-reps
// times and the overhead fraction land in BENCH_obs_overhead.json
// (--json-out to override); --threads N measures the parallel drivers.
//
// Note the roles are reversed relative to bench_guardrail_overhead: here
// the *instrumented* leg is the B side, so "overhead" reports what a run
// pays for turning telemetry on — the null-sink path itself is the
// baseline being defended.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_schemes.h"
#include "core/predicate.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/timer.h"

using namespace ssjoin;
using namespace ssjoin::bench;

namespace {

constexpr int kReps = 3;

struct DriverRow {
  const char* driver;
  double null_sink_seconds = 0;
  double instrumented_seconds = 0;
  JoinStats stats;
  bool identical = false;
  uint64_t spans = 0;

  double Overhead() const {
    return null_sink_seconds > 0
               ? instrumented_seconds / null_sink_seconds - 1.0
               : 0.0;
  }
};

// `join` runs one join with the given sinks (either may be null).
template <typename JoinFn>
DriverRow MeasureDriver(const char* driver, const JoinFn& join) {
  DriverRow row;
  row.driver = driver;
  row.null_sink_seconds = 1e300;
  row.instrumented_seconds = 1e300;
  // Untimed warmup: pushes the allocator into steady state (the first
  // join on a fresh heap runs >30% faster than steady state at this
  // size) and supplies the byte-comparison reference.
  JoinResult reference = join(nullptr, nullptr);
  row.stats = reference.stats;
  // Alternate which leg runs first each rep so residual drift hits both
  // equally; keep the best of kReps.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      bool instrumented = (rep + leg) % 2 == 1;
      obs::Tracer tracer;
      obs::MetricsRegistry metrics;
      Stopwatch watch;
      JoinResult run = join(instrumented ? &tracer : nullptr,
                            instrumented ? &metrics : nullptr);
      double seconds = watch.ElapsedSeconds();
      double& best = instrumented ? row.instrumented_seconds
                                  : row.null_sink_seconds;
      best = std::min(best, seconds);
      if (instrumented) row.spans = tracer.Snapshot().size();

      if (!run.status.ok()) {
        std::fprintf(stderr, "error: join failed during %s: %s\n", driver,
                     run.status.ToString().c_str());
        std::exit(1);
      }
      row.identical = run.pairs == reference.pairs &&
                      run.stats.candidates == reference.stats.candidates &&
                      run.stats.results == reference.stats.results;
      if (!row.identical) {
        std::fprintf(stderr,
                     "error: %s %s output differs from the reference run\n",
                     instrumented ? "instrumented" : "null-sink", driver);
        std::exit(1);
      }
    }
  }
  return row;
}

bool WriteJson(const std::string& path, size_t input_size, size_t threads,
               const std::vector<DriverRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"obs_overhead\",\n"
               "  \"workload\": \"synthetic_equisized\",\n"
               "  \"input_size\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"drivers\": [\n",
               input_size, threads, kReps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const DriverRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"driver\": \"%s\", \"null_sink_seconds\": %.6f, "
        "\"instrumented_seconds\": %.6f, \"overhead_fraction\": %.4f, "
        "\"spans\": %llu, \"candidates\": %llu, \"results\": %llu, "
        "\"output_identical\": %s}%s\n",
        r.driver, r.null_sink_seconds, r.instrumented_seconds, r.Overhead(),
        static_cast<unsigned long long>(r.spans),
        static_cast<unsigned long long>(r.stats.candidates),
        static_cast<unsigned long long>(r.stats.results),
        r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

// The PR-10 runtime stack: the B side attaches a MetricsRegistry (which
// also arms the per-operator pipeline.<op>.* instruments inside
// Plan::Run), a Logger writing to a discarded tmpfile, and a 50 ms
// progress heartbeat running for the whole join. Same discipline as
// MeasureDriver: untimed warmup supplies the reference, legs alternate,
// best-of-reps, outputs byte-compared.
template <typename JoinFn>
DriverRow MeasureRuntime(const char* driver, const JoinFn& join) {
  DriverRow row;
  row.driver = driver;
  row.null_sink_seconds = 1e300;
  row.instrumented_seconds = 1e300;
  JoinResult reference = join(nullptr);
  row.stats = reference.stats;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      bool instrumented = (rep + leg) % 2 == 1;
      JoinResult run;
      double seconds = 0;
      if (instrumented) {
        std::FILE* sink = std::tmpfile();
        if (sink == nullptr) {
          std::fprintf(stderr, "error: tmpfile failed\n");
          std::exit(1);
        }
        {
          obs::MetricsRegistry metrics;
          obs::Logger logger(sink);
          logger.BindMetrics(&metrics);
          obs::ProgressReporter progress(&logger, &metrics, nullptr,
                                         /*interval_ms=*/50);
          progress.Start();
          Stopwatch watch;
          run = join(&metrics);
          seconds = watch.ElapsedSeconds();
          progress.Stop();
          row.spans = progress.beats();
        }
        std::fclose(sink);  // ssjoin-lint: allow(no-unchecked-io)
      } else {
        Stopwatch watch;
        run = join(nullptr);
        seconds = watch.ElapsedSeconds();
      }
      double& best = instrumented ? row.instrumented_seconds
                                  : row.null_sink_seconds;
      best = std::min(best, seconds);

      if (!run.status.ok()) {
        std::fprintf(stderr, "error: join failed during %s: %s\n", driver,
                     run.status.ToString().c_str());
        std::exit(1);
      }
      row.identical = run.pairs == reference.pairs &&
                      run.stats.candidates == reference.stats.candidates &&
                      run.stats.results == reference.stats.results;
      if (!row.identical) {
        std::fprintf(stderr,
                     "error: %s %s output differs from the reference run\n",
                     instrumented ? "instrumented" : "null-sink", driver);
        std::exit(1);
      }
    }
  }
  return row;
}

bool WriteRuntimeJson(const std::string& path, size_t input_size,
                      size_t threads,
                      const std::vector<DriverRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"obs_runtime\",\n"
               "  \"workload\": \"synthetic_equisized\",\n"
               "  \"input_size\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"heartbeat_interval_ms\": 50,\n"
               "  \"drivers\": [\n",
               input_size, threads, kReps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const DriverRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"driver\": \"%s\", \"null_sink_seconds\": %.6f, "
        "\"runtime_seconds\": %.6f, \"overhead_fraction\": %.4f, "
        "\"heartbeats\": %llu, \"candidates\": %llu, "
        "\"results\": %llu, \"output_identical\": %s}%s\n",
        r.driver, r.null_sink_seconds, r.instrumented_seconds, r.Overhead(),
        static_cast<unsigned long long>(r.spans),
        static_cast<unsigned long long>(r.stats.candidates),
        static_cast<unsigned long long>(r.stats.results),
        r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  size_t threads = flags.threads_given ? flags.threads : 1;
  size_t n = Scaled(100000);
  SetCollection input = SyntheticSets(n);
  double gamma = 0.9;

  auto made = MakeJaccardScheme(Algo::kPartEnum, input, gamma);
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    return 1;
  }
  JaccardPredicate predicate(gamma);

  JoinOptions base;
  base.num_threads = threads;
  auto sorted = [&](obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    JoinRequest request;
    request.left = &input;
    request.scheme = made->scheme.get();
    request.predicate = &predicate;
    request.mode = ExecutionMode::kSelfJoin;
    request.options = base;
    request.options.tracer = tracer;
    request.options.metrics = metrics;
    return Join(request);
  };

  std::printf("--- Observability overhead: %s, n=%zu, gamma=%.1f, "
              "threads=%zu ---\n",
              made->label.c_str(), input.size(), gamma, threads);
  std::printf("%-12s %14s %14s %10s %8s %10s\n", "driver", "null_sink_s",
              "instrum_s", "overhead", "spans", "identical");

  std::vector<DriverRow> rows;
  rows.push_back(MeasureDriver("sorted", sorted));
  for (const DriverRow& r : rows) {
    std::printf("%-12s %14.3f %14.3f %9.2f%% %8llu %10s\n", r.driver,
                r.null_sink_seconds, r.instrumented_seconds,
                100 * r.Overhead(),
                static_cast<unsigned long long>(r.spans),
                r.identical ? "yes" : "NO");
  }

  std::string json =
      flags.json_out.empty() ? "BENCH_obs_overhead.json" : flags.json_out;
  if (!WriteJson(json, input.size(), threads, rows)) return 1;
  std::printf("wrote %s\n", json.c_str());

  // Second A/B: the full runtime stack (metrics + per-operator pipeline
  // instruments + structured log + 50 ms heartbeat) against the null
  // sink — the "<2% with a live heartbeat" acceptance number.
  auto sorted_m = [&](obs::MetricsRegistry* metrics) {
    JoinRequest request;
    request.left = &input;
    request.scheme = made->scheme.get();
    request.predicate = &predicate;
    request.mode = ExecutionMode::kSelfJoin;
    request.options = base;
    request.options.metrics = metrics;
    return Join(request);
  };

  std::printf("--- Runtime observability overhead (metrics + per-op "
              "instruments + log + 50ms heartbeat) ---\n");
  std::printf("%-12s %14s %14s %10s %8s %10s\n", "driver", "null_sink_s",
              "runtime_s", "overhead", "beats", "identical");
  std::vector<DriverRow> runtime_rows;
  runtime_rows.push_back(MeasureRuntime("sorted", sorted_m));
  for (const DriverRow& r : runtime_rows) {
    std::printf("%-12s %14.3f %14.3f %9.2f%% %8llu %10s\n", r.driver,
                r.null_sink_seconds, r.instrumented_seconds,
                100 * r.Overhead(),
                static_cast<unsigned long long>(r.spans),
                r.identical ? "yes" : "NO");
  }
  std::string runtime_json = "BENCH_obs_runtime.json";
  if (!flags.json_out.empty()) {
    // Derive a sibling name so --json-out runs keep both artifacts.
    size_t dot = flags.json_out.rfind(".json");
    runtime_json = dot == std::string::npos
                       ? flags.json_out + "_runtime"
                       : flags.json_out.substr(0, dot) + "_runtime.json";
  }
  if (!WriteRuntimeJson(runtime_json, input.size(), threads, runtime_rows)) {
    return 1;
  }
  std::printf("wrote %s\n", runtime_json.c_str());
  return 0;
}
