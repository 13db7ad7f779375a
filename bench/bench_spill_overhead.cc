// Spill overhead: the DESIGN.md Section 12 contract says the forced
// out-of-core join (SpillPolicy::kForced) produces byte-identical pairs
// and exactly-equal legacy stats to the in-memory join — the only things
// allowed to change are the spill_* accounting and wall-clock. This
// harness A/B-measures that price on the paper's synthetic equi-sized
// workload (50-element sets, 10000-element domain) at Scaled(100000)
// sets: the advisor-tuned PEN self-join runs alternately fully in memory
// (SpillPolicy::kDisabled, immune to the SSJOIN_SPILL env hook) and
// through the signature-hash-partitioned spill driver. Any output
// divergence exits nonzero; the best-of-reps times, the slowdown factor,
// and the spill traffic land in BENCH_spill_overhead.json (--json-out to
// override).
// --threads N measures the parallel drivers; --spill-partitions is
// inherited through the common flags' defaults (8 partitions).

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_schemes.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "util/timer.h"

using namespace ssjoin;
using namespace ssjoin::bench;

namespace {

constexpr int kReps = 3;

struct DriverRow {
  const char* driver;
  double in_memory_seconds = 0;
  double spilled_seconds = 0;
  JoinStats stats;        // of the in-memory reference
  JoinStats spill_stats;  // of the last spilled run (spill_* accounting)
  bool identical = false;

  double Slowdown() const {
    return in_memory_seconds > 0 ? spilled_seconds / in_memory_seconds
                                 : 0.0;
  }
};

template <typename JoinFn>
DriverRow MeasureDriver(const char* driver, const JoinFn& join) {
  DriverRow row;
  row.driver = driver;
  row.in_memory_seconds = 1e300;
  row.spilled_seconds = 1e300;
  // Untimed warmup (allocator steady state — see
  // bench_guardrail_overhead.cc) doubling as the comparison reference.
  JoinResult reference = join(SpillPolicy::kDisabled);
  row.stats = reference.stats;
  // Alternate which side runs first each rep so residual drift (cache,
  // allocator, page cache for the spill files) hits both equally; keep
  // the best of kReps.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      bool spilled_leg = (rep + leg) % 2 == 1;
      Stopwatch watch;
      JoinResult run = join(spilled_leg ? SpillPolicy::kForced
                                        : SpillPolicy::kDisabled);
      double seconds = watch.ElapsedSeconds();
      double& best =
          spilled_leg ? row.spilled_seconds : row.in_memory_seconds;
      best = std::min(best, seconds);

      if (!run.status.ok()) {
        std::fprintf(stderr, "error: %s join failed during %s: %s\n",
                     spilled_leg ? "spilled" : "in-memory", driver,
                     run.status.ToString().c_str());
        std::exit(1);
      }
      if (spilled_leg) row.spill_stats = run.stats;
      row.identical =
          run.pairs == reference.pairs &&
          run.stats.candidates == reference.stats.candidates &&
          run.stats.signature_collisions ==
              reference.stats.signature_collisions &&
          run.stats.results == reference.stats.results;
      if (!row.identical) {
        std::fprintf(stderr,
                     "error: %s %s output differs from the reference run\n",
                     spilled_leg ? "spilled" : "in-memory", driver);
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
               "  \"bench\": \"spill_overhead\",\n"
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
        "    {\"driver\": \"%s\", \"in_memory_seconds\": %.6f, "
        "\"spilled_seconds\": %.6f, \"slowdown_factor\": %.3f, "
        "\"spill_partitions\": %llu, \"spill_bytes_written\": %llu, "
        "\"spill_bytes_read\": %llu, "
        "\"candidates\": %llu, \"results\": %llu, "
        "\"output_identical\": %s}%s\n",
        r.driver, r.in_memory_seconds, r.spilled_seconds, r.Slowdown(),
        static_cast<unsigned long long>(r.spill_stats.spill_partitions),
        static_cast<unsigned long long>(r.spill_stats.spill_bytes_written),
        static_cast<unsigned long long>(r.spill_stats.spill_bytes_read),
        static_cast<unsigned long long>(r.stats.candidates),
        static_cast<unsigned long long>(r.stats.results),
        r.identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
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
  BenchRun run("spill_overhead", flags);
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
  auto sorted = [&](SpillPolicy policy) {
    JoinOptions options = base;
    options.spill.policy = policy;
    return run.SelfJoin(input, *made->scheme, predicate, options);
  };

  std::printf("--- Spill overhead: %s, n=%zu, gamma=%.1f, threads=%zu ---\n",
              made->label.c_str(), input.size(), gamma, threads);
  std::printf("%-12s %14s %14s %10s %12s %10s\n", "driver", "in_memory_s",
              "spilled_s", "slowdown", "spill_MiB", "identical");

  std::vector<DriverRow> rows;
  rows.push_back(MeasureDriver("sorted", sorted));
  for (const DriverRow& r : rows) {
    std::printf("%-12s %14.3f %14.3f %9.2fx %12.1f %10s\n", r.driver,
                r.in_memory_seconds, r.spilled_seconds, r.Slowdown(),
                r.spill_stats.spill_bytes_written / (1024.0 * 1024.0),
                r.identical ? "yes" : "NO");
  }

  std::string json = flags.json_out.empty() ? "BENCH_spill_overhead.json"
                                            : flags.json_out;
  if (!WriteJson(json, input.size(), threads, rows)) return 1;
  std::printf("wrote %s\n", json.c_str());
  return run.Finish() ? 0 : 1;
}
