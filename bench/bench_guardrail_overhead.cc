// Guardrail overhead: the DESIGN.md Section 7 contract says an attached
// ExecutionGuard that never trips must leave the join output
// byte-identical AND cost (acceptance: <2%) extra wall-clock. This
// harness measures exactly that on the paper's synthetic equi-sized
// workload (50-element sets, 10000-element domain) at Scaled(100000)
// sets: the advisor-tuned PEN self-join runs alternately without a guard
// and with a fully-armed guard (deadline + memory budget + breaker all
// active, limits generous enough never to trip), for both the sorted and
// the pipelined driver. Outputs are byte-compared; the best-of-reps
// times and the overhead fraction are printed, and also written as JSON
// with `--json-out PATH`. --threads N
// measures the parallel drivers; --deadline-ms / --memory-budget-mb /
// --max-candidate-ratio override the guard's (never-tripping) limits.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_schemes.h"
#include "core/execution_guard.h"
#include "core/predicate.h"
#include "util/timer.h"

using namespace ssjoin;
using namespace ssjoin::bench;

namespace {

constexpr int kReps = 3;

struct DriverRow {
  const char* driver;
  double unguarded_seconds = 0;
  double guarded_seconds = 0;
  JoinStats stats;
  bool identical = false;

  double Overhead() const {
    return unguarded_seconds > 0
               ? guarded_seconds / unguarded_seconds - 1.0
               : 0.0;
  }
};

template <typename JoinFn>
DriverRow MeasureDriver(const char* driver, const JoinFn& join,
                        const ExecutionBudget& budget) {
  DriverRow row;
  row.driver = driver;
  row.unguarded_seconds = 1e300;
  row.guarded_seconds = 1e300;
  // Untimed warmup. The first join in a fresh heap runs measurably
  // faster than steady state (the allocator hands out pristine pages;
  // later runs walk freelists the earlier index/posting churn left
  // behind) — at 100k sets the gap is >30%, dwarfing what is being
  // measured. The warmup pushes the allocator into steady state so both
  // sides sample the same regime; it also supplies the byte-comparison
  // reference.
  JoinResult reference = join(nullptr);
  row.stats = reference.stats;
  // Alternate which side runs first each rep so any residual drift
  // (cache, allocator, clock) hits both equally; keep the best of kReps.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      bool guarded_leg = (rep + leg) % 2 == 1;
      ExecutionGuard guard(budget);
      Stopwatch watch;
      JoinResult run = join(guarded_leg ? &guard : nullptr);
      double seconds = watch.ElapsedSeconds();
      double& best = guarded_leg ? row.guarded_seconds
                                 : row.unguarded_seconds;
      best = std::min(best, seconds);

      if (!run.status.ok()) {
        std::fprintf(stderr, "error: guard tripped during %s: %s\n",
                     driver, run.status.ToString().c_str());
        std::exit(1);
      }
      row.identical = run.pairs == reference.pairs &&
                      run.stats.candidates == reference.stats.candidates &&
                      run.stats.results == reference.stats.results;
      if (!row.identical) {
        std::fprintf(stderr,
                     "error: %s %s output differs from the reference run\n",
                     guarded_leg ? "guarded" : "unguarded", driver);
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
               "  \"bench\": \"guardrail_overhead\",\n"
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
        "    {\"driver\": \"%s\", \"unguarded_seconds\": %.6f, "
        "\"guarded_seconds\": %.6f, \"overhead_fraction\": %.4f, "
        "\"candidates\": %llu, \"results\": %llu, "
        "\"output_identical\": %s}%s\n",
        r.driver, r.unguarded_seconds, r.guarded_seconds, r.Overhead(),
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
  BenchRun run("guardrail_overhead", flags);
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

  // Every guardrail is ACTIVE (so its checks run on the hot path) with
  // limits no healthy run can hit; flags may substitute real limits.
  ExecutionBudget budget = flags.budget;
  if (budget.deadline_ms == 0) budget.deadline_ms = 60 * 60 * 1000;
  if (budget.memory_budget_bytes == 0) {
    budget.memory_budget_bytes = size_t{64} << 30;
  }
  if (budget.max_candidate_ratio == 0) budget.max_candidate_ratio = 1e12;

  JoinOptions base;
  base.num_threads = threads;
  auto sorted = [&](ExecutionGuard* guard) {
    JoinOptions options = base;
    options.guard = guard;
    return run.SelfJoin(input, *made->scheme, predicate, options);
  };
  auto pipelined = [&](ExecutionGuard* guard) {
    JoinOptions options = base;
    options.guard = guard;
    return run.Pipelined(input, *made->scheme, predicate, options);
  };

  std::printf("--- Guardrail overhead: %s, n=%zu, gamma=%.1f, threads=%zu "
              "---\n",
              made->label.c_str(), input.size(), gamma, threads);
  std::printf("%-12s %14s %14s %10s %10s\n", "driver", "unguarded_s",
              "guarded_s", "overhead", "identical");

  std::vector<DriverRow> rows;
  rows.push_back(MeasureDriver("sorted", sorted, budget));
  rows.push_back(MeasureDriver("pipelined", pipelined, budget));
  for (const DriverRow& r : rows) {
    std::printf("%-12s %14.3f %14.3f %9.2f%% %10s\n", r.driver,
                r.unguarded_seconds, r.guarded_seconds, 100 * r.Overhead(),
                r.identical ? "yes" : "NO");
  }

  if (!flags.json_out.empty()) {
    if (!WriteJson(flags.json_out, input.size(), threads, rows)) return 1;
    std::printf("wrote %s\n", flags.json_out.c_str());
  }
  return run.Finish() ? 0 : 1;
}
