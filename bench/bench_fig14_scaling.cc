// Figure 14: scaling on the synthetic equi-sized workload (50-element
// sets, 10000-element domain).
//   (a), (b): log-log F2 vs input size at gamma = 0.9 and 0.8. Expected
//   shape: slope ~1 for PEN and LSH (near-linear), ~2 for PF (quadratic).
//   (c): F2 vs gamma at the mid input size for LSH(0.95), LSH(0.99), PEN.
//
// Equi-sized sets need no size-based filtering — as in the paper, PEN
// here is the plain hamming PartEnum after the equi-sized jaccard ->
// hamming reduction (Section 5 first paragraph), with (n1, n2) re-tuned
// by the advisor at every input size (the Table 1 methodology; a *fixed*
// setting would scale quadratically, Section 4.3).

// With --threads N the harness instead measures the parallel-execution
// trajectory: the same equi-sized PEN join at n = Scaled(100000), run at
// 1, 2, 4, ... up to N threads, outputs byte-compared against the serial
// run, and the per-phase times + speedups printed; `--json-out PATH`
// also writes them as JSON for machine-readable diffs. (The repo's
// end-to-end and per-operator numbers come from bench/profile.)

#include "bench_common.h"
#include "bench_schemes.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ssjoin;
using namespace ssjoin::bench;

namespace {

// Equi-sized PEN: hamming PartEnum at k = 2*50*(1-g)/(1+g), advisor-tuned
// for this input size. `explain` (optional) captures the advisor search.
Result<SchemeUnderTest> MakeEquisizedPen(const SetCollection& input,
                                         double gamma,
                                         obs::ExplainReport* explain =
                                             nullptr) {
  uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(50, gamma);
  obs::AdvisorTrace trace;
  AdvisorOptions advisor;
  advisor.sample_size = 2000;
  advisor.max_signatures_per_set = 512;
  if (explain != nullptr) advisor.trace = &trace;
  auto choice = ChoosePartEnumParams(input, k, input.size(), advisor);
  obs::AttachAdvisorTrace(explain, trace);
  PartEnumParams params =
      choice.ok() ? choice->params : PartEnumParams::Default(k);
  auto scheme = PartEnumScheme::Create(params);
  if (!scheme.ok()) return scheme.status();
  SchemeUnderTest out;
  out.scheme = std::make_shared<PartEnumScheme>(std::move(scheme).value());
  char label[48];
  std::snprintf(label, sizeof(label), "PEN(%u,%u)", params.n1, params.n2);
  out.label = label;
  return out;
}

// For each algorithm, joins at every size and returns the F2 series.
void RunScalingSeries(BenchRun& run, double gamma) {
  std::vector<size_t> sizes = {Scaled(1000), Scaled(2000), Scaled(4000),
                               Scaled(8000), Scaled(16000)};
  std::printf("--- Figure 14 (%s): F2 vs input size, gamma=%.1f ---\n",
              gamma >= 0.9 ? "a" : "b", gamma);
  std::printf("%-10s %-14s %-14s %-14s\n", "size", "PEN", "LSH(0.95)",
              "PF");
  std::vector<double> xs, pen_f2, lsh_f2, pf_f2;
  for (size_t size : sizes) {
    SetCollection input = SyntheticSets(size);
    JaccardPredicate predicate(gamma);
    double row[3] = {0, 0, 0};
    {
      auto made = MakeEquisizedPen(input, gamma);
      if (made.ok()) {
        row[0] = static_cast<double>(
            run.SelfJoin(input, *made->scheme, predicate).stats.F2());
      }
    }
    int col = 1;
    for (Algo algo : {Algo::kLsh, Algo::kPrefixFilter}) {
      auto made = MakeJaccardScheme(algo, input, gamma);
      if (made.ok()) {
        JoinResult result =
            run.SelfJoin(input, *made->scheme, predicate);
        row[col] = static_cast<double>(result.stats.F2());
      }
      ++col;
    }
    xs.push_back(static_cast<double>(input.size()));
    pen_f2.push_back(row[0]);
    lsh_f2.push_back(row[1]);
    pf_f2.push_back(row[2]);
    std::printf("%-10zu %-14.3g %-14.3g %-14.3g\n", size, row[0], row[1],
                row[2]);
    std::fflush(stdout);  // ssjoin-lint: allow(no-unchecked-io) progress display
  }
  std::printf(
      "log-log slopes: PEN=%.2f LSH=%.2f PF=%.2f   "
      "(paper: ~1, ~1, ~2)\n\n",
      LogLogSlope(xs, pen_f2), LogLogSlope(xs, lsh_f2),
      LogLogSlope(xs, pf_f2));
}

void RunGammaSweep(BenchRun& run) {
  size_t size = Scaled(10000);
  SetCollection input = SyntheticSets(size);
  std::printf(
      "--- Figure 14 (c): F2 vs similarity threshold, %zu sets ---\n",
      input.size());
  std::printf("%-8s %-14s %-14s %-14s\n", "gamma", "LSH(0.95)",
              "LSH(0.99)", "PEN");
  for (double gamma : {0.95, 0.9, 0.85, 0.8}) {
    JaccardPredicate predicate(gamma);
    double values[3] = {0, 0, 0};
    {
      auto made = MakeJaccardScheme(Algo::kLsh, input, gamma, 0.05);
      if (made.ok()) {
        values[0] = static_cast<double>(
            run.SelfJoin(input, *made->scheme, predicate).stats.F2());
      }
    }
    {
      auto made = MakeJaccardScheme(Algo::kLsh, input, gamma, 0.01);
      if (made.ok()) {
        values[1] = static_cast<double>(
            run.SelfJoin(input, *made->scheme, predicate).stats.F2());
      }
    }
    {
      auto made = MakeEquisizedPen(input, gamma);
      if (made.ok()) {
        values[2] = static_cast<double>(
            run.SelfJoin(input, *made->scheme, predicate).stats.F2());
      }
    }
    std::printf("%-8.2f %-14.3g %-14.3g %-14.3g\n", gamma, values[0],
                values[1], values[2]);
    std::fflush(stdout);  // ssjoin-lint: allow(no-unchecked-io) progress display
  }
  std::printf(
      "(paper: PEN cost rises steeply as gamma decreases; LSH(0.99) costs\n"
      " more than LSH(0.95) across the board)\n");
}

// Thread-scaling trajectory on the Figure-14 workload (see file header).
int RunParallelScaling(BenchRun& run, const BenchFlags& flags) {
  size_t max_threads = ResolveThreadCount(flags.threads);
  size_t n = Scaled(100000);
  double gamma = 0.9;
  std::printf(
      "=== Parallel scaling: Figure-14 workload, %zu sets, gamma=%.1f "
      "===\n\n",
      n, gamma);
  SetCollection input = SyntheticSets(n);
  auto made = MakeEquisizedPen(input, gamma, run.explain());
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    return 1;
  }
  JaccardPredicate predicate(gamma);

  std::vector<size_t> grid = {1};
  for (size_t t = 2; t < max_threads; t *= 2) grid.push_back(t);
  if (max_threads > 1) grid.push_back(max_threads);

  PrintTimeHeader();
  std::vector<ScalingPoint> points;
  std::vector<SetPair> reference;
  for (size_t threads : grid) {
    JoinOptions options;
    options.num_threads = threads;
    Stopwatch watch;
    JoinResult result =
        run.SelfJoin(input, *made->scheme, predicate, options);
    ScalingPoint point;
    point.threads = threads;
    point.wall_seconds = watch.ElapsedSeconds();
    point.stats = result.stats;
    points.push_back(point);
    char label[48];
    std::snprintf(label, sizeof(label), "%s/t=%zu", made->label.c_str(),
                  threads);
    PrintTimeRow(n, "0.90", label, result.stats);
    if (threads == 1) {
      reference = std::move(result.pairs);
    } else if (result.pairs != reference) {
      std::printf("!! output at %zu threads DIVERGES from serial\n",
                  threads);
      return 1;
    }
  }

  double baseline = points.front().wall_seconds;
  std::printf("\nspeedup vs 1 thread:");
  for (const ScalingPoint& p : points) {
    std::printf("  t=%zu: %.2fx", p.threads,
                p.wall_seconds > 0 ? baseline / p.wall_seconds : 0.0);
  }
  std::printf("\n");

  if (flags.json_out.empty()) return 0;
  if (!WriteParallelScalingJson(flags.json_out,
                                "fig14-synthetic-equisized-pen", n, points)) {
    return 1;
  }
  std::printf("trajectory written to %s\n", flags.json_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  BenchRun run("fig14_scaling", flags);
  if (flags.threads_given) {
    int rc = RunParallelScaling(run, flags);
    if (!run.Finish()) return 1;
    return rc;
  }
  std::printf("=== Figure 14: scaling, synthetic equi-sized data ===\n\n");
  RunScalingSeries(run, 0.9);
  RunScalingSeries(run, 0.8);
  RunGammaSweep(run);
  return run.Finish() ? 0 : 1;
}
