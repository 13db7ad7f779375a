// Supporting experiment: execution strategies for the same Figure-2
// outline. The paper argues engineering details (indexing, pipelining,
// DBMS-vs-custom) are "mostly orthogonal to the high-level outline" —
// here the in-memory sorted plan, the forced out-of-core (spilled) plan,
// and a binary (R x S) join run the same PartEnum scheme; the two
// self-join plans must agree on output and on the
// implementation-independent measures (signatures, collisions,
// candidates) while differing only in wall time.

// Pass --threads N to additionally run every strategy at N workers: the
// parallel rows must reproduce the serial output and counters exactly
// (the determinism contract of DESIGN.md Section 6), differing only in
// wall time.

#include "bench_common.h"
#include "bench_schemes.h"
#include "core/predicate.h"
#include "util/thread_pool.h"

using namespace ssjoin;
using namespace ssjoin::bench;

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  BenchRun run("execution_strategies", flags);
  size_t threads =
      flags.threads_given ? ResolveThreadCount(flags.threads) : 1;
  std::printf(
      "=== Execution strategies: sorted vs spilled vs binary ===\n\n");
  PrintTimeHeader();
  JoinOptions forced_spill;
  forced_spill.spill.policy = SpillPolicy::kForced;
  for (size_t size : {Scaled(5000), Scaled(20000)}) {
    SetCollection input = AddressTokenSets(size);
    for (double gamma : {0.9, 0.8}) {
      auto made = MakeJaccardScheme(Algo::kPartEnum, input, gamma);
      if (!made.ok()) continue;
      JaccardPredicate predicate(gamma);
      char threshold[16];
      std::snprintf(threshold, sizeof(threshold), "%.2f", gamma);

      JoinResult sorted =
          run.SelfJoin(input, *made->scheme, predicate, JoinOptions{});
      PrintTimeRow(size, threshold, "self/sorted", sorted.stats);
      JoinResult spilled =
          run.SelfJoin(input, *made->scheme, predicate, forced_spill);
      PrintTimeRow(size, threshold, "self/spilled", spilled.stats);
      if (sorted.pairs != spilled.pairs) {
        std::printf("!! sorted and spilled outputs DISAGREE\n");
        return 1;
      }

      // Binary: split the collection into halves R and S.
      SetCollectionBuilder r_builder, s_builder;
      for (SetId id = 0; id < input.size(); ++id) {
        (id % 2 == 0 ? r_builder : s_builder).Add(input.set(id));
      }
      SetCollection r = r_builder.Build();
      SetCollection s = s_builder.Build();
      JoinResult binary =
          run.BinaryJoin(r, s, *made->scheme, predicate, JoinOptions{});
      PrintTimeRow(size, threshold, "binary/halves", binary.stats);

      if (threads > 1) {
        JoinOptions options;
        options.num_threads = threads;
        char label[40];
        std::snprintf(label, sizeof(label), "self/sorted(t=%zu)", threads);
        JoinResult par_sorted =
            run.SelfJoin(input, *made->scheme, predicate, options);
        PrintTimeRow(size, threshold, label, par_sorted.stats);
        std::snprintf(label, sizeof(label), "self/spilled(t=%zu)", threads);
        JoinOptions par_spill = forced_spill;
        par_spill.num_threads = threads;
        JoinResult par_spilled =
            run.SelfJoin(input, *made->scheme, predicate, par_spill);
        PrintTimeRow(size, threshold, label, par_spilled.stats);
        std::snprintf(label, sizeof(label), "binary/halves(t=%zu)",
                      threads);
        JoinResult par_binary =
            run.BinaryJoin(r, s, *made->scheme, predicate, options);
        PrintTimeRow(size, threshold, label, par_binary.stats);
        if (par_sorted.pairs != sorted.pairs ||
            par_spilled.pairs != sorted.pairs ||
            par_binary.pairs != binary.pairs) {
          std::printf("!! parallel output DIVERGES from serial\n");
          return 1;
        }
      }
    }
    std::printf("\n");
  }
  std::printf(
      "(expected: identical candidates/results between sorted and\n"
      " spilled — and between serial and parallel rows; the paper's\n"
      " 'relative performances similar for binary SSJoins' expectation\n"
      " shows as proportional costs on the halves)\n");
  return run.Finish() ? 0 : 1;
}
