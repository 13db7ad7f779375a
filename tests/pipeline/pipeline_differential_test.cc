// Pipeline-vs-seed differential suite (ctest label `pipeline`).
//
// The join's stage sequence (DESIGN.md Section 13) re-expresses the
// earlier drivers under the hard constraint that pairs, legacy
// JoinStats, and partial-trip accounting stay byte-identical at
// any thread count and spill mode. This suite is the referee: every
// (execution mode × threads × spill) cell is
// fingerprinted — the ordered pair vector hashed, every legacy counter
// listed — and compared against goldens committed from the pre-refactor
// drivers (tests/pipeline/goldens/differential.golden).
//
// A second golden (tests/pipeline/goldens/trip_sweep.golden) pins the
// partial accounting of tripped runs: TripAtEveryCheckpoint forces a
// trip at the first, second, ... guard checkpoint of a join until the
// join gets through untripped, and fingerprints every run.
//
// Regenerating goldens (only ever from a known-good tree): run
// build/tests/pipeline_tests with SSJOIN_REGEN_GOLDENS set to the path
// of the golden to rewrite; only the test owning that file name
// rewrites it.
//
// The workload is sized so the self-join produces more candidates than
// one 16384-candidate verify super-chunk — the guarded verify path must
// cross at least one deterministic chunk barrier, or the suite would
// never exercise the chunk protocol it exists to pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/bitmap_filter.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace ssjoin {
namespace {

SetCollection Workload(size_t n, uint64_t seed) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.25;
  options.max_typos = 2;
  options.seed = seed;
  WordTokenizer tokenizer;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

constexpr double kGamma = 0.55;

Result<PartEnumJaccardScheme> MakeScheme(const SetCollection& input,
                                         double gamma = kGamma) {
  PartEnumJaccardParams params;
  params.gamma = gamma;
  params.max_set_size = input.max_set_size();
  return PartEnumJaccardScheme::Create(params);
}

// One grid cell. Spill is pinned explicitly (never kDefault): the
// forced-spill CI job reruns the whole suite under SSJOIN_SPILL=force,
// and the goldens must not move with the environment.
struct Cell {
  ExecutionMode mode;
  size_t threads;
  bool force_spill;
};

// The key still names the pre-filter's (fixed) width, so the golden
// lines keep the keys they were committed under.
std::string CellKey(const Cell& cell) {
  std::ostringstream os;
  os << ExecutionModeName(cell.mode) << " t" << cell.threads << " spill="
     << (cell.force_spill ? "force" : "off") << " bitmap="
     << kernels::kBitmapBits;
  return os.str();
}

// FNV-1a over the ordered pair vector: any change in pair content *or
// order* changes the fingerprint (byte-identity, not set-identity).
uint64_t PairsFingerprint(const std::vector<SetPair>& pairs) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const SetPair& pair : pairs) {
    mix(pair.first);
    mix(pair.second);
  }
  return h;
}

// The canonical cell fingerprint: ordered-pair hash plus every legacy
// counter. Wall-clock seconds are deliberately absent — they are the
// only JoinStats fields the byte-identity contract does not cover.
std::string Fingerprint(const JoinResult& result) {
  const JoinStats& s = result.stats;
  std::ostringstream os;
  os << "status=" << (result.status.ok() ? "OK" : result.status.ToString())
     << " pairs=" << result.pairs.size() << std::hex << " pairs_fnv=0x"
     << PairsFingerprint(result.pairs) << std::dec
     << " sigs_r=" << s.signatures_r << " sigs_s=" << s.signatures_s
     << " collisions=" << s.signature_collisions
     << " candidates=" << s.candidates << " results=" << s.results
     << " false_pos=" << s.false_positives
     << " bitmap_checked=" << s.bitmap_filter_checked
     << " bitmap_pruned=" << s.bitmap_filter_pruned
     << " spill_partitions=" << s.spill_partitions
     << " spill_written=" << s.spill_bytes_written
     << " spill_read=" << s.spill_bytes_read
     << " spill_retries=" << s.spill_retries;
  return os.str();
}

// The regeneration target for the golden named `golden_file`, or null
// when SSJOIN_REGEN_GOLDENS is unset or names another golden.
const char* RegenTarget(std::string_view golden_file) {
  const char* regen = std::getenv("SSJOIN_REGEN_GOLDENS");
  if (regen == nullptr) return nullptr;
  std::string_view path(regen);
  const bool match = path.size() >= golden_file.size() &&
                     path.substr(path.size() - golden_file.size()) ==
                         golden_file;
  return match ? regen : nullptr;
}

// Reads a "key | fingerprint" golden file into `golden`.
void ReadGolden(const char* path, std::map<std::string, std::string>* golden) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sep = line.find(" | ");
    ASSERT_NE(sep, std::string::npos) << "malformed golden line: " << line;
    (*golden)[line.substr(0, sep)] = line.substr(sep + 3);
  }
}

std::vector<Cell> Grid() {
  std::vector<Cell> cells;
  for (ExecutionMode mode :
       {ExecutionMode::kSelfJoin, ExecutionMode::kBinaryJoin}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool force_spill : {false, true}) {
        cells.push_back({mode, threads, force_spill});
      }
    }
  }
  return cells;
}

class PipelineDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    left_ = new SetCollection(Workload(700, 71));
    // Same generator seed, smaller n: the right side is a noisy prefix
    // of the left, so the binary cells produce real result pairs.
    right_ = new SetCollection(Workload(500, 71));
  }
  static void TearDownTestSuite() {
    delete left_;
    left_ = nullptr;
    delete right_;
    right_ = nullptr;
  }

  static JoinResult RunCell(const Cell& cell, ExecutionGuard* guard) {
    auto scheme = MakeScheme(*left_);
    EXPECT_TRUE(scheme.ok());
    JaccardPredicate predicate(kGamma);
    JoinRequest request;
    request.left = left_;
    if (cell.mode == ExecutionMode::kBinaryJoin) request.right = right_;
    request.scheme = &*scheme;
    request.predicate = &predicate;
    request.mode = cell.mode;
    request.options.num_threads = cell.threads;
    request.options.spill.policy =
        cell.force_spill ? SpillPolicy::kForced : SpillPolicy::kDisabled;
    request.options.guard = guard;
    return Join(request);
  }

  static const SetCollection* left_;
  static const SetCollection* right_;
};

// One trip-sweep cell: a 4-thread join under a pinned spill policy.
struct TripCell {
  ExecutionMode mode;
  SpillPolicy policy;
  double gamma;
  size_t memory_budget_bytes;  // 0 = unlimited
};

std::string TripCellKey(const TripCell& cell, uint64_t after) {
  std::ostringstream os;
  os << ExecutionModeName(cell.mode) << " spill="
     << (cell.policy == SpillPolicy::kForced
             ? "force"
             : cell.policy == SpillPolicy::kAuto ? "auto" : "off")
     << " gamma=" << cell.gamma << " budget=" << cell.memory_budget_bytes
     << " after=" << after;
  return os.str();
}

// Every kStable pipeline.* and join.* counter of one run, by name.
std::string StableCounters(const obs::MetricsRegistry& metrics) {
  std::ostringstream os;
  for (const obs::MetricRecord& record : metrics.Snapshot()) {
    if (record.kind != obs::MetricKind::kCounter ||
        record.stability != obs::Stability::kStable) {
      continue;
    }
    if (!record.name.starts_with("pipeline.") &&
        !record.name.starts_with("join.")) {
      continue;
    }
    os << " " << record.name << "=" << record.counter_value;
  }
  return os.str();
}

const SetCollection* PipelineDifferentialTest::left_ = nullptr;
const SetCollection* PipelineDifferentialTest::right_ = nullptr;

// Every grid cell against the committed pre-refactor golden.
TEST_F(PipelineDifferentialTest, MatchesPreRefactorGoldens) {
  const std::vector<Cell> cells = Grid();

  if (const char* regen = RegenTarget("differential.golden")) {
    std::ofstream out(regen);
    ASSERT_TRUE(out.good()) << "cannot write " << regen;
    out << "# Committed fingerprints of the pre-pipeline drivers; one\n"
        << "# line per (mode x threads x spill) cell. Regenerate only\n"
        << "# from a known-good tree (see the test header).\n";
    for (const Cell& cell : cells) {
      JoinResult result = RunCell(cell, nullptr);
      ASSERT_TRUE(result.status.ok()) << CellKey(cell);
      out << CellKey(cell) << " | " << Fingerprint(result) << "\n";
    }
    GTEST_SKIP() << "goldens regenerated to " << regen;
  }

  std::map<std::string, std::string> golden;
  ASSERT_NO_FATAL_FAILURE(ReadGolden(SSJOIN_PIPELINE_GOLDEN_FILE, &golden));

  ASSERT_EQ(golden.size(), cells.size())
      << "golden file does not cover the grid; regenerate it";
  uint64_t max_candidates = 0;
  for (const Cell& cell : cells) {
    JoinResult result = RunCell(cell, nullptr);
    ASSERT_TRUE(result.status.ok()) << CellKey(cell);
    auto it = golden.find(CellKey(cell));
    ASSERT_NE(it, golden.end()) << "no golden for cell " << CellKey(cell);
    EXPECT_EQ(Fingerprint(result), it->second) << "cell " << CellKey(cell);
    max_candidates = std::max(max_candidates, result.stats.candidates);
    EXPECT_GT(result.stats.results, 0u) << CellKey(cell) << " is vacuous";
  }
  // The workload must span several verify super-chunks, or the chunked
  // guarded-verify protocol is untested (see the header).
  EXPECT_GT(max_candidates, 16384u)
      << "workload too small to cross a verify super-chunk boundary";
}

// A guard that never trips must leave every cell byte-identical to the
// unguarded run — the guarded verify walks 16384-candidate super-chunks
// with checkpoints and breaker evaluations, and none of that may leak
// into pairs or stats.
TEST_F(PipelineDifferentialTest, UntrippedGuardIsByteIdentical) {
  for (ExecutionMode mode :
       {ExecutionMode::kSelfJoin, ExecutionMode::kBinaryJoin}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      Cell cell{mode, threads, /*force_spill=*/false};
      JoinResult unguarded = RunCell(cell, nullptr);
      ASSERT_TRUE(unguarded.status.ok()) << CellKey(cell);

      ExecutionBudget budget;
      budget.memory_budget_bytes = size_t{4} << 30;
      budget.max_candidate_ratio = 1e12;
      ExecutionGuard guard(budget);
      JoinResult guarded = RunCell(cell, &guard);
      ASSERT_TRUE(guarded.status.ok()) << CellKey(cell);
      EXPECT_EQ(guarded.pairs, unguarded.pairs) << CellKey(cell);
      EXPECT_EQ(Fingerprint(guarded), Fingerprint(unguarded))
          << CellKey(cell);
    }
  }
}

// Thread-count invariance inside the current build (independent of the
// goldens): t1 and t4 cells must agree cell for cell.
TEST_F(PipelineDifferentialTest, ThreadCountInvariantPerCell) {
  for (ExecutionMode mode :
       {ExecutionMode::kSelfJoin, ExecutionMode::kBinaryJoin}) {
    for (bool force_spill : {false, true}) {
      Cell serial{mode, 1, force_spill};
      Cell parallel{mode, 4, force_spill};
      JoinResult a = RunCell(serial, nullptr);
      JoinResult b = RunCell(parallel, nullptr);
      ASSERT_TRUE(a.status.ok()) << CellKey(serial);
      ASSERT_TRUE(b.status.ok()) << CellKey(parallel);
      EXPECT_EQ(a.pairs, b.pairs) << CellKey(serial);
      EXPECT_EQ(Fingerprint(a), Fingerprint(b)) << CellKey(serial);
    }
  }
}

// Partial accounting of tripped runs. For each cell a trip is forced at
// the first, second, ... guard checkpoint until the join completes; every
// run's pairs, stats, guard memory charge and stable counters must match
// the golden. The kAuto cell's budget (at gamma 0.8) is below the
// in-memory signature table but above the spilled join's high-water, so
// it degrades to the spilled chain and its later checkpoints are the
// rerun's.
TEST_F(PipelineDifferentialTest, TripAtEveryCheckpoint) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  std::vector<TripCell> cells;
  for (ExecutionMode mode :
       {ExecutionMode::kSelfJoin, ExecutionMode::kBinaryJoin}) {
    for (SpillPolicy policy : {SpillPolicy::kDisabled, SpillPolicy::kForced}) {
      cells.push_back({mode, policy, kGamma, 0});
    }
  }
  cells.push_back(
      {ExecutionMode::kSelfJoin, SpillPolicy::kAuto, 0.8, size_t{64} << 10});

  std::vector<std::pair<std::string, std::string>> runs;
  for (const TripCell& cell : cells) {
    auto scheme = MakeScheme(*left_, cell.gamma);
    ASSERT_TRUE(scheme.ok());
    JaccardPredicate predicate(cell.gamma);
    for (uint64_t after = 0;; ++after) {
      ASSERT_LT(after, 1000u) << TripCellKey(cell, after) << " never ends";
      ExecutionBudget budget;
      budget.memory_budget_bytes = cell.memory_budget_bytes;
      ExecutionGuard guard(budget);
      obs::MetricsRegistry metrics;
      JoinRequest request;
      request.left = left_;
      if (cell.mode == ExecutionMode::kBinaryJoin) request.right = right_;
      request.scheme = &*scheme;
      request.predicate = &predicate;
      request.mode = cell.mode;
      request.options.num_threads = 4;
      request.options.spill.policy = cell.policy;
      request.options.guard = &guard;
      request.options.metrics = &metrics;
      fault::SetPlan({{fault::CheckpointTrip(
          std::nullopt, StatusCode::kResourceExhausted, after)}});
      JoinResult result = Join(request);
      fault::Clear();
      runs.emplace_back(TripCellKey(cell, after),
                        Fingerprint(result) + " memory_charged=" +
                            std::to_string(guard.memory_charged()) +
                            StableCounters(metrics));
      if (result.status.ok()) {
        EXPECT_GT(result.stats.results, 0u) << TripCellKey(cell, after);
        if (cell.policy == SpillPolicy::kAuto) {
          EXPECT_GT(result.stats.spill_partitions, 0u)
              << "the auto cell must degrade";
        }
        break;
      }
      EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted)
          << TripCellKey(cell, after);
    }
  }

  if (const char* regen = RegenTarget("trip_sweep.golden")) {
    std::ofstream out(regen);
    ASSERT_TRUE(out.good()) << "cannot write " << regen;
    out << "# Committed fingerprints of joins tripped at every guard\n"
        << "# checkpoint in turn; one line per (cell x trip point).\n"
        << "# Regenerate only from a known-good tree (see the test header).\n";
    for (const auto& [key, fingerprint] : runs) {
      out << key << " | " << fingerprint << "\n";
    }
    GTEST_SKIP() << "goldens regenerated to " << regen;
  }

  std::map<std::string, std::string> golden;
  ASSERT_NO_FATAL_FAILURE(ReadGolden(SSJOIN_TRIP_SWEEP_GOLDEN_FILE, &golden));
  ASSERT_EQ(golden.size(), runs.size())
      << "the joins reach a different number of checkpoints than the golden";
  for (const auto& [key, fingerprint] : runs) {
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden for " << key;
    EXPECT_EQ(fingerprint, it->second) << key;
  }
}

}  // namespace
}  // namespace ssjoin
