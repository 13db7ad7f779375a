// bench_profile: the measuring driver of the repo benchmark (README.md).
//
// One process runs one workload. It builds the inputs from --seed
// (setup, repeated for several setup_s samples), joins once untimed at 1
// thread to get the reference output, warms up with an untimed 4-thread
// join, and then either
//   * (default) alternates timed {4-thread, 1-thread} legs until
//     --seconds have passed, checking every leg against the reference, or
//   * (--trace) runs rounds of traced 1/2/4-thread legs plus untraced
//     4/1-thread legs, and reports the per-layer breakdown.
// The process's peak RSS is read after the last leg; the completeness
// checks, which build indexes of their own, run after that.
// Layers are measured from outside: spans and stopwatches wrap the calls
// into each module's public functions, and the per-operator counters
// come from the obs::MetricsRegistry that Join() publishes into.
//
// The last line of stdout is one JSON object; run.py aggregates those
// across processes into the benchmark's metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/prefix_filter.h"
#include "core/parameter_advisor.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "core/weighted.h"
#include "core/wtenum.h"
#include "data/collection.h"
#include "data/generators.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/idf.h"
#include "text/tokenizer.h"
#include "util/hashing.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using ssjoin::ElementId;
using ssjoin::ExecutionMode;
using ssjoin::JoinResult;
using ssjoin::JoinStats;
using ssjoin::SetCollection;
using ssjoin::SetId;
using ssjoin::SetPair;
using ssjoin::Stopwatch;
namespace obs = ssjoin::obs;

constexpr double kGamma = 0.8;
constexpr size_t kParallelThreads = 4;
// Setups per untraced process: setup_s is noisy per sample, and the
// median of several in one process is much cheaper than more processes.
constexpr int kSetupsPerProcess = 3;
// Time each process spends probing for missing pairs (ProbeCompleteness);
// --oracle probes every set instead.
constexpr double kProbeSeconds = 0.3;

enum class Dataset { kAddress, kDblp, kSynthetic };

struct WorkloadSpec {
  const char* name;
  Dataset dataset;
  // Input size at --scale 1 (strings for address/DBLP, base sets for the
  // synthetic generator, which appends 2% planted near-duplicates).
  size_t sets;
  bool spill;
};

// Sizes are the paper's (1M address, 0.5M DBLP, 0.5M Fig-14 sets) scaled
// so one run of every workload fits the benchmark's time budget while the
// join still dominates setup on all but synthetic-pen (README.md).
constexpr WorkloadSpec kWorkloads[] = {
    {"address-pen", Dataset::kAddress, 200000, false},
    {"dblp-wen", Dataset::kDblp, 100000, false},
    {"synthetic-pen", Dataset::kSynthetic, 100000, false},
    {"address-pen-spill", Dataset::kAddress, 200000, true},
};

struct Flags {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 7;
  double seconds = 10;
  double scale = 1;
  bool trace = false;
  bool oracle = false;
  std::string trace_out;
  std::string spill_dir;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: bench_profile --workload NAME [--seed N] "
               "[--seconds S] [--scale F] [--trace] [--trace-out PATH] "
               "[--spill-dir DIR] [--oracle]\n",
               message);
  std::exit(2);
}

double ParseDouble(const char* text, const char* flag) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0) || !std::isfinite(v)) {
    Usage((std::string(flag) + " wants a positive number").c_str());
  }
  return v;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage((std::string(arg) + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      std::string_view name = value();
      for (const WorkloadSpec& spec : kWorkloads) {
        if (name == spec.name) flags.workload = &spec;
      }
      if (flags.workload == nullptr) Usage("unknown --workload");
    } else if (arg == "--seed") {
      const char* text = value();
      char* end = nullptr;
      flags.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') Usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      flags.seconds = ParseDouble(value(), "--seconds");
    } else if (arg == "--scale") {
      flags.scale = ParseDouble(value(), "--scale");
    } else if (arg == "--trace") {
      flags.trace = true;
    } else if (arg == "--trace-out") {
      flags.trace_out = value();
    } else if (arg == "--spill-dir") {
      flags.spill_dir = value();
    } else if (arg == "--oracle") {
      flags.oracle = true;
    } else {
      Usage(("unknown argument " + std::string(arg)).c_str());
    }
  }
  if (flags.workload == nullptr) Usage("--workload is required");
  return flags;
}

// --- Timing and memory ------------------------------------------------------

// Times one layer call and, when a tracer is attached, records it as a
// bench-side span of that name.
class LayerScope {
 public:
  LayerScope(obs::Tracer* tracer, std::string_view name, double* seconds)
      : tracer_(tracer), seconds_(seconds) {
    if (tracer_ != nullptr) span_ = tracer_->StartSpan(name);
  }
  ~LayerScope() {
    *seconds_ += watch_.ElapsedSeconds();
    if (tracer_ != nullptr) tracer_->EndSpan(span_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  obs::SpanId span() const { return span_; }

 private:
  obs::Tracer* tracer_;
  double* seconds_;
  obs::SpanId span_ = obs::kNoSpan;
  Stopwatch watch_;
};

// The process's peak RSS so far (ru_maxrss, in kB on Linux).
double ProcessPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Returns the heap's free pages to the kernel and resets the peak-RSS
// mark (VmHWM) to the RSS that is left, so that the next HwmMb() reading
// covers what ran in between from the same starting point, whatever
// earlier joins left in the heap. False when the kernel refused the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return !out.fail();
}

double HwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// --- JSON output ------------------------------------------------------------

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Int(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, "\"" + std::string(value) + "\"");
  }
  JsonObject& Raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Setup ------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0;
  double tokenize_s = 0;
  double idf_s = 0;
  double advisor_s = 0;
  double build_s = 0;
  uint64_t advisor_configs = 0;
};

struct Workload {
  const WorkloadSpec* spec = nullptr;
  SetCollection input;
  std::shared_ptr<const ssjoin::SignatureScheme> scheme;
  std::shared_ptr<const ssjoin::Predicate> predicate;
  // dblp-wen only: IDF weights (+0.01, as in the Fig-19 harness) and the
  // smallest weighted set size, which the weighted schemes anchor on.
  ssjoin::WeightFunction weights;
  double min_weighted_size = 0;
  const ssjoin::WtEnumScheme* wtenum = nullptr;
  SetupTimes times;
  double setup_s = 0;
};

// Unwraps a scheme factory's result; a failure is a benchmark bug.
template <typename Scheme>
std::shared_ptr<Scheme> OrExit(ssjoin::Result<Scheme> made) {
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<Scheme>(std::move(made).value());
}

// Fig-12's jaccard PartEnum with (n1, n2) = (1, 4) in every size
// interval. That is what the harness's advisor (a 1000-set sample) picks
// on most seeds, and the faster of its two picks; on the other seeds the
// sample tips it to (1, 5): 1.5x the signatures and a ~25% slower serial
// join, which would make this workload bimodal across seeds. The advisor
// layer is measured on synthetic-pen, where its pick is stable.
void BuildAddressScheme(Workload* w, obs::Tracer* tracer) {
  LayerScope scope(tracer, "scheme.build", &w->times.build_s);
  ssjoin::PartEnumJaccardParams params;
  params.gamma = kGamma;
  params.max_set_size = w->input.max_set_size();
  params.chooser = [](uint32_t k) {
    ssjoin::PartEnumParams p;
    p.k = k;
    p.n1 = 1;
    p.n2 = 4;
    return p;
  };
  w->scheme = OrExit(ssjoin::PartEnumJaccardScheme::Create(params));
  w->predicate = std::make_shared<ssjoin::JaccardPredicate>(kGamma);
}

// Fig-14: equi-sized sets, so jaccard reduces to hamming and the plain
// PartEnum runs with advisor-tuned (n1, n2). The advisor is capped at 64
// signatures per set, not the Fig-14 harness's 512: it still picks the
// same setting (n1=6, n2=3, 18 signatures per set, on every seed tried)
// from the 77 settings under the cap, where the 247 settings under 512
// cost ~15 s of setup that one benchmark run cannot afford.
void BuildSyntheticScheme(Workload* w, obs::Tracer* tracer,
                          obs::AdvisorTrace* trace) {
  ssjoin::PartEnumParams params;
  {
    LayerScope scope(tracer, "advisor.tune", &w->times.advisor_s);
    uint32_t k =
        ssjoin::PartEnumJaccardScheme::EquisizedHammingThreshold(50, kGamma);
    ssjoin::AdvisorOptions advisor;
    advisor.sample_size = 2000;
    advisor.max_signatures_per_set = 64;
    advisor.trace = trace;
    auto choice =
        ssjoin::ChoosePartEnumParams(w->input, k, w->input.size(), advisor);
    params = choice.ok() ? choice->params : ssjoin::PartEnumParams::Default(k);
  }
  LayerScope scope(tracer, "scheme.build", &w->times.build_s);
  w->scheme = OrExit(ssjoin::PartEnumScheme::Create(params));
  w->predicate = std::make_shared<ssjoin::JaccardPredicate>(kGamma);
}

// Fig-19: WtEnum weighted jaccard over IDF weights; no advisor.
void BuildDblpScheme(Workload* w, obs::Tracer* tracer) {
  std::shared_ptr<ssjoin::IdfWeights> idf;
  {
    LayerScope scope(tracer, "text.idf", &w->times.idf_s);
    idf = std::make_shared<ssjoin::IdfWeights>(
        ssjoin::IdfWeights::Compute(w->input));
  }
  LayerScope scope(tracer, "scheme.build", &w->times.build_s);
  w->weights = [idf](ElementId e) { return idf->Weight(e) + 0.01; };
  w->min_weighted_size = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < w->input.size(); ++id) {
    if (w->input.set_size(id) == 0) continue;
    w->min_weighted_size = std::min(
        w->min_weighted_size,
        ssjoin::WeightedSize(w->input.set(id), w->weights));
  }
  ssjoin::WtEnumParams params;
  params.pruning_threshold = idf->DefaultPruningThreshold();
  auto scheme = OrExit(ssjoin::WtEnumScheme::CreateJaccard(
      w->weights, w->weights, kGamma, w->min_weighted_size, params));
  w->wtenum = scheme.get();
  w->scheme = std::move(scheme);
  w->predicate =
      std::make_shared<ssjoin::WeightedJaccardPredicate>(kGamma, w->weights);
}

// Builds the workload's inputs from the seed. The seed reaches only the
// generators: address and DBLP strings use it directly and the synthetic
// sets use seed + 1, so the default seed 7 reproduces the figure
// harnesses' AddressTokenSets(n, 7) / SyntheticSets(n, 8) inputs.
Workload Setup(const WorkloadSpec& spec, uint64_t seed, double scale,
               obs::Tracer* tracer) {
  Workload w;
  w.spec = &spec;
  obs::AdvisorTrace advisor_trace;
  Stopwatch total;
  size_t n = std::max<size_t>(
      2, static_cast<size_t>(std::llround(static_cast<double>(spec.sets) *
                                          scale)));
  std::vector<std::string> strings;
  {
    LayerScope scope(tracer, "data.generate", &w.times.generate_s);
    switch (spec.dataset) {
      case Dataset::kAddress:
        strings = ssjoin::GenerateAddressStrings({.num_strings = n,
                                                  .duplicate_fraction = 0.10,
                                                  .max_typos = 3,
                                                  .seed = seed});
        break;
      case Dataset::kDblp:
        strings = ssjoin::GenerateDblpStrings({.num_strings = n,
                                               .duplicate_fraction = 0.10,
                                               .max_typos = 2,
                                               .seed = seed});
        break;
      case Dataset::kSynthetic:
        w.input = ssjoin::GenerateUniformSets({.num_sets = n,
                                               .set_size = 50,
                                               .domain_size = 10000,
                                               .similar_fraction = 0.02,
                                               .mutations = 2,
                                               .seed = seed + 1});
        break;
    }
  }
  if (!strings.empty()) {
    LayerScope scope(tracer, "text.tokenize", &w.times.tokenize_s);
    w.input = ssjoin::WordTokenizer().TokenizeAll(strings);
    strings = {};
  }
  switch (spec.dataset) {
    case Dataset::kAddress:
      BuildAddressScheme(&w, tracer);
      break;
    case Dataset::kDblp:
      BuildDblpScheme(&w, tracer);
      break;
    case Dataset::kSynthetic:
      BuildSyntheticScheme(&w, tracer, &advisor_trace);
      break;
  }
  w.times.advisor_configs = advisor_trace.candidates.size();
  w.setup_s = total.ElapsedSeconds();
  return w;
}

// --- Joins and exactness ----------------------------------------------------

struct Leg {
  size_t threads = 1;
  bool traced = false;
  bool pipelined = false;
};

struct LegResult {
  JoinResult join;
  double seconds = 0;
  std::map<std::string, double> metrics;
};

LegResult RunLeg(const Workload& w, const Leg& leg, const Flags& flags,
                 obs::Tracer* tracer) {
  LegResult out;
  obs::MetricsRegistry registry;
  ssjoin::JoinOptions options;
  options.num_threads = leg.threads;
  if (leg.traced) {
    options.tracer = tracer;
    options.metrics = &registry;
  }
  // kDisabled (not kDefault) keeps the SSJOIN_SPILL environment hook from
  // changing what a workload measures.
  options.spill.policy = w.spec->spill ? ssjoin::SpillPolicy::kForced
                                       : ssjoin::SpillPolicy::kDisabled;
  options.spill.dir = flags.spill_dir;
  ssjoin::JoinRequest request =
      ssjoin::SelfJoinRequest(w.input, *w.scheme, *w.predicate, options);
  if (leg.pipelined) request.mode = ExecutionMode::kPipelinedSelfJoin;
  {
    LayerScope scope(leg.traced ? tracer : nullptr, "join", &out.seconds);
    if (leg.traced) {
      tracer->SetAttr(scope.span(), "threads",
                      static_cast<uint64_t>(leg.threads));
    }
    out.join = ssjoin::Join(request);
  }
  for (const obs::MetricRecord& record : registry.Snapshot()) {
    out.metrics[record.name] =
        record.kind == obs::MetricKind::kGauge
            ? record.gauge_value
            : static_cast<double>(record.counter_value);
  }
  return out;
}

uint64_t PairDigest(const std::vector<SetPair>& pairs) {
  uint64_t digest = 0;
  for (const SetPair& p : pairs) {
    digest += ssjoin::Mix64(ssjoin::PackPair(p.first, p.second));
  }
  return digest;
}

// Soundness of the reference output: as many pairs as the join counted
// results, ids in range, strictly ascending (first < second, sorted, no
// duplicates) and every pair re-passes the public predicate.
bool PairsSound(const Workload& w, const JoinResult& result) {
  const std::vector<SetPair>& pairs = result.pairs;
  if (pairs.size() != result.stats.results) return false;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const SetPair& p = pairs[i];
    if (p.first >= p.second || p.second >= w.input.size()) return false;
    if (i > 0 && !(pairs[i - 1] < p)) return false;
    if (!w.predicate->Evaluate(w.input.set(p.first), w.input.set(p.second))) {
      return false;
    }
  }
  return true;
}

// Completeness, checked without Join(): a prefix filter written here over
// the public predicate. Let w count elements (jaccard) or sum the IDF
// weights (WEN), and g be gamma less a margin for the predicates' float
// slack. A set's prefix is its rarest elements (ties by id) until their
// weight exceeds (1 - g) of the set's. If pred(q, s), the rarest element
// of q ∩ s lies in both prefixes: everything of q ∩ s sits at or after
// it, and w(q ∩ s) >= g * max(w(q), w(s)). So probing q's prefix against
// an index of every set's prefix finds all of q's partners, and the
// weight each set holds from that element on bounds w(q ∩ s) (the
// positional filter of PPJoin). Queries run in random order for
// `seconds` (0 = until every set was a query, a full oracle). Each partner
// found must be paired with the query in `pairs`.
struct ProbeResult {
  uint64_t queries = 0;
  uint64_t pairs = 0;
  uint64_t missing = 0;
};

ProbeResult ProbeCompleteness(const Workload& w,
                              const std::vector<SetPair>& pairs,
                              uint64_t seed, double seconds) {
  const double g = kGamma - 1e-6;
  const auto n = static_cast<SetId>(w.input.size());
  // Dense element ids with their document frequency and weight.
  std::unordered_map<ElementId, uint32_t> dense;
  std::vector<uint32_t> df;
  std::vector<double> weight;
  std::vector<uint32_t> ids(w.input.total_elements());
  std::vector<size_t> begin(n + 1, 0);
  size_t at = 0;
  for (SetId id = 0; id < n; ++id) {
    begin[id] = at;
    for (ElementId e : w.input.set(id)) {
      auto [it, added] = dense.try_emplace(e, static_cast<uint32_t>(df.size()));
      if (added) {
        df.push_back(0);
        weight.push_back(w.weights ? w.weights(e) : 1.0);
      }
      ++df[it->second];
      ids[at++] = it->second;
    }
  }
  begin[n] = at;
  // Prefixes: each set's rarest elements (ties by id) until their weight
  // exceeds (1 - g) of the set's; index[e] lists the sets whose prefix
  // holds e, each with the weight of its elements from e on.
  struct Posting {
    SetId set;
    double rest;
  };
  std::vector<std::vector<uint32_t>> prefix(n);
  std::vector<double> size(n, 0);
  std::vector<std::vector<Posting>> index(df.size());
  std::vector<uint32_t> rarest;
  for (SetId id = 0; id < n; ++id) {
    rarest.assign(ids.begin() + begin[id], ids.begin() + begin[id + 1]);
    std::sort(rarest.begin(), rarest.end(), [&df](uint32_t a, uint32_t b) {
      return df[a] != df[b] ? df[a] < df[b] : a < b;
    });
    for (uint32_t e : rarest) size[id] += weight[e];
    double head = 0;
    for (uint32_t e : rarest) {
      prefix[id].push_back(e);
      index[e].push_back({id, size[id] - head});
      head += weight[e];
      if (head > (1 - g) * size[id]) break;
    }
  }
  std::unordered_set<uint64_t> emitted;
  emitted.reserve(pairs.size() * 2);
  for (const SetPair& p : pairs) {
    emitted.insert(ssjoin::PackPair(p.first, p.second));
  }

  ssjoin::Rng rng(seed ^ 0x5eed0fbe4c4ULL);
  std::vector<SetId> seen_by(n, n);  // last query that met each candidate
  // w(q ∩ s) from the elements marked as q's: a cheap exact screen in
  // front of the predicate, whose float slack the margin in g absorbs.
  std::vector<SetId> marked_by(df.size(), n);
  auto overlap = [&](SetId q, SetId s) {
    double sum = 0;
    for (size_t i = begin[s]; i < begin[s + 1]; ++i) {
      if (marked_by[ids[i]] == q) sum += weight[ids[i]];
    }
    return sum;
  };
  ProbeResult out;
  Stopwatch budget;
  for (SetId q : ssjoin::RandomPermutation(n, rng)) {
    if (seconds > 0 && budget.ElapsedSeconds() >= seconds) break;
    ++out.queries;
    for (size_t i = begin[q]; i < begin[q + 1]; ++i) marked_by[ids[i]] = q;
    double head = 0;
    for (uint32_t e : prefix[q]) {
      const double rest = size[q] - head;
      head += weight[e];
      for (const Posting& p : index[e]) {
        const SetId s = p.set;
        if (s == q || seen_by[s] == q) continue;
        seen_by[s] = q;
        // Met first through e, the rarest element q and s share, so
        // w(q ∩ s) is at most what either set holds from e on.
        if (std::min(rest, p.rest) < g * std::max(size[q], size[s])) continue;
        double common = overlap(q, s);
        if (common < g * (size[q] + size[s] - common)) continue;
        if (!w.predicate->Evaluate(w.input.set(q), w.input.set(s))) continue;
        ++out.pairs;
        if (emitted.count(ssjoin::PackPair(std::min(q, s), std::max(q, s))) ==
            0) {
          ++out.missing;
        }
      }
    }
  }
  return out;
}

// A leg passes when it returns OK with exactly the reference's pairs and
// work counts.
bool SameAsReference(const JoinResult& leg, const JoinResult& reference) {
  const JoinStats& a = leg.stats;
  const JoinStats& b = reference.stats;
  return leg.status.ok() && leg.pairs == reference.pairs &&
         a.signatures_r == b.signatures_r &&
         a.signature_collisions == b.signature_collisions &&
         a.candidates == b.candidates && a.results == b.results &&
         a.false_positives == b.false_positives &&
         a.bitmap_filter_pruned == b.bitmap_filter_pruned &&
         a.spill_bytes_written == b.spill_bytes_written;
}

// The independent exact scheme of --oracle: prefix filter for the
// jaccard workloads, weighted prefix filter for WEN.
std::vector<SetPair> OraclePairs(const Workload& w) {
  std::shared_ptr<const ssjoin::SignatureScheme> scheme;
  if (w.spec->dataset == Dataset::kDblp) {
    scheme = OrExit(ssjoin::WeightedPrefixFilterScheme::Create(
        kGamma, w.weights, w.input, w.min_weighted_size));
  } else {
    scheme = OrExit(ssjoin::PrefixFilterScheme::Create(
        std::make_shared<ssjoin::JaccardPredicate>(kGamma), w.input));
  }
  ssjoin::JoinOptions options;
  options.num_threads = kParallelThreads;
  options.spill.policy = ssjoin::SpillPolicy::kDisabled;
  JoinResult result = ssjoin::Join(
      ssjoin::SelfJoinRequest(w.input, *scheme, *w.predicate, options));
  return result.status.ok() ? std::move(result.pairs)
                            : std::vector<SetPair>{};
}

// --- Per-layer breakdown (--trace) ------------------------------------------

constexpr const char* kOperators[] = {"siggen",        "candgen",
                                      "bitmap_filter", "verify",
                                      "dedup_emit",    "spill_partition"};

// Samples of one leg kind across rounds.
struct LegSeries {
  explicit LegSeries(Leg l) : leg(l) {}

  Leg leg;
  std::vector<double> seconds;
  std::vector<double> postfilter_s;
  std::map<std::string, std::vector<double>> metrics;

  void Add(const LegResult& r) {
    seconds.push_back(r.seconds);
    postfilter_s.push_back(r.join.stats.postfilter_seconds);
    for (const auto& [name, value] : r.metrics) {
      metrics[name].push_back(value);
    }
  }
  double Metric(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0 : Median(it->second);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Counters {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Runs rounds of {traced 1/2/4 threads, untraced 4/1 threads} for the
// time budget (at least one round), rotating the leg order each round,
// then the peak-memory legs of each plan.
std::string PerLayer(const Workload& w, const JoinResult& reference,
                     const Flags& flags, obs::Tracer* tracer,
                     Counters* counters) {
  // scheme.generate: the serial signature loop the SigGen operator wraps,
  // timed outside Join().
  double generate_s = 0;
  uint64_t signatures = 0;
  {
    LayerScope scope(tracer, "scheme.generate", &generate_s);
    std::vector<ssjoin::Signature> buffer;
    for (SetId id = 0; id < w.input.size(); ++id) {
      buffer.clear();
      w.scheme->Generate(w.input.set(id), &buffer);
      signatures += buffer.size();
    }
  }

  std::vector<LegSeries> series = {LegSeries({1, true, false}),
                                   LegSeries({2, true, false}),
                                   LegSeries({kParallelThreads, true, false}),
                                   LegSeries({kParallelThreads, false, false}),
                                   LegSeries({1, false, false})};
  // Only the first round is kept in the exported trace; later rounds
  // trace into a scratch tracer so every traced leg pays the same cost.
  obs::Tracer scratch;
  Stopwatch budget;
  for (size_t round = 0; round == 0 || budget.ElapsedSeconds() < flags.seconds;
       ++round) {
    for (size_t i = 0; i < series.size(); ++i) {
      LegSeries& s = series[(i + round) % series.size()];
      LegResult r = RunLeg(w, s.leg, flags, round == 0 ? tracer : &scratch);
      scratch.Reset();
      ++counters->attempted;
      if (!SameAsReference(r.join, reference)) ++counters->failed;
      s.Add(r);
    }
  }
  const LegSeries& t1 = series[0];
  const LegSeries& t2 = series[1];
  const LegSeries& t4 = series[2];
  const LegSeries& u4 = series[3];
  const LegSeries& u1 = series[4];

  // The plans' join peaks, each the larger of a 1- and a 4-thread leg
  // that starts from a trimmed heap and a reset VmHWM, so that neither
  // plan is charged for what the other left in the heap. The pipelined
  // plan runs on address-pen only.
  double sorted_peak = 0, pipelined_peak = 0;
  double pipelined_1t = 0, pipelined_4t = 0;
  const bool pipelined_too =
      w.spec->dataset == Dataset::kAddress && !w.spec->spill;
  for (bool pipelined : {false, true}) {
    if (pipelined && !pipelined_too) continue;
    double& peak = pipelined ? pipelined_peak : sorted_peak;
    for (size_t threads : {size_t{1}, kParallelThreads}) {
      ++counters->attempted;
      if (!ResetPeakRss()) {
        std::fprintf(stderr, "error: cannot reset the peak RSS through "
                             "/proc/self/clear_refs\n");
        ++counters->failed;
        continue;
      }
      LegResult r = RunLeg(w, {threads, false, pipelined}, flags, nullptr);
      peak = std::max(peak, HwmMb());
      if (!SameAsReference(r.join, reference)) ++counters->failed;
      if (pipelined) (threads == 1 ? pipelined_1t : pipelined_4t) = r.seconds;
    }
  }

  const JoinStats& st = reference.stats;
  const double sets = static_cast<double>(w.input.size());
  const double sigs = static_cast<double>(st.signatures_r);
  JsonObject m;
  m.Num("data.generate_s", w.times.generate_s)
      .Num("text.tokenize_s", w.times.tokenize_s)
      .Num("text.idf_s", w.times.idf_s)
      .Num("advisor.tune_s", w.times.advisor_s)
      .Num("advisor.configs", static_cast<double>(w.times.advisor_configs))
      .Num("scheme.build_s", w.times.build_s)
      .Num("scheme.generate_s", generate_s)
      .Num("scheme.sigs_per_set", Ratio(static_cast<double>(signatures), sets));
  for (const char* op : kOperators) {
    std::string base = std::string("pipeline.") + op;
    m.Num(base + ".self_s", t4.Metric(base + ".ns") / 1e9)
        .Num(base + ".self_serial_s", t1.Metric(base + ".ns") / 1e9)
        .Num(base + ".batches", t4.Metric(base + ".batches"));
  }
  // SigGen's own overhead beyond the bare Generate loop, and its share of
  // the serial join; 0 where the plan has no SigGen operator (spill).
  double siggen_serial = t1.Metric("pipeline.siggen.ns") / 1e9;
  m.Num("pipeline.siggen.overhead_s",
        siggen_serial > 0 ? siggen_serial - generate_s : 0)
      .Num("pipeline.siggen.share_serial",
           Ratio(siggen_serial, Median(t1.seconds)));
  m.Num("join.signatures", sigs)
      .Num("join.signature_collisions",
           static_cast<double>(st.signature_collisions))
      .Num("join.f2", static_cast<double>(st.F2()))
      .Num("join.candidates", static_cast<double>(st.candidates))
      .Num("join.results", static_cast<double>(st.results))
      .Num("join.false_positives", static_cast<double>(st.false_positives))
      .Num("join.precision", Ratio(static_cast<double>(st.results),
                                   static_cast<double>(st.candidates)))
      .Num("join.candidates_per_set",
           Ratio(static_cast<double>(st.candidates), sets));
  m.Num("kernels.bitmap_checked",
        static_cast<double>(st.bitmap_filter_checked))
      .Num("kernels.bitmap_pruned", static_cast<double>(st.bitmap_filter_pruned))
      .Num("kernels.bitmap_prune_rate",
           Ratio(static_cast<double>(st.bitmap_filter_pruned),
                 static_cast<double>(st.false_positives)));
  for (const char* kernel : {"simd", "galloping", "scalar"}) {
    m.Num(std::string("kernels.intersect.") + kernel,
          t4.Metric(std::string("join.intersect.") + kernel));
  }
  m.Num("spill.partitions", static_cast<double>(st.spill_partitions))
      .Num("spill.bytes_written", static_cast<double>(st.spill_bytes_written))
      .Num("spill.bytes_read", static_cast<double>(st.spill_bytes_read))
      .Num("spill.bytes_per_signature",
           Ratio(static_cast<double>(st.spill_bytes_written), sigs));
  m.Num("scaling.join_2t_s", Median(t2.seconds))
      .Num("scaling.speedup_4t", Ratio(Median(u1.seconds), Median(u4.seconds)))
      .Num("scaling.verify_speedup_4t",
           Ratio(Median(u1.postfilter_s), Median(u4.postfilter_s)))
      .Num("threadpool.forkjoins", t4.Metric("threadpool.forkjoins"));
  // Per round, so that drift in machine speed between rounds cancels.
  std::vector<double> overhead;
  for (size_t r = 0; r < t4.seconds.size(); ++r) {
    overhead.push_back(Ratio(t4.seconds[r], u4.seconds[r]) - 1);
  }
  m.Num("trace.overhead_frac", Median(overhead));
  m.Num("plan.sorted_peak_rss_mb", sorted_peak)
      .Num("plan.pipelined_join_serial_s", pipelined_1t)
      .Num("plan.pipelined_join_s", pipelined_4t)
      .Num("plan.pipelined_peak_rss_mb", pipelined_peak);
  return m.Done();
}

// --- Main -------------------------------------------------------------------

int Run(const Flags& flags) {
  const WorkloadSpec& spec = *flags.workload;
  obs::Tracer tracer;
  // A traced process sets up once, inside the trace; an untraced one
  // repeats setup, freeing the previous workload first so that peak
  // memory never holds two.
  std::string setup_samples;
  Workload w;
  for (int i = 0; i < (flags.trace ? 1 : kSetupsPerProcess); ++i) {
    w = Workload();
    w = Setup(spec, flags.seed, flags.scale, flags.trace ? &tracer : nullptr);
    setup_samples += (i > 0 ? ", " : "") + JsonNumber(w.setup_s);
  }

  // The reference: the process's first join, serial and untimed. Its
  // soundness is checked here; its completeness (the probe and the
  // oracle) after the peak RSS is read, below.
  LegResult first = RunLeg(w, {1, false, false}, flags, nullptr);
  Counters counters;
  ++counters.attempted;
  const JoinResult& reference = first.join;
  bool sound = reference.status.ok() && PairsSound(w, reference);
  bool overflowed = w.wtenum != nullptr && w.wtenum->overflowed();
  bool reference_ok = sound && !overflowed;
  if (!reference.status.ok()) {
    std::fprintf(stderr, "error: reference join: %s\n",
                 reference.status.ToString().c_str());
  }

  JsonObject out;
  out.Str("workload", spec.name)
      .Int("seed", flags.seed)
      .Num("scale", flags.scale)
      .Int("sets", w.input.size())
      .Raw("setup_s", "[" + setup_samples + "]");

  // Untimed warm-up at 4 threads, checked like every later leg.
  if (reference_ok) {
    LegResult warm = RunLeg(w, {kParallelThreads, false, false}, flags,
                            nullptr);
    ++counters.attempted;
    if (!SameAsReference(warm.join, reference)) ++counters.failed;
  }

  std::string legs;
  if (reference_ok && flags.trace) {
    out.Raw("per_layer", PerLayer(w, reference, flags, &tracer, &counters));
    if (!flags.trace_out.empty()) {
      ssjoin::Status status = obs::WriteChromeTrace(tracer, flags.trace_out);
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  } else if (reference_ok) {
    // Timed legs: {4, 1} threads, alternating which goes first; at least
    // two reps, then until the time budget is spent.
    Stopwatch budget;
    for (size_t rep = 0; rep < 2 || budget.ElapsedSeconds() < flags.seconds;
         ++rep) {
      for (size_t j = 0; j < 2; ++j) {
        size_t threads = (rep + j) % 2 == 0 ? kParallelThreads : 1;
        LegResult r = RunLeg(w, {threads, false, false}, flags, nullptr);
        ++counters.attempted;
        if (!SameAsReference(r.join, reference)) ++counters.failed;
        if (!legs.empty()) legs += ", ";
        legs += JsonObject()
                    .Int("threads", threads)
                    .Num("s", r.seconds)
                    .Done();
      }
    }
  }
  // The whole run's peak: every setup and every join leg, but none of the
  // checks below.
  const double peak_rss_mb = ProcessPeakRssMb();

  ProbeResult probe;
  if (sound) {
    probe = ProbeCompleteness(w, reference.pairs, flags.seed,
                              flags.oracle ? 0 : kProbeSeconds);
  }
  reference_ok = reference_ok && probe.missing == 0;
  if (!reference_ok) ++counters.failed;
  bool oracle_agree = true;
  if (flags.oracle && reference_ok) {
    std::vector<SetPair> oracle = OraclePairs(w);
    oracle_agree = oracle == reference.pairs;
    out.Raw("oracle", JsonObject()
                          .Int("pairs", oracle.size())
                          .Bool("agree", oracle_agree)
                          .Done());
  }

  const JoinStats& st = reference.stats;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                PairDigest(reference.pairs));
  out.Raw("legs", "[" + legs + "]")
      .Int("attempted", counters.attempted)
      .Int("failed", counters.failed)
      .Num("peak_rss_mb", peak_rss_mb)
      .Raw("checks", JsonObject()
                         .Bool("sound", sound)
                         .Int("probe_queries", probe.queries)
                         .Int("probe_pairs", probe.pairs)
                         .Int("probe_missing", probe.missing)
                         .Bool("wtenum_overflow", overflowed)
                         .Done())
      .Raw("counts", JsonObject()
                         .Int("results", st.results)
                         .Str("pair_digest", digest)
                         .Int("signatures", st.signatures_r)
                         .Int("signature_collisions", st.signature_collisions)
                         .Int("candidates", st.candidates)
                         .Int("false_positives", st.false_positives)
                         .Int("bitmap_pruned", st.bitmap_filter_pruned)
                         .Int("spill_bytes_written", st.spill_bytes_written)
                         .Int("spill_bytes_read", st.spill_bytes_read)
                         .Done());
  std::printf("%s\n", out.Done().c_str());
  return counters.failed == 0 && oracle_agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(ParseFlags(argc, argv)); }
