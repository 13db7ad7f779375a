// Component micro-benchmarks (google-benchmark): the primitives whose
// costs compose into the figure-level results — signature generation per
// scheme, banded edit distance, minhashing, tokenization and q-gram bags,
// the parameter advisor's search, intersection kernels, and the AMS
// sketch.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/lsh.h"
#include "baselines/prefix_filter.h"
#include "core/kernels/bitmap_filter.h"
#include "core/kernels/hash_kernels.h"
#include "core/kernels/intersect.h"
#include "core/parameter_advisor.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "core/wtenum.h"
#include "data/generators.h"
#include "text/edit_distance.h"
#include "text/idf.h"
#include "text/qgram.h"
#include "text/tokenizer.h"
#include "util/ams_sketch.h"
#include "util/sorted_sets.h"
#include "util/random.h"

namespace ssjoin {
namespace {

SetCollection MakeSets(size_t n, uint32_t size, uint32_t domain) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = size;
  options.domain_size = domain;
  options.similar_fraction = 0;
  return GenerateUniformSets(options);
}

void BM_PartEnumSignatures(benchmark::State& state) {
  SetCollection sets = MakeSets(256, 50, 10000);
  PartEnumParams params;
  params.k = 11;
  params.n1 = static_cast<uint32_t>(state.range(0));
  params.n2 = static_cast<uint32_t>(state.range(1));
  auto scheme = PartEnumScheme::Create(params);
  if (!scheme.ok()) {
    state.SkipWithError("invalid params");
    return;
  }
  std::vector<Signature> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    scheme->Generate(sets.set(i++ % sets.size()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartEnumSignatures)->Args({6, 3})->Args({4, 4})->Args({2, 7});

void BM_PartEnumJaccardSignatures(benchmark::State& state) {
  SetCollection sets = MakeSets(256, 20, 10000);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = 20;
  auto scheme = PartEnumJaccardScheme::Create(params);
  std::vector<Signature> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    scheme->Generate(sets.set(i++ % sets.size()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartEnumJaccardSignatures);

void BM_PrefixFilterSignatures(benchmark::State& state) {
  SetCollection sets = MakeSets(2000, 20, 10000);
  auto predicate = std::make_shared<JaccardPredicate>(0.85);
  auto scheme = PrefixFilterScheme::Create(predicate, sets);
  std::vector<Signature> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    scheme->Generate(sets.set(i++ % sets.size()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixFilterSignatures);

void BM_LshSignatures(benchmark::State& state) {
  SetCollection sets = MakeSets(256, 50, 10000);
  LshParams params = LshParams::ForAccuracy(0.85, 0.05, 3);
  auto scheme = LshScheme::Create(params);
  std::vector<Signature> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    scheme->Generate(sets.set(i++ % sets.size()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LshSignatures);

void BM_WtEnumSignatures(benchmark::State& state) {
  SetCollection sets = MakeSets(512, 12, 3000);
  IdfWeights idf = IdfWeights::Compute(sets);
  auto idf_ptr = std::make_shared<IdfWeights>(std::move(idf));
  WeightFunction weights = [idf_ptr](ElementId e) {
    return idf_ptr->Weight(e) + 0.01;
  };
  WtEnumParams params;
  params.pruning_threshold = idf_ptr->DefaultPruningThreshold();
  auto scheme = WtEnumScheme::CreateOverlap(weights, weights, 10.0, params);
  std::vector<Signature> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    scheme->Generate(sets.set(i++ % sets.size()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WtEnumSignatures);

void BM_BoundedEditDistance(benchmark::State& state) {
  AddressOptions options;
  options.num_strings = 512;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  uint32_t k = static_cast<uint32_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const std::string& a = strings[i % strings.size()];
    const std::string& b = strings[(i + 1) % strings.size()];
    benchmark::DoNotOptimize(BoundedEditDistance(a, b, k));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedEditDistance)->Arg(1)->Arg(3)->Arg(8);

void BM_FullEditDistance(benchmark::State& state) {
  AddressOptions options;
  options.num_strings = 512;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(strings[i % strings.size()],
                                          strings[(i + 1) % strings.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullEditDistance);

void BM_MinHash(benchmark::State& state) {
  SetCollection sets = MakeSets(256, 50, 100000);
  MinHasher hasher(16, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hasher.MinHash(sets.set(i % sets.size()), i % 16));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinHash);

void BM_Tokenize(benchmark::State& state) {
  AddressOptions options;
  options.num_strings = 512;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  WordTokenizer tokenizer;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(strings[i++ % strings.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Tokenize);

void BM_TokenizeAll(benchmark::State& state) {
  AddressOptions options;
  options.num_strings = 512;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  WordTokenizer tokenizer;
  for (auto _ : state) {
    SetCollection sets = tokenizer.TokenizeAll(strings);
    benchmark::DoNotOptimize(sets.set(0).data());
  }
  state.SetItemsProcessed(state.iterations() * strings.size());
}
BENCHMARK(BM_TokenizeAll);

void BM_QgramBags(benchmark::State& state) {
  AddressOptions options;
  options.num_strings = 512;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  QgramExtractor extractor(
      QgramOptions{.q = static_cast<uint32_t>(state.range(0))});
  for (auto _ : state) {
    SetCollection bags = extractor.ExtractAllAsBags(strings);
    benchmark::DoNotOptimize(bags.set(0).data());
  }
  state.SetItemsProcessed(state.iterations() * strings.size());
}
BENCHMARK(BM_QgramBags)->Arg(1)->Arg(3);

// The advisor's bounded (n1, n2) search over a 2000-set Fig-14 sample
// (50-element sets, γ = 0.8 equi-sized hamming threshold), capped at the
// argument's signatures per set: 64 is the synthetic workload's setup
// cost, 4096 the CLI default's.
void BM_ChoosePartEnumParams(benchmark::State& state) {
  SetCollection sets = GenerateUniformSets({.num_sets = 2000,
                                            .set_size = 50,
                                            .domain_size = 10000,
                                            .similar_fraction = 0.02,
                                            .mutations = 2,
                                            .seed = 8});
  uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(50, 0.8);
  AdvisorOptions advisor;
  advisor.sample_size = 2000;
  advisor.max_signatures_per_set = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto choice = ChoosePartEnumParams(sets, k, 100000, advisor);
    benchmark::DoNotOptimize(choice.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChoosePartEnumParams)
    ->Arg(64)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_SortedIntersection(benchmark::State& state) {
  SetCollection sets = MakeSets(256, 50, 10000);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersectionSize(
        sets.set(i % sets.size()), sets.set((i + 1) % sets.size())));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SortedIntersection);

void BM_AmsSketchAdd(benchmark::State& state) {
  AmsSketch sketch(16, 5);
  Rng rng(1);
  for (auto _ : state) {
    sketch.Add(rng.Next64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmsSketchAdd);

// --- Kernel layer (src/core/kernels/, DESIGN.md Section 11) ----------
// These pin the wins the kernel layer claims: the galloping
// intersection vs the scalar merge, the bitmap pre-filter check cost,
// the batched hash transforms vs their scalar chains, and bucketed
// candidate dedup. main below also writes every run's results as JSON
// to BENCH_kernels.json in the working directory; no copy is checked
// in.

std::pair<std::vector<uint32_t>, std::vector<uint32_t>> MakeSortedPair(
    uint32_t size_a, uint32_t size_b, uint32_t domain, uint64_t seed) {
  Rng rng(seed);
  auto a = SampleWithoutReplacement(domain, size_a, rng);
  auto b = SampleWithoutReplacement(domain, size_b, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return {std::move(a), std::move(b)};
}

void BM_IntersectKernel(benchmark::State& state) {
  auto kernel = static_cast<kernels::IntersectKernel>(state.range(0));
  auto [a, b] = MakeSortedPair(static_cast<uint32_t>(state.range(1)),
                               static_cast<uint32_t>(state.range(2)),
                               static_cast<uint32_t>(state.range(2)) * 4,
                               42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::IntersectSizeWith(kernel, a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kernels::IntersectKernelName(kernel));
}
// Comparable sizes (the scalar-merge regime) and skewed ratios (the
// galloping regime), each run through both kernels for the comparison.
BENCHMARK(BM_IntersectKernel)
    ->Args({0, 50, 50})->Args({1, 50, 50})
    ->Args({0, 200, 200})->Args({1, 200, 200})
    ->Args({0, 16, 2048})->Args({1, 16, 2048});

void BM_IntersectDispatch(benchmark::State& state) {
  auto [a, b] = MakeSortedPair(static_cast<uint32_t>(state.range(0)),
                               static_cast<uint32_t>(state.range(1)),
                               static_cast<uint32_t>(state.range(1)) * 4,
                               43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::IntersectSize(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntersectDispatch)
    ->Args({50, 50})->Args({200, 200})->Args({16, 2048});

void BM_BitmapBuild(benchmark::State& state) {
  SetCollection sets = MakeSets(4096, 20, 10000);
  for (auto _ : state) {
    kernels::BitmapTable table = kernels::BitmapTable::Build(sets);
    benchmark::DoNotOptimize(table.row(0));
  }
  state.SetItemsProcessed(state.iterations() * sets.size());
}
BENCHMARK(BM_BitmapBuild);

void BM_BitmapMayMatch(benchmark::State& state) {
  SetCollection sets = MakeSets(1024, 20, 10000);
  kernels::BitmapTable table = kernels::BitmapTable::Build(sets);
  JaccardPredicate predicate(0.85);
  size_t i = 0;
  for (auto _ : state) {
    SetId r = static_cast<SetId>(i % sets.size());
    SetId s = static_cast<SetId>((i + 1) % sets.size());
    benchmark::DoNotOptimize(table.MayMatch(
        predicate, r, s, static_cast<uint32_t>(sets.set(r).size()),
        static_cast<uint32_t>(sets.set(s).size())));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapMayMatch);

void BM_HashCombineScalarChain(benchmark::State& state) {
  std::vector<uint64_t> values(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto& v : values) v = rng.Next64();
  std::vector<uint64_t> out(values.size());
  for (auto _ : state) {
    for (size_t i = 0; i < values.size(); ++i) {
      out[i] = HashCombine(0x1234, values[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_HashCombineScalarChain)->Arg(64)->Arg(1024);

void BM_HashCombineBatch(benchmark::State& state) {
  std::vector<uint64_t> values(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto& v : values) v = rng.Next64();
  std::vector<uint64_t> out(values.size());
  for (auto _ : state) {
    std::copy(values.begin(), values.end(), out.begin());
    kernels::HashCombineBatch(0x1234, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_HashCombineBatch)->Arg(64)->Arg(1024);

void BM_MixBatch(benchmark::State& state) {
  std::vector<uint32_t> values(static_cast<size_t>(state.range(0)));
  Rng rng(8);
  for (auto& v : values) v = rng.Next32();
  std::vector<uint64_t> mixed(values.size());
  for (auto _ : state) {
    kernels::MixBatch(values, mixed.data());
    benchmark::DoNotOptimize(mixed.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_MixBatch)->Arg(64)->Arg(1024);

void BM_DedupSortUnique(benchmark::State& state) {
  // Candidate dedup: the 4096-pair case is one in-cache bucket of
  // core/kernels/posting_groups.
  Rng rng(9);
  std::vector<uint64_t> keys(static_cast<size_t>(state.range(0)));
  for (auto& k : keys) k = rng.Uniform(static_cast<uint32_t>(keys.size() / 4));
  for (auto _ : state) {
    std::vector<uint64_t> copy = keys;
    std::sort(copy.begin(), copy.end());
    copy.erase(std::unique(copy.begin(), copy.end()), copy.end());
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_DedupSortUnique)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace ssjoin

// BENCHMARK_MAIN, plus a default --benchmark_out so every run leaves its
// results in BENCH_kernels.json in the working directory (git ignores
// it; explicit --benchmark_out flags still win).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
