// End-to-end scenario tests mirroring the paper's motivating use cases:
// the Figure-1 semantic join (CA ↔ California via shared city sets), an
// address-deduplication pipeline, and the advisor-tuned join pipeline.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "baselines/nested_loop.h"
#include "core/parameter_advisor.h"
#include "core/partenum_jaccard.h"
#include "core/ssjoin.h"
#include "core/string_join.h"
#include "core/wtenum.h"
#include "data/generators.h"
#include "text/edit_distance.h"
#include "text/idf.h"
#include "text/tokenizer.h"
#include "util/hashing.h"

namespace ssjoin {
namespace {

TEST(EndToEndTest, FigureOneStateExpansionScenario) {
  // Two tables associate cities with state names, one abbreviated and one
  // expanded. An SSJoin over the city sets links CA <-> California even
  // though the names share no syntax.
  std::vector<std::pair<std::string, std::string>> table1 = {
      {"los angeles", "CA"},  {"palo alto", "CA"},
      {"san diego", "CA"},    {"santa barbara", "CA"},
      {"san francisco", "CA"}, {"seattle", "WA"},
      {"tacoma", "WA"},        {"spokane", "WA"},
      {"portland", "OR"},      {"eugene", "OR"}};
  std::vector<std::pair<std::string, std::string>> table2 = {
      {"los angeles", "California"},   {"san diego", "California"},
      {"santa barbara", "California"}, {"san francisco", "California"},
      {"sacramento", "California"},    {"seattle", "Washington"},
      {"spokane", "Washington"},       {"bellevue", "Washington"},
      {"salem", "Oregon"},             {"portland", "Oregon"},
      {"eugene", "Oregon"}};

  auto group = [&](const auto& table, std::vector<std::string>* names) {
    std::map<std::string, std::vector<ElementId>> by_state;
    for (const auto& [city, state] : table) {
      by_state[state].push_back(HashStringToken(city));
    }
    SetCollectionBuilder builder;
    for (const auto& [state, cities] : by_state) {
      names->push_back(state);
      builder.Add(cities);
    }
    return builder.Build();
  };
  std::vector<std::string> names1, names2;
  SetCollection r = group(table1, &names1);
  SetCollection s = group(table2, &names2);

  PartEnumJaccardParams params;
  params.gamma = 0.5;
  params.max_set_size = std::max(r.max_set_size(), s.max_set_size());
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.5);
  JoinResult result = Join(BinaryJoinRequest(r, s, *scheme, predicate));

  std::map<std::string, std::string> matches;
  for (const SetPair& p : result.pairs) {
    matches[names1[p.first]] = names2[p.second];
  }
  EXPECT_EQ(matches["CA"], "California");
  EXPECT_EQ(matches["WA"], "Washington");
  EXPECT_EQ(matches["OR"], "Oregon");
}

TEST(EndToEndTest, AdvisorTunedJoinIsStillExact) {
  UniformSetOptions options;
  options.num_sets = 300;
  options.set_size = 30;
  options.domain_size = 1500;
  options.similar_fraction = 0.1;
  options.mutations = 2;
  SetCollection input = GenerateUniformSets(options);

  // Tune (n1, n2) with the advisor for the equi-sized hamming reduction,
  // then run the jaccard join with the tuned chooser.
  double gamma = 0.85;
  uint32_t k =
      PartEnumJaccardScheme::EquisizedHammingThreshold(30, gamma);
  auto choice = ChoosePartEnumParams(input, k);
  ASSERT_TRUE(choice.ok());

  PartEnumJaccardParams params;
  params.gamma = gamma;
  params.max_set_size = input.max_set_size();
  PartEnumParams tuned = choice->params;
  params.chooser = [tuned](uint32_t threshold) {
    PartEnumParams p = tuned;
    p.k = threshold;
    return p;
  };
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(gamma);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, predicate));
}

TEST(EndToEndTest, WeightedPipelineOnBibliographicData) {
  DblpOptions options;
  options.num_strings = 250;
  options.duplicate_fraction = 0.2;
  options.max_typos = 1;
  WordTokenizer tokenizer;
  SetCollection input =
      tokenizer.TokenizeAll(GenerateDblpStrings(options));
  IdfWeights idf = IdfWeights::Compute(input);
  WeightFunction weights = [&idf](ElementId e) {
    return idf.Weight(e) + 0.01;
  };

  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < input.size(); ++id) {
    if (input.set_size(id) == 0) continue;
    min_ws = std::min(min_ws, WeightedSize(input.set(id), weights));
  }
  WtEnumParams params;
  params.pruning_threshold = idf.DefaultPruningThreshold();
  auto scheme =
      WtEnumScheme::CreateJaccard(weights, weights, 0.8, min_ws, params);
  ASSERT_TRUE(scheme.ok());
  WeightedJaccardPredicate predicate(0.8, weights);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, predicate));
  EXPECT_GT(result.pairs.size(), 0u);
}

TEST(EndToEndTest, DedupPipelineFindsPlantedDuplicates) {
  AddressOptions options;
  options.num_strings = 300;
  options.duplicate_fraction = 0.15;
  options.max_typos = 2;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  StringJoinOptions join_options;
  join_options.edit_threshold = 3;
  auto result = StringSimilaritySelfJoin(strings, join_options);
  ASSERT_TRUE(result.ok());
  // ~15% of 300 strings are near-duplicates within <= 2*3 = 6 edits of a
  // base; with threshold 3 and 1..3 typos most are found (typos cost <= 2
  // edits each). The pipeline must find a healthy number of pairs.
  EXPECT_GT(result->pairs.size(), 10u);
  for (const SetPair& p : result->pairs) {
    EXPECT_TRUE(WithinEditDistance(strings[p.first], strings[p.second], 3));
  }
}

}  // namespace
}  // namespace ssjoin
