// Regression guard for the paper's headline shapes (EXPERIMENTS.md):
// these orderings define the reproduction — any refactor that flips one
// must fail loudly here rather than silently in a bench.
//
// Uses reduced corpora (fewer documents) so the suite stays fast; the
// margins asserted are conservative.
#include <memory>

#include <gtest/gtest.h>

#include "baselines/earl_like.h"
#include "baselines/falcon_like.h"
#include "baselines/kbpearl_like.h"
#include "baselines/mintree_like.h"
#include "baselines/qkbfly_like.h"
#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"

namespace tenet {
namespace {

class ShapeRegressionTest : public ::testing::Test {
 protected:
  static const datasets::SyntheticWorld& World() {
    static const datasets::SyntheticWorld* world =
        new datasets::SyntheticWorld(datasets::BuildWorld());
    return *world;
  }

  static baselines::BaselineSubstrate Substrate() {
    return baselines::BaselineSubstrate{World().view, &World().gazetteer(), {}};
  }

  // The evaluation corpora at full size, cached.
  static const std::vector<datasets::Dataset>& Corpora() {
    static const std::vector<datasets::Dataset>* corpora = [] {
      auto* out = new std::vector<datasets::Dataset>();
      datasets::CorpusGenerator gen(&World().kb_world);
      Rng rng(77);  // the bench seed: the regression pins bench behaviour
      out->push_back(gen.Generate(datasets::NewsSpec(), rng));
      out->push_back(gen.Generate(datasets::TRex42Spec(), rng));
      out->push_back(gen.Generate(datasets::Kore50Spec(), rng));
      out->push_back(gen.Generate(datasets::Msnbc19Spec(), rng));
      return out;
    }();
    return *corpora;
  }
};

// Table 3: TENET attains the best entity-linking F1 on every dataset.
TEST_F(ShapeRegressionTest, TenetBestEntityLinkingEverywhere) {
  baselines::TenetLinker tenet(Substrate());
  std::vector<std::unique_ptr<baselines::Linker>> baselines_list;
  baselines_list.push_back(
      std::make_unique<baselines::FalconLike>(Substrate()));
  baselines_list.push_back(
      std::make_unique<baselines::QkbflyLike>(Substrate()));
  baselines_list.push_back(
      std::make_unique<baselines::KbPearlLike>(Substrate()));
  baselines_list.push_back(std::make_unique<baselines::EarlLike>(Substrate()));
  baselines_list.push_back(
      std::make_unique<baselines::MintreeLike>(Substrate()));

  for (const datasets::Dataset& dataset : Corpora()) {
    double tenet_f1 =
        eval::EvaluateEndToEnd(tenet, dataset).entity_linking.F1();
    for (const auto& baseline : baselines_list) {
      double baseline_f1 =
          eval::EvaluateEndToEnd(*baseline, dataset).entity_linking.F1();
      EXPECT_GT(tenet_f1, baseline_f1)
          << baseline->name() << " beats TENET on " << dataset.name;
    }
  }
}

// Table 3 column shape: QKBfly trades recall for precision everywhere.
TEST_F(ShapeRegressionTest, QkbflyPrecisionHeavyRecallLight) {
  baselines::QkbflyLike qkbfly(Substrate());
  baselines::TenetLinker tenet(Substrate());
  for (const datasets::Dataset& dataset : Corpora()) {
    eval::SystemScores q = eval::EvaluateEndToEnd(qkbfly, dataset);
    eval::SystemScores t = eval::EvaluateEndToEnd(tenet, dataset);
    EXPECT_GT(q.entity_linking.Precision(), 0.9) << dataset.name;
    EXPECT_LT(q.entity_linking.Recall(), t.entity_linking.Recall())
        << dataset.name;
  }
}

// Table 4: TENET best relation-linking F1 on both annotated datasets.
TEST_F(ShapeRegressionTest, TenetBestRelationLinking) {
  baselines::TenetLinker tenet(Substrate());
  baselines::KbPearlLike kbpearl(Substrate());
  baselines::FalconLike falcon(Substrate());
  for (const datasets::Dataset& dataset : Corpora()) {
    if (!dataset.has_relation_gold) continue;
    double t = eval::EvaluateEndToEnd(tenet, dataset).relation_linking.F1();
    double k =
        eval::EvaluateEndToEnd(kbpearl, dataset).relation_linking.F1();
    double f = eval::EvaluateEndToEnd(falcon, dataset).relation_linking.F1();
    EXPECT_GT(t, k) << dataset.name;
    EXPECT_GT(t, f) << dataset.name;
    EXPECT_GT(k, f) << dataset.name;  // KBPearl above the no-coherence line
  }
}

// Figure 6(c): isolated-concept precision TENET > KBPearl > QKBfly on the
// advertisement News articles.
TEST_F(ShapeRegressionTest, IsolatedDetectionOrdering) {
  datasets::Dataset ads;
  ads.name = "News-ads";
  ads.has_relation_gold = true;
  for (const datasets::Document& d : Corpora()[0].documents) {
    if (d.advertisement) ads.documents.push_back(d);
  }
  ASSERT_FALSE(ads.documents.empty());
  baselines::TenetLinker tenet(Substrate());
  baselines::KbPearlLike kbpearl(Substrate());
  baselines::QkbflyLike qkbfly(Substrate());
  double t = eval::EvaluateEndToEnd(tenet, ads).isolated_detection.Precision();
  double k =
      eval::EvaluateEndToEnd(kbpearl, ads).isolated_detection.Precision();
  double q =
      eval::EvaluateEndToEnd(qkbfly, ads).isolated_detection.Precision();
  EXPECT_GT(t, k);
  EXPECT_GT(k, q);
}

// Figure 6(a): TENET's mention detection leads the coarse and short-only
// spotters on long text.
TEST_F(ShapeRegressionTest, MentionDetectionOrdering) {
  baselines::TenetLinker tenet(Substrate());
  baselines::KbPearlLike kbpearl(Substrate());
  baselines::FalconLike falcon(Substrate());
  const datasets::Dataset& msnbc = Corpora()[3];
  double t = eval::EvaluateEndToEnd(tenet, msnbc).mention_detection.F1();
  double k = eval::EvaluateEndToEnd(kbpearl, msnbc).mention_detection.F1();
  double f = eval::EvaluateEndToEnd(falcon, msnbc).mention_detection.F1();
  EXPECT_GT(t, k);
  EXPECT_GT(k, f);
}

// The headline claim is not a seed artifact.  Individual corpus draws can
// flip by a hair (the paper's own News margin is 0.454 vs 0.450), so the
// guard asserts the aggregate: across fresh News + T-REx draws, TENET wins
// the majority of corpora and the mean F1.
TEST_F(ShapeRegressionTest, HeadlineHoldsAcrossCorpusSeeds) {
  baselines::TenetLinker tenet(Substrate());
  baselines::KbPearlLike kbpearl(Substrate());
  datasets::CorpusGenerator gen(&World().kb_world);
  double tenet_sum = 0.0;
  double kbpearl_sum = 0.0;
  int wins = 0;
  int draws = 0;
  for (uint64_t seed : {177u, 277u, 377u}) {
    Rng rng(seed);
    for (const datasets::DatasetSpec& spec :
         {datasets::NewsSpec(), datasets::TRex42Spec()}) {
      datasets::Dataset ds = gen.Generate(spec, rng);
      double t = eval::EvaluateEndToEnd(tenet, ds).entity_linking.F1();
      double k = eval::EvaluateEndToEnd(kbpearl, ds).entity_linking.F1();
      tenet_sum += t;
      kbpearl_sum += k;
      wins += t > k ? 1 : 0;
      ++draws;
    }
  }
  EXPECT_GT(tenet_sum / draws, kbpearl_sum / draws);
  EXPECT_GT(wins * 2, draws);  // majority of corpora
}

}  // namespace
}  // namespace tenet
