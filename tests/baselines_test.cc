#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/earl_like.h"
#include "baselines/falcon_like.h"
#include "baselines/kbpearl_like.h"
#include "baselines/mintree_like.h"
#include "baselines/pairlink_like.h"
#include "baselines/qkbfly_like.h"
#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "figure_one_world.h"

namespace tenet {
namespace baselines {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  static const datasets::SyntheticWorld& World() {
    static const datasets::SyntheticWorld* world =
        new datasets::SyntheticWorld(datasets::BuildWorld());
    return *world;
  }
  static BaselineSubstrate Substrate() {
    return BaselineSubstrate{World().view, &World().gazetteer(), {}};
  }
  static std::vector<std::unique_ptr<Linker>> AllLinkers() {
    std::vector<std::unique_ptr<Linker>> linkers;
    linkers.push_back(std::make_unique<FalconLike>(Substrate()));
    linkers.push_back(std::make_unique<QkbflyLike>(Substrate()));
    linkers.push_back(std::make_unique<KbPearlLike>(Substrate()));
    linkers.push_back(std::make_unique<EarlLike>(Substrate()));
    linkers.push_back(std::make_unique<MintreeLike>(Substrate()));
    linkers.push_back(std::make_unique<PairlinkLike>(Substrate()));
    linkers.push_back(std::make_unique<TenetLinker>(Substrate()));
    return linkers;
  }
};

TEST_F(BaselineTest, NamesAndCapabilities) {
  auto linkers = AllLinkers();
  EXPECT_EQ(linkers[0]->name(), "Falcon");
  EXPECT_EQ(linkers[1]->name(), "QKBfly");
  EXPECT_EQ(linkers[2]->name(), "KBPearl");
  EXPECT_EQ(linkers[3]->name(), "EARL");
  EXPECT_EQ(linkers[4]->name(), "MINTREE");
  EXPECT_EQ(linkers[5]->name(), "PairLink");
  EXPECT_EQ(linkers[6]->name(), "TENET");
  EXPECT_FALSE(linkers[1]->links_relations());  // QKBfly
  EXPECT_FALSE(linkers[4]->links_relations());  // MINTREE
  EXPECT_FALSE(linkers[5]->links_relations());  // PairLink
  EXPECT_TRUE(linkers[2]->links_relations());
  EXPECT_FALSE(linkers[0]->has_disambiguation_stage());  // Falcon
  EXPECT_FALSE(linkers[3]->has_disambiguation_stage());  // EARL
  EXPECT_TRUE(linkers[6]->has_disambiguation_stage());
}

TEST_F(BaselineTest, AllSystemsLinkASimpleDocument) {
  // Build a document from KB labels so every system has candidates.
  const kb::KnowledgeBase& kb = World().kb();
  std::string subject;
  std::string object;
  for (kb::EntityId id = 0; id < kb.num_entities(); ++id) {
    const kb::EntityRecord& rec = kb.entity(id);
    if (rec.type != kb::EntityType::kPerson) continue;
    if (subject.empty()) {
      subject = rec.label;
    } else if (rec.label != subject) {
      object = rec.label;
      break;
    }
  }
  ASSERT_FALSE(subject.empty());
  ASSERT_FALSE(object.empty());
  std::string text = subject + " mentored " + object + ".";

  for (const auto& linker : AllLinkers()) {
    Result<core::LinkingResult> result = linker->LinkDocument(text);
    ASSERT_TRUE(result.ok()) << linker->name() << ": " << result.status();
    // Every system produces *some* noun decision on this trivial document
    // (QKBfly may abstain into isolated; the mention universe is there).
    EXPECT_GE(result->mentions.num_mentions(), 2) << linker->name();
  }
}

TEST_F(BaselineTest, FalconLinksEverythingWithCandidates) {
  FalconLike falcon(Substrate());
  Result<core::LinkingResult> r =
      falcon.LinkDocument("Zorvex Quibble admired Brooklyn.");
  ASSERT_TRUE(r.ok());
  // No abstentions ever: isolated list stays empty even for fresh phrases.
  EXPECT_TRUE(r->isolated_mentions.empty());
}

TEST_F(BaselineTest, QkbflyHasHighestPrecisionLowestRecall) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(31);
  datasets::DatasetSpec spec = datasets::TRex42Spec();
  spec.num_docs = 12;
  datasets::Dataset ds = gen.Generate(spec, rng);

  QkbflyLike qkbfly(Substrate());
  FalconLike falcon(Substrate());
  TenetLinker tenet(Substrate());
  eval::SystemScores q = eval::EvaluateEndToEnd(qkbfly, ds);
  eval::SystemScores f = eval::EvaluateEndToEnd(falcon, ds);
  eval::SystemScores t = eval::EvaluateEndToEnd(tenet, ds);

  // The paper's profile: QKBfly trades recall for precision.
  EXPECT_GT(q.entity_linking.Precision(), t.entity_linking.Precision());
  EXPECT_LT(q.entity_linking.Recall(), t.entity_linking.Recall());
  EXPECT_GT(q.entity_linking.Precision(), f.entity_linking.Precision());
}

TEST_F(BaselineTest, TenetOutperformsBaselinesOnEntityLinking) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(32);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  datasets::Dataset ds = gen.Generate(spec, rng);

  TenetLinker tenet(Substrate());
  eval::SystemScores t = eval::EvaluateEndToEnd(tenet, ds);
  for (const auto& linker : AllLinkers()) {
    if (linker->name() == "TENET") continue;
    eval::SystemScores s = eval::EvaluateEndToEnd(*linker, ds);
    EXPECT_GT(t.entity_linking.F1(), s.entity_linking.F1())
        << "TENET should beat " << linker->name() << " on News";
  }
}

TEST_F(BaselineTest, MintreeNeverAbstains) {
  MintreeLike mintree(Substrate());
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(33);
  datasets::Dataset ds = gen.Generate(datasets::Kore50Spec(), rng);
  for (const datasets::Document& d : ds.documents) {
    Result<core::LinkingResult> r = mintree.LinkDocument(d.text);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->isolated_mentions.empty());
    // Every noun mention with candidates is linked.
    for (int m = 0; m < r->mentions.num_mentions(); ++m) {
      if (!r->mentions.mention(m).is_noun()) continue;
    }
  }
}

TEST_F(BaselineTest, DisambiguationModeWorksForStagedSystems) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(34);
  datasets::DatasetSpec spec = datasets::Kore50Spec();
  spec.num_docs = 10;
  datasets::Dataset ds = gen.Generate(spec, rng);

  for (const auto& linker : AllLinkers()) {
    if (!linker->has_disambiguation_stage()) continue;
    eval::SystemScores s =
        eval::EvaluateDisambiguation(*linker, ds, World().gazetteer());
    EXPECT_EQ(s.failed_documents, 0) << linker->name();
    EXPECT_GT(s.entity_linking.F1(), 0.5) << linker->name();
  }
}

TEST_F(BaselineTest, DeterministicResults) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(35);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 3;
  datasets::Dataset ds = gen.Generate(spec, rng);
  for (const auto& linker : AllLinkers()) {
    eval::SystemScores a = eval::EvaluateEndToEnd(*linker, ds);
    eval::SystemScores b = eval::EvaluateEndToEnd(*linker, ds);
    EXPECT_EQ(a.entity_linking.tp, b.entity_linking.tp) << linker->name();
    EXPECT_EQ(a.entity_linking.fp, b.entity_linking.fp) << linker->name();
  }
}

// Figure-1 contrast: Falcon (no coherence) links Michael Jordan to the
// popular player; TENET recovers the professor.
TEST(BaselineFigureOneTest, CoherenceSeparatesTenetFromFalcon) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  BaselineSubstrate substrate{world.view, &world.gazetteer, {}};
  const char* text =
      "Michael Jordan studies artificial intelligence and machine learning.";
  FalconLike falcon(substrate);
  TenetLinker tenet(substrate);
  Result<core::LinkingResult> f = falcon.LinkDocument(text);
  Result<core::LinkingResult> t = tenet.LinkDocument(text);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(t.ok());
  auto find = [](const core::LinkingResult& r, const std::string& s) {
    for (const core::LinkedConcept& link : r.links) {
      if (link.surface == s) return link.concept_ref.id;
    }
    return kb::kInvalidEntity;
  };
  EXPECT_EQ(find(*f, "Michael Jordan"), world.player);     // popularity
  EXPECT_EQ(find(*t, "Michael Jordan"), world.professor);  // coherence
}

}  // namespace
}  // namespace baselines
}  // namespace tenet
