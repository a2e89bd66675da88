// Scale guards: documents and KBs well beyond the evaluation sizes must
// still link correctly and within sane time budgets (the scalability claim
// of Sec. 6.2).
#include <gtest/gtest.h>

#include "common/timer.h"
#include "core/pipeline.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "tenet.h"  // umbrella header must stay self-contained

namespace tenet {
namespace {

TEST(StressTest, VeryLongDocumentLinksWithinBudget) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(91);
  datasets::DatasetSpec spec = datasets::Msnbc19Spec();
  spec.mentions_per_doc = 120;
  spec.words_per_doc = 2600;
  spec.conjunction_pairs_per_doc = 6;
  spec.composites_per_doc = 5;
  datasets::Document doc = gen.GenerateDocument(spec, "stress", false, rng);
  ASSERT_GT(doc.num_words, 1500);

  core::TenetPipeline tenet(world.view, &world.gazetteer());
  WallTimer timer;
  Result<core::LinkingResult> result = tenet.LinkDocument(doc.text);
  double ms = timer.ElapsedMillis();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->links.size(), 40u);
  // Generous single-core budget; the bench measures ~6 ms at 60 mentions.
  EXPECT_LT(ms, 2000.0) << "pathological slowdown";

  // All invariants still hold at scale (spot checks).
  std::set<int> linked;
  for (const core::LinkedConcept& link : result->links) {
    EXPECT_TRUE(linked.insert(link.mention_id).second);
  }
  Result<core::LinkingResult> again = tenet.LinkDocument(doc.text);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->links.size(), result->links.size());
}

TEST(StressTest, LargeKnowledgeBase) {
  datasets::WorldOptions options;
  options.kb.num_domains = 30;
  options.kb.entities_per_domain = 120;
  options.kb.num_predicates = 56;
  options.seed = 92;
  WallTimer timer;
  datasets::SyntheticWorld world = datasets::BuildWorld(options);
  double build_ms = timer.ElapsedMillis();
  EXPECT_GT(world.kb().num_entities(), 3500);
  EXPECT_LT(build_ms, 30000.0);

  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(93);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 4;
  datasets::Dataset ds = gen.Generate(spec, rng);
  core::TenetPipeline tenet(world.view, &world.gazetteer());
  for (const datasets::Document& doc : ds.documents) {
    Result<core::LinkingResult> result = tenet.LinkDocument(doc.text);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->links.empty());
  }
}

}  // namespace
}  // namespace tenet
