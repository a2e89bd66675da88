#include "core/population.h"

#include <gtest/gtest.h>

#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "figure_one_world.h"

namespace tenet {
namespace core {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

TEST(PopulationTest, HarvestsFigureOneFacts) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(
      "Michael Jordan studies artificial intelligence and machine learning. "
      "He visited Brooklyn in April 2019.");
  ASSERT_TRUE(result.ok());

  KbPopulator populator(&world.kb);
  std::vector<FactCandidate> facts = populator.HarvestFacts(*result);
  // Sentence 0: (professor, field_of_study, ai) — already in the KB.
  bool found_known = false;
  for (const FactCandidate& fact : facts) {
    if (fact.subject == world.professor &&
        fact.predicate == world.field_of_study && fact.object == world.ai) {
      found_known = true;
      EXPECT_TRUE(fact.already_known);
    }
  }
  EXPECT_TRUE(found_known);

  std::vector<EmergingEntity> emerging =
      populator.HarvestEmergingEntities(*result);
  bool found_april = false;
  for (const EmergingEntity& entity : emerging) {
    if (entity.surface == "April 2019") found_april = true;
  }
  EXPECT_TRUE(found_april);
}

TEST(PopulationTest, AccumulateCountsSupport) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  const char* text =
      "Michael Jordan studies artificial intelligence. "
      "He visited Brooklyn in April 2019.";
  Result<LinkingResult> r1 = tenet.LinkDocument(text);
  Result<LinkingResult> r2 = tenet.LinkDocument(text);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());

  KbPopulator populator(&world.kb);
  PopulationReport report;
  populator.Accumulate(*r1, &report);
  populator.Accumulate(*r2, &report);
  for (const FactCandidate& fact : report.facts) {
    EXPECT_EQ(fact.support, 2);
  }
  for (const EmergingEntity& entity : report.entities) {
    EXPECT_EQ(entity.support, 2);
  }
}

TEST(PopulationTest, ApplyToKbAddsNewKnowledge) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(
      "Michael Jordan visited Brooklyn. Zorvex Guild admired Brooklyn.");
  ASSERT_TRUE(result.ok());

  KbPopulator populator(&world.kb);
  PopulationReport report;
  populator.Accumulate(*result, &report);
  ASSERT_FALSE(report.facts.empty());
  EXPECT_GT(report.NumNewFacts(), 0);

  // Rebuild a target KB with the same concepts and apply the report.
  kb::KnowledgeBase target;
  for (kb::EntityId id = 0; id < world.kb.num_entities(); ++id) {
    const kb::EntityRecord& rec = world.kb.entity(id);
    target.AddEntity(rec.label, rec.type, rec.domain, rec.popularity);
  }
  for (kb::PredicateId id = 0; id < world.kb.num_predicates(); ++id) {
    const kb::PredicateRecord& rec = world.kb.predicate(id);
    target.AddPredicate(rec.label, rec.domain, rec.popularity);
  }
  int before = target.num_facts();
  int added = populator.ApplyToKb(report, /*min_support=*/1,
                                  kb::EntityType::kOther, &target);
  EXPECT_GT(added, 0);
  EXPECT_EQ(target.num_facts(), before + added);
  // Emerging entities were inserted.
  EXPECT_GT(target.num_entities(), world.kb.num_entities());
  target.Finalize();
  // The emerging surface is now a KB candidate.
  EXPECT_TRUE(target.alias_index().ContainsSurface(
      "Zorvex Guild", kb::ConceptRef::Kind::kEntity));
}

TEST(PopulationTest, MinSupportFilters) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result =
      tenet.LinkDocument("Michael Jordan visited Brooklyn.");
  ASSERT_TRUE(result.ok());
  KbPopulator populator(&world.kb);
  PopulationReport report;
  populator.Accumulate(*result, &report);

  kb::KnowledgeBase target;
  for (kb::EntityId id = 0; id < world.kb.num_entities(); ++id) {
    const kb::EntityRecord& rec = world.kb.entity(id);
    target.AddEntity(rec.label, rec.type, rec.domain, rec.popularity);
  }
  for (kb::PredicateId id = 0; id < world.kb.num_predicates(); ++id) {
    const kb::PredicateRecord& rec = world.kb.predicate(id);
    target.AddPredicate(rec.label, rec.domain, rec.popularity);
  }
  // Support threshold above every candidate's count: nothing is applied.
  int added = populator.ApplyToKb(report, /*min_support=*/5,
                                  kb::EntityType::kOther, &target);
  EXPECT_EQ(added, 0);
  EXPECT_EQ(target.num_entities(), world.kb.num_entities());
}

TEST(PopulationTest, CorpusScalePopulation) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(81);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 6;
  datasets::Dataset corpus = gen.Generate(spec, rng);

  TenetPipeline tenet(world.view, &world.gazetteer());
  KbPopulator populator(&world.kb());
  PopulationReport report;
  for (const datasets::Document& doc : corpus.documents) {
    Result<LinkingResult> result = tenet.LinkDocument(doc.text);
    ASSERT_TRUE(result.ok());
    populator.Accumulate(*result, &report);
  }
  EXPECT_FALSE(report.facts.empty());
  EXPECT_FALSE(report.entities.empty());
  // Facts never repeat in the deduplicated report.
  for (size_t i = 0; i < report.facts.size(); ++i) {
    for (size_t j = i + 1; j < report.facts.size(); ++j) {
      EXPECT_FALSE(report.facts[i] == report.facts[j]);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace tenet
