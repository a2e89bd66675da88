#include "kb/knowledge_base.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "embedding/embedding_store.h"
#include "kb/sharded_kb.h"

namespace tenet {
namespace kb {
namespace {

// Builds the paper's Figure 1 micro-KB: two Michael Jordans, AI topic, the
// AAAS fellowship, Brooklyn, and a few predicates.
KnowledgeBase BuildFigureOneKb() {
  KnowledgeBase kb;
  // Popularities make the basketball player the default sense.
  EntityId prof = kb.AddEntity("M. Jordan (professor)", EntityType::kPerson,
                               /*domain=*/0, /*popularity=*/3.0);
  EntityId player = kb.AddEntity("M. Jordan (basketball player)",
                                 EntityType::kPerson, 1, 7.0);
  kb.AddEntityAlias(prof, "Michael Jordan");
  kb.AddEntityAlias(player, "Michael Jordan");
  EntityId ai = kb.AddEntity("artificial intelligence", EntityType::kTopic,
                             0, 2.0);
  EntityId ml =
      kb.AddEntity("machine learning", EntityType::kTopic, 0, 2.0);
  EntityId aaas = kb.AddEntity("Fellow of the AAAS", EntityType::kOther, 0,
                               1.0);
  EntityId brooklyn =
      kb.AddEntity("Brooklyn", EntityType::kLocation, 2, 4.0);
  PredicateId field = kb.AddPredicate("field of study", 0);
  kb.AddPredicateAlias(field, "studies");
  PredicateId educated = kb.AddPredicate("educated at", 0);
  kb.AddPredicateAlias(educated, "studies", 0.5);
  PredicateId award = kb.AddPredicate("award received", 0);
  (void)award;
  EXPECT_TRUE(kb.AddFact(prof, field, ai).ok());
  EXPECT_TRUE(kb.AddFact(prof, field, ml).ok());
  EXPECT_TRUE(kb.AddFact(prof, award, aaas).ok());
  EXPECT_TRUE(kb.AddLiteralFact(brooklyn, educated, "1898").ok());
  kb.Finalize();
  return kb;
}

// The 1-shard layout candidate generation runs on (the KnowledgeBase
// builds the world; linkers read it through this partition).  Zero
// embeddings: only candidates are queried here.
ShardedKb Partitioned(const KnowledgeBase& kb) {
  embedding::EmbeddingStore embeddings(4, kb.num_entities(),
                                       kb.num_predicates());
  embeddings.Finalize();
  return ShardedKb::Partition(kb, embeddings, 1);
}

TEST(KnowledgeBaseTest, CountsAndRecords) {
  KnowledgeBase kb = BuildFigureOneKb();
  EXPECT_EQ(kb.num_entities(), 6);
  EXPECT_EQ(kb.num_predicates(), 3);
  EXPECT_EQ(kb.num_facts(), 4);
  EXPECT_EQ(kb.entity(0).label, "M. Jordan (professor)");
  EXPECT_EQ(kb.entity(0).type, EntityType::kPerson);
  EXPECT_EQ(kb.predicate(0).label, "field of study");
}

TEST(KnowledgeBaseTest, CandidateEntitiesOrderedByPrior) {
  const ShardedKb kb = Partitioned(BuildFigureOneKb());
  std::vector<EntityCandidate> candidates =
      kb.CandidateEntities("Michael Jordan", std::nullopt, 10);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].entity, 1);  // basketball player: 7.0 vs 3.0
  EXPECT_NEAR(candidates[0].prior, 0.7, 1e-9);
  EXPECT_NEAR(candidates[1].prior, 0.3, 1e-9);
}

TEST(KnowledgeBaseTest, CandidateEntitiesRespectTypeFilter) {
  const ShardedKb kb = Partitioned(BuildFigureOneKb());
  std::vector<EntityCandidate> persons =
      kb.CandidateEntities("Michael Jordan", EntityType::kPerson, 10);
  EXPECT_EQ(persons.size(), 2u);
  std::vector<EntityCandidate> locations =
      kb.CandidateEntities("Michael Jordan", EntityType::kLocation, 10);
  EXPECT_TRUE(locations.empty());
  std::vector<EntityCandidate> brooklyn =
      kb.CandidateEntities("brooklyn", EntityType::kLocation, 10);
  ASSERT_EQ(brooklyn.size(), 1u);
  EXPECT_NEAR(brooklyn[0].prior, 1.0, 1e-9);
}

TEST(KnowledgeBaseTest, TruncationRenormalizes) {
  const ShardedKb kb = Partitioned(BuildFigureOneKb());
  std::vector<EntityCandidate> top1 =
      kb.CandidateEntities("Michael Jordan", std::nullopt, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_NEAR(top1[0].prior, 1.0, 1e-9);
}

TEST(KnowledgeBaseTest, CandidatePredicates) {
  const ShardedKb kb = Partitioned(BuildFigureOneKb());
  std::vector<PredicateCandidate> candidates =
      kb.CandidatePredicates("studies", 10);
  ASSERT_EQ(candidates.size(), 2u);
  // "field of study" weighted 1.0 vs "educated at" 0.5 for this alias.
  EXPECT_EQ(candidates[0].predicate, 0);
  EXPECT_NEAR(candidates[0].prior, 2.0 / 3.0, 1e-9);
  EXPECT_TRUE(kb.CandidatePredicates("visited", 10).empty());
}

TEST(KnowledgeBaseTest, FactsAdjacency) {
  KnowledgeBase kb = BuildFigureOneKb();
  // prof (id 0) participates in 3 facts.
  EXPECT_EQ(kb.FactsOfEntity(0).size(), 3u);
  // ai (id 2) in 1 fact as object.
  EXPECT_EQ(kb.FactsOfEntity(2).size(), 1u);
  EXPECT_EQ(kb.FactsOfPredicate(0).size(), 2u);

  std::vector<EntityId> neighbors = kb.NeighborEntities(0);
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<EntityId>{2, 3, 4}));
  // Literal facts produce no entity neighbors.
  EXPECT_TRUE(kb.NeighborEntities(5).empty());
}

TEST(KnowledgeBaseTest, AddFactValidatesIds) {
  KnowledgeBase kb;
  EntityId e = kb.AddEntity("A", EntityType::kOther);
  PredicateId p = kb.AddPredicate("rel");
  EXPECT_TRUE(kb.AddFact(e, p, e).ok());  // self-fact allowed at API level
  EXPECT_FALSE(kb.AddFact(e, p, 99).ok());
  EXPECT_FALSE(kb.AddFact(99, p, e).ok());
  EXPECT_FALSE(kb.AddFact(e, 99, e).ok());
  EXPECT_FALSE(kb.AddLiteralFact(99, p, "x").ok());
}

TEST(KnowledgeBaseTest, MaxCandidatesZeroYieldsEmpty) {
  const ShardedKb kb = Partitioned(BuildFigureOneKb());
  EXPECT_TRUE(kb.CandidateEntities("Michael Jordan", std::nullopt, 0).empty());
}

}  // namespace
}  // namespace kb
}  // namespace tenet
