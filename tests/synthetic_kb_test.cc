#include "kb/synthetic_kb.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "kb/sharded_kb.h"

namespace tenet {
namespace kb {
namespace {

SyntheticKb Generate(uint64_t seed, SyntheticKbOptions options = {}) {
  Rng rng(seed);
  return SyntheticKbGenerator(options).Generate(rng);
}

// The 1-shard layout linkers read `world.kb` through (zero embeddings:
// these tests only query candidates).
ShardedKb View(const SyntheticKb& world) {
  embedding::EmbeddingStore embeddings(4, world.kb.num_entities(),
                                       world.kb.num_predicates());
  embeddings.Finalize();
  return ShardedKb::Partition(world.kb, embeddings, 1);
}

TEST(SyntheticKbTest, SizesMatchOptions) {
  SyntheticKbOptions options;
  options.num_domains = 4;
  options.entities_per_domain = 20;
  options.composite_entities_per_domain = 3;
  options.num_predicates = 12;
  SyntheticKb world = Generate(7, options);

  EXPECT_TRUE(world.kb.finalized());
  EXPECT_GE(world.kb.num_entities(), 4 * 20);
  EXPECT_LE(world.kb.num_entities(), 4 * 23);
  EXPECT_EQ(world.kb.num_predicates(), 12);
  EXPECT_EQ(static_cast<int>(world.entities_by_domain.size()), 4);
  EXPECT_EQ(static_cast<int>(world.entity_surfaces.size()),
            world.kb.num_entities());
  EXPECT_EQ(static_cast<int>(world.predicate_surfaces.size()), 12);
  EXPECT_GT(world.kb.num_facts(), 0);
}

TEST(SyntheticKbTest, DeterministicForSameSeed) {
  SyntheticKb a = Generate(99);
  SyntheticKb b = Generate(99);
  ASSERT_EQ(a.kb.num_entities(), b.kb.num_entities());
  for (EntityId id = 0; id < a.kb.num_entities(); ++id) {
    EXPECT_EQ(a.kb.entity(id).label, b.kb.entity(id).label);
    EXPECT_EQ(a.kb.entity(id).type, b.kb.entity(id).type);
  }
  ASSERT_EQ(a.kb.num_facts(), b.kb.num_facts());
}

TEST(SyntheticKbTest, LabelsAreUnique) {
  SyntheticKb world = Generate(11);
  std::set<std::string> labels;
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    EXPECT_TRUE(labels.insert(world.kb.entity(id).label).second)
        << "duplicate label " << world.kb.entity(id).label;
  }
}

TEST(SyntheticKbTest, AmbiguousAliasesExist) {
  SyntheticKb world = Generate(13);
  const ShardedKb view = View(world);
  // At least one surface must have >= 2 candidate entities (the Michael
  // Jordan scenario) given the default 35% ambiguous-alias fraction.
  int ambiguous_surfaces = 0;
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    std::vector<EntityCandidate> candidates = view.CandidateEntities(
        world.kb.entity(id).label, std::nullopt, 10);
    if (candidates.size() >= 2) ++ambiguous_surfaces;
  }
  EXPECT_GT(ambiguous_surfaces, 10);
}

TEST(SyntheticKbTest, EverySurfaceResolvesToItsEntity) {
  SyntheticKb world = Generate(17);
  const ShardedKb view = View(world);
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    for (const std::string& surface : world.entity_surfaces[id]) {
      std::vector<EntityCandidate> candidates =
          view.CandidateEntities(surface, std::nullopt, 50);
      bool found = false;
      for (const EntityCandidate& c : candidates) {
        if (c.entity == id) found = true;
      }
      EXPECT_TRUE(found) << "surface '" << surface
                         << "' does not resolve to entity " << id;
    }
  }
}

TEST(SyntheticKbTest, PredicateSurfacesResolve) {
  SyntheticKb world = Generate(19);
  const ShardedKb view = View(world);
  for (PredicateId pid = 0; pid < world.kb.num_predicates(); ++pid) {
    for (const std::string& surface : world.predicate_surfaces[pid]) {
      std::vector<PredicateCandidate> candidates =
          view.CandidatePredicates(surface, 50);
      bool found = false;
      for (const PredicateCandidate& c : candidates) {
        if (c.predicate == pid) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(SyntheticKbTest, GazetteerCoversEntitySurfaces) {
  SyntheticKb world = Generate(23);
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    for (const std::string& surface : world.entity_surfaces[id]) {
      EXPECT_TRUE(world.gazetteer.Contains(surface));
    }
  }
  // Topics are lowercase mentions.
  bool found_topic = false;
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    if (world.kb.entity(id).type == EntityType::kTopic) {
      found_topic = true;
      EXPECT_TRUE(
          world.gazetteer.IsLowercaseMention(world.kb.entity(id).label));
    }
  }
  EXPECT_TRUE(found_topic);
}

TEST(SyntheticKbTest, CompositeEntitiesContainConnectors) {
  SyntheticKbOptions options;
  options.composite_entities_per_domain = 8;
  SyntheticKb world = Generate(29, options);
  int composites = 0;
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    const std::string& label = world.kb.entity(id).label;
    if (label.find(" of ") != std::string::npos ||
        label.find(" on the ") != std::string::npos ||
        label.find(" and ") != std::string::npos ||
        label.find(": ") != std::string::npos) {
      ++composites;
    }
  }
  EXPECT_GT(composites, 10);
}

TEST(SyntheticKbTest, FactsMostlyIntraDomain) {
  SyntheticKb world = Generate(31);
  int intra = 0;
  int total = 0;
  for (const Triple& t : world.kb.facts()) {
    if (!t.object_is_entity) continue;
    ++total;
    if (world.kb.entity(t.subject).domain ==
        world.kb.entity(t.object_entity).domain) {
      ++intra;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(intra) / total, 0.7);
}

}  // namespace
}  // namespace kb
}  // namespace tenet
