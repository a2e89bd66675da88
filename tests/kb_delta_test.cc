// TENETDELTA1 suite: segment round-trip, the loader's corruption matrix,
// crash-safe (torn-write) behavior, and the ApplyDeltas semantics — dense
// append-only ids, composed alias weights with bit-exact untouched
// surfaces, tombstones, near-tie prior flips and the exact-tie order — on
// 1- and 4-shard layouts alike.  Registered under the `kbupdate` ctest
// label.
#include "kb/delta.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "kb/sharded_kb.h"
#include "kb/synthetic_kb.h"
#include "kb/types.h"

namespace tenet {
namespace kb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

// The shared base substrate: two entities in a near-tie on the surface
// "paris" (0.51 / 0.49), one unrelated entity + predicate, one fact.
struct Base {
  KnowledgeBase kb;
  embedding::EmbeddingStore embeddings{/*dimension=*/4, /*num_entities=*/3,
                                       /*num_predicates=*/1};
  EntityId paris_city;
  EntityId paris_person;
  EntityId berlin;
  PredicateId located_in;
};

Base MakeBase() {
  Base base;
  base.paris_city =
      base.kb.AddEntity("Paris", EntityType::kLocation, 0, /*popularity=*/0.51);
  base.paris_person = base.kb.AddEntity("Paris Hilton", EntityType::kPerson, 0,
                                        /*popularity=*/1.0);
  // The person's "paris" weight is 0.49: a near tie the city wins.
  base.kb.AddEntityAlias(base.paris_person, "Paris", 0.49);
  base.berlin =
      base.kb.AddEntity("Berlin", EntityType::kLocation, 0, /*popularity=*/1.0);
  base.located_in = base.kb.AddPredicate("located in");
  EXPECT_TRUE(
      base.kb.AddFact(base.paris_city, base.located_in, base.berlin).ok());
  base.kb.Finalize();
  for (int32_t e = 0; e < 3; ++e) {
    std::span<float> row =
        base.embeddings.MutableVector(ConceptRef::Entity(e));
    for (int d = 0; d < 4; ++d) row[d] = static_cast<float>(e + 1);
  }
  base.embeddings.Finalize();
  return base;
}

// Every ApplyDeltas case runs on each of these shard counts.
constexpr int kLayouts[] = {1, 4};

ShardedKb Layout(const Base& base, int num_shards) {
  return ShardedKb::Partition(base.kb, base.embeddings, num_shards);
}

// The raw embedding row of `ref` on its home shard.
std::span<const float> RawRow(const ShardedKb& kb, ConceptRef ref) {
  const int n = kb.num_shards();
  return kb.shard(ShardedKb::HomeShard(ref.id, n))
      .embeddings->Vector({ref.kind, ShardedKb::LocalIndex(ref.id, n)});
}

// (fact id, subject, predicate, object) of every fact of `id`, in order.
std::vector<std::tuple<int64_t, EntityId, PredicateId, EntityId>>
FactsOfEntity(const KbView& kb, EntityId id) {
  std::vector<std::tuple<int64_t, EntityId, PredicateId, EntityId>> out;
  kb.VisitFactsOfEntity(id, [&out](int64_t fact_id, const Triple& t) {
    out.emplace_back(fact_id, t.subject, t.predicate,
                     t.object_is_entity ? t.object_entity : kInvalidEntity);
    return true;
  });
  return out;
}

DeltaSegment OneOfEveryOp(const Base& base) {
  DeltaBuilder builder(base.kb.num_entities(), base.kb.num_predicates());
  EntityId nova = builder.AddEntity("Nova", EntityType::kOrganization,
                                    /*domain=*/2, /*popularity=*/0.75);
  PredicateId founded = builder.AddPredicate("founded by", 0, 1.0);
  builder.AddEntityAlias(nova, "the nova org", 0.6);
  builder.AddPredicateAlias(founded, "established by", 0.4);
  builder.AdjustEntityAliasPrior(base.paris_person, "Paris", 0.8);
  builder.AdjustPredicateAliasPrior(base.located_in, "located in", 2.0);
  builder.TombstoneEntity(base.berlin);
  builder.AddFact(nova, founded, base.paris_person);
  builder.AddLiteralFact(nova, founded, "2026");
  builder.SetEmbedding(ConceptRef::Entity(nova),
                       std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  return builder.Build();
}

TEST(DeltaSegmentTest, RoundTripsEveryOpThroughDisk) {
  Base base = MakeBase();
  DeltaSegment segment = OneOfEveryOp(base);
  std::string path = TempPath("delta_roundtrip.tenetdelta");
  ASSERT_TRUE(WriteDeltaSegment(segment, path).ok());

  Result<DeltaSegment> loaded = LoadDeltaSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->records.size(), segment.records.size());
  for (size_t i = 0; i < segment.records.size(); ++i) {
    SCOPED_TRACE(i);
    const DeltaRecord& a = segment.records[i];
    const DeltaRecord& b = loaded->records[i];
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.weight, b.weight);  // bit-exact: doubles are memcpy'd
    EXPECT_EQ(a.subject, b.subject);
    EXPECT_EQ(a.predicate, b.predicate);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.ref_kind, b.ref_kind);
    EXPECT_EQ(a.embedding, b.embedding);
  }
}

TEST(DeltaSegmentTest, LoaderRejectsTheCorruptionMatrix) {
  Base base = MakeBase();
  DeltaSegment segment = OneOfEveryOp(base);
  std::string path = TempPath("delta_corrupt.tenetdelta");
  ASSERT_TRUE(WriteDeltaSegment(segment, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 60u);

  struct Corruption {
    const char* what;
    size_t offset;
  };
  const Corruption kMatrix[] = {
      {"magic", 0},
      {"endian tag", 12},
      {"record count", 16},
      {"header checksum", 32},
      {"first record op", 40},
      {"record payload", bytes.size() - 1},
  };
  for (const Corruption& corruption : kMatrix) {
    SCOPED_TRACE(corruption.what);
    std::string mutated = bytes;
    mutated[corruption.offset] ^= 0x5a;
    std::string bad = TempPath("delta_corrupt_case.tenetdelta");
    { std::ofstream(bad, std::ios::binary) << mutated; }
    Result<DeltaSegment> loaded = LoadDeltaSegment(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Truncation (a short read, not a flipped byte) is also refused.
  {
    std::string bad = TempPath("delta_truncated.tenetdelta");
    std::ofstream(bad, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    Result<DeltaSegment> loaded = LoadDeltaSegment(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // The pristine file still loads: the matrix never mutated it in place.
  EXPECT_TRUE(LoadDeltaSegment(path).ok());
}

TEST(DeltaSegmentTest, InjectedTornWriteNeverPublishesASegment) {
  Base base = MakeBase();
  DeltaSegment segment = OneOfEveryOp(base);
  std::string path = TempPath("delta_torn.tenetdelta");
  std::remove(path.c_str());
  {
    FaultInjector faults(7);
    faults.Arm("kb/io/write_delta", 1.0);
    Status written = WriteDeltaSegment(segment, path);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.code(), StatusCode::kDataLoss);
    EXPECT_EQ(faults.FireCount("kb/io/write_delta"), 1);
  }
  // The crash left temp-file debris, never a readable target.
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));
  EXPECT_EQ(LoadDeltaSegment(path).status().code(), StatusCode::kNotFound);
  std::remove((path + ".tmp").c_str());
}

TEST(ApplyDeltasTest, AddedConceptsBecomeCandidatesWithEmbeddings) {
  Base base = MakeBase();
  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = Layout(base, shards);
    DeltaBuilder builder(layout);
    EntityId nova =
        builder.AddEntity("Nova", EntityType::kOrganization, 2, 0.75);
    builder.AddEntityAlias(nova, "the nova org", 0.6);
    builder.SetEmbedding(ConceptRef::Entity(nova),
                         std::vector<float>{1.0f, 0.0f, 0.0f, 0.0f});
    std::vector<DeltaSegment> segments{builder.Build()};

    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->stats.added_entities, 1);
    EXPECT_EQ(applied->stats.added_aliases, 2);  // label alias + explicit one
    ASSERT_EQ(applied->kb.num_shards(), shards);
    ASSERT_EQ(applied->kb.num_entities(), base.kb.num_entities() + 1);
    EXPECT_EQ(applied->kb.entity(nova).label, "Nova");
    EXPECT_EQ(applied->kb.entity(nova).domain, 2);

    std::vector<EntityCandidate> by_label =
        applied->kb.CandidateEntities("Nova", std::nullopt, 4);
    ASSERT_EQ(by_label.size(), 1u);
    EXPECT_EQ(by_label[0].entity, nova);
    std::vector<EntityCandidate> by_alias =
        applied->kb.CandidateEntities("the nova org", std::nullopt, 4);
    ASSERT_EQ(by_alias.size(), 1u);
    EXPECT_EQ(by_alias[0].entity, nova);

    std::span<const float> row =
        RawRow(applied->kb, ConceptRef::Entity(nova));
    EXPECT_EQ(row[0], 1.0f);
    EXPECT_EQ(row[1], 0.0f);
    // The base rows rode through bit-exact.
    EXPECT_EQ(RawRow(applied->kb, ConceptRef::Entity(base.berlin))[0], 3.0f);
  }
}

TEST(ApplyDeltasTest, UntouchedSurfacesKeepBitExactPriors) {
  Base base = MakeBase();
  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = Layout(base, shards);
    DeltaBuilder builder(layout);
    builder.AddEntity("Nova", EntityType::kOrganization);
    std::vector<DeltaSegment> segments{builder.Build()};
    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();

    for (const char* surface : {"Paris", "Paris Hilton", "Berlin"}) {
      SCOPED_TRACE(surface);
      std::vector<EntityCandidate> before =
          layout.CandidateEntities(surface, std::nullopt, 4);
      std::vector<EntityCandidate> after =
          applied->kb.CandidateEntities(surface, std::nullopt, 4);
      ASSERT_EQ(before.size(), after.size());
      for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].entity, after[i].entity);
        // EQ, not NEAR: untouched surfaces keep their priors bit-exact.
        EXPECT_EQ(before[i].prior, after[i].prior);
      }
    }
  }
}

TEST(ApplyDeltasTest, PriorAdjustmentFlipsANearTie) {
  Base base = MakeBase();
  // Sanity: the city wins "paris" 0.51 to 0.49 in the base.
  std::vector<EntityCandidate> before =
      Layout(base, 1).CandidateEntities("Paris", std::nullopt, 4);
  ASSERT_EQ(before.size(), 2u);
  ASSERT_EQ(before[0].entity, base.paris_city);

  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = Layout(base, shards);
    DeltaBuilder builder(layout);
    builder.AdjustEntityAliasPrior(base.paris_person, "Paris", 0.8);
    std::vector<DeltaSegment> segments{builder.Build()};
    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->stats.adjusted_priors, 1);
    EXPECT_EQ(applied->stats.touched_surfaces, 1);

    std::vector<EntityCandidate> after =
        applied->kb.CandidateEntities("Paris", std::nullopt, 4);
    ASSERT_EQ(after.size(), 2u);
    EXPECT_EQ(after[0].entity, base.paris_person) << "the tie did not flip";
    EXPECT_NEAR(after[0].prior, 0.8 / (0.8 + 0.51), 1e-12);
    EXPECT_NEAR(after[1].prior, 0.51 / (0.8 + 0.51), 1e-12);
  }
}

TEST(ApplyDeltasTest, ExactTieBreaksTowardSmallerIdOnEveryLayout) {
  // E9 alone holds "Twin"; the delta gives E3 the same weight, so the two
  // renormalize to exactly 0.5 each.  Touched surfaces are re-sorted into
  // CanonicalPostingOrder, so the tie lists E3 (the smaller id) first —
  // on every layout, because a scatter/gather merge can only reproduce a
  // total order.
  KnowledgeBase kb;
  for (int i = 0; i < 10; ++i) {
    kb.AddEntity("E" + std::to_string(i), EntityType::kPerson);
  }
  kb.AddEntityAlias(9, "Twin", 1.0);
  kb.Finalize();
  embedding::EmbeddingStore embeddings(4, kb.num_entities(), 0);
  embeddings.Finalize();

  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = ShardedKb::Partition(kb, embeddings, shards);
    DeltaBuilder builder(layout);
    builder.AddEntityAlias(3, "Twin", 1.0);
    std::vector<DeltaSegment> segments{builder.Build()};
    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();

    std::vector<EntityCandidate> twin =
        applied->kb.CandidateEntities("twin", std::nullopt, 4);
    ASSERT_EQ(twin.size(), 2u);
    EXPECT_EQ(twin[0].entity, 3);
    EXPECT_EQ(twin[1].entity, 9);
    EXPECT_EQ(twin[0].prior, 0.5);
    EXPECT_EQ(twin[1].prior, 0.5);
  }
}

TEST(ApplyDeltasTest, TombstoneStripsCandidatesAndDropsFacts) {
  Base base = MakeBase();
  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = Layout(base, shards);
    DeltaBuilder builder(layout);
    builder.TombstoneEntity(base.berlin);
    std::vector<DeltaSegment> segments{builder.Build()};
    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->stats.tombstones, 1);
    EXPECT_EQ(applied->stats.dropped_facts, 1);  // Paris -located in-> Berlin

    // Ids stay dense — the record survives — but the entity is unreachable.
    ASSERT_EQ(applied->kb.num_entities(), base.kb.num_entities());
    EXPECT_TRUE(
        applied->kb.CandidateEntities("Berlin", std::nullopt, 4).empty());
    EXPECT_EQ(applied->kb.num_facts(), 0);
    EXPECT_TRUE(FactsOfEntity(applied->kb, base.paris_city).empty());
  }
}

TEST(ApplyDeltasTest, LaterSegmentsSeeEarlierSegmentsIds) {
  Base base = MakeBase();
  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = Layout(base, shards);
    DeltaBuilder first(layout);
    EntityId nova = first.AddEntity("Nova", EntityType::kOrganization);
    DeltaBuilder second(first.num_entities(), first.num_predicates());
    EntityId halo = second.AddEntity("Halo", EntityType::kOrganization);
    second.AddFact(halo, base.located_in, nova);
    std::vector<DeltaSegment> segments{first.Build(), second.Build()};

    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->stats.added_entities, 2);
    EXPECT_EQ(applied->stats.added_facts, 1);
    ASSERT_EQ(applied->kb.num_entities(), base.kb.num_entities() + 2);
    ASSERT_EQ(applied->kb.num_facts(), base.kb.num_facts() + 1);
    // The new fact takes the next global id and is visible from both ends.
    const std::vector<std::tuple<int64_t, EntityId, PredicateId, EntityId>>
        fact = {{base.kb.num_facts(), halo, base.located_in, nova}};
    EXPECT_EQ(FactsOfEntity(applied->kb, halo), fact);
    EXPECT_EQ(FactsOfEntity(applied->kb, nova), fact);
  }
}

TEST(ApplyDeltasTest, EveryLayoutRenumbersSurvivingFactsDensely) {
  // Tombstones drop facts from the middle of the id space; the survivors
  // keep their order under dense ids, identically on every layout.
  Rng rng(29);
  SyntheticKbOptions options;
  options.num_domains = 3;
  options.entities_per_domain = 12;
  options.num_predicates = 6;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
  embedding::EmbeddingStore embeddings(4, world.kb.num_entities(),
                                       world.kb.num_predicates());
  embeddings.Finalize();
  ASSERT_GT(world.kb.num_facts(), 20);

  std::vector<AppliedDelta> results;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    ShardedKb layout = ShardedKb::Partition(world.kb, embeddings, shards);
    DeltaBuilder builder(layout);
    builder.TombstoneEntity(world.kb.facts()[3].subject);
    builder.TombstonePredicate(world.kb.facts()[11].predicate);
    EntityId fresh = builder.AddEntity("Fresh", EntityType::kOther);
    builder.AddFact(fresh, 0, 1);
    std::vector<DeltaSegment> segments{builder.Build()};
    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_GT(applied->stats.dropped_facts, 1);
    EXPECT_EQ(applied->kb.num_facts(),
              world.kb.num_facts() - applied->stats.dropped_facts + 1);
    results.push_back(std::move(*applied));
  }
  // Every surviving id in [0, num_facts) is used, each per-entity sequence
  // ascends, and every layout visits exactly the 1-shard sequences.
  const ShardedKb& flat = results[0].kb;
  std::vector<bool> seen(flat.num_facts(), false);
  for (EntityId e = 0; e < flat.num_entities(); ++e) {
    SCOPED_TRACE(e);
    auto facts = FactsOfEntity(flat, e);
    for (size_t i = 0; i < facts.size(); ++i) {
      const int64_t id = std::get<0>(facts[i]);
      ASSERT_GE(id, 0);
      ASSERT_LT(id, flat.num_facts());
      seen[id] = true;
      if (i > 0) {
        EXPECT_LT(std::get<0>(facts[i - 1]), id);
      }
    }
    for (size_t r = 1; r < results.size(); ++r) {
      EXPECT_EQ(FactsOfEntity(results[r].kb, e), facts);
      EXPECT_EQ(results[r].kb.NeighborEntities(e), flat.NeighborEntities(e));
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
  for (size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[r].stats.dropped_facts, results[0].stats.dropped_facts);
    EXPECT_EQ(results[r].kb.num_facts(), flat.num_facts());
  }
}

TEST(ApplyDeltasTest, RejectsSegmentsBuiltAgainstADifferentBase) {
  Base base = MakeBase();
  // Built as if the base had 10 entities: its first add claims id 10.
  DeltaBuilder builder(/*base_entities=*/10, /*base_predicates=*/1);
  builder.AddEntity("Nova", EntityType::kOrganization);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied = ApplyDeltas(Layout(base, 1), segments);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApplyDeltasTest, RejectsAdjustmentsOfMissingPostings) {
  Base base = MakeBase();
  for (int shards : kLayouts) {
    SCOPED_TRACE(shards);
    ShardedKb layout = Layout(base, shards);
    DeltaBuilder builder(layout);
    builder.AdjustEntityAliasPrior(base.berlin, "no such surface", 0.9);
    std::vector<DeltaSegment> segments{builder.Build()};
    Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ApplyDeltasTest, RejectsEmbeddingDimensionMismatch) {
  Base base = MakeBase();
  ShardedKb layout = Layout(base, 1);
  DeltaBuilder builder(layout);
  builder.SetEmbedding(ConceptRef::Entity(base.berlin),
                       std::vector<float>{1.0f, 2.0f});  // dim 2, store is 4
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied = ApplyDeltas(layout, segments);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kb
}  // namespace tenet
