// Live updates in O(delta) (DESIGN.md §12): a generation derived by
// WithDeltas shares its parent's records, fact arenas, embedding rows,
// alias dictionaries and gazetteer, and owns only the cumulative overlays
// of its delta chain.  Two properties are pinned here, on 1, 2 and 4
// shards:
//
//   - equivalence: along a chain of all eleven DeltaOps (including a prior
//     adjustment that changes a surface's best sense and a tombstone that
//     empties a surface), each generation's layered gazetteer answers
//     exactly like a full DeriveGazetteer of its KB, and the generation
//     equals its own Compact -> Load reload and the whole chain so far
//     applied onto the base at once — records, per-concept fact
//     sequences, candidate lists and unit embedding rows (memcmp);
//   - sharing: a one-entity delta with no facts leaves every shard
//     pointing at the parent's record bases, fact arena and embedding
//     rows, and a one-fact delta rebuilds only the shards the fact routes
//     to — so O(delta) cannot silently regress to copies.
//
// Registered under the `kbupdate` and `shard` ctest labels.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "datasets/world.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/sharded_kb.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/kb_overlay_" + name;
}

std::shared_ptr<const kb::ShardedKb> Layout(int num_shards) {
  return std::make_shared<const kb::ShardedKb>(kb::ShardedKb::Partition(
      World().kb(), World().embeddings, num_shards));
}

using SurfaceMap = std::map<std::string, std::vector<kb::AliasPosting>>;

// Every surface of the world with its postings (most probable first within
// a kind), in sorted folded order.
const SurfaceMap& WorldSurfaces() {
  static const SurfaceMap* surfaces = [] {
    auto* out = new SurfaceMap();
    World().kb().alias_index().VisitPostings(
        [out](std::string_view surface, const kb::AliasPosting& posting) {
          (*out)[std::string(surface)].push_back(posting);
        });
    return out;
  }();
  return *surfaces;
}

std::vector<kb::AliasPosting> EntityPostings(
    const std::vector<kb::AliasPosting>& list) {
  std::vector<kb::AliasPosting> out;
  for (const kb::AliasPosting& p : list) {
    if (p.concept_ref.is_entity()) out.push_back(p);
  }
  return out;
}

std::vector<float> Row(kb::ConceptRef ref, float shift) {
  std::span<const float> v = World().embeddings.Vector(ref);
  std::vector<float> out(v.begin(), v.end());
  for (size_t d = 0; d < out.size(); ++d) {
    out[d] = 0.8f * out[d] + shift * static_cast<float>(d % 5);
  }
  return out;
}

// The update chain: steps[i] is the segment list of the i-th WithDeltas.
struct Chain {
  std::vector<std::vector<kb::DeltaSegment>> steps;
  std::string flipped;  // a surface whose best entity sense the chain flips
  kb::EntityId flipped_to = kb::kInvalidEntity;
  std::string emptied;  // a surface the chain's tombstone leaves empty
};

const Chain& UpdateChain() {
  static const Chain* chain = [] {
    auto* out = new Chain();
    const kb::KnowledgeBase& base = World().kb();
    // An ambiguous entity surface whose top two senses differ in type when
    // one exists, so flipping the best sense changes the gazetteer's
    // answer; the second sense becomes the best.
    std::string flip;
    kb::AliasPosting flip_top;
    kb::AliasPosting flip_second;
    for (const auto& [surface, list] : WorldSurfaces()) {
      const std::vector<kb::AliasPosting> senses = EntityPostings(list);
      if (senses.size() < 2) continue;
      const bool types_differ = base.entity(senses[0].concept_ref.id).type !=
                                base.entity(senses[1].concept_ref.id).type;
      if (flip.empty() || types_differ) {
        flip = surface;
        flip_top = senses[0];
        flip_second = senses[1];
        if (types_differ) break;
      }
    }
    TENET_CHECK(!flip.empty());
    out->flipped = flip;
    out->flipped_to = flip_second.concept_ref.id;

    // A surface with exactly one posting, an entity's: tombstoning that
    // entity empties it.
    kb::EntityId lonely = kb::kInvalidEntity;
    for (auto it = WorldSurfaces().rbegin(); it != WorldSurfaces().rend();
         ++it) {
      const std::vector<kb::AliasPosting>& list = it->second;
      if (list.size() == 1 && list[0].concept_ref.is_entity() &&
          list[0].concept_ref.id != flip_top.concept_ref.id &&
          list[0].concept_ref.id != flip_second.concept_ref.id) {
        lonely = list[0].concept_ref.id;
        out->emptied = it->first;
        break;
      }
    }
    TENET_CHECK_NE(lonely, kb::kInvalidEntity);

    // Predicate surfaces: one to add to, one with two senses to adjust.
    std::string pred_surface;
    std::string pred_adjust;
    kb::PredicateId pred_second = kb::kInvalidPredicate;
    for (const auto& [surface, list] : WorldSurfaces()) {
      std::vector<kb::AliasPosting> preds;
      for (const kb::AliasPosting& p : list) {
        if (p.concept_ref.is_predicate()) preds.push_back(p);
      }
      if (preds.empty()) continue;
      if (pred_surface.empty()) pred_surface = surface;
      if (preds.size() >= 2 && pred_adjust.empty()) {
        pred_adjust = surface;
        pred_second = preds[1].concept_ref.id;
      }
    }
    TENET_CHECK(!pred_surface.empty());
    const kb::PredicateId dead_predicate = base.num_predicates() - 1;

    // Step 1: new concepts, every alias kind, both adjustments (one flips
    // `flip`), facts of both kinds, a new row and an overridden base row.
    kb::DeltaBuilder one(base.num_entities(), base.num_predicates());
    const kb::EntityId quillon =
        one.AddEntity("Quillon Varesh", kb::EntityType::kPerson, 3, 2.5);
    const kb::PredicateId transmogrified =
        one.AddPredicate("transmogrified", 1, 1.7);
    one.AddEntityAlias(quillon, flip, 0.05);
    one.AddEntityAlias(quillon, "1987 Quillon", 1.0);  // not lowercase
    one.AddPredicateAlias(transmogrified, pred_surface, 0.3);
    one.AdjustEntityAliasPrior(flip_second.concept_ref.id, flip,
                               flip_top.prior + 0.25);
    if (!pred_adjust.empty()) {
      one.AdjustPredicateAliasPrior(pred_second, pred_adjust, 0.9);
    } else {
      one.AdjustPredicateAliasPrior(transmogrified, pred_surface, 0.9);
    }
    one.AddFact(quillon, 0, flip_top.concept_ref.id);
    one.AddLiteralFact(quillon, transmogrified, "1987");
    one.SetEmbedding(kb::ConceptRef::Entity(quillon),
                     Row(flip_top.concept_ref, 0.05f));
    one.SetEmbedding(kb::ConceptRef::Entity(3),
                     Row(kb::ConceptRef::Entity(4), 0.02f));
    out->steps.push_back({one.Build()});

    // Step 2: both tombstones (one empties `emptied`), a second alias, an
    // appended and an overridden row written again, a base-to-base fact.
    kb::DeltaBuilder two(one.num_entities(), one.num_predicates());
    two.TombstoneEntity(lonely);
    two.TombstonePredicate(dead_predicate);
    two.AddEntityAlias(quillon, "Varesh", 1.3);
    two.SetEmbedding(kb::ConceptRef::Entity(quillon),
                     Row(kb::ConceptRef::Entity(5), -0.03f));
    two.SetEmbedding(kb::ConceptRef::Entity(3),
                     Row(kb::ConceptRef::Entity(6), 0.01f));
    two.SetEmbedding(kb::ConceptRef::Predicate(transmogrified),
                     Row(kb::ConceptRef::Predicate(0), 0.04f));
    two.AddFact(1, 0, 2);
    out->steps.push_back({two.Build()});

    // Step 3, two segments at once: a new entity on a surface the overlay
    // already holds, then an adjustment of a delta-added posting.
    kb::DeltaBuilder three_a(two.num_entities(), two.num_predicates());
    const kb::EntityId holdings = three_a.AddEntity(
        "Varesh Holdings", kb::EntityType::kOrganization, 5, 1.9);
    three_a.AddEntityAlias(holdings, "varesh", 0.7);
    three_a.AddFact(holdings, transmogrified, quillon);
    kb::DeltaBuilder three_b(three_a.num_entities(),
                             three_a.num_predicates());
    three_b.AdjustEntityAliasPrior(quillon, "Varesh", 0.2);
    out->steps.push_back({three_a.Build(), three_b.Build()});
    return out;
  }();
  return *chain;
}

// Surfaces compared at every stage: every 7th surface of the world, plus
// every surface a chain step touches (from AppliedDelta) or adds.
std::set<std::string> ComparedSurfaces(
    const std::set<std::string>& touched) {
  std::set<std::string> out = touched;
  size_t i = 0;
  for (const auto& entry : WorldSurfaces()) {
    if (i++ % 7 == 0) out.insert(entry.first);
  }
  return out;
}

void ExpectGazetteerMatchesFullDerive(const KbGeneration& generation,
                                      const std::set<std::string>& surfaces) {
  const text::Gazetteer full = kb::DeriveGazetteer(generation.kb());
  const text::Gazetteer& layered = generation.gazetteer();
  EXPECT_EQ(layered.size(), full.size());
  for (const std::string& surface : surfaces) {
    EXPECT_EQ(layered.LookupType(surface), full.LookupType(surface))
        << surface;
    EXPECT_EQ(layered.LowercaseMentionType(surface),
              full.LowercaseMentionType(surface))
        << surface;
    // Upper-cased probes fold like the full derive's.
    std::string upper = surface;
    for (char& c : upper) {
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    }
    EXPECT_EQ(layered.LookupType(upper), full.LookupType(upper)) << upper;
    // The lowercase-head bound may only over-approximate.
    const std::string head = surface.substr(0, surface.find(' '));
    EXPECT_GE(layered.LowercaseMentionTokens(head),
              full.LowercaseMentionTokens(head))
        << head;
  }
}

void ExpectSameKb(const kb::KbView& got, const kb::KbView& want,
                  const std::set<std::string>& surfaces) {
  ASSERT_EQ(got.num_entities(), want.num_entities());
  ASSERT_EQ(got.num_predicates(), want.num_predicates());
  ASSERT_EQ(got.num_facts(), want.num_facts());
  for (kb::EntityId e = 0; e < want.num_entities(); ++e) {
    const kb::EntityRecord& a = got.entity(e);
    const kb::EntityRecord& b = want.entity(e);
    EXPECT_EQ(a.label, b.label) << e;
    EXPECT_EQ(a.type, b.type) << e;
    EXPECT_EQ(a.domain, b.domain) << e;
    EXPECT_EQ(a.popularity, b.popularity) << e;
  }
  for (kb::PredicateId p = 0; p < want.num_predicates(); ++p) {
    EXPECT_EQ(got.predicate(p).label, want.predicate(p).label) << p;
    EXPECT_EQ(got.predicate(p).domain, want.predicate(p).domain) << p;
    EXPECT_EQ(got.predicate(p).popularity, want.predicate(p).popularity)
        << p;
  }

  using Fact = std::tuple<int64_t, kb::EntityId, kb::PredicateId, bool,
                          kb::EntityId, std::string>;
  const auto collect = [](std::vector<Fact>* out) {
    return [out](int64_t id, const kb::Triple& t) {
      out->emplace_back(id, t.subject, t.predicate, t.object_is_entity,
                        t.object_entity, t.object_literal);
      return true;
    };
  };
  for (kb::EntityId e = 0; e < want.num_entities(); ++e) {
    std::vector<Fact> a, b;
    got.VisitFactsOfEntity(e, collect(&a));
    want.VisitFactsOfEntity(e, collect(&b));
    EXPECT_EQ(a, b) << "facts of entity " << e;
  }
  for (kb::PredicateId p = 0; p < want.num_predicates(); ++p) {
    std::vector<Fact> a, b;
    got.VisitFactsOfPredicate(p, collect(&a));
    want.VisitFactsOfPredicate(p, collect(&b));
    EXPECT_EQ(a, b) << "facts of predicate " << p;
  }

  for (const std::string& surface : surfaces) {
    int got_overflow = -1;
    int want_overflow = -1;
    const std::vector<kb::EntityCandidate> a =
        got.CandidateEntities(surface, std::nullopt, 1 << 20, &got_overflow);
    const std::vector<kb::EntityCandidate> b = want.CandidateEntities(
        surface, std::nullopt, 1 << 20, &want_overflow);
    ASSERT_EQ(a.size(), b.size()) << surface;
    EXPECT_EQ(got_overflow, want_overflow) << surface;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].entity, b[i].entity) << surface;
      EXPECT_EQ(std::memcmp(&a[i].prior, &b[i].prior, sizeof(double)), 0)
          << surface;
    }
    const std::vector<kb::PredicateCandidate> pa =
        got.CandidatePredicates(surface, 1 << 20);
    const std::vector<kb::PredicateCandidate> pb =
        want.CandidatePredicates(surface, 1 << 20);
    ASSERT_EQ(pa.size(), pb.size()) << surface;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].predicate, pb[i].predicate) << surface;
      EXPECT_EQ(std::memcmp(&pa[i].prior, &pb[i].prior, sizeof(double)), 0)
          << surface;
    }
  }

  std::vector<kb::ConceptRef> refs;
  for (kb::EntityId e = 0; e < want.num_entities(); ++e) {
    refs.push_back(kb::ConceptRef::Entity(e));
  }
  for (kb::PredicateId p = 0; p < want.num_predicates(); ++p) {
    refs.push_back(kb::ConceptRef::Predicate(p));
  }
  const size_t doubles = refs.size() * static_cast<size_t>(want.dimension());
  std::vector<double> a(doubles), b(doubles);
  got.GatherUnit(refs, a.data());
  want.GatherUnit(refs, b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), doubles * sizeof(double)), 0)
      << "unit embedding rows differ from the reload's";
}

class KbOverlayEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KbOverlayEquivalenceTest, EveryStepMatchesFullDeriveAndReload) {
  const int num_shards = GetParam();
  const std::shared_ptr<const KbGeneration> base =
      KbGeneration::FromShardedKb(Layout(num_shards), 1);
  std::shared_ptr<const KbGeneration> generation = base;
  std::set<std::string> touched;
  std::vector<kb::DeltaSegment> so_far;
  const Chain& chain = UpdateChain();
  for (size_t step = 0; step < chain.steps.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step + 1));
    Result<kb::AppliedDelta> applied =
        kb::ApplyDeltas(generation->kb(), chain.steps[step]);
    ASSERT_TRUE(applied.ok()) << applied.status();
    touched.insert(applied->touched_surfaces.begin(),
                   applied->touched_surfaces.end());
    Result<std::shared_ptr<const KbGeneration>> next =
        generation->WithDeltas(chain.steps[step], generation->id() + 1);
    ASSERT_TRUE(next.ok()) << next.status();
    generation = *next;
    const std::set<std::string> surfaces = ComparedSurfaces(touched);
    ExpectGazetteerMatchesFullDerive(*generation, surfaces);

    const std::string base_name = std::to_string(num_shards) +
                                  "shards_step" + std::to_string(step);
    const std::string kb_path = TempPath(base_name + ".tenetkb");
    const std::string emb_path = TempPath(base_name + ".tenetemb");
    ASSERT_TRUE(generation->Compact(kb_path, emb_path).ok());
    Result<std::shared_ptr<const KbGeneration>> reloaded =
        KbGeneration::Load(kb_path, emb_path, {}, generation->id());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    ExpectSameKb(generation->view(), (*reloaded)->view(), surfaces);

    // A reload only reads back what the generation holds; the chain
    // applied in one go onto the base is an independent reference for the
    // overlays carried from generation to generation.
    so_far.insert(so_far.end(), chain.steps[step].begin(),
                  chain.steps[step].end());
    Result<kb::AppliedDelta> at_once = kb::ApplyDeltas(base->kb(), so_far);
    ASSERT_TRUE(at_once.ok()) << at_once.status();
    ExpectSameKb(generation->view(), at_once->kb, surfaces);
  }

  // The chain did what it is meant to cover.
  EXPECT_EQ(generation->view()
                .CandidateEntities(chain.flipped, std::nullopt, 1)
                .at(0)
                .entity,
            chain.flipped_to);
  EXPECT_TRUE(base->gazetteer().LookupType(chain.emptied).has_value());
  EXPECT_FALSE(generation->gazetteer().LookupType(chain.emptied).has_value());
  EXPECT_TRUE(touched.count(chain.flipped) == 1);
  EXPECT_TRUE(touched.count(chain.emptied) == 1);
  const kb::DeltaApplyStats& stats = generation->delta_stats();
  EXPECT_GT(stats.added_entities, 0);
  EXPECT_GT(stats.added_predicates, 0);
  EXPECT_GT(stats.added_aliases, 0);
  EXPECT_GT(stats.adjusted_priors, 0);
  EXPECT_GT(stats.tombstones, 0);
  EXPECT_GT(stats.added_facts, 0);
  EXPECT_GT(stats.dropped_facts, 0);
  EXPECT_GT(stats.set_embeddings, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, KbOverlayEquivalenceTest,
                         ::testing::Values(1, 2, 4));

// A delta adding one entity, its alias and its embedding row — the live
// update servebench's sessions_live applies.
std::vector<kb::DeltaSegment> OneEntityDelta(const kb::KbView& kb,
                                             const std::string& label) {
  kb::DeltaBuilder builder(kb);
  const kb::EntityId id =
      builder.AddEntity(label, kb::EntityType::kPerson, 0, 1.0);
  builder.AddEntityAlias(id, label + " (alias)", 1.0);
  builder.SetEmbedding(kb::ConceptRef::Entity(id),
                       Row(kb::ConceptRef::Entity(0), 0.1f));
  std::vector<kb::DeltaSegment> segments;
  segments.push_back(builder.Build());
  return segments;
}

// The address of the unit row of local concept `ref` on shard `s`.
const double* UnitRowAddress(const kb::ShardedKb& kb, int s,
                             kb::ConceptRef ref) {
  return kb.shard(s).embeddings->UnitVector(ref).data();
}

void ExpectSharesBase(const kb::ShardedKb& child, const kb::ShardedKb& base) {
  ASSERT_EQ(child.num_shards(), base.num_shards());
  for (int s = 0; s < base.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const kb::ShardedKb::Shard& a = child.shard(s);
    const kb::ShardedKb::Shard& b = base.shard(s);
    ASSERT_NE(b.entities.base(), nullptr);
    EXPECT_EQ(a.entities.base(), b.entities.base());
    EXPECT_EQ(a.predicates.base(), b.predicates.base());
    EXPECT_EQ(a.alias_index.frozen_dict(), b.alias_index.frozen_dict());
    EXPECT_EQ(a.facts, b.facts);
    EXPECT_EQ(UnitRowAddress(child, s, kb::ConceptRef::Entity(0)),
              UnitRowAddress(base, s, kb::ConceptRef::Entity(0)));
    if (b.embeddings->num_predicates() > 0) {
      EXPECT_EQ(UnitRowAddress(child, s, kb::ConceptRef::Predicate(0)),
                UnitRowAddress(base, s, kb::ConceptRef::Predicate(0)));
    }
  }
}

class KbOverlaySharingTest : public ::testing::TestWithParam<int> {};

TEST_P(KbOverlaySharingTest, OneEntityDeltasShareEveryBasePart) {
  const std::shared_ptr<const kb::ShardedKb> base = Layout(GetParam());
  Result<kb::AppliedDelta> child =
      kb::ApplyDeltas(*base, OneEntityDelta(*base, "zz shared one"));
  ASSERT_TRUE(child.ok()) << child.status();
  ExpectSharesBase(child->kb, *base);
  // Only the new entity's home shard owns a new embedding store.
  const int home =
      kb::ShardedKb::HomeShard(base->num_entities(), base->num_shards());
  for (int s = 0; s < base->num_shards(); ++s) {
    if (s == home) continue;
    EXPECT_EQ(child->kb.shard(s).embeddings, base->shard(s).embeddings);
  }

  // A delta on the child layers over the same bases, not over the child.
  Result<kb::AppliedDelta> grandchild = kb::ApplyDeltas(
      child->kb, OneEntityDelta(child->kb, "zz shared two"));
  ASSERT_TRUE(grandchild.ok()) << grandchild.status();
  ExpectSharesBase(grandchild->kb, *base);
  EXPECT_EQ(grandchild->kb.num_entities(), base->num_entities() + 2);
  EXPECT_EQ(grandchild->kb.entity(base->num_entities()).label,
            "zz shared one");

  // The same holds for whole generations, gazetteer derive included.
  std::shared_ptr<const KbGeneration> parent =
      KbGeneration::FromShardedKb(base, 1);
  Result<std::shared_ptr<const KbGeneration>> next = parent->WithDeltas(
      OneEntityDelta(parent->kb(), "zz shared gen"), 2);
  ASSERT_TRUE(next.ok()) << next.status();
  ExpectSharesBase((*next)->kb(), *base);
  EXPECT_EQ((*next)->gazetteer().LookupType("ZZ Shared Gen (alias)"),
            kb::EntityType::kPerson);
  EXPECT_EQ((*next)->gazetteer().size(), parent->gazetteer().size() + 2);
}

INSTANTIATE_TEST_SUITE_P(Shards, KbOverlaySharingTest,
                         ::testing::Values(1, 4));

TEST(KbOverlayFactArenaTest, OneFactDeltaRebuildsOnlyTheShardsItRoutesTo) {
  const std::shared_ptr<const kb::ShardedKb> base = Layout(4);
  // Subject and predicate homed on shard 0, object on shard 1.
  kb::DeltaBuilder builder(*base);
  builder.AddFact(/*subject=*/0, /*predicate=*/0, /*object=*/1);
  std::vector<kb::DeltaSegment> segments;
  segments.push_back(builder.Build());
  Result<kb::AppliedDelta> applied = kb::ApplyDeltas(*base, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  const kb::ShardedKb& child = applied->kb;
  EXPECT_NE(child.shard(0).facts, base->shard(0).facts);
  EXPECT_NE(child.shard(1).facts, base->shard(1).facts);
  EXPECT_EQ(child.shard(2).facts, base->shard(2).facts);
  EXPECT_EQ(child.shard(3).facts, base->shard(3).facts);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(child.shard(s).entities.base(), base->shard(s).entities.base());
    EXPECT_EQ(child.shard(s).embeddings, base->shard(s).embeddings);
  }
  // The new fact is the last of both entities' sequences.
  const int64_t new_id = base->num_facts();
  for (kb::EntityId e : {0, 1}) {
    int64_t last = -1;
    child.VisitFactsOfEntity(e, [&last](int64_t id, const kb::Triple&) {
      last = id;
      return true;
    });
    EXPECT_EQ(last, new_id) << e;
  }
}

}  // namespace
}  // namespace serving
}  // namespace tenet
