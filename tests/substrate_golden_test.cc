// Golden serving substrate: FNV-1a digests of what a KbGeneration serves
// over the in-process synthetic world, before and after a live-update
// chain, on every KB layout:
//
//   - layout 0: the flat TENETKB3 + TENETEMB1 pair (KbGeneration::Load);
//   - layouts 1, 2, 4: that many shards of a TENETKBSHARDS1 layout
//     (KbGeneration::LoadSharded).
//
// The chain runs three WithDeltas steps (the last one applies two segments
// at once) and uses all eleven DeltaOps.  Its concepts are picked so that
// no touched surface ends with an exact prior tie between two concepts of
// one kind, which the test asserts; posting order on exact ties is a
// property of the apply rule, not of the substrate.
//
// At each stage (the base generation and after every step) the digests
// cover:
//   - LinkDocument over the four paper corpora (seed 77): every link
//     (mention id, mention kind, concept kind and id, prior bits,
//     surface), the selected and isolated mentions and the degradation
//     mode;
//   - the entity and predicate candidate lists of every surface the chain
//     touches (concept ids, prior bits, overflow counts);
//   - the derived gazetteer: its size and, for every surface with an
//     entity posting plus every touched surface, the type and lowercase
//     flag it answers;
//   - the generation's cumulative DeltaApplyStats.
//
// One table of constants holds for every layout.  The constants were
// recorded once and must never be edited.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/kb_view.h"
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

// News, T-REx42, KORE50 and MSNBC19 at full size, in that order.
const std::vector<datasets::Dataset>& Corpora() {
  static const std::vector<datasets::Dataset>* corpora = [] {
    auto* out = new std::vector<datasets::Dataset>();
    datasets::CorpusGenerator gen(&World().kb_world);
    Rng rng(77);
    out->push_back(gen.Generate(datasets::NewsSpec(), rng));
    out->push_back(gen.Generate(datasets::TRex42Spec(), rng));
    out->push_back(gen.Generate(datasets::Kore50Spec(), rng));
    out->push_back(gen.Generate(datasets::Msnbc19Spec(), rng));
    return out;
  }();
  return *corpora;
}

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Ints(const std::vector<int>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (int x : v) Int(x);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---- the update chain -----------------------------------------------------

using SurfaceMap = std::map<std::string, std::vector<kb::AliasPosting>>;

// Every surface of the world with its postings, in sorted folded order.
SurfaceMap WorldSurfaces() {
  SurfaceMap out;
  World().kb().alias_index().VisitPostings(
      [&out](std::string_view surface, const kb::AliasPosting& posting) {
        out[std::string(surface)].push_back(posting);
      });
  return out;
}

// Postings of one kind, most probable first.
std::vector<kb::AliasPosting> OfKind(const std::vector<kb::AliasPosting>& list,
                                     kb::ConceptRef::Kind kind) {
  std::vector<kb::AliasPosting> out;
  for (const kb::AliasPosting& p : list) {
    if (p.concept_ref.kind == kind) out.push_back(p);
  }
  return out;
}

bool DistinctPriors(const std::vector<kb::AliasPosting>& list) {
  for (size_t i = 0; i < list.size(); ++i) {
    for (size_t j = i + 1; j < list.size(); ++j) {
      if (list[i].prior == list[j].prior &&
          list[i].concept_ref.kind == list[j].concept_ref.kind) {
        return false;
      }
    }
  }
  return true;
}

// The ambiguous surfaces of one kind with pairwise-distinct priors, most
// postings first (sorted surface order breaks ties).
std::vector<std::string> AmbiguousSurfaces(const SurfaceMap& surfaces,
                                           kb::ConceptRef::Kind kind,
                                           size_t min_postings) {
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const auto& [surface, list] : surfaces) {
    const std::vector<kb::AliasPosting> postings = OfKind(list, kind);
    if (postings.size() >= min_postings && DistinctPriors(list)) {
      ranked.emplace_back(postings.size(), surface);
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  for (const auto& entry : ranked) out.push_back(entry.second);
  return out;
}

// True when every surface carrying `ref` has distinct priors; those are the
// surfaces a tombstone of `ref` touches.
bool SafeToTombstone(const SurfaceMap& surfaces, kb::ConceptRef ref,
                     std::vector<std::string>* touched) {
  std::vector<std::string> carrying;
  for (const auto& [surface, list] : surfaces) {
    for (const kb::AliasPosting& p : list) {
      if (p.concept_ref == ref) {
        if (!DistinctPriors(list)) return false;
        carrying.push_back(surface);
        break;
      }
    }
  }
  if (carrying.empty()) return false;
  touched->insert(touched->end(), carrying.begin(), carrying.end());
  return true;
}

std::vector<float> Row(kb::ConceptRef ref) {
  std::span<const float> v = World().embeddings.Vector(ref);
  return std::vector<float>(v.begin(), v.end());
}

struct Chain {
  // steps[i] is the segment list of the i-th WithDeltas call.
  std::vector<std::vector<kb::DeltaSegment>> steps;
  // Sorted, deduplicated.
  std::vector<std::string> touched_surfaces;
};

const Chain& UpdateChain() {
  static const Chain* chain = [] {
    auto* out = new Chain();
    const SurfaceMap surfaces = WorldSurfaces();
    const std::vector<std::string> entity_amb =
        AmbiguousSurfaces(surfaces, kb::ConceptRef::Kind::kEntity, 3);
    const std::vector<std::string> predicate_amb =
        AmbiguousSurfaces(surfaces, kb::ConceptRef::Kind::kPredicate, 2);
    TENET_CHECK_GE(entity_amb.size(), 3u);
    TENET_CHECK_GE(predicate_amb.size(), 3u);
    const std::string& amb = entity_amb[0];
    const std::string& amb_adjust = entity_amb[1];
    const std::string& pamb = predicate_amb[0];
    const std::string& pamb_adjust = predicate_amb[1];
    std::vector<std::string> touched = {amb, amb_adjust, pamb, pamb_adjust};

    auto top = [&](const std::string& surface, kb::ConceptRef::Kind kind,
                   size_t rank) {
      return OfKind(surfaces.at(surface), kind)[rank];
    };
    const kb::AliasPosting amb_top =
        top(amb, kb::ConceptRef::Kind::kEntity, 0);
    const kb::AliasPosting adjust_top =
        top(amb_adjust, kb::ConceptRef::Kind::kEntity, 0);
    const kb::AliasPosting adjust_second =
        top(amb_adjust, kb::ConceptRef::Kind::kEntity, 1);
    const kb::AliasPosting pamb_top =
        top(pamb, kb::ConceptRef::Kind::kPredicate, 0);
    const kb::AliasPosting padjust_top =
        top(pamb_adjust, kb::ConceptRef::Kind::kPredicate, 0);
    const kb::AliasPosting padjust_second =
        top(pamb_adjust, kb::ConceptRef::Kind::kPredicate, 1);

    // Tombstones: the top sense of the next ambiguous surface of each kind
    // whose every surface is tie-free.
    std::optional<kb::ConceptRef> dead_entity;
    for (size_t i = 2; i < entity_amb.size() && !dead_entity; ++i) {
      kb::ConceptRef ref =
          top(entity_amb[i], kb::ConceptRef::Kind::kEntity, 0).concept_ref;
      if (ref == amb_top.concept_ref || ref == adjust_top.concept_ref ||
          ref == adjust_second.concept_ref) {
        continue;
      }
      if (SafeToTombstone(surfaces, ref, &touched)) dead_entity = ref;
    }
    std::optional<kb::ConceptRef> dead_predicate;
    for (size_t i = 2; i < predicate_amb.size() && !dead_predicate; ++i) {
      kb::ConceptRef ref =
          top(predicate_amb[i], kb::ConceptRef::Kind::kPredicate, 0)
              .concept_ref;
      if (ref == pamb_top.concept_ref || ref == padjust_top.concept_ref ||
          ref == padjust_second.concept_ref) {
        continue;
      }
      if (SafeToTombstone(surfaces, ref, &touched)) dead_predicate = ref;
    }
    TENET_CHECK(dead_entity.has_value());
    TENET_CHECK(dead_predicate.has_value());

    const kb::KnowledgeBase& base = World().kb();
    // Step 1: new concepts, aliases on ambiguous surfaces, prior
    // adjustments, facts and embedding rows.
    kb::DeltaBuilder one(base.num_entities(), base.num_predicates());
    const kb::EntityId quillon =
        one.AddEntity("Quillon Varesh", kb::EntityType::kPerson, 3, 2.5);
    const kb::PredicateId transmogrified =
        one.AddPredicate("transmogrified", 1, 1.7);
    touched.push_back("quillon varesh");
    touched.push_back("transmogrified");
    one.AddEntityAlias(quillon, amb, 0.37);
    one.AddPredicateAlias(transmogrified, pamb, 0.29);
    one.AdjustEntityAliasPrior(adjust_second.concept_ref.id, amb_adjust,
                               adjust_top.prior + 0.0517);
    one.AdjustPredicateAliasPrior(padjust_second.concept_ref.id, pamb_adjust,
                                  padjust_top.prior + 0.0731);
    one.AddFact(quillon, pamb_top.concept_ref.id, amb_top.concept_ref.id);
    one.AddLiteralFact(quillon, transmogrified, "1987");
    one.AddFact(adjust_top.concept_ref.id, transmogrified, quillon);
    std::vector<float> quillon_row = Row(amb_top.concept_ref);
    for (size_t d = 0; d < quillon_row.size(); ++d) {
      quillon_row[d] = 0.9f * quillon_row[d] +
                       0.05f * static_cast<float>(d % 7) - 0.1f;
    }
    one.SetEmbedding(kb::ConceptRef::Entity(quillon), quillon_row);
    one.SetEmbedding(kb::ConceptRef::Predicate(transmogrified),
                     Row(pamb_top.concept_ref));
    out->steps.push_back({one.Build()});

    // Step 2: tombstones, a second alias, an existing row overwritten and
    // a fact between base entities.
    kb::DeltaBuilder two(one.num_entities(), one.num_predicates());
    two.TombstoneEntity(dead_entity->id);
    two.TombstonePredicate(dead_predicate->id);
    two.AddEntityAlias(quillon, "Varesh", 1.3);
    touched.push_back("varesh");
    two.SetEmbedding(adjust_top.concept_ref, Row(amb_top.concept_ref));
    two.AddFact(amb_top.concept_ref.id, padjust_top.concept_ref.id,
                adjust_second.concept_ref.id);
    out->steps.push_back({two.Build()});

    // Step 3, two segments in one apply: a new entity on a surface the
    // overlay already holds, then an adjustment of a delta-added posting.
    kb::DeltaBuilder three_a(two.num_entities(), two.num_predicates());
    const kb::EntityId holdings = three_a.AddEntity(
        "Varesh Holdings", kb::EntityType::kOrganization, 5, 1.9);
    touched.push_back("varesh holdings");
    three_a.AddEntityAlias(holdings, amb, 0.21);
    three_a.AddFact(holdings, transmogrified, quillon);
    kb::DeltaBuilder three_b(three_a.num_entities(),
                             three_a.num_predicates());
    three_b.AdjustEntityAliasPrior(quillon, amb, 0.44);
    three_b.AddPredicateAlias(transmogrified, "transmogrify", 0.5);
    touched.push_back("transmogrify");
    out->steps.push_back({three_a.Build(), three_b.Build()});

    std::set<std::string> unique(touched.begin(), touched.end());
    out->touched_surfaces.assign(unique.begin(), unique.end());
    return out;
  }();
  return *chain;
}

// ---- digests --------------------------------------------------------------

uint64_t LinkDigest(const KbGeneration& generation) {
  Fnv1a h;
  for (const datasets::Dataset& corpus : Corpora()) {
    h.String(corpus.name);
    for (const datasets::Document& doc : corpus.documents) {
      Result<core::LinkingResult> r =
          generation.linker().pipeline().LinkDocument(doc.text);
      EXPECT_TRUE(r.ok()) << doc.id << ": " << r.status();
      if (!r.ok()) {
        h.Int(-1);
        continue;
      }
      h.Int(static_cast<int64_t>(r->links.size()));
      for (const core::LinkedConcept& link : r->links) {
        h.Int(link.mention_id);
        h.Int(static_cast<int64_t>(link.kind));
        h.Int(link.concept_ref.is_entity() ? 1 : 0);
        h.Int(link.concept_ref.id);
        h.Double(link.prior);
        h.String(link.surface);
      }
      h.Ints(r->selected_mentions);
      h.Ints(r->isolated_mentions);
      h.Int(static_cast<int64_t>(r->degradation.mode));
    }
  }
  return h.value();
}

uint64_t CandidateDigest(const KbGeneration& generation) {
  const kb::KbView& view = generation.view();
  Fnv1a h;
  for (const std::string& surface : UpdateChain().touched_surfaces) {
    h.String(surface);
    int overflow = -1;
    std::vector<kb::EntityCandidate> entities =
        view.CandidateEntities(surface, std::nullopt, 8, &overflow);
    h.Int(static_cast<int64_t>(entities.size()));
    h.Int(overflow);
    for (size_t i = 0; i < entities.size(); ++i) {
      h.Int(entities[i].entity);
      h.Double(entities[i].prior);
      if (i > 0) {
        EXPECT_NE(entities[i - 1].prior, entities[i].prior)
            << "exact entity prior tie on \"" << surface << "\"";
      }
    }
    overflow = -1;
    std::vector<kb::PredicateCandidate> predicates =
        view.CandidatePredicates(surface, 8, &overflow);
    h.Int(static_cast<int64_t>(predicates.size()));
    h.Int(overflow);
    for (size_t i = 0; i < predicates.size(); ++i) {
      h.Int(predicates[i].predicate);
      h.Double(predicates[i].prior);
      if (i > 0) {
        EXPECT_NE(predicates[i - 1].prior, predicates[i].prior)
            << "exact predicate prior tie on \"" << surface << "\"";
      }
    }
  }
  return h.value();
}

uint64_t GazetteerDigest(const KbGeneration& generation) {
  std::set<std::string> surfaces(UpdateChain().touched_surfaces.begin(),
                                 UpdateChain().touched_surfaces.end());
  generation.view().VisitAliasPostings(
      [&surfaces](std::string_view surface, const kb::AliasPosting& p) {
        if (p.concept_ref.is_entity()) surfaces.emplace(surface);
      });
  const text::Gazetteer& gazetteer = generation.gazetteer();
  Fnv1a h;
  h.Int(static_cast<int64_t>(gazetteer.size()));
  for (const std::string& surface : surfaces) {
    h.String(surface);
    std::optional<kb::EntityType> type = gazetteer.LookupType(surface);
    h.Int(type.has_value() ? static_cast<int64_t>(*type) : -1);
    h.Int(gazetteer.IsLowercaseMention(surface) ? 1 : 0);
  }
  return h.value();
}

uint64_t StatsDigest(const KbGeneration& generation) {
  const kb::DeltaApplyStats& s = generation.delta_stats();
  Fnv1a h;
  for (int64_t v : {s.added_entities, s.added_predicates, s.added_aliases,
                    s.adjusted_priors, s.tombstones, s.added_facts,
                    s.dropped_facts, s.set_embeddings, s.touched_surfaces}) {
    h.Int(v);
  }
  h.Int(generation.view().num_entities());
  h.Int(generation.view().num_predicates());
  h.Int(generation.view().num_facts());
  return h.value();
}

struct StageGolden {
  uint64_t links;
  uint64_t candidates;
  uint64_t gazetteer;
  uint64_t stats;
};

// Stage 0 is the base generation; stage i > 0 follows chain step i.
constexpr StageGolden kGolden[] = {
    {0x40e0cde0d211d509ULL, 0x1abb307f75a185f5ULL, 0x7c1de04dee645d58ULL,
     0x3ec1ad4ce88488b4ULL},
    {0x53e5d643ab32729bULL, 0xb82879e0191850bbULL, 0x0eac62cad4009da4ULL,
     0x88f4a11030150cd0ULL},
    {0x87cd023b051d1d33ULL, 0x06205c42012b0353ULL, 0xd05841081f6e2078ULL,
     0xd0f21607c131dddcULL},
    {0x3d5f4c42ad083519ULL, 0x5fd9ed1c4ae2cf08ULL, 0xf15703a406f42557ULL,
     0x465679facee79fe5ULL},
};

void ExpectStage(const KbGeneration& generation, size_t stage) {
  SCOPED_TRACE("stage " + std::to_string(stage));
  const StageGolden& golden = kGolden[stage];
  const StageGolden got{LinkDigest(generation), CandidateDigest(generation),
                        GazetteerDigest(generation), StatsDigest(generation)};
  auto hex = [](uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  EXPECT_EQ(got.links, golden.links) << "links " << hex(got.links);
  EXPECT_EQ(got.candidates, golden.candidates)
      << "candidates " << hex(got.candidates);
  EXPECT_EQ(got.gazetteer, golden.gazetteer)
      << "gazetteer " << hex(got.gazetteer);
  EXPECT_EQ(got.stats, golden.stats) << "stats " << hex(got.stats);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/substrate_golden_" + name;
}

// Layout 0: the flat snapshot pair; N > 0: an N-shard manifest.
std::shared_ptr<const KbGeneration> LoadBase(int layout) {
  Result<std::shared_ptr<const KbGeneration>> loaded =
      Status::Internal("unset");
  if (layout == 0) {
    const std::string kb_path = TempPath("flat.tenetkb");
    const std::string emb_path = TempPath("flat.tenetemb");
    Status saved = kb::SaveKnowledgeBase(World().kb(), kb_path);
    if (saved.ok()) saved = kb::SaveEmbeddings(World().embeddings, emb_path);
    EXPECT_TRUE(saved.ok()) << saved;
    if (!saved.ok()) return nullptr;
    loaded = KbGeneration::Load(kb_path, emb_path, {}, 1);
  } else {
    const std::string manifest =
        TempPath("s" + std::to_string(layout) + ".tenetshards");
    Status saved =
        kb::ShardedKb::Partition(World().kb(), World().embeddings, layout)
            .Save(manifest);
    EXPECT_TRUE(saved.ok()) << saved;
    if (!saved.ok()) return nullptr;
    loaded = KbGeneration::LoadSharded(manifest, 1);
  }
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return nullptr;
  return *loaded;
}

class SubstrateGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(SubstrateGoldenTest, ServedStateMatchesAcrossTheUpdateChain) {
  ASSERT_EQ(UpdateChain().steps.size() + 1, std::size(kGolden));
  std::shared_ptr<const KbGeneration> generation = LoadBase(GetParam());
  ASSERT_NE(generation, nullptr);
  ExpectStage(*generation, 0);
  for (size_t step = 0; step < UpdateChain().steps.size(); ++step) {
    Result<std::shared_ptr<const KbGeneration>> next =
        generation->WithDeltas(UpdateChain().steps[step],
                               generation->id() + 1);
    // A substrate that serves sharded layouts read-only cannot run the
    // chain there; any other failure fails the test.
    if (!next.ok() && GetParam() > 0 &&
        next.status().message().find("read-only") != std::string::npos) {
      GTEST_SKIP() << next.status();
    }
    ASSERT_TRUE(next.ok()) << next.status();
    generation = *next;
    ExpectStage(*generation, step + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, SubstrateGoldenTest,
                         ::testing::Values(0, 1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("FlatPair")
                                      : "Shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace serving
}  // namespace tenet
