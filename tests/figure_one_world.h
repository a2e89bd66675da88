// Shared test fixture: a hand-crafted micro-world reproducing the paper's
// Figure 1 scenario (Michael Jordan the professor vs. the basketball
// player), with embeddings arranged so that global coherence must override
// the local popularity prior.
#ifndef TENET_TESTS_FIGURE_ONE_WORLD_H_
#define TENET_TESTS_FIGURE_ONE_WORLD_H_

#include <memory>
#include <span>

#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "kb/sharded_kb.h"
#include "text/gazetteer.h"

namespace tenet {
namespace testing_support {

struct FigureOneWorld {
  kb::KnowledgeBase kb;
  embedding::EmbeddingStore embeddings{8, 0, 0};
  /// The 1-shard layout of kb + embeddings every linker reads.
  std::shared_ptr<const kb::ShardedKb> view;
  text::Gazetteer gazetteer;

  // Entity ids.
  kb::EntityId professor = -1;
  kb::EntityId player = -1;
  kb::EntityId ai = -1;
  kb::EntityId ml = -1;
  kb::EntityId aaas_fellow = -1;
  kb::EntityId brooklyn = -1;
  // Predicate ids.
  kb::PredicateId field_of_study = -1;
  kb::PredicateId educated_at = -1;
  kb::PredicateId award_received = -1;
  kb::PredicateId residence = -1;
};

inline void SetVector(embedding::EmbeddingStore& store, kb::ConceptRef ref,
                      std::initializer_list<float> values) {
  std::span<float> v = store.MutableVector(ref);
  int i = 0;
  for (float x : values) v[i++] = x;
}

// Builds the world.  The academic cluster (professor, AI, ML, AAAS
// fellowship, field-of-study) shares one embedding direction; the sports
// cluster (player) another; Brooklyn a third.  The player is more popular
// (prior 0.7 vs 0.3 for the surface "Michael Jordan").
inline FigureOneWorld BuildFigureOneWorld() {
  FigureOneWorld w;
  w.professor = w.kb.AddEntity("M. Jordan (professor)",
                               kb::EntityType::kPerson, 0, 3.0);
  w.player = w.kb.AddEntity("M. Jordan (basketball player)",
                            kb::EntityType::kPerson, 1, 7.0);
  w.kb.AddEntityAlias(w.professor, "Michael Jordan", 3.0);
  w.kb.AddEntityAlias(w.player, "Michael Jordan", 7.0);
  w.ai = w.kb.AddEntity("artificial intelligence", kb::EntityType::kTopic,
                        0, 2.0);
  w.ml = w.kb.AddEntity("machine learning", kb::EntityType::kTopic, 0, 2.0);
  w.aaas_fellow = w.kb.AddEntity("Fellow of the AAAS",
                                 kb::EntityType::kOther, 0, 1.0);
  // Short alias so that the extractor's "Fellow" / "AAAS" variants find
  // competing candidates.
  w.kb.AddEntityAlias(w.aaas_fellow, "AAAS", 0.5);
  w.brooklyn = w.kb.AddEntity("Brooklyn", kb::EntityType::kLocation, 2, 4.0);

  w.field_of_study = w.kb.AddPredicate("field of study", 0, 2.0);
  w.kb.AddPredicateAlias(w.field_of_study, "study", 2.0);
  w.educated_at = w.kb.AddPredicate("educated at", 0, 1.0);
  w.kb.AddPredicateAlias(w.educated_at, "study", 1.0);
  w.award_received = w.kb.AddPredicate("award", 0, 1.0);
  w.residence = w.kb.AddPredicate("visit", 2, 1.0);

  TENET_CHECK(w.kb.AddFact(w.professor, w.field_of_study, w.ai).ok());
  TENET_CHECK(w.kb.AddFact(w.professor, w.field_of_study, w.ml).ok());
  TENET_CHECK(w.kb.AddFact(w.professor, w.award_received, w.aaas_fellow).ok());
  w.kb.Finalize();

  w.embeddings =
      embedding::EmbeddingStore(8, w.kb.num_entities(), w.kb.num_predicates());
  using kb::ConceptRef;
  // Academic direction e0 (with small per-concept jitter on other axes).
  SetVector(w.embeddings, ConceptRef::Entity(w.professor),
            {1.0f, 0.1f, 0.0f, 0.05f});
  SetVector(w.embeddings, ConceptRef::Entity(w.ai),
            {0.95f, 0.05f, 0.0f, -0.05f});
  SetVector(w.embeddings, ConceptRef::Entity(w.ml),
            {0.9f, 0.0f, 0.05f, 0.05f});
  SetVector(w.embeddings, ConceptRef::Entity(w.aaas_fellow),
            {0.85f, 0.0f, -0.05f, 0.1f});
  SetVector(w.embeddings, ConceptRef::Predicate(w.field_of_study),
            {0.9f, 0.1f, 0.0f, 0.0f});
  SetVector(w.embeddings, ConceptRef::Predicate(w.award_received),
            {0.8f, 0.05f, 0.1f, 0.0f});
  // Sports direction e1.
  SetVector(w.embeddings, ConceptRef::Entity(w.player),
            {0.1f, 1.0f, 0.0f, 0.0f});
  SetVector(w.embeddings, ConceptRef::Predicate(w.educated_at),
            {0.3f, 0.6f, 0.2f, 0.0f});
  // Location direction e2.
  SetVector(w.embeddings, ConceptRef::Entity(w.brooklyn),
            {0.0f, 0.1f, 1.0f, 0.0f});
  SetVector(w.embeddings, ConceptRef::Predicate(w.residence),
            {0.05f, 0.05f, 0.9f, 0.1f});
  w.embeddings.Finalize();
  w.view = std::make_shared<const kb::ShardedKb>(
      kb::ShardedKb::Partition(w.kb, w.embeddings, 1));

  for (kb::EntityId id = 0; id < w.kb.num_entities(); ++id) {
    const kb::EntityRecord& rec = w.kb.entity(id);
    w.gazetteer.AddSurface(rec.label, rec.type,
                           rec.type == kb::EntityType::kTopic);
  }
  w.gazetteer.AddSurface("Michael Jordan", kb::EntityType::kPerson);
  w.gazetteer.AddSurface("AAAS", kb::EntityType::kOther);
  w.gazetteer.AddSurface("Fellow", kb::EntityType::kOther);
  return w;
}

}  // namespace testing_support
}  // namespace tenet

#endif  // TENET_TESTS_FIGURE_ONE_WORLD_H_
