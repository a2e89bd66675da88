// Quickstart: build a tiny knowledge base, train embeddings, and run the
// TENET pipeline end-to-end on the paper's Figure 1 document.
//
//   $ ./build/examples/quickstart
//
// Demonstrates the public pieces a downstream user touches:
//   kb::KnowledgeBase         — the target KB (entities, predicates, facts)
//   embedding::EmbeddingStore — concept vectors behind Equations 3-5
//   kb::ShardedKb             — the read-side view the linker consumes
//   core::TenetPipeline       — extraction -> coherence graph -> tree cover
//                               -> canopies -> disambiguation
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "core/pipeline.h"
#include "embedding/trainer.h"
#include "kb/knowledge_base.h"
#include "kb/sharded_kb.h"
#include "text/gazetteer.h"

using namespace tenet;

int main() {
  // ---- 1. Build a miniature KB (Figure 1's world) -------------------------
  kb::KnowledgeBase knowledge_base;
  kb::EntityId professor = knowledge_base.AddEntity(
      "M. Jordan (professor)", kb::EntityType::kPerson, /*domain=*/0,
      /*popularity=*/3.0);
  kb::EntityId player = knowledge_base.AddEntity(
      "M. Jordan (basketball player)", kb::EntityType::kPerson, 1, 7.0);
  // One surface, two senses — the player is the popular default.
  knowledge_base.AddEntityAlias(professor, "Michael Jordan", 3.0);
  knowledge_base.AddEntityAlias(player, "Michael Jordan", 7.0);
  kb::EntityId ai = knowledge_base.AddEntity("artificial intelligence",
                                             kb::EntityType::kTopic, 0, 2.0);
  kb::EntityId ml = knowledge_base.AddEntity("machine learning",
                                             kb::EntityType::kTopic, 0, 2.0);
  kb::EntityId fellowship = knowledge_base.AddEntity(
      "Fellow of the AAAS", kb::EntityType::kOther, 0, 1.0);
  kb::EntityId brooklyn =
      knowledge_base.AddEntity("Brooklyn", kb::EntityType::kLocation, 2, 4.0);

  kb::PredicateId field = knowledge_base.AddPredicate("field of study", 0);
  knowledge_base.AddPredicateAlias(field, "study", 2.0);
  kb::PredicateId educated = knowledge_base.AddPredicate("educated at", 0);
  knowledge_base.AddPredicateAlias(educated, "study", 1.0);
  kb::PredicateId award = knowledge_base.AddPredicate("award received", 0);
  kb::PredicateId visited = knowledge_base.AddPredicate("visit", 2);
  (void)visited;

  TENET_CHECK(knowledge_base.AddFact(professor, field, ai).ok());
  TENET_CHECK(knowledge_base.AddFact(professor, field, ml).ok());
  TENET_CHECK(knowledge_base.AddFact(professor, award, fellowship).ok());
  knowledge_base.Finalize();

  // ---- 2. Train structural embeddings -------------------------------------
  Rng rng(2021);
  embedding::EmbeddingStore embeddings =
      embedding::StructuralEmbeddingTrainer().Train(knowledge_base, rng);

  // ---- 3. NER gazetteer from the KB surfaces ------------------------------
  text::Gazetteer gazetteer;
  for (kb::EntityId id = 0; id < knowledge_base.num_entities(); ++id) {
    const kb::EntityRecord& rec = knowledge_base.entity(id);
    gazetteer.AddSurface(rec.label, rec.type,
                         rec.type == kb::EntityType::kTopic);
  }
  gazetteer.AddSurface("Michael Jordan", kb::EntityType::kPerson);
  gazetteer.AddSurface("AAAS", kb::EntityType::kOther);
  gazetteer.AddSurface("Fellow", kb::EntityType::kOther);

  // ---- 4. Link a document --------------------------------------------------
  // The linker reads the KB + embeddings through their 1-shard layout.
  auto view = std::make_shared<const kb::ShardedKb>(
      kb::ShardedKb::Partition(knowledge_base, embeddings, 1));
  core::TenetPipeline tenet(view, &gazetteer);
  const char* document =
      "Michael Jordan studies artificial intelligence and machine learning. "
      "He was awarded as the Fellow of the AAAS. "
      "He visited Brooklyn in April 2019.";
  Result<core::LinkingResult> result = tenet.LinkDocument(document);
  if (!result.ok()) {
    std::fprintf(stderr, "linking failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("Document:\n  %s\n\nLinked concepts:\n", document);
  for (const core::LinkedConcept& link : result->links) {
    if (link.kind == core::Mention::Kind::kNoun) {
      std::printf("  [entity]    %-32s -> %s\n", link.surface.c_str(),
                  knowledge_base.entity(link.concept_ref.id).label.c_str());
    } else {
      std::printf("  [predicate] %-32s -> %s\n", link.surface.c_str(),
                  knowledge_base.predicate(link.concept_ref.id).label.c_str());
    }
  }
  std::printf("\nIsolated / emerging concepts:\n");
  for (int m : result->isolated_mentions) {
    std::printf("  [new]       %s\n",
                result->mentions.mention(m).surface.c_str());
  }
  std::printf(
      "\nNote how coherence overrides popularity: \"Michael Jordan\" links "
      "to the\nprofessor (prior 0.3) because the document's topics pull the "
      "tree cover that\nway, while Brooklyn links independently (sparse "
      "coherence) and \"April 2019\"\nis recognized as an emerging "
      "concept.\n");
  (void)brooklyn;
  return 0;
}
