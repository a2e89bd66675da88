// KB population (the downstream task motivating KBPearl/QKBfly in the
// paper's introduction): link a news corpus with TENET, harvest candidate
// facts and emerging entities with core::KbPopulator, and apply them to a
// fresh KB generation.
//
//   $ ./build/examples/kb_population
#include <cstdio>

#include "core/pipeline.h"
#include "core/population.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"

using namespace tenet;

int main() {
  // Substrate: synthetic world + a small news corpus.
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator generator(&world.kb_world);
  Rng rng(7);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 6;
  datasets::Dataset corpus = generator.Generate(spec, rng);

  core::TenetPipeline tenet(world.view, &world.gazetteer());
  core::KbPopulator populator(&world.kb());

  core::PopulationReport report;
  int linked_mentions = 0;
  for (const datasets::Document& doc : corpus.documents) {
    Result<core::LinkingResult> result = tenet.LinkDocument(doc.text);
    if (!result.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", doc.id.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    linked_mentions += static_cast<int>(result->links.size());
    populator.Accumulate(*result, &report);
  }

  std::printf("Processed %zu documents, %d linked mentions.\n\n",
              corpus.documents.size(), linked_mentions);

  std::printf("Candidate facts for KB population (first 12 of %zu, %d new):\n",
              report.facts.size(), report.NumNewFacts());
  int shown = 0;
  for (const core::FactCandidate& fact : report.facts) {
    if (shown++ >= 12) break;
    std::printf("  (%s | %s | %s)%s  support=%d\n",
                world.kb().entity(fact.subject).label.c_str(),
                world.kb().predicate(fact.predicate).label.c_str(),
                world.kb().entity(fact.object).label.c_str(),
                fact.already_known ? "  [already in KB]" : "  [NEW]",
                fact.support);
  }

  std::printf("\nEmerging entities proposed for KB insertion:\n");
  for (const core::EmergingEntity& entity : report.entities) {
    std::printf("  %-28s seen %d time(s)\n", entity.surface.c_str(),
                entity.support);
  }

  // Apply the report to a rebuilt KB (same concepts, fresh build phase).
  kb::KnowledgeBase target;
  for (kb::EntityId id = 0; id < world.kb().num_entities(); ++id) {
    const kb::EntityRecord& rec = world.kb().entity(id);
    target.AddEntity(rec.label, rec.type, rec.domain, rec.popularity);
  }
  for (kb::PredicateId id = 0; id < world.kb().num_predicates(); ++id) {
    const kb::PredicateRecord& rec = world.kb().predicate(id);
    target.AddPredicate(rec.label, rec.domain, rec.popularity);
  }
  for (const kb::Triple& t : world.kb().facts()) {
    if (t.object_is_entity) {
      (void)target.AddFact(t.subject, t.predicate, t.object_entity);
    } else {
      (void)target.AddLiteralFact(t.subject, t.predicate, t.object_literal);
    }
  }
  int added = populator.ApplyToKb(report, /*min_support=*/1,
                                  kb::EntityType::kOther, &target);
  target.Finalize();
  std::printf(
      "\nApplied to a rebuilt KB: +%d facts, +%d entities "
      "(%d -> %d entities, %d -> %d facts).\n",
      added, target.num_entities() - world.kb().num_entities(),
      world.kb().num_entities(), target.num_entities(),
      world.kb().num_facts(), target.num_facts());
  return 0;
}
