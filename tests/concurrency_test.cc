// Thread-safety: the KB, embeddings, gazetteer and pipeline are immutable
// after construction, so concurrent LinkDocument calls on one shared
// pipeline must be safe and bit-identical to serial execution.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"

namespace tenet {
namespace core {
namespace {

struct Outcome {
  std::vector<std::pair<int, kb::ConceptRef>> links;
  std::vector<int> isolated;

  bool operator==(const Outcome& other) const {
    return links == other.links && isolated == other.isolated;
  }
};

Outcome Summarize(const LinkingResult& result) {
  Outcome out;
  for (const LinkedConcept& link : result.links) {
    out.links.emplace_back(link.mention_id, link.concept_ref);
  }
  out.isolated = result.isolated_mentions;
  return out;
}

TEST(ConcurrencyTest, ParallelLinkingMatchesSerial) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(71);
  datasets::DatasetSpec spec = datasets::TRex42Spec();
  spec.num_docs = 16;
  datasets::Dataset ds = gen.Generate(spec, rng);

  TenetPipeline tenet(world.view, &world.gazetteer());

  // Serial reference.
  std::vector<Outcome> reference;
  for (const datasets::Document& doc : ds.documents) {
    Result<LinkingResult> r = tenet.LinkDocument(doc.text);
    ASSERT_TRUE(r.ok());
    reference.push_back(Summarize(*r));
  }

  // 4 threads, interleaved documents, several rounds.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<Outcome> parallel(ds.documents.size());
  std::vector<bool> ok(ds.documents.size(), true);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < ds.documents.size(); i += kThreads) {
          Result<LinkingResult> r = tenet.LinkDocument(ds.documents[i].text);
          if (!r.ok()) {
            ok[i] = false;
            continue;
          }
          parallel[i] = Summarize(*r);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (size_t i = 0; i < ds.documents.size(); ++i) {
      ASSERT_TRUE(ok[i]) << "document " << i << " failed in round " << round;
      EXPECT_TRUE(parallel[i] == reference[i])
          << "document " << i << " diverged under concurrency";
    }
  }
}

TEST(ConcurrencyTest, SharedKbSupportsConcurrentCandidateQueries) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  const kb::KbView& view = *world.view;
  std::vector<std::thread> workers;
  std::vector<int> totals(4, 0);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&view, &totals, t] {
      for (kb::EntityId id = t; id < view.num_entities(); id += 4) {
        totals[t] += static_cast<int>(
            view.CandidateEntities(view.entity(id).label, std::nullopt, 4)
                .size());
        totals[t] += static_cast<int>(view.NeighborEntities(id).size());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  int total = totals[0] + totals[1] + totals[2] + totals[3];
  EXPECT_GT(total, view.num_entities());  // every label resolves at least once
}

}  // namespace
}  // namespace core
}  // namespace tenet
