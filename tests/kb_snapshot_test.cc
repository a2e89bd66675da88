// Golden snapshot equivalence: a world saved to disk and reloaded — TENETKB3
// streamed or zero-copy — must drive the full evaluation to scores
// byte-identical to the in-memory original, including the full/degraded
// accounting.  This is the round-trip contract the persistence layer
// exists to keep: a restart may never change what the system links.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "kb/io.h"
#include "kb/sharded_kb.h"

namespace tenet {
namespace eval {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSamePRF(const PRF& a, const PRF& b, const char* what) {
  EXPECT_EQ(a.tp, b.tp) << what;
  EXPECT_EQ(a.fp, b.fp) << what;
  EXPECT_EQ(a.fn, b.fn) << what;
}

SystemScores Score(const baselines::BaselineSubstrate& substrate,
                   const datasets::Dataset& dataset) {
  baselines::TenetLinker linker(substrate);
  return EvaluateEndToEnd(linker, dataset);
}

TEST(KbSnapshotTest, EveryLoadPathScoresIdenticallyToMemory) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(71);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 6;
  datasets::Dataset dataset = gen.Generate(spec, rng);

  SystemScores golden = Score({world.view, &world.gazetteer(), {}}, dataset);
  ASSERT_EQ(golden.failed_documents, 0);
  ASSERT_GT(golden.entity_linking.tp, 0);

  std::string bin_path = TempPath("snapshot_world.tenetkb");
  std::string emb_path = TempPath("snapshot_world.tenetemb");
  ASSERT_TRUE(kb::SaveKnowledgeBase(world.kb(), bin_path).ok());
  ASSERT_TRUE(kb::SaveEmbeddings(world.embeddings, emb_path).ok());

  struct LoadPath {
    const char* name;
    const std::string* kb_path;
    kb::KbLoadOptions options;
  };
  const LoadPath paths[] = {
      {"binary_stream", &bin_path, {/*prefer_mmap=*/false}},
      {"binary_mmap", &bin_path, {/*prefer_mmap=*/true}},
  };
  for (const LoadPath& path : paths) {
    SCOPED_TRACE(path.name);
    Result<kb::ShardedKb> kb2 =
        kb::ShardedKb::Load(*path.kb_path, emb_path, path.options);
    ASSERT_TRUE(kb2.ok()) << kb2.status();
    auto view = std::make_shared<const kb::ShardedKb>(std::move(*kb2));
    text::Gazetteer gazetteer2 = kb::DeriveGazetteer(*view);

    SystemScores scores = Score({view, &gazetteer2, {}}, dataset);
    ExpectSamePRF(golden.entity_linking, scores.entity_linking,
                  "entity_linking");
    ExpectSamePRF(golden.relation_linking, scores.relation_linking,
                  "relation_linking");
    ExpectSamePRF(golden.mention_detection, scores.mention_detection,
                  "mention_detection");
    ExpectSamePRF(golden.isolated_detection, scores.isolated_detection,
                  "isolated_detection");
    EXPECT_EQ(golden.failed_documents, scores.failed_documents);
    EXPECT_EQ(golden.full_documents, scores.full_documents);
    EXPECT_EQ(golden.degraded_documents, scores.degraded_documents);
  }
}

}  // namespace
}  // namespace eval
}  // namespace tenet
