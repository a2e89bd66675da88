// Golden sharding equivalence (DESIGN.md §14): the world's in-memory view
// (the 1-shard partition every offline linker reads) and its 1/2/4-shard
// TENETKBSHARDS1 layouts, round-tripped through Save/Load, must drive the
// evaluation to byte-identical scores — PRF, full/degraded/failed
// accounting — and build byte-identical coherence edge lists.
// Scatter/gather candidate generation merges per-shard posting sublists
// back into the canonical global order, so sharding may never change what
// the system links; this suite pins that contract.  The fault case pins
// the failure model: a fired "kb/shard" point degrades the lookup (that
// shard's candidates are simply missing, counted in
// tenet_kb_shard_degraded_lookups_total) but the request never fails.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "common/fault_injection.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "kb/io.h"
#include "kb/sharded_kb.h"
#include "obs/metrics.h"
#include "text/extraction.h"

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

// Partitions the world into `num_shards`, round-trips the layout through
// Save/Load, and returns the loaded substrate.
std::shared_ptr<const kb::ShardedKb> RoundTripSharded(
    const datasets::SyntheticWorld& world, int num_shards) {
  kb::ShardedKb parted =
      kb::ShardedKb::Partition(world.kb(), world.embeddings, num_shards);
  const std::string manifest = TempPath(
      "shard_world_s" + std::to_string(num_shards) + ".tenetshards");
  Status saved = parted.Save(manifest);
  EXPECT_TRUE(saved.ok()) << saved;
  if (!saved.ok()) return nullptr;
  Result<kb::ShardedKb> loaded = kb::ShardedKb::Load(manifest);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return nullptr;
  return std::make_shared<const kb::ShardedKb>(std::move(*loaded));
}

TEST(KbShardTest, ScoresByteIdenticalAcrossShardCounts) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(71);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 6;
  datasets::Dataset dataset = gen.Generate(spec, rng);

  baselines::TenetLinker in_memory(
      baselines::BaselineSubstrate{world.view, &world.gazetteer(), {}});
  SystemScores golden = EvaluateEndToEnd(in_memory, dataset);
  ASSERT_EQ(golden.failed_documents, 0);
  ASSERT_GT(golden.entity_linking.tp, 0);

  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE(num_shards);
    std::shared_ptr<const kb::ShardedKb> sharded =
        RoundTripSharded(world, num_shards);
    ASSERT_NE(sharded, nullptr);
    // The gazetteer is re-derived through the view, exactly as a sharded
    // KbGeneration derives it at load time.
    text::Gazetteer gazetteer = kb::DeriveGazetteer(*sharded);

    baselines::TenetLinker linker(
        baselines::BaselineSubstrate{sharded, &gazetteer, {}});
    SystemScores scores = EvaluateEndToEnd(linker, dataset);

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

TEST(KbShardTest, CoherenceEdgeListsByteIdenticalAcrossSubstrates) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(71);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 4;
  datasets::Dataset dataset = gen.Generate(spec, rng);

  core::CoherenceGraphBuilder in_memory_builder(world.view);
  text::Extractor extractor(&world.gazetteer());

  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE(num_shards);
    std::shared_ptr<const kb::ShardedKb> sharded =
        RoundTripSharded(world, num_shards);
    ASSERT_NE(sharded, nullptr);
    core::CoherenceGraphBuilder sharded_builder(sharded);

    for (const datasets::Document& doc : dataset.documents) {
      SCOPED_TRACE(doc.id);
      text::ExtractionResult extraction =
          extractor.ExtractFromText(doc.text);
      core::CoherenceGraph a = in_memory_builder.Build(
          core::BuildMentionSet(extraction, &world.gazetteer()));
      core::CoherenceGraph b = sharded_builder.Build(
          core::BuildMentionSet(extraction, &world.gazetteer()));

      // Exact equality, doubles included: the snapshot round trip, the
      // scatter/gather merge and the gather kernel must reproduce the
      // in-memory view bit for bit.
      ASSERT_EQ(a.num_concept_nodes(), b.num_concept_nodes());
      for (int n = a.num_mentions(); n < a.num_nodes(); ++n) {
        const core::CoherenceGraph::ConceptNode& ca = a.concept_node(n);
        const core::CoherenceGraph::ConceptNode& cb = b.concept_node(n);
        EXPECT_EQ(ca.mention, cb.mention);
        EXPECT_EQ(ca.ref.kind, cb.ref.kind);
        EXPECT_EQ(ca.ref.id, cb.ref.id);
        EXPECT_EQ(ca.prior, cb.prior);
      }
      const std::vector<graph::Edge>& ea = a.graph().edges();
      const std::vector<graph::Edge>& eb = b.graph().edges();
      ASSERT_EQ(ea.size(), eb.size());
      for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].u, eb[i].u) << "edge " << i;
        EXPECT_EQ(ea[i].v, eb[i].v) << "edge " << i;
        EXPECT_EQ(ea[i].weight, eb[i].weight) << "edge " << i;
      }
    }
  }
}

TEST(KbShardTest, FiredShardDegradesLookupWithoutFailing) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::shared_ptr<const kb::ShardedKb> sharded =
      std::make_shared<const kb::ShardedKb>(
          kb::ShardedKb::Partition(world.kb(), world.embeddings, 4));
  text::Gazetteer gazetteer = kb::DeriveGazetteer(*sharded);

  // A surface every substrate resolves, with its fault-free candidate set
  // as the baseline.
  const std::string surface = world.kb().entity(0).label;
  std::vector<kb::EntityCandidate> clean =
      sharded->CandidateEntities(surface, std::nullopt, 8);
  ASSERT_FALSE(clean.empty());

  obs::Counter* degraded = obs::MetricsRegistry::Default()->GetCounter(
      "tenet_kb_shard_degraded_lookups_total", "");
  const int64_t degraded_before = degraded->Value();

  {
    FaultInjector faults(/*seed=*/7);
    faults.Arm("kb/shard", 1.0);
    // Every shard fires: the lookup returns nothing — degraded, exactly
    // like an alias-index miss — but it returns.
    std::vector<kb::EntityCandidate> under_fault =
        sharded->CandidateEntities(surface, std::nullopt, 8);
    EXPECT_TRUE(under_fault.empty());
    EXPECT_EQ(faults.FireCount("kb/shard"), 4);
    EXPECT_EQ(degraded->Value(), degraded_before + 4);

    // Per-request degradation end to end: a whole document links without
    // failure while every per-shard lookup is dropped.
    baselines::TenetLinker linker(
        baselines::BaselineSubstrate{sharded, &gazetteer, {}});
    Result<core::LinkingResult> result = linker.LinkDocument(
        "Michael Jordan studies artificial intelligence.");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(degraded->Value(), degraded_before + 4);
  }

  // Disarmed, the same lookup is whole again.
  std::vector<kb::EntityCandidate> after =
      sharded->CandidateEntities(surface, std::nullopt, 8);
  ASSERT_EQ(after.size(), clean.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].entity, clean[i].entity);
    EXPECT_EQ(after[i].prior, clean[i].prior);
  }
}

}  // namespace
}  // namespace eval
}  // namespace tenet
