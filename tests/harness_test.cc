// Smoke tests of the experiment harness (eval/harness) and the sparsity
// analysis (eval/sparsity), over a miniature world.
#include <cmath>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "baselines/falcon_like.h"
#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "eval/sparsity.h"

namespace tenet {
namespace eval {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::Dataset TinyDataset(uint64_t seed) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::DatasetSpec spec = datasets::TRex42Spec();
  spec.num_docs = 5;
  return gen.Generate(spec, rng);
}

baselines::BaselineSubstrate Substrate() {
  return baselines::BaselineSubstrate{
      &World().kb(), &World().embeddings, &World().gazetteer(), {}, {}};
}

TEST(HarnessTest, EndToEndProducesConsistentScores) {
  datasets::Dataset ds = TinyDataset(51);
  baselines::TenetLinker tenet(Substrate());
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.system, "TENET");
  EXPECT_EQ(scores.dataset, "T-REx42");
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_GT(scores.entity_linking.tp, 0);
  EXPECT_GE(scores.total_ms, 0.0);
  // PRF sanity.
  EXPECT_GE(scores.entity_linking.Precision(), 0.0);
  EXPECT_LE(scores.entity_linking.Precision(), 1.0);
  EXPECT_LE(scores.entity_linking.F1(),
            std::max(scores.entity_linking.Precision(),
                     scores.entity_linking.Recall()) +
                1e-12);
}

TEST(HarnessTest, RelationScoresOnlyWhenAnnotated) {
  datasets::Dataset ds = TinyDataset(52);
  ASSERT_TRUE(ds.has_relation_gold);
  baselines::TenetLinker tenet(Substrate());
  SystemScores with_rel = EvaluateEndToEnd(tenet, ds);
  EXPECT_GT(with_rel.relation_linking.tp + with_rel.relation_linking.fn, 0);

  ds.has_relation_gold = false;
  SystemScores without_rel = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(without_rel.relation_linking.tp, 0);
  EXPECT_EQ(without_rel.relation_linking.fn, 0);
}

TEST(HarnessTest, DisambiguationModeScoresGoldMentions) {
  datasets::Dataset ds = TinyDataset(53);
  baselines::TenetLinker tenet(Substrate());
  SystemScores scores =
      EvaluateDisambiguation(tenet, ds, World().gazetteer());
  EXPECT_EQ(scores.failed_documents, 0);
  // With gold mentions given, recall can only be bounded by
  // disambiguation errors — it must be at least end-to-end recall.
  SystemScores end_to_end = EvaluateEndToEnd(tenet, ds);
  EXPECT_GE(scores.entity_linking.Recall() + 0.05,
            end_to_end.entity_linking.Recall());
}

TEST(HarnessTest, ParallelEvaluationMatchesSerialExactly) {
  datasets::Dataset ds = TinyDataset(56);
  baselines::TenetLinker tenet(Substrate());
  SystemScores serial = EvaluateEndToEnd(tenet, ds);

  EvalOptions parallel_options;
  parallel_options.num_threads = 4;
  SystemScores parallel = EvaluateEndToEnd(tenet, ds, parallel_options);

  // A fault-free dataset must score byte-identically across thread counts:
  // same per-document results, merged in dataset order.
  auto expect_same_prf = [](const PRF& a, const PRF& b) {
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.fp, b.fp);
    EXPECT_EQ(a.fn, b.fn);
  };
  expect_same_prf(serial.entity_linking, parallel.entity_linking);
  expect_same_prf(serial.relation_linking, parallel.relation_linking);
  expect_same_prf(serial.mention_detection, parallel.mention_detection);
  expect_same_prf(serial.isolated_detection, parallel.isolated_detection);
  EXPECT_EQ(serial.failed_documents, parallel.failed_documents);
  EXPECT_EQ(serial.full_documents, parallel.full_documents);
  EXPECT_EQ(serial.degraded_documents, parallel.degraded_documents);
  EXPECT_TRUE(parallel.failures.empty());
}

// Fails the first call for each document with kInternal and answers every
// later call through `inner` — a transient fault that any retry would hide.
class FlakyOnceLinker : public baselines::Linker {
 public:
  explicit FlakyOnceLinker(const baselines::Linker* inner) : inner_(inner) {}

  std::string_view name() const override { return inner_->name(); }

  Result<core::LinkingResult> LinkDocument(
      std::string_view document_text,
      const core::LinkContext& context = {}) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (seen_.insert(std::string(document_text)).second) {
        return Status::Internal("transient fault");
      }
    }
    return inner_->LinkDocument(document_text, context);
  }

  Result<core::LinkingResult> LinkMentionSet(
      core::MentionSet mentions,
      const core::LinkContext& context = {}) const override {
    return inner_->LinkMentionSet(std::move(mentions), context);
  }

 private:
  const baselines::Linker* inner_;
  mutable std::mutex mu_;
  mutable std::unordered_set<std::string> seen_;
};

TEST(HarnessTest, ParallelCountsFailuresLikeSerial) {
  datasets::Dataset ds = TinyDataset(62);
  baselines::TenetLinker tenet(Substrate());
  FlakyOnceLinker serial_linker(&tenet);
  FlakyOnceLinker parallel_linker(&tenet);
  EvalOptions parallel_options;
  parallel_options.num_threads = 4;

  // First pass: every document's one and only call fails, at any thread
  // count — the harness links each document once and never retries.
  SystemScores serial = EvaluateEndToEnd(serial_linker, ds);
  SystemScores parallel =
      EvaluateEndToEnd(parallel_linker, ds, parallel_options);
  EXPECT_EQ(serial.failed_documents, static_cast<int>(ds.documents.size()));
  EXPECT_EQ(parallel.failed_documents, serial.failed_documents);
  EXPECT_EQ(parallel.CrashedDocuments(), serial.CrashedDocuments());
  EXPECT_EQ(parallel.entity_linking.tp, serial.entity_linking.tp);
  EXPECT_EQ(parallel.entity_linking.fn, serial.entity_linking.fn);

  // Second pass: the faults are spent, and both runs score the same
  // non-trivial PRF.
  serial = EvaluateEndToEnd(serial_linker, ds);
  parallel = EvaluateEndToEnd(parallel_linker, ds, parallel_options);
  EXPECT_EQ(serial.failed_documents, 0);
  EXPECT_EQ(parallel.failed_documents, 0);
  EXPECT_GT(serial.entity_linking.tp, 0);
  EXPECT_EQ(parallel.entity_linking.tp, serial.entity_linking.tp);
  EXPECT_EQ(parallel.entity_linking.fp, serial.entity_linking.fp);
  EXPECT_EQ(parallel.entity_linking.fn, serial.entity_linking.fn);
  EXPECT_EQ(parallel.relation_linking.tp, serial.relation_linking.tp);
  EXPECT_EQ(parallel.relation_linking.fp, serial.relation_linking.fp);
  EXPECT_EQ(parallel.relation_linking.fn, serial.relation_linking.fn);
}

TEST(HarnessTest, ReportsBothSummedLatencyAndWallClock) {
  datasets::Dataset ds = TinyDataset(57);
  baselines::TenetLinker tenet(Substrate());
  SystemScores serial = EvaluateEndToEnd(tenet, ds);
  // total_ms sums per-document linking latencies; wall_ms is the whole
  // run.  Both populated, and a serial run's wall clock covers the sum.
  EXPECT_GT(serial.total_ms, 0.0);
  EXPECT_GT(serial.wall_ms, 0.0);
  EXPECT_GE(serial.wall_ms, serial.total_ms * 0.5);

  EvalOptions parallel_options;
  parallel_options.num_threads = 2;
  SystemScores parallel = EvaluateEndToEnd(tenet, ds, parallel_options);
  EXPECT_GT(parallel.total_ms, 0.0);
  EXPECT_GT(parallel.wall_ms, 0.0);
}

// Sums the values of every snapshot point matching (name, labels).
double SnapshotValue(const std::vector<obs::MetricPoint>& points,
                     const std::string& name, const std::string& labels) {
  double value = 0.0;
  for (const obs::MetricPoint& p : points) {
    if (p.name == name && p.labels == labels) value += p.value;
  }
  return value;
}

TEST(HarnessTest, WallClockCoversTheSlowestDocument) {
  datasets::Dataset ds = TinyDataset(60);
  baselines::TenetLinker tenet(Substrate());

  // No document can finish after the evaluation that contains it, whatever
  // the thread count: wall_ms >= max over per-document latencies.
  SystemScores serial = EvaluateEndToEnd(tenet, ds);
  EXPECT_GT(serial.max_doc_ms, 0.0);
  EXPECT_GE(serial.wall_ms, serial.max_doc_ms);
  EXPECT_GE(serial.total_ms, serial.max_doc_ms);

  EvalOptions parallel_options;
  parallel_options.num_threads = 4;
  SystemScores parallel = EvaluateEndToEnd(tenet, ds, parallel_options);
  EXPECT_GT(parallel.max_doc_ms, 0.0);
  EXPECT_GE(parallel.wall_ms, parallel.max_doc_ms);
}

TEST(HarnessTest, DegradedDocumentsLandInTheSameLatencyFamily) {
  datasets::Dataset ds = TinyDataset(61);
  // A zero budget degrades every document to the prior-only rung.  Their
  // latencies must still be published, in the same
  // tenet_document_latency_ms family as full answers (under
  // mode="prior_only") — degrading must not hide the tail.  The default
  // registry is process-cumulative, so the assertion diffs two snapshots.
  const std::vector<obs::MetricPoint> before =
      obs::MetricsRegistry::Default()->Snapshot();
  core::TenetOptions options;
  options.deadline_ms = 0.0;
  baselines::TenetLinker tenet(Substrate(), options);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  ASSERT_EQ(scores.degraded_documents, static_cast<int>(ds.documents.size()));

  const std::string family = "tenet_document_latency_ms_count";
  const std::string prior_only = obs::LabelPair("mode", "prior_only");
  const std::string full = obs::LabelPair("mode", "full");
  EXPECT_EQ(SnapshotValue(scores.metrics, family, prior_only) -
                SnapshotValue(before, family, prior_only),
            static_cast<double>(ds.documents.size()));
  EXPECT_EQ(SnapshotValue(scores.metrics, family, full) -
                SnapshotValue(before, family, full),
            0.0);
}

TEST(HarnessTest, DisambiguationObservesDeadlineExpiryMidStage) {
  datasets::Dataset ds = TinyDataset(58);
  // A zero budget expires between mention intake and the coherence stage:
  // every document must come back prior-only degraded (never failed, never
  // crashed) and still be scored.
  core::TenetOptions options;
  options.deadline_ms = 0.0;
  baselines::TenetLinker tenet(Substrate(), options);
  SystemScores scores = EvaluateDisambiguation(tenet, ds, World().gazetteer());
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.full_documents, 0);
  EXPECT_EQ(scores.degraded_documents,
            static_cast<int>(ds.documents.size()));
  EXPECT_GT(scores.entity_linking.tp + scores.entity_linking.fn, 0);
}

TEST(HarnessTest, DisambiguationSurvivesTinyDeadlineBudgets) {
  datasets::Dataset ds = TinyDataset(59);
  // A just-barely-nonzero budget lands the expiry inside whichever stage
  // happens to be running; the accounting must stay total regardless.
  core::TenetOptions options;
  options.deadline_ms = 0.05;
  baselines::TenetLinker tenet(Substrate(), options);
  SystemScores scores = EvaluateDisambiguation(tenet, ds, World().gazetteer());
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.full_documents + scores.degraded_documents,
            static_cast<int>(ds.documents.size()));
}

TEST(HarnessTest, EmptyRunReportsLatencyPercentilesAsNoSample) {
  // There is no percentile of an empty sample; 0.0 would read as
  // "infinitely fast".  The harness reports NaN and the formatter renders
  // it as "n/a".
  datasets::Dataset empty;
  empty.name = "empty";
  baselines::TenetLinker tenet(Substrate());
  SystemScores scores = EvaluateEndToEnd(tenet, empty);
  EXPECT_TRUE(std::isnan(scores.latency_p50_ms));
  EXPECT_TRUE(std::isnan(scores.latency_p99_ms));
  EXPECT_EQ(FormatLatencyMs(scores.latency_p50_ms), "n/a");
  EXPECT_EQ(FormatLatencyMs(1.234), "1.23");
}

TEST(HarnessTest, FormatPrf) {
  PRF prf;
  prf.tp = 1;
  prf.fp = 1;
  prf.fn = 3;
  EXPECT_EQ(FormatPRF(prf), "0.500 0.250 0.333");
}

TEST(SparsityTest, CurvesAreMonotoneAndBounded) {
  datasets::Dataset ds = TinyDataset(54);
  std::vector<SparsityPoint> entity_curve =
      EntitySparsity(ds, World().kb(), World().embeddings);
  std::vector<SparsityPoint> concept_curve =
      ConceptSparsity(ds, World().kb(), World().embeddings);
  ASSERT_EQ(entity_curve.size(), 10u);
  ASSERT_EQ(concept_curve.size(), 10u);
  for (size_t i = 0; i < entity_curve.size(); ++i) {
    EXPECT_NEAR(entity_curve[i].threshold, 0.1 * i, 1e-12);
    EXPECT_GE(entity_curve[i].density, 0.0);
    EXPECT_LE(entity_curve[i].density, 1.0);
    EXPECT_GE(entity_curve[i].avg_degree, 0.0);
    if (i > 0) {
      // Cumulative thresholds: both metrics are non-decreasing.
      EXPECT_GE(entity_curve[i].density, entity_curve[i - 1].density);
      EXPECT_GE(entity_curve[i].avg_degree,
                entity_curve[i - 1].avg_degree);
    }
  }
  // Concept curves include predicates: at least as many nodes, and the
  // same monotonicity.
  for (size_t i = 1; i < concept_curve.size(); ++i) {
    EXPECT_GE(concept_curve[i].density, concept_curve[i - 1].density);
  }
}

TEST(SparsityTest, SparseAtLowThresholds) {
  datasets::Dataset ds = TinyDataset(55);
  std::vector<SparsityPoint> curve =
      EntitySparsity(ds, World().kb(), World().embeddings);
  // The motivating observation (Figs. 4-5): documents are NOT densely
  // coherent — density far below 1 at small distance thresholds.
  EXPECT_LT(curve[2].density, 0.5);
}

TEST(SparsityTest, EmptyDatasetYieldsZeroCurves) {
  datasets::Dataset empty;
  empty.name = "empty";
  std::vector<SparsityPoint> curve =
      EntitySparsity(empty, World().kb(), World().embeddings);
  for (const SparsityPoint& p : curve) {
    EXPECT_DOUBLE_EQ(p.density, 0.0);
    EXPECT_DOUBLE_EQ(p.avg_degree, 0.0);
  }
}

}  // namespace
}  // namespace eval
}  // namespace tenet
