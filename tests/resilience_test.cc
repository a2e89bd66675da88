// Harness-level resilience: with fault injection arming alias-lookup
// failures and a 1ms per-document deadline on the synthetic corpus, the
// batch run must complete every document — degraded answers instead of
// aborts — with per-document degradation accounting and per-document
// failure isolation.
#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "common/fault_injection.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"

namespace tenet {
namespace eval {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::Dataset TinyDataset(uint64_t seed, int num_docs = 5) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::DatasetSpec spec = datasets::TRex42Spec();
  spec.num_docs = num_docs;
  return gen.Generate(spec, rng);
}

baselines::BaselineSubstrate Substrate() {
  return baselines::BaselineSubstrate{World().view, &World().gazetteer(), {}};
}

TEST(ResilienceTest, AliasFaultsAndTightDeadlineAbortNothing) {
  datasets::Dataset ds = TinyDataset(71);
  core::TenetOptions options;
  options.deadline_ms = 1.0;  // far below a typical full-pipeline run
  baselines::TenetLinker tenet(Substrate(), options);

  FaultInjector faults(2024);
  faults.Arm("kb/alias_lookup", 0.3);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);

  // Zero aborted runs: every document is answered, full or degraded.
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_TRUE(scores.failures.empty());
  EXPECT_EQ(scores.full_documents + scores.degraded_documents,
            static_cast<int>(ds.documents.size()));
  EXPECT_GT(faults.HitCount("kb/alias_lookup"), 0);
  EXPECT_GT(faults.FireCount("kb/alias_lookup"), 0);
}

TEST(ResilienceTest, FaultScheduleIsSeedReproducible) {
  datasets::Dataset ds = TinyDataset(72);
  core::TenetOptions options;
  options.deadline_ms = 1.0;

  auto run = [&ds, &options](uint64_t seed) {
    baselines::TenetLinker tenet(Substrate(), options);
    FaultInjector faults(seed);
    faults.Arm("kb/alias_lookup", 0.3);
    SystemScores scores = EvaluateEndToEnd(tenet, ds);
    return std::make_tuple(faults.HitCount("kb/alias_lookup"),
                           faults.FireCount("kb/alias_lookup"),
                           scores.failed_documents);
  };
  // Same seed -> identical schedule (hits and fires); the linking work per
  // document is deterministic, only the deadline clock is not.
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), 0);
  EXPECT_EQ(std::get<2>(b), 0);
}

TEST(ResilienceTest, DegradedDocumentsAreCountedSeparately) {
  datasets::Dataset ds = TinyDataset(73);
  // An expired budget forces every document down the prior-only rung.
  core::TenetOptions options;
  options.deadline_ms = 0.0;
  baselines::TenetLinker tenet(Substrate(), options);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.full_documents, 0);
  EXPECT_EQ(scores.degraded_documents,
            static_cast<int>(ds.documents.size()));
  // Degraded answers still score: priors alone link something.
  EXPECT_GT(scores.entity_linking.tp + scores.entity_linking.fp, 0);
  EXPECT_EQ(scores.prior_only_documents,
            static_cast<int>(ds.documents.size()));
  EXPECT_EQ(scores.pairlink_documents, 0);
  EXPECT_EQ(FormatDegradation(scores),
            "full 0 | degraded " + std::to_string(ds.documents.size()) +
                " (pair_link 0, prior_only " +
                std::to_string(ds.documents.size()) + ") | failed 0");
}

TEST(ResilienceTest, WithoutFaultsEveryDocumentIsFull) {
  datasets::Dataset ds = TinyDataset(74);
  baselines::TenetLinker tenet(Substrate());
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.degraded_documents, 0);
  EXPECT_EQ(scores.full_documents, static_cast<int>(ds.documents.size()));
}

TEST(ResilienceTest, FailingDocumentsAreRecordedAndTheRunContinues) {
  datasets::Dataset ds = TinyDataset(75);
  // Degradation off + a solver faulted on every call: each document fails,
  // but each failure is isolated and recorded with its doc id.
  core::TenetOptions options;
  options.degrade_to_prior = false;
  baselines::TenetLinker tenet(Substrate(), options);
  FaultInjector faults(31);
  faults.Arm("core/cover_solve", 1.0);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, static_cast<int>(ds.documents.size()));
  ASSERT_EQ(scores.failures.size(), ds.documents.size());
  for (size_t i = 0; i < scores.failures.size(); ++i) {
    EXPECT_EQ(scores.failures[i].doc_id, ds.documents[i].id);
    EXPECT_EQ(scores.failures[i].status.code(), StatusCode::kInternal);
  }
}

TEST(ResilienceTest, SingleFaultedDocumentDoesNotPoisonTheBatch) {
  datasets::Dataset ds = TinyDataset(76);
  ASSERT_GE(ds.documents.size(), 2u);
  core::TenetOptions options;
  options.degrade_to_prior = false;
  baselines::TenetLinker tenet(Substrate(), options);
  FaultInjector faults(32);
  // Fail exactly the first cover solve; all later documents run clean.
  faults.ArmNth("core/cover_solve", 1);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, 1);
  ASSERT_EQ(scores.failures.size(), 1u);
  EXPECT_EQ(scores.failures[0].doc_id, ds.documents[0].id);
  EXPECT_EQ(scores.full_documents,
            static_cast<int>(ds.documents.size()) - 1);
}

TEST(ResilienceTest, EmbeddingFetchFaultsOnlyDegradeQuality) {
  datasets::Dataset ds = TinyDataset(77);
  baselines::TenetLinker tenet(Substrate());
  FaultInjector faults(33);
  faults.Arm("embedding/fetch", 0.5);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  // Missing vectors skew coherence weights but never abort a document.
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_GT(faults.HitCount("embedding/fetch"), 0);
}

}  // namespace
}  // namespace eval
}  // namespace tenet
