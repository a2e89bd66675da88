// BatchLinkingService: admission control, shedding, deterministic batch
// merging, per-dependency breaker routing to the degraded tier, and the
// shared retry budget.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "obs/metrics.h"
#include "serving/admission_controller.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::Dataset TinyDataset(uint64_t seed, int num_docs = 8) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::DatasetSpec spec = datasets::TRex42Spec();
  spec.num_docs = num_docs;
  return gen.Generate(spec, rng);
}

// A generation over a fresh copy of the synthetic world: BuildWorld is
// deterministic, so it is the KB TinyDataset's corpora were drawn from.
std::shared_ptr<const KbGeneration> Generation(
    const core::TenetOptions& options = {}) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  return KbGeneration::FromSubstrate(std::move(world.kb_world.kb),
                                     std::move(world.embeddings), /*id=*/1,
                                     options);
}

std::vector<std::string> Texts(const datasets::Dataset& ds) {
  std::vector<std::string> texts;
  for (const datasets::Document& doc : ds.documents) {
    texts.push_back(doc.text);
  }
  return texts;
}

TEST(AdmissionControllerTest, ShedsAtThePendingBudget) {
  AdmissionOptions options;
  options.max_pending = 2;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(Deadline::Infinite()).ok());
  EXPECT_TRUE(admission.Admit(Deadline::Infinite()).ok());
  Status shed = admission.Admit(Deadline::Infinite());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  admission.Complete();
  EXPECT_TRUE(admission.Admit(Deadline::Infinite()).ok());
  AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed_capacity, 1);
  EXPECT_EQ(stats.pending, 2);
}

TEST(AdmissionControllerTest, ShedsRequestsWithoutDeadlineSlack) {
  AdmissionOptions options;
  options.max_pending = 8;
  options.min_deadline_slack_ms = 5.0;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(Deadline::Infinite()).ok());
  EXPECT_TRUE(admission.Admit(Deadline::AfterMillis(10000.0)).ok());
  Status expired = admission.Admit(Deadline::Expired());
  EXPECT_EQ(expired.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.stats().shed_deadline, 1);
}

TEST(BatchServiceTest, BatchMatchesSerialInInputOrder) {
  datasets::Dataset ds = TinyDataset(81);
  std::shared_ptr<const KbGeneration> generation = Generation();

  // Serial reference: the generation's own linker, called directly.
  std::vector<size_t> reference_links;
  for (const datasets::Document& doc : ds.documents) {
    Result<core::LinkingResult> r =
        generation->linker().LinkDocument(doc.text);
    ASSERT_TRUE(r.ok());
    reference_links.push_back(r->links.size());
  }

  // A per-test registry windows the (process-cumulative) counters to this
  // service instance, so the ledger assertions below are exact.
  obs::MetricsRegistry registry;
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 4;
  options.queue_capacity = ds.documents.size();
  options.overflow = QueueOverflowPolicy::kBlock;
  BatchLinkingService service(generation, options);
  std::vector<ServedResult> served = service.LinkBatch(Texts(ds));

  ASSERT_EQ(served.size(), ds.documents.size());
  for (size_t i = 0; i < served.size(); ++i) {
    ASSERT_TRUE(served[i].result.ok()) << "document " << i;
    EXPECT_FALSE(served[i].shed);
    EXPECT_EQ(served[i].result->links.size(), reference_links[i])
        << "document " << i << " diverged or was merged out of order";
    EXPECT_GE(served[i].latency_ms, 0.0);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(ds.documents.size()));
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.completed, static_cast<int64_t>(ds.documents.size()));
  EXPECT_EQ(stats.full, stats.completed);
  EXPECT_EQ(stats.failed, 0);
}

TEST(BatchServiceTest, EveryRequestResolvesToFullDegradedOrShed) {
  datasets::Dataset ds = TinyDataset(82, /*num_docs=*/12);
  std::shared_ptr<const KbGeneration> generation = Generation();

  // A tiny rejecting queue and a single worker: some requests must shed.
  obs::MetricsRegistry registry;
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 1;
  options.queue_capacity = 2;
  options.overflow = QueueOverflowPolicy::kReject;
  BatchLinkingService service(generation, options);
  std::vector<ServedResult> served = service.LinkBatch(Texts(ds));

  int shed = 0;
  int answered = 0;
  for (const ServedResult& r : served) {
    if (r.shed) {
      ++shed;
      EXPECT_EQ(r.result.status().code(), StatusCode::kResourceExhausted);
    } else {
      ASSERT_TRUE(r.result.ok());
      ++answered;
    }
  }
  EXPECT_EQ(shed + answered, static_cast<int>(ds.documents.size()));
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, answered);
  EXPECT_EQ(stats.full + stats.degraded + stats.failed, stats.completed);
}

TEST(BatchServiceTest, ShedRequestsAreCountedButNeverTimed) {
  datasets::Dataset ds = TinyDataset(87, /*num_docs=*/12);
  std::shared_ptr<const KbGeneration> generation = Generation();

  obs::MetricsRegistry registry;
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 1;
  options.queue_capacity = 2;
  options.overflow = QueueOverflowPolicy::kReject;
  BatchLinkingService service(generation, options);
  std::vector<ServedResult> served = service.LinkBatch(Texts(ds));

  int shed = 0;
  int answered = 0;
  for (const ServedResult& r : served) {
    (r.shed ? shed : answered)++;
  }
  ASSERT_GT(shed, 0) << "test needs overload; widen the corpus";

  // Every shed request shows up in the rejection counters (split by
  // reason), and none of them leaves a sample in the latency histogram —
  // shedding must not flatter the tail.
  obs::Counter* rejected_capacity = registry.GetCounter(
      "tenet_admission_rejected_total", "", obs::LabelPair("reason", "capacity"));
  obs::Counter* rejected_deadline = registry.GetCounter(
      "tenet_admission_rejected_total", "", obs::LabelPair("reason", "deadline"));
  obs::Counter* rejected_queue_full = registry.GetCounter(
      "tenet_admission_rejected_total", "",
      obs::LabelPair("reason", "queue_full"));
  EXPECT_EQ(rejected_capacity->Value() + rejected_deadline->Value() +
                rejected_queue_full->Value(),
            shed);
  obs::Histogram* latency =
      registry.GetHistogram("tenet_request_latency_ms", "");
  EXPECT_EQ(latency->Count(), answered);
  EXPECT_EQ(latency->Count(), service.Stats().completed);
}

TEST(BatchServiceTest, OpenBreakerRoutesToDegradedTier) {
  datasets::Dataset ds = TinyDataset(83);
  std::shared_ptr<const KbGeneration> generation = Generation();

  obs::MetricsRegistry registry;
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 2;
  options.queue_capacity = 32;
  options.overflow = QueueOverflowPolicy::kBlock;
  options.breaker.window_size = 16;
  options.breaker.min_samples = 8;
  options.breaker.failure_threshold = 0.4;
  options.breaker.open_cooldown_ms = 60000.0;  // stays open for the test
  BatchLinkingService service(generation, options);

  {
    FaultInjector faults(91);
    faults.Arm("core/cover_solve", 1.0);
    // Every cover solve fails; the pipeline degrades internally and the
    // cover breaker's window fills with failures.
    (void)service.LinkBatch(Texts(ds));
  }
  EXPECT_EQ(service.breaker(kCoverSolveDependency)->state(),
            BreakerState::kOpen);

  // Faults disarmed, but the breaker is still open: requests are now routed
  // straight to the prior-only rung without touching the solver.
  const CircuitBreaker::Stats before =
      service.breaker(kCoverSolveDependency)->stats();
  std::vector<ServedResult> served = service.LinkBatch(Texts(ds));
  for (const ServedResult& r : served) {
    ASSERT_TRUE(r.result.ok());
    EXPECT_TRUE(r.result->degradation.degraded());
  }
  const CircuitBreaker::Stats after =
      service.breaker(kCoverSolveDependency)->stats();
  EXPECT_EQ(after.outcomes, before.outcomes);  // solver untouched
  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.breaker_degraded,
            static_cast<int64_t>(ds.documents.size()));
}

TEST(BatchServiceTest, BreakerRecoversAfterFaultsClear) {
  datasets::Dataset ds = TinyDataset(84);
  std::shared_ptr<const KbGeneration> generation = Generation();

  obs::MetricsRegistry registry;
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 2;
  options.queue_capacity = 32;
  options.overflow = QueueOverflowPolicy::kBlock;
  options.breaker.window_size = 16;
  options.breaker.min_samples = 8;
  options.breaker.failure_threshold = 0.4;
  options.breaker.open_cooldown_ms = 5.0;
  options.breaker.half_open_probes = 4;
  options.breaker.half_open_successes = 2;
  BatchLinkingService service(generation, options);

  {
    FaultInjector faults(92);
    faults.Arm("core/cover_solve", 1.0);
    (void)service.LinkBatch(Texts(ds));
  }
  ASSERT_EQ(service.breaker(kCoverSolveDependency)->state(),
            BreakerState::kOpen);

  // Fault source gone; after the cooldown, half-open probes see a healthy
  // solver and close the breaker again.
  std::vector<std::string> texts = Texts(ds);
  bool closed = false;
  for (int round = 0; round < 50 && !closed; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)service.LinkBatch(texts);
    closed = service.breaker(kCoverSolveDependency)->state() ==
             BreakerState::kClosed;
  }
  EXPECT_TRUE(closed) << "breaker never re-closed after recovery";
}

TEST(BatchServiceTest, RetryBudgetBoundsRetriesDuringAnOutage) {
  datasets::Dataset ds = TinyDataset(85, /*num_docs=*/10);
  // Degradation off: a faulted solver makes documents fail outright, which
  // is what request-level retries act on.
  core::TenetOptions tenet_options;
  tenet_options.degrade_to_prior = false;
  std::shared_ptr<const KbGeneration> generation = Generation(tenet_options);

  obs::MetricsRegistry registry;
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 1;
  options.queue_capacity = 32;
  options.overflow = QueueOverflowPolicy::kBlock;
  options.retry.max_retries = 3;
  options.retry_budget.max_tokens = 4.0;
  options.retry_budget.deposit_per_success = 0.0;
  options.retry_budget.cost_per_retry = 1.0;
  // Keep the breaker from masking the retry path.
  options.breaker.min_samples = 1000000;
  BatchLinkingService service(generation, options);

  FaultInjector faults(93);
  faults.Arm("core/cover_solve", 1.0);
  std::vector<ServedResult> served = service.LinkBatch(Texts(ds));
  for (const ServedResult& r : served) {
    EXPECT_FALSE(r.result.ok());
  }
  // Without the shared budget this outage would cost up to 10 * 3 retries;
  // the bucket caps the whole fleet at 4.
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 4);
  EXPECT_EQ(stats.failed, static_cast<int64_t>(ds.documents.size()));
}

TEST(BatchServiceTest, AsyncSubmitInvokesCallbackExactlyOnce) {
  datasets::Dataset ds = TinyDataset(86, /*num_docs=*/4);
  std::shared_ptr<const KbGeneration> generation = Generation();
  obs::MetricsRegistry registry;  // outlives the scoped service below
  ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 2;
  options.queue_capacity = 8;
  options.overflow = QueueOverflowPolicy::kBlock;

  std::atomic<int> callbacks{0};
  {
    BatchLinkingService service(generation, options);
    for (const datasets::Document& doc : ds.documents) {
      ASSERT_TRUE(service
                      .Submit(doc.text,
                              [&callbacks](ServedResult served) {
                                EXPECT_TRUE(served.result.ok());
                                callbacks.fetch_add(1);
                              })
                      .ok());
    }
    // Destructor drains the queue and joins the workers.
  }
  EXPECT_EQ(callbacks.load(), static_cast<int>(ds.documents.size()));
}

}  // namespace
}  // namespace serving
}  // namespace tenet
