// Chaos/soak harness for the batch serving layer: multiple driver threads
// hammer a BatchLinkingService while deterministic fault schedules degrade
// its dependencies at realistic (5-20%) rates.  The suite asserts the
// serving contract end to end:
//
//   - the service never crashes and never loses a request: every submission
//     resolves to exactly one of full / degraded / shed;
//   - under sustained faults each per-dependency breaker opens within its
//     observation window, routing traffic to the prior-only tier;
//   - once the fault source clears, breakers re-close via half-open probes
//     and full-pipeline answers resume — including after a mixed storm that
//     opens several breakers with staggered cooldowns (the probe-return
//     path).
//
// Registered under the `soak` ctest label and intended to also run under
// -DTENET_SANITIZE=thread (see CMakePresets.json).
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "datasets/session_generator.h"
#include "datasets/world.h"
#include "kb/delta.h"
#include "kb/sharded_kb.h"
#include "kb/types.h"
#include "obs/metrics.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"
#include "serving/session.h"

namespace tenet {
namespace serving {
namespace {

constexpr int kDriverThreads = 3;
constexpr int kDocsPerRound = 12;

// Accumulated outcome classification across every request driven so far.
struct Tally {
  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> full{0};
  std::atomic<int64_t> degraded{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> failed{0};

  int64_t resolved() const {
    return full.load() + degraded.load() + shed.load() + failed.load();
  }
};

class ChaosSoakTest : public ::testing::Test {
 protected:
  ChaosSoakTest() {
    datasets::SyntheticWorld world = datasets::BuildWorld();
    datasets::CorpusGenerator generator(&world.kb_world);
    Rng rng(4242);
    datasets::DatasetSpec spec = datasets::TRex42Spec();
    spec.num_docs = kDocsPerRound;
    for (const datasets::Document& doc :
         generator.Generate(spec, rng).documents) {
      texts_.push_back(doc.text);
    }
    generation_ = KbGeneration::FromShardedKb(world.view, /*id=*/1);

    ServingOptions options;
    // A per-fixture registry windows the counters to this soak run; the
    // breaker-transition assertions below need exact counts.
    options.metrics = &registry_;
    options.num_threads = 4;
    options.queue_capacity = 16;
    options.overflow = QueueOverflowPolicy::kReject;
    // Aggressive breaker so 5-20% fault rates trip it within one window.
    options.breaker.window_size = 32;
    options.breaker.min_samples = 8;
    options.breaker.failure_threshold = 0.04;
    options.breaker.open_cooldown_ms = 10.0;
    options.breaker.half_open_probes = 8;
    options.breaker.half_open_successes = 2;
    service_ = std::make_unique<BatchLinkingService>(generation_, options);
  }

  // One soak round: kDriverThreads threads each push the whole corpus
  // through LinkBatch concurrently, and every result is classified.  The
  // classification is total by construction — an unexpected state fails
  // the test instead of slipping through.
  void DriveRound() {
    std::vector<std::thread> drivers;
    for (int t = 0; t < kDriverThreads; ++t) {
      drivers.emplace_back([this] {
        std::vector<ServedResult> served = service_->LinkBatch(texts_);
        tally_.submitted.fetch_add(static_cast<int64_t>(served.size()));
        for (const ServedResult& r : served) {
          if (r.shed) {
            EXPECT_EQ(r.result.status().code(),
                      StatusCode::kResourceExhausted);
            tally_.shed.fetch_add(1);
          } else if (!r.result.ok()) {
            tally_.failed.fetch_add(1);
          } else if (r.result->degradation.degraded()) {
            tally_.degraded.fetch_add(1);
          } else {
            tally_.full.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& driver : drivers) driver.join();
  }

  // Drives rounds until `done` holds, up to `max_rounds`.
  bool DriveUntil(int max_rounds, const std::function<bool()>& done) {
    for (int round = 0; round < max_rounds; ++round) {
      if (done()) return true;
      DriveRound();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return done();
  }

  bool AllBreakersClosed() const {
    ServiceStats stats = service_->Stats();
    return stats.kb_alias_breaker == BreakerState::kClosed &&
           stats.embedding_breaker == BreakerState::kClosed &&
           stats.cover_breaker == BreakerState::kClosed;
  }

  // The ledger must balance after every quiescent point: nothing lost,
  // nothing double-counted.
  void ExpectAccountingBalances() {
    ServiceStats stats = service_->Stats();
    EXPECT_EQ(stats.submitted, tally_.submitted.load());
    EXPECT_EQ(stats.submitted, stats.shed + stats.completed);
    EXPECT_EQ(stats.completed, stats.full + stats.degraded + stats.failed);
    EXPECT_EQ(tally_.resolved(), tally_.submitted.load())
        << "a request vanished without resolving";
    EXPECT_EQ(stats.shed, tally_.shed.load());
    EXPECT_EQ(stats.failed, tally_.failed.load());
  }

  // The breaker's own trip/close ledger and its published transition
  // counters must tell one story, and the state gauge must match the
  // breaker's actual state.
  void ExpectBreakerTransitionCountersConsistent(const char* dependency) {
    SCOPED_TRACE(dependency);
    const CircuitBreaker::Stats stats =
        service_->breaker(dependency)->stats();
    const std::string label = obs::LabelPair("dependency", dependency);
    auto transitions = [&](const char* to) {
      return registry_
          .GetCounter("tenet_breaker_transitions_total", "",
                      label + "," + obs::LabelPair("to", to))
          ->Value();
    };
    EXPECT_EQ(transitions("open"), stats.trips);
    EXPECT_EQ(transitions("closed"), stats.closes);
    // Every close is reached through half-open probing.
    EXPECT_GE(transitions("half_open"), transitions("closed"));
    EXPECT_EQ(registry_.GetGauge("tenet_breaker_state", "", label)->Value(),
              static_cast<double>(service_->breaker(dependency)->state()));
  }

  std::shared_ptr<const KbGeneration> generation_;
  std::vector<std::string> texts_;
  obs::MetricsRegistry registry_;  // declared before the service it feeds
  std::unique_ptr<BatchLinkingService> service_;
  Tally tally_;
};

TEST_F(ChaosSoakTest, SurvivesFaultStormsAndRecovers) {
  // ---- Healthy warmup: full answers flow, the ledger balances ----------
  DriveRound();
  ExpectAccountingBalances();
  EXPECT_EQ(tally_.failed.load(), 0);
  EXPECT_GT(tally_.full.load(), 0);
  ASSERT_TRUE(AllBreakersClosed());

  // ---- One open/recover cycle per dependency, at 5-20% fault rates -----
  struct FaultCase {
    const char* dependency;
    double rate;
  };
  const FaultCase kCases[] = {
      {kKbAliasDependency, 0.12},
      {kEmbeddingDependency, 0.08},
      {kCoverSolveDependency, 0.20},
  };
  for (const FaultCase& fault_case : kCases) {
    SCOPED_TRACE(fault_case.dependency);
    {
      FaultInjector faults(20210614);
      faults.Arm(fault_case.dependency, fault_case.rate);
      ASSERT_TRUE(DriveUntil(/*max_rounds=*/60, [&] {
        return service_->breaker(fault_case.dependency)->state() ==
               BreakerState::kOpen;
      })) << "breaker never opened under a sustained "
          << fault_case.rate * 100.0 << "% fault rate";
      EXPECT_GT(faults.FireCount(fault_case.dependency), 0);
    }
    // Fault source cleared: half-open probes must re-close the breaker.
    EXPECT_TRUE(DriveUntil(/*max_rounds=*/100, [&] {
      return service_->breaker(fault_case.dependency)->state() ==
             BreakerState::kClosed;
    })) << "breaker never re-closed after the faults were disarmed";
    ExpectAccountingBalances();
    EXPECT_EQ(tally_.failed.load(), 0);
  }

  // ---- Mixed storm: all three dependencies degrade at once -------------
  {
    FaultInjector faults(987654321);
    faults.Arm(kKbAliasDependency, 0.12);
    faults.Arm(kEmbeddingDependency, 0.08);
    faults.Arm(kCoverSolveDependency, 0.20);
    for (int round = 0; round < 10; ++round) DriveRound();
    ServiceStats storm = service_->Stats();
    // Load kept flowing through the storm: requests were answered (full or
    // degraded), not just shed, and nothing crashed or failed outright.
    EXPECT_GT(storm.completed, 0);
    EXPECT_LT(storm.shed, storm.submitted);
    EXPECT_EQ(tally_.failed.load(), 0);
  }

  // ---- Recovery from the mixed storm: every breaker re-closes ----------
  // Several breakers may be open with staggered cooldowns here, which is
  // exactly the situation where unused half-open probes must be returned
  // (otherwise recovery wedges).
  EXPECT_TRUE(DriveUntil(/*max_rounds=*/150, [this] {
    return AllBreakersClosed();
  })) << "breakers never all re-closed after the mixed storm";

  // Full-pipeline answers are flowing again.
  int64_t full_before = tally_.full.load();
  DriveRound();
  EXPECT_GT(tally_.full.load(), full_before);

  ExpectAccountingBalances();
  EXPECT_EQ(tally_.failed.load(), 0);
  ServiceStats final_stats = service_->Stats();
  EXPECT_GT(final_stats.submitted, 0);
  // Shedding stayed bounded: the service answered most of the traffic.
  EXPECT_LT(final_stats.shed, final_stats.submitted / 2);

  // The soak degraded documents, and the pipeline's rung counters saw
  // them.  (Pipeline instrumentation publishes to the default registry —
  // cumulative across the process, so only non-zero is asserted.)
  EXPECT_GT(tally_.degraded.load(), 0);
  int64_t degraded_total = 0;
  for (const char* rung : {"1", "2", "3"}) {
    degraded_total +=
        obs::MetricsRegistry::Default()
            ->GetCounter("tenet_degraded_documents_total", "",
                         obs::LabelPair("rung", rung))
            ->Value();
  }
  EXPECT_GT(degraded_total, 0);

  // Transition counters agree with each breaker's own trip/close ledger.
  for (const char* dependency :
       {kKbAliasDependency, kEmbeddingDependency, kCoverSolveDependency}) {
    ExpectBreakerTransitionCountersConsistent(dependency);
  }
}

// The live-update storm (`kbupdate` tier, DESIGN.md §12): driver threads
// hammer the service while a swapper performs 120 generation swap
// attempts, each appending a one-entity delta, with "serving/kb_swap"
// faults injected at 10%.  The acceptance contract: the service survives,
// failed swaps roll back (the old generation keeps serving), in-flight
// requests all resolve, the ledger balances, and afterwards the serving
// generation is exactly base + one entity per *successful* swap.  The
// storm runs on a 1-shard and a 2-shard layout: deltas apply per shard.
class SwapStormTest : public ::testing::TestWithParam<int> {
 protected:
  SwapStormTest() {
    datasets::SyntheticWorld world = datasets::BuildWorld();
    datasets::CorpusGenerator generator(&world.kb_world);
    Rng rng(4242);
    datasets::DatasetSpec spec = datasets::TRex42Spec();
    spec.num_docs = kDocsPerRound;
    for (const datasets::Document& doc :
         generator.Generate(spec, rng).documents) {
      texts_.push_back(doc.text);
    }
    // Generation 1 serves the world as a GetParam()-shard layout.
    generation_ = KbGeneration::FromShardedKb(
        std::make_shared<const kb::ShardedKb>(kb::ShardedKb::Partition(
            world.kb(), world.embeddings, GetParam())),
        /*id=*/1);
    base_entities_ = generation_->kb().num_entities();

    ServingOptions options;
    options.metrics = &registry_;
    options.num_threads = 4;
    options.queue_capacity = 16;
    options.overflow = QueueOverflowPolicy::kReject;
    service_ = std::make_unique<BatchLinkingService>(generation_, options);
  }

  std::vector<std::string> texts_;
  std::shared_ptr<const KbGeneration> generation_;
  int32_t base_entities_ = 0;
  obs::MetricsRegistry registry_;  // declared before the service it feeds
  std::unique_ptr<BatchLinkingService> service_;
  Tally tally_;
};

TEST_P(SwapStormTest, SurvivesAHundredFaultySwapsUnderConcurrentLoad) {
  constexpr int kSwapAttempts = 120;  // acceptance floor is 100
  FaultInjector faults(424242);
  faults.Arm("serving/kb_swap", 0.10);

  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kDriverThreads; ++t) {
    drivers.emplace_back([this, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<ServedResult> served = service_->LinkBatch(texts_);
        tally_.submitted.fetch_add(static_cast<int64_t>(served.size()));
        for (const ServedResult& r : served) {
          if (r.shed) {
            EXPECT_EQ(r.result.status().code(),
                      StatusCode::kResourceExhausted);
            tally_.shed.fetch_add(1);
          } else if (!r.result.ok()) {
            tally_.failed.fetch_add(1);
          } else if (r.result->degradation.degraded()) {
            tally_.degraded.fetch_add(1);
          } else {
            tally_.full.fetch_add(1);
          }
        }
      }
    });
  }

  // The swapper: each attempt stacks a one-entity delta on the last
  // *successfully serving* generation.  A rolled-back candidate is
  // discarded — exactly what an updater would do after a failed swap.
  std::shared_ptr<const KbGeneration> current = generation_;
  uint64_t expected_id = 1;
  int64_t swaps_ok = 0;
  int64_t swaps_rolled_back = 0;
  for (int attempt = 0; attempt < kSwapAttempts; ++attempt) {
    kb::DeltaBuilder builder(current->kb());
    builder.AddEntity("storm entity " + std::to_string(attempt),
                      kb::EntityType::kPerson);
    std::vector<kb::DeltaSegment> segments{builder.Build()};
    Result<std::shared_ptr<const KbGeneration>> next =
        current->WithDeltas(segments, expected_id + 1);
    ASSERT_TRUE(next.ok()) << next.status();
    Status swapped = service_->SwapGeneration(*next);
    if (swapped.ok()) {
      current = *next;
      ++expected_id;
      ++swaps_ok;
    } else {
      // Injected mid-swap fault, or every RCU slot pinned under load —
      // both roll back to the old generation.
      EXPECT_TRUE(swapped.code() == StatusCode::kDataLoss ||
                  swapped.code() == StatusCode::kResourceExhausted)
          << swapped;
      ++swaps_rolled_back;
    }
    if ((attempt & 7) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& driver : drivers) driver.join();

  // Both outcomes occurred, and the service's ledger matches ours.
  EXPECT_GT(swaps_ok, 0);
  EXPECT_GT(swaps_rolled_back, 0);
  EXPECT_EQ(swaps_ok + swaps_rolled_back, kSwapAttempts);
  EXPECT_GT(faults.FireCount("serving/kb_swap"), 0);
  ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.swaps_ok, swaps_ok);
  EXPECT_EQ(stats.swaps_rolled_back, swaps_rolled_back);
  EXPECT_EQ(stats.generation, static_cast<int64_t>(expected_id));
  EXPECT_EQ(service_->generation_id(), expected_id);
  EXPECT_EQ(registry_.GetGauge("tenet_kb_generation", "")->Value(),
            static_cast<double>(expected_id));
  EXPECT_EQ(registry_.GetHistogram("tenet_kb_swap_latency_ms", "")->Count(),
            swaps_ok);

  // The serving KB is exactly base + one entity per successful swap: no
  // rolled-back delta leaked in, none that landed was lost.
  ASSERT_NE(service_->generation(), nullptr);
  EXPECT_EQ(service_->generation()->kb().num_entities(),
            base_entities_ + static_cast<int32_t>(swaps_ok));
  EXPECT_EQ(service_->generation()->delta_stats().added_entities, swaps_ok);

  // Nothing was lost or double-counted under the storm, and real traffic
  // flowed throughout.
  EXPECT_EQ(stats.submitted, tally_.submitted.load());
  EXPECT_EQ(stats.submitted, stats.shed + stats.completed);
  EXPECT_EQ(stats.completed, stats.full + stats.degraded + stats.failed);
  EXPECT_EQ(tally_.resolved(), tally_.submitted.load())
      << "a request vanished during a swap";
  EXPECT_EQ(tally_.failed.load(), 0);
  EXPECT_GT(tally_.full.load(), 0);
  EXPECT_GT(stats.completed, 0);
  EXPECT_EQ(service_->generation()->kb().num_shards(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Shards, SwapStormTest, ::testing::Values(1, 2));

// The hostile-input storm (`adversarial` tier, DESIGN.md §13): driver
// threads push clean and adversarially mutated corpora through the service
// while other threads replay multi-turn sessions (each owning its
// SessionContext) and low-rate faults hit the text front door.  The
// contract: nothing crashes, the ledger balances, the only failed requests
// are the injected text faults, and each one is accounted for in
// tenet_input_rejected_total.
class HostileStormTest : public ::testing::Test {
 protected:
  HostileStormTest() {
    datasets::SyntheticWorld world = datasets::BuildWorld();
    datasets::CorpusGenerator generator(&world.kb_world);
    Rng rng(4242);
    datasets::DatasetSpec spec = datasets::TRex42Spec();
    spec.num_docs = kDocsPerRound;
    datasets::Dataset clean = generator.Generate(spec, rng);
    datasets::AdversarialSpec adv;
    adv.seed = 20260809;
    datasets::Dataset hostile = datasets::AdversarialMutator(adv).Mutate(clean);
    for (const datasets::Document& doc : clean.documents) {
      texts_.push_back(doc.text);
    }
    for (const datasets::Document& doc : hostile.documents) {
      texts_.push_back(doc.text);
    }

    datasets::SessionGenerator session_generator(&world.kb_world);
    datasets::SessionSpec session_spec;
    session_spec.num_sessions = kDriverThreads;
    sessions_ = session_generator.Generate(session_spec, rng);
    generation_ = KbGeneration::FromShardedKb(world.view, /*id=*/1);

    ServingOptions options;
    options.metrics = &registry_;
    options.num_threads = 4;
    options.queue_capacity = 64;
    options.overflow = QueueOverflowPolicy::kReject;
    service_ = std::make_unique<BatchLinkingService>(generation_, options);
  }

  void Classify(const std::vector<ServedResult>& served, Tally* tally) {
    tally->submitted.fetch_add(static_cast<int64_t>(served.size()));
    for (const ServedResult& r : served) {
      if (r.shed) {
        EXPECT_EQ(r.result.status().code(), StatusCode::kResourceExhausted);
        tally->shed.fetch_add(1);
      } else if (!r.result.ok()) {
        tally->failed.fetch_add(1);
      } else if (r.result->degradation.degraded()) {
        tally->degraded.fetch_add(1);
      } else {
        tally->full.fetch_add(1);
      }
    }
  }

  std::shared_ptr<const KbGeneration> generation_;
  std::vector<std::string> texts_;
  datasets::SessionDataset sessions_;
  obs::MetricsRegistry registry_;  // declared before the service it feeds
  std::unique_ptr<BatchLinkingService> service_;
  Tally tally_;
};

TEST_F(HostileStormTest, SurvivesHostileInputsAndConcurrentSessions) {
  auto rejected_total = [] {
    int64_t total = 0;
    for (const char* reason : {"tokenize_fault", "extract_fault"}) {
      total += obs::MetricsRegistry::Default()
                   ->GetCounter("tenet_input_rejected_total", "",
                                obs::LabelPair("reason", reason))
                   ->Value();
    }
    return total;
  };
  const int64_t rejected_before = rejected_total();

  FaultInjector faults(20260809);
  faults.Arm("text/tokenize", 0.05);
  faults.Arm("text/extract", 0.05);

  std::vector<std::thread> drivers;
  // Hostile-batch drivers: clean + mutated corpora, repeatedly.
  for (int t = 0; t < kDriverThreads; ++t) {
    drivers.emplace_back([this] {
      for (int round = 0; round < 6; ++round) {
        Classify(service_->LinkBatch(texts_), &tally_);
      }
    });
  }
  // Session drivers: each thread replays one conversation in turn order
  // through its own SessionContext (sessions are sequential internally,
  // concurrent across threads).
  std::atomic<int64_t> session_interventions{0};
  for (const datasets::Session& session : sessions_.sessions) {
    drivers.emplace_back([this, &session, &session_interventions] {
      SessionContext context;
      for (const datasets::Document& turn : session.turns) {
        std::vector<ServedResult> served =
            service_->LinkBatch({turn.text});
        Classify(served, &tally_);
        if (served.size() == 1 && !served[0].shed && served[0].result.ok()) {
          core::LinkingResult result = *served[0].result;
          SessionTurnStats stats =
              context.ApplySessionCoherence(generation_->view(), &result);
          session_interventions.fetch_add(stats.relinked_to_memory +
                                          stats.isolated_resolved);
          context.ObserveTurn(result);
        }
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // Nothing vanished, nothing double-counted.
  ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.submitted, tally_.submitted.load());
  EXPECT_EQ(stats.submitted, stats.shed + stats.completed);
  EXPECT_EQ(stats.completed, stats.full + stats.degraded + stats.failed);
  EXPECT_EQ(tally_.resolved(), tally_.submitted.load())
      << "a request vanished during the hostile storm";

  // Hostile inputs alone never fail a document: every injected text fault
  // was counted at the front door, and the only requests that *surfaced*
  // as failures are the ones whose budgeted retries also drew faults (the
  // rest were retried to success — kInternal is retryable).
  const int64_t injected = faults.FireCount("text/tokenize") +
                           faults.FireCount("text/extract");
  EXPECT_GT(injected, 0);
  EXPECT_EQ(rejected_total() - rejected_before, injected);
  EXPECT_LE(tally_.failed.load(), injected);
  // Attempts ledger: a fire fails exactly one attempt, and a failed
  // attempt is followed by exactly one of {retry granted, request surfaces
  // as failed}.  Text faults are the only failure source in this storm, so
  // the three counts tie out exactly.
  EXPECT_EQ(injected, stats.retries + tally_.failed.load());

  // Real traffic flowed, including full-pipeline answers.
  EXPECT_GT(tally_.full.load(), 0);
  EXPECT_LT(stats.shed, stats.submitted);
}

}  // namespace
}  // namespace serving
}  // namespace tenet
