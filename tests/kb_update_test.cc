// Live-KB-update suite over the serving layer (DESIGN.md §12): generation
// hot swaps under a running BatchLinkingService.  Covers the acceptance
// contract — requests pinned before a swap finish on their generation
// with byte-identical results, requests after see the delta, failed swaps
// roll back and are counted, background merges compact + swap, and the
// shared similarity cache never serves a stale cosine across generations.
// Registered under the `kbupdate` ctest label (ASan + TSan in CI).
#include <cstdio>
#include <latch>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "figure_one_world.h"
#include "kb/delta.h"
#include "kb/types.h"
#include "obs/metrics.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

constexpr char kAcademicDoc[] =
    "Michael Jordan studied machine learning and artificial intelligence .";
constexpr char kTravelDoc[] = "Michael Jordan will visit Tokyo .";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The ids of BuildFigureOneWorld, which survive the move of its substrate
// into a generation (deltas only append, so they stay valid there too).
struct WorldIds {
  kb::EntityId professor;
  kb::EntityId player;
  kb::EntityId brooklyn;
};

std::shared_ptr<const KbGeneration> FigureOneGeneration(
    uint64_t id, WorldIds* ids = nullptr,
    const core::TenetOptions& options = {}) {
  FigureOneWorld world = BuildFigureOneWorld();
  if (ids != nullptr) {
    ids->professor = world.professor;
    ids->player = world.player;
    ids->brooklyn = world.brooklyn;
  }
  return KbGeneration::FromSubstrate(std::move(world.kb),
                                     std::move(world.embeddings), id,
                                     options);
}

ServingOptions UpdateTestOptions(obs::MetricsRegistry* registry,
                                 int num_threads = 2) {
  ServingOptions options;
  options.metrics = registry;
  options.num_threads = num_threads;
  options.queue_capacity = 64;
  options.overflow = QueueOverflowPolicy::kBlock;
  return options;
}

// Synchronous round trip through the asynchronous front door.
ServedResult LinkOne(BatchLinkingService& service, const std::string& text) {
  ServedResult out;
  std::latch done(1);
  Status submitted = service.Submit(text, [&out, &done](ServedResult r) {
    out = std::move(r);
    done.count_down();
  });
  EXPECT_TRUE(submitted.ok()) << submitted;
  if (!submitted.ok()) return out;
  done.wait();
  return out;
}

bool LinksEntity(const core::LinkingResult& result, kb::EntityId id) {
  for (const core::LinkedConcept& link : result.links) {
    if (link.kind == core::Mention::Kind::kNoun &&
        link.concept_ref.is_entity() && link.concept_ref.id == id) {
      return true;
    }
  }
  return false;
}

void ExpectByteIdenticalLinks(const core::LinkingResult& a,
                              const core::LinkingResult& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (size_t i = 0; i < a.links.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.links[i].mention_id, b.links[i].mention_id);
    EXPECT_EQ(a.links[i].surface, b.links[i].surface);
    EXPECT_EQ(a.links[i].kind, b.links[i].kind);
    EXPECT_EQ(a.links[i].concept_ref.kind, b.links[i].concept_ref.kind);
    EXPECT_EQ(a.links[i].concept_ref.id, b.links[i].concept_ref.id);
    // EQ, not NEAR: a pinned generation must reproduce its answers
    // bit-for-bit, whatever was swapped in meanwhile.
    EXPECT_EQ(a.links[i].prior, b.links[i].prior);
  }
  EXPECT_EQ(a.isolated_mentions, b.isolated_mentions);
}

// A delta that adds "Tokyo" — a surface no base document resolves — with
// an embedding on the location axis.
std::vector<kb::DeltaSegment> TokyoDelta(const KbGeneration& base,
                                         kb::EntityId* tokyo_out = nullptr) {
  kb::DeltaBuilder builder(base.kb());
  kb::EntityId tokyo =
      builder.AddEntity("Tokyo", kb::EntityType::kLocation, 2, 5.0);
  builder.SetEmbedding(
      kb::ConceptRef::Entity(tokyo),
      std::vector<float>{0.0f, 0.1f, 1.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f});
  if (tokyo_out != nullptr) *tokyo_out = tokyo;
  std::vector<kb::DeltaSegment> segments;
  segments.push_back(builder.Build());
  return segments;
}

TEST(KbUpdateTest, WithDeltasKeepsThePipelineOptions) {
  // A delta changes the KB, not how it is linked: the new generation's
  // linker must run with the receiver's tuning, not the defaults.
  core::TenetOptions options;
  options.deadline_ms = 250.0;
  options.graph.max_candidates_per_mention = 3;
  ASSERT_NE(options.graph.max_candidates_per_mention,
            core::TenetOptions{}.graph.max_candidates_per_mention);
  std::shared_ptr<const KbGeneration> gen1 =
      FigureOneGeneration(1, nullptr, options);
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();

  const core::TenetOptions& kept = (*gen2)->linker().pipeline().options();
  EXPECT_EQ(kept.deadline_ms, 250.0);
  EXPECT_EQ(kept.graph.max_candidates_per_mention, 3);
}

TEST(KbUpdateTest, PostSwapRequestsSeeTheDeltaAndMetricsPublish) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));
  EXPECT_EQ(service.generation_id(), 1u);

  kb::EntityId tokyo = -1;
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1, &tokyo), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  EXPECT_EQ((*gen2)->delta_stats().added_entities, 1);

  ServedResult before = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(before.result.ok()) << before.result.status();
  EXPECT_FALSE(LinksEntity(*before.result, tokyo))
      << "generation 1 must not know Tokyo";

  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());
  EXPECT_EQ(service.generation_id(), 2u);

  ServedResult after = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_TRUE(LinksEntity(*after.result, tokyo))
      << "a post-swap request must see the delta";

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.generation, 2);
  EXPECT_EQ(stats.swaps_ok, 1);
  EXPECT_EQ(stats.swaps_rolled_back, 0);
  EXPECT_EQ(registry.GetGauge("tenet_kb_generation", "")->Value(), 2.0);
  EXPECT_EQ(registry.GetHistogram("tenet_kb_swap_latency_ms", "")->Count(),
            1);
}

TEST(KbUpdateTest, RequestsPinnedBeforeASwapFinishOnTheirGeneration) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  // One worker: a blocked callback deterministically holds later requests
  // in the queue across the swap.
  BatchLinkingService service(gen1,
                              UpdateTestOptions(&registry, /*threads=*/1));

  kb::EntityId tokyo = -1;
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1, &tokyo), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();

  // Reference answer, fully served on generation 1.
  ServedResult reference = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(reference.result.ok()) << reference.result.status();

  // Block the only worker, then queue the probe: it pins generation 1 at
  // the front door and will be *processed* only after the swap below.
  std::latch gate(1);
  std::latch blocker_done(1);
  ASSERT_TRUE(service
                  .Submit(kAcademicDoc,
                          [&gate, &blocker_done](ServedResult) {
                            gate.wait();
                            blocker_done.count_down();
                          })
                  .ok());
  ServedResult pinned;
  std::latch pinned_done(1);
  ASSERT_TRUE(service
                  .Submit(kTravelDoc,
                          [&pinned, &pinned_done](ServedResult r) {
                            pinned = std::move(r);
                            pinned_done.count_down();
                          })
                  .ok());

  // The swap lands while the probe is still queued (RCU: the pinned old
  // generation parks in its slot; the publish takes a free one).
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());
  EXPECT_EQ(service.generation_id(), 2u);

  // A request submitted after the swap sees the new generation...
  ServedResult fresh;
  std::latch fresh_done(1);
  ASSERT_TRUE(service
                  .Submit(kTravelDoc,
                          [&fresh, &fresh_done](ServedResult r) {
                            fresh = std::move(r);
                            fresh_done.count_down();
                          })
                  .ok());

  gate.count_down();
  blocker_done.wait();
  pinned_done.wait();
  fresh_done.wait();

  // ...while the queued probe finished on generation 1, byte-identical to
  // the pre-swap reference.
  ASSERT_TRUE(pinned.result.ok()) << pinned.result.status();
  ExpectByteIdenticalLinks(*reference.result, *pinned.result);
  EXPECT_FALSE(LinksEntity(*pinned.result, tokyo));
  ASSERT_TRUE(fresh.result.ok()) << fresh.result.status();
  EXPECT_TRUE(LinksEntity(*fresh.result, tokyo));
}

TEST(KbUpdateTest, FailedSwapsRollBackToTheServingGeneration) {
  obs::MetricsRegistry registry;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));

  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();

  // Injected mid-swap fault: the old generation keeps serving.
  {
    FaultInjector faults(11);
    faults.Arm("serving/kb_swap", 1.0);
    Status swapped = service.SwapGeneration(*gen2);
    ASSERT_FALSE(swapped.ok());
    EXPECT_EQ(swapped.code(), StatusCode::kDataLoss);
    EXPECT_EQ(faults.FireCount("serving/kb_swap"), 1);
  }
  EXPECT_EQ(service.generation_id(), 1u);
  EXPECT_EQ(service.Stats().swaps_rolled_back, 1);
  EXPECT_EQ(registry.GetGauge("tenet_kb_generation", "")->Value(), 1.0);

  // Id regression is refused the same way.
  Status regressed = service.SwapGeneration(gen1);
  ASSERT_FALSE(regressed.ok());
  EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stats().swaps_rolled_back, 2);

  // The service still answers, and the clean retry lands.
  ServedResult served = LinkOne(service, kTravelDoc);
  EXPECT_TRUE(served.result.ok());
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());
  EXPECT_EQ(service.generation_id(), 2u);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.swaps_ok, 1);
  EXPECT_EQ(stats.swaps_rolled_back, 2);
}

TEST(KbUpdateTest, BackgroundMergeCompactsDeltasIntoAFreshSnapshot) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));

  kb::EntityId tokyo = -1;
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1, &tokyo), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());

  std::string kb_path = TempPath("merge_out.tenetkb");
  std::string emb_path = TempPath("merge_out.tenetemb");
  Status merge_status = Status::Internal("callback never ran");
  std::latch merged(1);
  ASSERT_TRUE(service
                  .ScheduleMerge(kb_path, emb_path, /*next_id=*/3,
                                 [&merge_status, &merged](Status s) {
                                   merge_status = std::move(s);
                                   merged.count_down();
                                 })
                  .ok());
  merged.wait();
  ASSERT_TRUE(merge_status.ok()) << merge_status;
  EXPECT_EQ(service.generation_id(), 3u);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.merges_ok, 1);
  EXPECT_EQ(stats.merges_failed, 0);
  EXPECT_EQ(stats.swaps_ok, 2);  // the delta swap + the merge's swap

  // The merged snapshot retains the delta (Tokyo resolves), and the
  // compacted pair reloads on its own: delta-free, same substrate.
  ServedResult served = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(served.result.ok()) << served.result.status();
  EXPECT_TRUE(LinksEntity(*served.result, tokyo));
  Result<std::shared_ptr<const KbGeneration>> reloaded =
      KbGeneration::Load(kb_path, emb_path, {}, /*id=*/9);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ((*reloaded)->kb().num_entities(), (*gen2)->kb().num_entities());
  EXPECT_EQ((*reloaded)->delta_stats().added_entities, 0);
}

TEST(KbUpdateTest, MergeFailureRollsBackAndCounts) {
  obs::MetricsRegistry registry;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));

  std::string kb_path = TempPath("merge_fail.tenetkb");
  std::string emb_path = TempPath("merge_fail.tenetemb");
  std::remove(kb_path.c_str());
  FaultInjector faults(13);
  faults.Arm("kb/io/write_truncation", 1.0);
  Status merge_status = Status::Ok();
  std::latch merged(1);
  ASSERT_TRUE(service
                  .ScheduleMerge(kb_path, emb_path, /*next_id=*/2,
                                 [&merge_status, &merged](Status s) {
                                   merge_status = std::move(s);
                                   merged.count_down();
                                 })
                  .ok());
  merged.wait();
  ASSERT_FALSE(merge_status.ok());
  EXPECT_EQ(service.generation_id(), 1u) << "a failed merge must not swap";
  EXPECT_EQ(service.Stats().merges_failed, 1);
  EXPECT_EQ(service.Stats().merges_ok, 0);
}

// The similarity-cache staleness regression (coherence near-tie): in
// generation 1 the academic context drags "Michael Jordan" to the
// professor despite the player's higher prior, and the service cache is
// warm with (professor, ml/ai) cosines.  Generation 2's delta re-points
// the professor's embedding away from the academic cluster — same pair
// keys, different values.  Without epoch tagging, the warm cache would
// keep serving the stale high cosines and the link would stay flipped to
// the professor; with it, the post-swap request recomputes and the prior
// wins.
TEST(KbUpdateTest, SharedCacheNeverServesStaleCosinesAcrossSwaps) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  ServingOptions options = UpdateTestOptions(&registry);
  options.similarity_cache_bytes = 1u << 20;
  BatchLinkingService service(gen1, options);

  ServedResult before = LinkOne(service, kAcademicDoc);
  ASSERT_TRUE(before.result.ok()) << before.result.status();
  ASSERT_TRUE(LinksEntity(*before.result, ids.professor))
      << "figure-one coherence must pick the professor in generation 1";
  // Run it again: the second pass hits the warm cache and must agree.
  ServedResult warm = LinkOne(service, kAcademicDoc);
  ASSERT_TRUE(warm.result.ok()) << warm.result.status();
  ExpectByteIdenticalLinks(*before.result, *warm.result);
  EXPECT_GT(service.similarity_cache()->GetStats().hits, 0);

  kb::DeltaBuilder builder(gen1->kb());
  builder.SetEmbedding(
      kb::ConceptRef::Entity(ids.professor),
      std::vector<float>{0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f});
  std::vector<kb::DeltaSegment> segments{builder.Build()};
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(segments, /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());

  ServedResult after = LinkOne(service, kAcademicDoc);
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_FALSE(LinksEntity(*after.result, ids.professor))
      << "a stale cached cosine kept the professor linked across the swap";
  EXPECT_TRUE(LinksEntity(*after.result, ids.player));
}

}  // namespace
}  // namespace serving
}  // namespace tenet
