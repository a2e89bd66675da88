// Golden degraded rungs: FNV-1a digests of every answer the ladder below
// full TENET gives over the four paper corpora of the in-process synthetic
// world, one digest per entry rung and corpus:
//
//   - prior-only at entry (the budget is gone before the coherence graph),
//   - prior-only after the graph (cover solver faulted, pair-link off),
//   - pair-link at entry (forced by configuration),
//   - pair-link after the graph (cover solver faulted),
//   - the Pair-Linking baseline (baselines::PairlinkLike).
//
// Per document the digest takes every link (mention id, mention kind,
// concept kind and id, prior bits, surface), the selected and isolated
// mention lists, the DegradationInfo (mode, stages, pairs confirmed,
// reason), and the trace's span names and annotations (no durations).
//
// The constants below were recorded once and must never be edited: any
// change to a degraded rung that moves a single link, reading or trace
// record fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/pairlink_like.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/link_context.h"
#include "core/pipeline.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "obs/trace.h"

namespace tenet {
namespace core {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

// News, T-REx42, KORE50 and MSNBC19 at full size, in that order.
const std::vector<datasets::Dataset>& Corpora() {
  static const std::vector<datasets::Dataset>* corpora = [] {
    auto* out = new std::vector<datasets::Dataset>();
    datasets::CorpusGenerator gen(&World().kb_world);
    Rng rng(77);
    out->push_back(gen.Generate(datasets::NewsSpec(), rng));
    out->push_back(gen.Generate(datasets::TRex42Spec(), rng));
    out->push_back(gen.Generate(datasets::Kore50Spec(), rng));
    out->push_back(gen.Generate(datasets::Msnbc19Spec(), rng));
    return out;
  }();
  return *corpora;
}

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Ints(const std::vector<int>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (int x : v) Int(x);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void DigestDocument(const LinkingResult& r, const obs::Trace& trace,
                    Fnv1a* h) {
  h->Int(static_cast<int64_t>(r.links.size()));
  for (const LinkedConcept& link : r.links) {
    h->Int(link.mention_id);
    h->Int(static_cast<int64_t>(link.kind));
    h->Int(link.concept_ref.is_entity() ? 1 : 0);
    h->Int(link.concept_ref.id);
    h->Double(link.prior);
    h->String(link.surface);
  }
  h->Ints(r.selected_mentions);
  h->Ints(r.isolated_mentions);
  h->Int(static_cast<int64_t>(r.degradation.mode));
  h->Int(r.degradation.stages_degraded);
  h->Int(r.degradation.pairs_confirmed);
  h->String(r.degradation.reason);
  h->Int(static_cast<int64_t>(trace.spans().size()));
  for (const obs::TraceSpan& span : trace.spans()) {
    h->String(span.name);
    h->Int(span.parent);
  }
  h->Int(static_cast<int64_t>(trace.annotations().size()));
  for (const auto& [key, value] : trace.annotations()) {
    h->String(key);
    h->String(value);
  }
}

enum Rung {
  kPriorOnlyAtEntry = 0,
  kPriorOnlyAfterGraph,
  kPairLinkAtEntry,
  kPairLinkAfterGraph,
  kPairlinkBaseline,
  kNumRungs,
};

constexpr const char* kRungNames[kNumRungs] = {
    "prior-only at entry", "prior-only after graph", "pair-link at entry",
    "pair-link after graph", "PairlinkLike"};

struct CorpusGolden {
  const char* name;
  uint64_t rungs[kNumRungs];
};

constexpr CorpusGolden kGolden[] = {
    {"News",
     {0x39193303299107c7ULL, 0xf2e82472bd7961c3ULL, 0xb9c25cf2b714b7a5ULL,
      0x68928d6e608d5171ULL, 0x2e9497d447890156ULL}},
    {"T-REx42",
     {0x8109694570562f7eULL, 0x01bd14897a09734eULL, 0x2d899683e378a1a0ULL,
      0xa2ca6d6af672879aULL, 0x8d0c17115c0552e1ULL}},
    {"KORE50",
     {0xaa8e8ea00e754b36ULL, 0x9ca6985a745d366cULL, 0x9107ef542097dd5fULL,
      0xc27d17857fd4d485ULL, 0x66bf5e14e8b977d5ULL}},
    {"MSNBC19",
     {0x2429e2813e580d66ULL, 0x6402cd2c464645bbULL, 0x2123f21d9155f1b0ULL,
      0xa571763796285977ULL, 0x533a29f7d156d718ULL}},
};

struct RungTotals {
  int64_t pairs_confirmed = 0;
  int64_t isolated = 0;
};

// Links every document of `dataset` on `rung`, asserts that each one with
// mentions landed on that rung, and returns the corpus digest.
uint64_t DigestRung(Rung rung, const datasets::Dataset& dataset,
                    RungTotals* totals) {
  TenetOptions options;
  DegradationInfo::Mode want_mode = DegradationInfo::Mode::kPairLink;
  int want_stages = 2;
  bool cover_fault = false;
  switch (rung) {
    case kPriorOnlyAtEntry:
      options.deadline_ms = 0.0;
      want_mode = DegradationInfo::Mode::kPriorOnly;
      want_stages = 3;
      break;
    case kPriorOnlyAfterGraph:
      options.pair_link.enabled = false;
      cover_fault = true;
      want_mode = DegradationInfo::Mode::kPriorOnly;
      break;
    case kPairLinkAtEntry:
      options.pair_link.serve_always = true;
      want_stages = 3;
      break;
    case kPairLinkAfterGraph:
      cover_fault = true;
      break;
    case kPairlinkBaseline:
      want_mode = DegradationInfo::Mode::kFull;
      want_stages = 0;
      break;
    case kNumRungs:
      break;
  }
  TenetPipeline tenet(World().view, &World().gazetteer(), options);
  baselines::PairlinkLike baseline(
      baselines::BaselineSubstrate{World().view, &World().gazetteer(), {}});
  FaultInjector faults(/*seed=*/13);
  if (cover_fault) faults.Arm("core/cover_solve", 1.0);

  Fnv1a h;
  for (const datasets::Document& doc : dataset.documents) {
    obs::Trace trace;
    const LinkContext context = LinkContext::WithTrace(&trace);
    Result<LinkingResult> result =
        rung == kPairlinkBaseline ? baseline.LinkDocument(doc.text, context)
                                  : tenet.LinkDocument(doc.text, context);
    EXPECT_TRUE(result.ok()) << kRungNames[rung] << ": " << result.status();
    if (!result.ok()) return 0;
    if (result->mentions.num_mentions() > 0) {
      EXPECT_EQ(result->degradation.mode, want_mode) << kRungNames[rung];
      EXPECT_EQ(result->degradation.stages_degraded, want_stages)
          << kRungNames[rung];
    }
    totals->pairs_confirmed += result->degradation.pairs_confirmed;
    totals->isolated +=
        static_cast<int64_t>(result->isolated_mentions.size());
    DigestDocument(*result, trace, &h);
  }
  return h.value();
}

TEST(DegradedRungGoldenTest, EveryRungIsBitIdenticalOnThePaperCorpora) {
  ASSERT_EQ(Corpora().size(), std::size(kGolden));
  RungTotals totals[kNumRungs];
  for (size_t c = 0; c < Corpora().size(); ++c) {
    const datasets::Dataset& dataset = Corpora()[c];
    ASSERT_EQ(dataset.name, kGolden[c].name);
    for (int r = 0; r < kNumRungs; ++r) {
      const uint64_t digest =
          DigestRung(static_cast<Rung>(r), dataset, &totals[r]);
      EXPECT_EQ(digest, kGolden[c].rungs[r])
          << dataset.name << " " << kRungNames[r] << ": 0x" << std::hex
          << digest;
    }
  }
  // The sweep must have confirmed pairs and the readings must have left
  // mentions isolated somewhere, or the digests pin nothing about them.
  EXPECT_GT(totals[kPairLinkAtEntry].pairs_confirmed, 0);
  EXPECT_GT(totals[kPairLinkAfterGraph].pairs_confirmed, 0);
  for (int r = 0; r < kPairlinkBaseline; ++r) {
    EXPECT_GT(totals[r].isolated, 0) << kRungNames[r];
  }
}

}  // namespace
}  // namespace core
}  // namespace tenet
