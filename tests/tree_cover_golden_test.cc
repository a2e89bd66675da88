// Golden covers: FNV-1a digests of every Algorithm 1 outcome over the four
// paper corpora of the in-process synthetic world.  Each document is solved
// at four bounds — the pipeline's B = |M|, the minimal B* found by
// SolveWithMinimalBound, 1.1·B* and 0.9·B* — and the digest takes the
// status code, every tree's root, nodes, edge endpoints and the bit patterns
// of its edge and tree weights, plus all TreeCoverStats fields.  A second
// digest pins the pair-link rung's links over the coherence graph (the
// cover solver faulted), which reads the graph only through EdgeWeight.
//
// The constants below were recorded once and must never be edited: any
// change to the solver, the graph or the builder that moves a single bit
// of a cover fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/coherence_graph.h"
#include "core/mention.h"
#include "core/pipeline.h"
#include "core/tree_cover.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "text/extraction.h"

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

MentionSet MentionsOf(const std::string& text) {
  text::Extractor extractor(&World().gazetteer());
  return BuildMentionSet(extractor.ExtractFromText(text),
                         &World().gazetteer());
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
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void DigestOutcome(const Result<TreeCover>& cover, const TreeCoverStats& s,
                   Fnv1a* h) {
  h->Int(static_cast<int64_t>(cover.status().code()));
  if (cover.ok()) {
    h->Int(static_cast<int64_t>(cover->trees.size()));
    for (const CoverTree& t : cover->trees) {
      h->Int(t.root);
      h->Int(static_cast<int64_t>(t.nodes.size()));
      for (int node : t.nodes) h->Int(node);
      h->Int(static_cast<int64_t>(t.edges.size()));
      for (const graph::Edge& e : t.edges) {
        h->Int(e.u);
        h->Int(e.v);
        h->Double(e.weight);
      }
      h->Double(t.weight);
    }
  }
  h->Int(s.pruned_edges);
  h->Int(s.mst_edges);
  h->Int(s.subtrees);
  h->Int(s.matched_subtrees);
  h->Int(s.cover_total_edges);
}

struct CorpusGolden {
  const char* name;
  uint64_t covers;
  uint64_t pair_links;
};

constexpr CorpusGolden kGolden[] = {
    {"News", 0xb7e28c02b2e3e298ULL, 0x5cf3680f3e9688e7ULL},
    {"T-REx42", 0xec8ae5e2576862f4ULL, 0x4a818f73ce48b9c6ULL},
    {"KORE50", 0x6ca2c9434d30c985ULL, 0x4a0187e0c3c09461ULL},
    {"MSNBC19", 0x24cd68ffbfdb4d2eULL, 0x1dd43b9df7b68690ULL},
};

TEST(TreeCoverGoldenTest, CoversAreBitIdenticalOnThePaperCorpora) {
  CoherenceGraphBuilder builder(World().view);
  TreeCoverSolver solver;
  int with_pruned = 0;
  int with_subtrees = 0;
  int with_matched = 0;
  ASSERT_EQ(Corpora().size(), std::size(kGolden));
  for (size_t c = 0; c < Corpora().size(); ++c) {
    const datasets::Dataset& dataset = Corpora()[c];
    ASSERT_EQ(dataset.name, kGolden[c].name);
    Fnv1a h;
    for (const datasets::Document& doc : dataset.documents) {
      CoherenceGraph cg = builder.Build(MentionsOf(doc.text));
      h.Int(cg.num_mentions());
      h.Int(cg.num_concept_nodes());
      if (cg.num_mentions() == 0) continue;
      const double paper_bound = cg.num_mentions();
      Result<std::pair<double, TreeCover>> minimal =
          SolveWithMinimalBound(solver, cg, paper_bound);
      ASSERT_TRUE(minimal.ok()) << minimal.status();
      const double b_star = minimal->first;
      h.Double(b_star);
      for (double bound : {paper_bound, b_star, 1.1 * b_star, 0.9 * b_star}) {
        TreeCoverStats stats;
        Result<TreeCover> cover = solver.Solve(cg, bound, &stats);
        DigestOutcome(cover, stats, &h);
        if (stats.pruned_edges > 0) ++with_pruned;
        if (stats.subtrees > 0) ++with_subtrees;
        if (stats.matched_subtrees > 0) ++with_matched;
      }
    }
    EXPECT_EQ(h.value(), kGolden[c].covers)
        << dataset.name << " covers: 0x" << std::hex << h.value();
  }
  // Steps (a), (e) and (f) must each have done real work somewhere, or
  // the digest pins nothing about them.
  EXPECT_GT(with_pruned, 0);
  EXPECT_GT(with_subtrees, 0);
  EXPECT_GT(with_matched, 0);
}

TEST(TreeCoverGoldenTest, PairLinkOverTheGraphIsBitIdentical) {
  TenetPipeline tenet(World().view, &World().gazetteer());
  FaultInjector faults(/*seed=*/13);
  faults.Arm("core/cover_solve", 1.0);
  for (size_t c = 0; c < Corpora().size(); ++c) {
    const datasets::Dataset& dataset = Corpora()[c];
    Fnv1a h;
    for (const datasets::Document& doc : dataset.documents) {
      Result<LinkingResult> result = tenet.LinkDocument(doc.text);
      ASSERT_TRUE(result.ok()) << result.status();
      if (result->mentions.num_mentions() > 0) {
        // The graph was built; only the cover solve was lost.
        ASSERT_EQ(result->degradation.mode, DegradationInfo::Mode::kPairLink);
        ASSERT_EQ(result->degradation.stages_degraded, 2);
      }
      h.Int(static_cast<int64_t>(result->links.size()));
      for (const LinkedConcept& link : result->links) {
        h.Int(link.mention_id);
        h.Int(link.concept_ref.is_entity() ? 1 : 0);
        h.Int(link.concept_ref.id);
        h.Double(link.prior);
      }
      h.Int(result->degradation.pairs_confirmed);
    }
    EXPECT_EQ(h.value(), kGolden[c].pair_links)
        << dataset.name << " pair links: 0x" << std::hex << h.value();
  }
}

}  // namespace
}  // namespace core
}  // namespace tenet
