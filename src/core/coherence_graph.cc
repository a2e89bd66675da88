#include "core/coherence_graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "embedding/dot_kernel.h"
#include "text/limits.h"

namespace tenet {
namespace core {
namespace {

// Column-tile width of the triangular sweep: 128 unit rows of a typical
// 64-128 dim embedding are 64-128 KB, sized to stay resident in L2
// while every row revisits the tile.
constexpr int kTileCols = 128;

}  // namespace

int CoherenceGraph::MentionOfNode(int node) const {
  TENET_CHECK(node >= 0 && node < num_nodes());
  if (node < num_mentions()) return node;
  return concept_nodes_[node - num_mentions()].mention;
}

const CoherenceGraph::ConceptNode& CoherenceGraph::concept_node(
    int node) const {
  TENET_CHECK(node >= num_mentions() && node < num_nodes());
  return concept_nodes_[node - num_mentions()];
}

const std::vector<int>& CoherenceGraph::ConceptNodesOfMention(
    int mention) const {
  TENET_CHECK(mention >= 0 && mention < num_mentions());
  return concepts_of_mention_[mention];
}

CoherenceGraphBuilder::CoherenceGraphBuilder(
    std::shared_ptr<const kb::KbView> view, CoherenceGraphOptions options)
    : view_(std::move(view)), options_(options) {
  TENET_CHECK(view_ != nullptr);
  TENET_CHECK_GT(options_.max_candidates_per_mention, 0);
}

CoherenceGraph CoherenceGraphBuilder::Build(MentionSet mentions) const {
  return Build(std::move(mentions), options_.similarity_cache);
}

CoherenceGraph CoherenceGraphBuilder::Build(
    MentionSet mentions, embedding::SimilarityCache* cache,
    uint64_t cache_epoch) const {
  // Pass 1: candidate generation, to size the node space.  Postings past
  // the per-mention cap are counted (hostile surfaces with hundreds of
  // candidates are exactly what the cap is for) but never fetched, so the
  // returned top-k and its renormalized priors are unchanged.
  const int num_mentions = mentions.num_mentions();
  std::vector<CoherenceGraph::ConceptNode> concept_nodes;
  std::vector<std::vector<int>> of_mention(num_mentions);
  int64_t candidate_overflow = 0;
  for (int m = 0; m < num_mentions; ++m) {
    const Mention& mention = mentions.mention(m);
    int overflow = 0;
    if (mention.is_noun()) {
      for (const kb::EntityCandidate& c : view_->CandidateEntities(
               mention.surface, mention.type,
               options_.max_candidates_per_mention, &overflow)) {
        of_mention[m].push_back(static_cast<int>(concept_nodes.size()));
        concept_nodes.push_back(CoherenceGraph::ConceptNode{
            m, kb::ConceptRef::Entity(c.entity), c.prior});
      }
    } else {
      for (const kb::PredicateCandidate& c : view_->CandidatePredicates(
               mention.surface, options_.max_candidates_per_mention,
               &overflow)) {
        of_mention[m].push_back(static_cast<int>(concept_nodes.size()));
        concept_nodes.push_back(CoherenceGraph::ConceptNode{
            m, kb::ConceptRef::Predicate(c.predicate), c.prior});
      }
    }
    candidate_overflow += overflow;
  }
  text::RecordInputTruncated(text::InputTruncateReason::kCandidates,
                             candidate_overflow);

  CoherenceGraph cg(std::move(mentions),
                    static_cast<int>(concept_nodes.size()));
  cg.concept_nodes_ = std::move(concept_nodes);
  for (int m = 0; m < num_mentions; ++m) {
    for (int local : of_mention[m]) {
      cg.concepts_of_mention_[m].push_back(num_mentions + local);
    }
  }

  // Mention -> candidate edges (local semantic distance, Eqs. 1-2).
  for (int m = 0; m < num_mentions; ++m) {
    for (int node : cg.concepts_of_mention_[m]) {
      double prior = cg.concept_node(node).prior;
      cg.graph_.AddEdge(m, node, 1.0 - prior);
    }
  }

  // Concept x concept edges (global semantic distance, Eqs. 3-5).
  const int num_concepts = cg.num_concept_nodes();
  if (num_concepts == 0) return cg;

  // Whether the pair (i, j) gets an edge at all: entity pairs always
  // (Eq. 3); predicate-predicate and entity-predicate edges require the
  // phrases to share a sentence (Eqs. 4-5).
  auto connected = [&](const CoherenceGraph::ConceptNode& a,
                       const CoherenceGraph::ConceptNode& b) {
    if (a.mention == b.mention) return false;
    if (a.ref.is_entity() && b.ref.is_entity()) return true;
    return cg.mentions_.mention(a.mention)
        .SharesSentence(cg.mentions_.mention(b.mention));
  };

  // Batched kernel: one gather of every candidate's unit row into a
  // contiguous row-major scratch (a single dependency operation for the
  // whole document), then a tiled triangular sweep.
  const int dim = view_->dimension();
  std::vector<kb::ConceptRef> refs(num_concepts);
  for (int i = 0; i < num_concepts; ++i) refs[i] = cg.concept_nodes_[i].ref;
  std::vector<double> rows(static_cast<size_t>(num_concepts) * dim);
  view_->GatherUnit(refs, rows.data());

  // The similarity of pair (i, j), via the cache when one is installed.
  // Cached and computed values are bit-identical: both are the DotUnit
  // reduction over the store's unit rows (the scratch holds verbatim
  // copies), so a warm cache never changes an edge weight.
  auto pair_cosine = [&](int i, int j) {
    const double* ri = rows.data() + static_cast<size_t>(i) * dim;
    const double* rj = rows.data() + static_cast<size_t>(j) * dim;
    if (cache != nullptr) {
      return cache->GetOrCompute(
          refs[i], refs[j],
          [&] {
            return embedding::ClampCosine(embedding::DotUnit(ri, rj, dim));
          },
          cache_epoch);
    }
    return embedding::ClampCosine(embedding::DotUnit(ri, rj, dim));
  };

  // The triangle, column-tiled so a block of rows stays hot while every
  // row revisits it.  Edges land in per-row buckets and are added in row
  // order, so the edge list is lexicographic in (i, j) whatever the tile
  // width.
  std::vector<std::vector<std::pair<int, double>>> per_row(num_concepts);
  for (int jb = 1; jb < num_concepts; jb += kTileCols) {
    const int je = std::min(num_concepts, jb + kTileCols);
    for (int i = 0; i < je - 1; ++i) {
      const CoherenceGraph::ConceptNode& a = cg.concept_nodes_[i];
      for (int j = std::max(i + 1, jb); j < je; ++j) {
        const CoherenceGraph::ConceptNode& b = cg.concept_nodes_[j];
        if (!connected(a, b)) continue;
        per_row[i].emplace_back(j, 1.0 - pair_cosine(i, j));
      }
    }
  }
  for (int i = 0; i < num_concepts; ++i) {
    for (const auto& [j, weight] : per_row[i]) {
      cg.graph_.AddEdge(num_mentions + i, num_mentions + j, weight);
    }
  }
  return cg;
}

}  // namespace core
}  // namespace tenet
