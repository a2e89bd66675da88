#ifndef TENET_KB_KB_VIEW_H_
#define TENET_KB_KB_VIEW_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "kb/alias_index.h"
#include "kb/knowledge_base.h"
#include "kb/types.h"

namespace tenet {

namespace embedding {
class EmbeddingStore;
}  // namespace embedding

namespace kb {

// Read-path contract over a KB substrate — the one API the pipeline, the
// baselines, and the serving layer consume.  Serving reads ShardedKb, the
// one serving substrate (a flat snapshot pair loads as its 1-shard
// layout); FlatKbView is the zero-copy view the offline experiments and
// baselines build over an in-process KnowledgeBase + EmbeddingStore.  See
// DESIGN.md §14.
//
// Determinism contract: for the same logical KB, every implementation must
// return candidate lists, fact visitation sequences, neighbor lists, and
// similarities that are byte-identical to the 1-shard layout's.  Sharded
// layouts achieve this by (a) keeping per-surface postings in the one
// posting order (CanonicalPostingOrder) so per-shard sublists k-way-merge
// back into exactly the 1-shard list, and (b) replicating each fact to the
// home shard of every participating concept so per-concept fact sequences
// are complete and in ascending global fact order.
//
// All methods are const and safe for concurrent readers once the backing
// substrate is finalized.
class KbView {
 public:
  virtual ~KbView() = default;

  // ---- concept access ----------------------------------------------------

  virtual int32_t num_entities() const = 0;
  virtual int32_t num_predicates() const = 0;
  virtual int64_t num_facts() const = 0;

  virtual const EntityRecord& entity(EntityId id) const = 0;
  virtual const PredicateRecord& predicate(PredicateId id) const = 0;

  // ---- candidate generation ----------------------------------------------

  /// Candidate entities whose alias matches `surface`; semantics identical
  /// to KnowledgeBase::CandidateEntities (type filter, cap, overflow
  /// counting, renormalization over the returned set).
  virtual std::vector<EntityCandidate> CandidateEntities(
      std::string_view surface, std::optional<EntityType> type,
      int max_candidates, int* overflow = nullptr) const = 0;

  /// Candidate predicates; semantics identical to
  /// KnowledgeBase::CandidatePredicates.
  virtual std::vector<PredicateCandidate> CandidatePredicates(
      std::string_view surface, int max_candidates,
      int* overflow = nullptr) const = 0;

  // ---- fact access -------------------------------------------------------

  /// Visitor over the facts of one concept.  `fact_id` is the global fact
  /// id (the index into KnowledgeBase::facts() on the flat substrate);
  /// facts arrive in ascending global id order.  Return false to stop
  /// early.
  using FactVisitor = std::function<bool(int64_t fact_id, const Triple&)>;

  /// Visits every fact where `id` appears as subject or object.
  virtual void VisitFactsOfEntity(EntityId id,
                                  const FactVisitor& visitor) const = 0;
  /// Visits every fact using predicate `id`.
  virtual void VisitFactsOfPredicate(PredicateId id,
                                     const FactVisitor& visitor) const = 0;

  /// Distinct entities adjacent to `id` through any fact, in first-seen
  /// order over the ascending-fact-id visitation.
  virtual std::vector<EntityId> NeighborEntities(EntityId id) const = 0;

  // ---- embeddings --------------------------------------------------------

  virtual int dimension() const = 0;

  /// Cosine similarity in [-1, 1]; one embedding/fetch dependency
  /// observation per call, fired faults yield 0 (see EmbeddingStore).
  virtual double Cosine(ConceptRef a, ConceptRef b) const = 0;

  /// Batched unit-row fetch; one dependency observation for the whole
  /// gather, fired faults zero-fill `out` (see EmbeddingStore::GatherUnit).
  virtual void GatherUnit(std::span<const ConceptRef> refs,
                          double* out) const = 0;

  // ---- alias enumeration -------------------------------------------------

  using PostingVisitor =
      std::function<void(std::string_view surface, const AliasPosting&)>;

  /// Visits every alias posting exactly once; the order is unspecified and
  /// the postings of one surface may arrive in several non-consecutive
  /// runs (one per shard on a sharded substrate) — consumers must be
  /// order-independent.  Offline use only (gazetteer derivation) — not a
  /// read-path call.
  virtual void VisitAliasPostings(const PostingVisitor& visitor) const = 0;
};

// KbView over an in-process KnowledgeBase + EmbeddingStore (both finalized,
// both must outlive the view) — the synthetic world the offline
// experiments link against, viewed without copying it.  Copyable and
// cheap — two pointers.  Serving never builds one: a KbGeneration holds a
// ShardedKb.
class FlatKbView final : public KbView {
 public:
  FlatKbView(const KnowledgeBase* kb,
             const embedding::EmbeddingStore* embeddings);

  int32_t num_entities() const override { return kb_->num_entities(); }
  int32_t num_predicates() const override { return kb_->num_predicates(); }
  int64_t num_facts() const override { return kb_->num_facts(); }

  const EntityRecord& entity(EntityId id) const override {
    return kb_->entity(id);
  }
  const PredicateRecord& predicate(PredicateId id) const override {
    return kb_->predicate(id);
  }

  std::vector<EntityCandidate> CandidateEntities(
      std::string_view surface, std::optional<EntityType> type,
      int max_candidates, int* overflow = nullptr) const override {
    return kb_->CandidateEntities(surface, type, max_candidates, overflow);
  }
  std::vector<PredicateCandidate> CandidatePredicates(
      std::string_view surface, int max_candidates,
      int* overflow = nullptr) const override {
    return kb_->CandidatePredicates(surface, max_candidates, overflow);
  }

  void VisitFactsOfEntity(EntityId id,
                          const FactVisitor& visitor) const override;
  void VisitFactsOfPredicate(PredicateId id,
                             const FactVisitor& visitor) const override;
  std::vector<EntityId> NeighborEntities(EntityId id) const override {
    return kb_->NeighborEntities(id);
  }

  int dimension() const override;
  double Cosine(ConceptRef a, ConceptRef b) const override;
  void GatherUnit(std::span<const ConceptRef> refs,
                  double* out) const override;

  void VisitAliasPostings(const PostingVisitor& visitor) const override;

 private:
  const KnowledgeBase* kb_;
  const embedding::EmbeddingStore* embeddings_;
};

// Shared candidate post-processing — the exact truncate/overflow/renormalize
// sequence of the historical KnowledgeBase::Candidate* methods, factored out
// so every substrate runs the same floating-point operations in the same
// order (byte-identical priors on every layout).  `keep` filters a
// posting (type matching), `make` converts a surviving posting into the
// candidate type.
template <typename Candidate, typename KeepFn, typename MakeFn>
std::vector<Candidate> SelectCandidates(
    std::span<const AliasPosting> postings, int max_candidates,
    int* overflow, KeepFn&& keep, MakeFn&& make) {
  if (overflow != nullptr) *overflow = 0;
  std::vector<Candidate> out;
  if (max_candidates <= 0) return out;
  for (const AliasPosting& posting : postings) {
    if (!keep(posting)) continue;
    if (static_cast<int>(out.size()) == max_candidates) {
      // Past the cap: only keep counting when the caller asked to observe
      // truncation; the returned set and its renormalization are unchanged.
      if (overflow == nullptr) break;
      ++*overflow;
      continue;
    }
    out.push_back(make(posting));
  }
  // Renormalize so the truncated/filtered set is still a distribution.
  double total = 0.0;
  for (const Candidate& c : out) total += c.prior;
  if (total > 0.0) {
    for (Candidate& c : out) c.prior /= total;
  }
  return out;
}

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_KB_VIEW_H_
