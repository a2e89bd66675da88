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

namespace kb {

// Read-path contract over a KB substrate — the one API the pipeline, the
// baselines, and the serving layer consume.  Its one implementation is
// ShardedKb: a flat snapshot pair loads as its 1-shard layout, and the
// in-process synthetic world serves through the 1-shard partition it
// builds once (SyntheticWorld::view).  See DESIGN.md §14.
//
// Determinism contract: for the same logical KB, every layout must return
// candidate lists, fact visitation sequences, neighbor lists, and
// similarities that are byte-identical to the 1-shard layout's.  Wider
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

  /// Candidate entities whose alias matches `surface` (case-insensitive)
  /// and whose type matches `type` when given (Sec. 3, Step 1).  At most
  /// `max_candidates` results, by descending prior; priors are renormalized
  /// over the returned set so they remain a distribution after type
  /// filtering and truncation.  When `overflow` is non-null it receives the
  /// number of matching candidates *beyond* the cap — the hostile-input
  /// guardrails count these into tenet_input_truncated_total{candidates}
  /// without changing which candidates are returned or how their priors
  /// renormalize (the clean path stays bit-identical).
  virtual std::vector<EntityCandidate> CandidateEntities(
      std::string_view surface, std::optional<EntityType> type,
      int max_candidates, int* overflow = nullptr) const = 0;

  /// Candidate predicates for a (lemmatized) relational phrase
  /// (Sec. 3, Step 2).  `overflow` as in CandidateEntities.
  virtual std::vector<PredicateCandidate> CandidatePredicates(
      std::string_view surface, int max_candidates,
      int* overflow = nullptr) const = 0;

  // ---- fact access -------------------------------------------------------

  /// Visitor over the facts of one concept.  `fact_id` is the global fact
  /// id (the index into KnowledgeBase::facts() of the partitioned KB);
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

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_KB_VIEW_H_
