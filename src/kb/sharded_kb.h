#ifndef TENET_KB_SHARDED_KB_H_
#define TENET_KB_SHARDED_KB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "embedding/embedding_store.h"
#include "kb/io.h"
#include "kb/kb_view.h"

namespace tenet {

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

namespace kb {

// Hash-partitioned KB substrate: N independent shards, each owning its own
// alias index, record arrays, CSR fact arenas, and embedding matrix — the
// local-process stand-in for sphinx-neo's distributed agent/source split,
// and the unit a multi-process backend would route on.  See DESIGN.md §14.
//
// Layout (strided by concept id): concept c is homed on shard c % N at
// local index c / N, for entities and predicates independently.  Alias
// postings live on the home shard of their *concept* (each posting exactly
// once); facts are *replicated* to the home shard of every participating
// concept (subject, entity object, predicate — at most 3 copies), so every
// per-concept fact sequence is complete on the concept's home shard, in
// ascending global fact id order, and reads never cross shards.
//
// Determinism: per-shard posting sublists preserve the canonical order
// (CanonicalPostingOrder, a total order), so the scatter/gather lookup
// merges them back into exactly the flat substrate's list; candidate
// post-processing then runs the shared SelectCandidates sequence.  PRF,
// degradation counts and coherence edge lists are byte-identical to a flat
// load of the same KB at any shard count — kb_shard_test.cc pins this.
//
// Failure model: each per-shard lookup probes the "kb/shard" fault point.
// A fired shard contributes nothing to that lookup (its candidates are
// simply missing — the request degrades exactly like an alias-index miss)
// and is counted in tenet_kb_shard_degraded_lookups_total; the request
// itself never fails.  Per-shard latency and mapped bytes are published as
// tenet_kb_shard_lookup_ms{shard=} / tenet_kb_shard_bytes_mapped{shard=}.
class ShardedKb final : public KbView {
 public:
  // One hash-partition.  Public so the snapshot loader (kb/io.cc) and the
  // partitioner can assemble shards; treat as read-only afterwards.
  struct Shard {
    // Local records: global id = local_index * num_shards + shard_index.
    std::vector<EntityRecord> entities;
    std::vector<PredicateRecord> predicates;
    /// Postings hold GLOBAL ConceptRefs with globally-finalized priors, in
    /// a dictionary adopted as built (never renormalized).
    AliasIndex alias_index;
    /// Replicated facts (global concept ids), ascending global fact id.
    std::vector<Triple> facts;
    /// Global fact id of each facts[] slot (parallel array).
    std::vector<int64_t> fact_ids;
    // CSR over *local* concept index -> positions into facts, built by
    // BuildShardIndexes; mirrors KnowledgeBase::Finalize exactly.
    std::vector<int32_t> entity_fact_pos;
    std::vector<uint32_t> entity_fact_offsets;
    std::vector<int32_t> predicate_fact_pos;
    std::vector<uint32_t> predicate_fact_offsets;
    /// Local embedding rows (same stride mapping), finalized.
    std::unique_ptr<embedding::EmbeddingStore> embeddings;
    /// Bytes served zero-copy from this shard's mapped snapshot (0 for
    /// heap-built shards).
    uint64_t mapped_bytes = 0;
    /// Wall time Load() spent materializing this shard (snapshot +
    /// embeddings), in ms; 0 for heap-built shards.  Shard loads are
    /// independent, so max(load_ms) + the loader's serial prologue is the
    /// critical path a parallel loader would pay — bench/kb_load reports
    /// it next to the measured serial wall time.
    double load_ms = 0.0;
  };

  /// Assembles a sharded KB from fully-built shards (used by Partition and
  /// the snapshot loader).  The global counts are the flat substrate's.
  ShardedKb(std::vector<Shard> shards, int32_t num_entities,
            int32_t num_predicates, int64_t num_facts);

  /// Partitions a finalized flat substrate into `num_shards` hash shards
  /// (in memory; Save() persists the layout).
  static ShardedKb Partition(const KnowledgeBase& kb,
                             const embedding::EmbeddingStore& embeddings,
                             int num_shards);

  /// Builds one shard's CSR arenas from its replicated fact array — the
  /// per-shard analogue of KnowledgeBase::Finalize's counted two-pass.
  static void BuildShardIndexes(Shard& shard, int num_shards,
                                int shard_index);

  /// Persists the layout: one TENETKB3 snapshot (with a shard_info
  /// section) + one TENETEMB1 matrix per shard, plus a "TENETKBSHARDS1"
  /// manifest at `manifest_path` naming them.  Implemented in kb/io.cc.
  Status Save(const std::string& manifest_path) const;

  /// Loads a layout written by Save().  Each shard's snapshot is mmap'd on
  /// demand and validated independently; per-shard load latency and mapped
  /// bytes are published under the shard metrics.  Implemented in
  /// kb/io.cc.
  static Result<ShardedKb> Load(const std::string& manifest_path,
                                const KbLoadOptions& options = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const Shard& shard(int i) const { return shards_[i]; }

  // ---- KbView ------------------------------------------------------------

  int32_t num_entities() const override { return num_entities_; }
  int32_t num_predicates() const override { return num_predicates_; }
  int64_t num_facts() const override { return num_facts_; }

  const EntityRecord& entity(EntityId id) const override;
  const PredicateRecord& predicate(PredicateId id) const override;

  std::vector<EntityCandidate> CandidateEntities(
      std::string_view surface, std::optional<EntityType> type,
      int max_candidates, int* overflow = nullptr) const override;
  std::vector<PredicateCandidate> CandidatePredicates(
      std::string_view surface, int max_candidates,
      int* overflow = nullptr) const override;

  void VisitFactsOfEntity(EntityId id,
                          const FactVisitor& visitor) const override;
  void VisitFactsOfPredicate(PredicateId id,
                             const FactVisitor& visitor) const override;
  std::vector<EntityId> NeighborEntities(EntityId id) const override;

  int dimension() const override { return dimension_; }
  double Cosine(ConceptRef a, ConceptRef b) const override;
  void GatherUnit(std::span<const ConceptRef> refs,
                  double* out) const override;

  void VisitAliasPostings(const PostingVisitor& visitor) const override;

 private:
  /// Scatter/gather: per-shard alias lookups (each behind the "kb/shard"
  /// fault point), merged back into the canonical global posting order.
  std::vector<AliasPosting> ScatterLookup(std::string_view surface,
                                          ConceptRef::Kind kind) const;

  std::vector<Shard> shards_;
  int32_t num_entities_ = 0;
  int32_t num_predicates_ = 0;
  int64_t num_facts_ = 0;
  int dimension_ = 0;

  // Cached metric handles (find-or-create once, lock-free afterwards).
  std::vector<obs::Histogram*> shard_lookup_ms_;
  obs::Counter* degraded_lookups_ = nullptr;
  obs::DependencyOpCounters shard_ops_;
  obs::DependencyOpCounters embedding_ops_;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_SHARDED_KB_H_
