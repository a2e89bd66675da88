#ifndef TENET_KB_SHARDED_KB_H_
#define TENET_KB_SHARDED_KB_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/layered_vector.h"
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
// and the unit a multi-process backend would route on.  It is the one
// KbView implementation: a flat TENETKB3 + TENETEMB1 pair loads as its
// 1-shard layout, the in-process synthetic world serves through its
// 1-shard partition, and live updates (kb/delta.h) apply shard by shard.
// See DESIGN.md §14.
//
// Layout (strided by concept id): concept c is homed on shard c % N at
// local index c / N, for entities and predicates independently.  Alias
// postings live on the home shard of their *concept* (each posting exactly
// once); facts are *replicated* to the home shard of every participating
// concept (subject, entity object, predicate — at most 3 copies), so every
// per-concept fact sequence is complete on the concept's home shard, in
// ascending global fact id order, and reads never cross shards.
//
// Determinism: every per-shard posting list is in the canonical order
// (CanonicalPostingOrder, a total order) — snapshots, partitions and delta
// applies all keep it — so the scatter/gather lookup merges them back into
// exactly the 1-shard layout's list, and a lookup that only one shard
// answers hands that shard's list through unmerged; candidate
// post-processing then runs one SelectCandidates sequence.  PRF,
// degradation counts and coherence edge lists are byte-identical at any
// shard count — kb_shard_test.cc and substrate_golden_test.cc pin this.
//
// Failure model: with two or more shards, each per-shard lookup probes the
// "kb/shard" fault point (a 1-shard layout has no per-shard step: its
// lookup is the alias index's own, behind "kb/alias_lookup").
// A fired shard contributes nothing to that lookup (its candidates are
// simply missing — the request degrades exactly like an alias-index miss)
// and is counted in tenet_kb_shard_degraded_lookups_total; the request
// itself never fails.  Per-shard latency and mapped bytes are published as
// tenet_kb_shard_lookup_ms{shard=} / tenet_kb_shard_bytes_mapped{shard=}.
class ShardedKb final : public KbView {
 public:
  // One shard's replicated facts and their CSR indexes.  Immutable once
  // built, and shared by pointer between generations until a delta adds or
  // drops a fact on the shard.
  struct FactArena {
    /// Replicated facts (global concept ids), ascending global fact id.
    std::vector<Triple> facts;
    /// Global fact id of each facts[] slot (parallel array).
    std::vector<int64_t> fact_ids;
    // CSR over *local* concept index -> positions into facts, built by
    // BuildShardIndexes; mirrors KnowledgeBase::Finalize exactly.  It
    // covers the concepts the shard homed when it was built: a concept
    // appended later (local index past the offsets) has no facts here.
    std::vector<int32_t> entity_fact_pos;
    std::vector<uint32_t> entity_fact_offsets;
    std::vector<int32_t> predicate_fact_pos;
    std::vector<uint32_t> predicate_fact_offsets;
  };

  // One hash-partition.  Public so the snapshot loader (kb/io.cc), the
  // partitioner and the delta apply can assemble shards; treat as
  // read-only afterwards.  Every part is a shared base plus, after live
  // updates, a small overlay of its own (DESIGN.md §12), so deriving the
  // next generation's shard costs O(delta), not O(shard).
  struct Shard {
    // Local records: global id = local_index * num_shards + shard_index.
    // The constructor seals them: delta-appended records are the tail.
    LayeredVector<EntityRecord> entities;
    LayeredVector<PredicateRecord> predicates;
    /// Postings hold GLOBAL ConceptRefs with globally-finalized priors, in
    /// a dictionary adopted as built (never renormalized), plus the
    /// overlay of delta-touched surfaces.
    AliasIndex alias_index;
    /// Replicated facts and their CSR indexes.
    std::shared_ptr<const FactArena> facts;
    /// Local embedding rows (same stride mapping), finalized; layered over
    /// the snapshot's rows after live updates.
    std::shared_ptr<const embedding::EmbeddingStore> embeddings;
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

  /// Assembles a sharded KB from fully-built shards (used by Partition, the
  /// snapshot loader and ApplyDeltas), sealing their records.  The counts
  /// are global (summed over the shards, facts counted once).
  ShardedKb(std::vector<Shard> shards, int32_t num_entities,
            int32_t num_predicates, int64_t num_facts);

  /// Partitions a finalized KnowledgeBase + EmbeddingStore into
  /// `num_shards` hash shards (in memory, copying both; Save() persists the
  /// layout).  One shard is the layout every in-process linker reads.
  static ShardedKb Partition(const KnowledgeBase& kb,
                             const embedding::EmbeddingStore& embeddings,
                             int num_shards);

  /// Home shard and local index of concept `id` in the strided layout.
  static int HomeShard(int32_t id, int num_shards) {
    return static_cast<int>(id % num_shards);
  }
  static int32_t LocalIndex(int32_t id, int num_shards) {
    return id / num_shards;
  }

  /// Shards holding fact `t`: the home shard of each participant
  /// (subject, entity object, predicate), once each.  Writes up to three
  /// indexes to `targets` and returns how many.
  static int FactShards(const Triple& t, int num_shards, int targets[3]);

  /// Appends fact `t` with global id `fact_id` to `arenas[s]` for every
  /// shard s in FactShards.  Fact ids must arrive ascending.
  static void RouteFact(std::span<FactArena* const> arenas, const Triple& t,
                        int64_t fact_id);

  /// Builds one shard's CSR indexes over its replicated fact array for
  /// the given local concept counts — the per-shard analogue of
  /// KnowledgeBase::Finalize's counted two-pass.
  static void BuildShardIndexes(FactArena& arena, size_t num_local_entities,
                                size_t num_local_predicates, int num_shards,
                                int shard_index);

  /// Persists the layout: one TENETKB3 snapshot (with a shard_info
  /// section) + one TENETEMB1 matrix per shard, plus a "TENETKBSHARDS1"
  /// manifest at `manifest_path` naming them.  Implemented in kb/io.cc.
  Status Save(const std::string& manifest_path) const;

  /// Persists a 1-shard layout as the flat pair: a TENETKB3 snapshot at
  /// `kb_path` and its TENETEMB1 matrix at `embeddings_path`.  Implemented
  /// in kb/io.cc.
  Status SaveFlat(const std::string& kb_path,
                  const std::string& embeddings_path) const;

  /// The one KB loader.  `path` names either a TENETKBSHARDS1 manifest
  /// written by Save() (`embeddings_path` is then unused: the manifest
  /// names every shard's matrix) or a flat TENETKB3 snapshot, which loads
  /// with the TENETEMB1 matrix at `embeddings_path` as the 1-shard layout.
  /// Each snapshot is mmap'd on demand and validated independently;
  /// per-shard load latency and mapped bytes are published under the shard
  /// metrics.  Implemented in kb/io.cc.
  static Result<ShardedKb> Load(const std::string& path,
                                const std::string& embeddings_path = {},
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
  /// fault point), in the canonical global posting order.  When at most
  /// one shard answers, the result borrows that shard's list; otherwise
  /// the lists are merged into `merged`, which the result then views.
  std::span<const AliasPosting> ScatterLookup(
      std::string_view surface, ConceptRef::Kind kind,
      std::vector<AliasPosting>* merged) const;

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
