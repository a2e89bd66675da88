#ifndef TENET_EMBEDDING_EMBEDDING_STORE_H_
#define TENET_EMBEDDING_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kb/types.h"
#include "obs/metrics.h"

namespace tenet {
namespace embedding {

// Dense, contiguous storage of one fixed-dimension vector per KB concept —
// the in-process analogue of the paper's memory-mapped PyTorch-BigGraph
// array (Sec. 6.1): obtaining a vector is O(1) pointer arithmetic, and the
// pairwise relatedness used by the coherence graph is plain cosine
// similarity (Equations 3-5).
//
// Build phase: write through MutableVector, then Finalize().
// Query phase: Vector() / UnitVector() / Cosine() / GatherUnit().
//
// Finalize() stores, next to the raw matrix, a unit-normalized double copy
// (each row divided by its L2 norm; zero rows stay zero).  Cosine then
// degenerates to a pure dot product over unit rows, computed by the fixed
// blocked DotUnit reduction (dot_kernel.h) — the same kernel the coherence
// graph's batched path runs over gathered rows, so per-pair and batched
// similarities are bit-identical (and within ~1e-14 of the historical
// dot/norms arithmetic; see dot_kernel.h).  The copy triples the store's
// memory; DESIGN.md §10 discusses the tradeoff.
//
// The raw float rows stay after Finalize because two readers need them
// and cannot get them back from the unit rows (the norms are gone):
// SaveEmbeddings (kb/io.cc) persists them, and ShardedKb::Partition copies
// them into per-shard stores.
//
// Layered stores (Extend) are how a live KB update grows the matrix
// without copying it: a layered store shares a finalized base store by
// pointer and owns only the rows of concepts appended after it and the
// rows that overrides replace (ApplyDeltas' kSetEmbedding).  Finalize
// normalizes only those own rows.  Extending a layered store layers the
// new one over the same base and carries the own rows forward, so the
// overlay is cumulative and the base is never itself layered; the next
// compaction writes the whole matrix as a new base.
class EmbeddingStore {
 public:
  EmbeddingStore(int dimension, int32_t num_entities,
                 int32_t num_predicates);

  /// An unfinalized store of `num_entities` x `num_predicates` rows over
  /// the finalized `parent`, whose counts it must not undercut: every row
  /// of `parent` reads through unchanged (shared with `parent`'s base, not
  /// copied), appended concepts start as zero rows, and MutableVector of
  /// an existing concept gives it an own row.  O(rows `parent` owns).
  static EmbeddingStore Extend(
      const std::shared_ptr<const EmbeddingStore>& parent,
      int32_t num_entities, int32_t num_predicates);

  int dimension() const { return dimension_; }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_predicates() const { return num_predicates_; }

  /// Writable view of the vector of `ref`.  Only before Finalize(); on a
  /// layered store the view is valid until the next MutableVector call.
  std::span<float> MutableVector(kb::ConceptRef ref);

  /// Read-only view of the raw vector of `ref`.
  std::span<const float> Vector(kb::ConceptRef ref) const;

  /// Read-only view of the unit-normalized vector of `ref` (all zeros for
  /// a zero vector).  Only after Finalize().
  std::span<const double> UnitVector(kb::ConceptRef ref) const;

  /// Builds the unit-normalized copy of the store's own rows; must be
  /// called once after all writes.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Bulk load + finalize in one pass: copies `count_floats` floats from
  /// `matrix` (row-major, entities then predicates; any alignment — the
  /// snapshot loader points this straight at an mmapped file) into the raw
  /// matrix and builds the unit-normalized rows from the same sweep, so a
  /// snapshot load pays exactly one copy instead of per-row reads plus a
  /// Finalize re-scan.  `count_floats` must equal
  /// dimension() * (num_entities() + num_predicates()).  DataLoss on
  /// non-finite payloads (a NaN row would silently poison every cosine);
  /// the store is left un-finalized on error.
  Status LoadMatrix(const void* matrix, size_t count_floats);

  /// Cosine similarity in [-1, 1]; zero vectors yield 0.  One dependency
  /// observation / fault-point probe per call — the batched path below is
  /// the cheap way to fetch a whole document's worth.
  double Cosine(kb::ConceptRef a, kb::ConceptRef b) const;

  /// The paper's global semantic distance 1 - cos (Equations 3-5),
  /// clamped to [0, 2].
  double CosineDistance(kb::ConceptRef a, kb::ConceptRef b) const {
    return 1.0 - Cosine(a, b);
  }

  /// Batched fetch: copies the unit rows of `refs` into `out` (row-major,
  /// refs.size() x dimension(), caller-allocated).  The whole gather is a
  /// single dependency operation — one fault-point probe and one
  /// observation, however many rows — so a document's coherence stage costs
  /// O(1) observability work instead of O(C^2).  A fired fault behaves
  /// like every vector missing: `out` is zero-filled and all similarities
  /// over it are 0, the same value Cosine() reports under a fired fault.
  void GatherUnit(std::span<const kb::ConceptRef> refs, double* out) const;

  /// Re-points the store's dependency-operation counters
  /// (tenet_dependency_operations_total{dependency="embedding/fetch"}) at
  /// `registry` (null: back to the process-wide default).  Tests inject a
  /// per-test registry; production stores publish to the default one.
  void set_metrics_registry(obs::MetricsRegistry* registry) {
    ops_ = obs::DependencyOpCounters("embedding/fetch", registry);
  }

 private:
  EmbeddingStore(std::shared_ptr<const EmbeddingStore> base,
                 int32_t num_entities, int32_t num_predicates);

  /// Fills unit_data_ from data_ in one sweep.  False — with unit_data_
  /// left empty — when a row holds a non-finite value.
  bool BuildUnitRows();
  size_t RowIndex(kb::ConceptRef ref) const;
  /// The store holding `ref`'s row (this one or base_) and the row's index
  /// there.
  std::pair<const EmbeddingStore*, size_t> Locate(kb::ConceptRef ref) const;
  const double* UnitRow(kb::ConceptRef ref) const {
    if (base_ == nullptr) {
      return unit_data_.data() + RowIndex(ref) * dimension_;
    }
    const auto [store, row] = Locate(ref);
    return store->unit_data_.data() + row * dimension_;
  }

  int dimension_;
  int32_t num_entities_;
  int32_t num_predicates_;
  // Own rows.  Unlayered: every row, entities first, then predicates.
  // Layered: appended entities, appended predicates, then overrides.
  std::vector<float> data_;
  std::vector<double> unit_data_;  // unit-normalized copy, by Finalize()
  // Layered stores only: the shared, finalized, unlayered base, and the
  // own row of each overridden base row (keyed by its base row index).
  std::shared_ptr<const EmbeddingStore> base_;
  std::unordered_map<size_t, size_t> overrides_;
  bool finalized_ = false;
  obs::DependencyOpCounters ops_;
};

}  // namespace embedding
}  // namespace tenet

#endif  // TENET_EMBEDDING_EMBEDDING_STORE_H_
