#ifndef TENET_EMBEDDING_EMBEDDING_STORE_H_
#define TENET_EMBEDDING_EMBEDDING_STORE_H_

#include <cstdint>
#include <span>
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
// The raw float rows stay after Finalize because three readers need them
// and cannot get them back from the unit rows (the norms are gone):
// SaveEmbeddings (kb/io.cc) persists them, ShardedKb::Partition copies
// them into per-shard stores, and ApplyDeltas carries them into the next
// generation's store.
class EmbeddingStore {
 public:
  EmbeddingStore(int dimension, int32_t num_entities,
                 int32_t num_predicates);

  int dimension() const { return dimension_; }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_predicates() const { return num_predicates_; }

  /// Writable view of the vector of `ref`.  Only before Finalize().
  std::span<float> MutableVector(kb::ConceptRef ref);

  /// Read-only view of the raw vector of `ref`.
  std::span<const float> Vector(kb::ConceptRef ref) const;

  /// Read-only view of the unit-normalized vector of `ref` (all zeros for
  /// a zero vector).  Only after Finalize().
  std::span<const double> UnitVector(kb::ConceptRef ref) const;

  /// Builds the unit-normalized copy; must be called once after all writes.
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
  /// Fills unit_data_ from data_ in one sweep.  False — with unit_data_
  /// left empty — when a row holds a non-finite value.
  bool BuildUnitRows();
  size_t Offset(kb::ConceptRef ref) const;
  size_t RowIndex(kb::ConceptRef ref) const;

  int dimension_;
  int32_t num_entities_;
  int32_t num_predicates_;
  std::vector<float> data_;        // entities first, then predicates
  std::vector<double> unit_data_;  // unit-normalized copy, by Finalize()
  bool finalized_ = false;
  obs::DependencyOpCounters ops_;
};

}  // namespace embedding
}  // namespace tenet

#endif  // TENET_EMBEDDING_EMBEDDING_STORE_H_
