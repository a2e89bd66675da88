#ifndef TENET_SERVING_KB_GENERATION_H_
#define TENET_SERVING_KB_GENERATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/tenet_linker.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "embedding/embedding_store.h"
#include "kb/delta.h"
#include "kb/kb_view.h"
#include "kb/knowledge_base.h"
#include "kb/sharded_kb.h"
#include "text/gazetteer.h"

namespace tenet {
namespace serving {

// One immutable, self-contained serving substrate: a KB snapshot with any
// number of TENETDELTA1 segments applied, plus the embedding store, the
// derived gazetteer, and a TenetLinker built over all of it (DESIGN.md
// §12).  This is the unit the serving layer hot-swaps: requests pin a
// generation for their whole lifetime, so everything here must be — and
// is — immutable after construction.
//
// Generations are heap-only (shared_ptr from the factories, never moved):
// the linker holds raw pointers into the sibling members, which therefore
// must sit at their final addresses before it is built.  The `id` is the
// monotonically increasing generation number the caller assigns; the
// serving layer requires each published generation's id to exceed the one
// it replaces.  Every factory takes the pipeline tuning of the generation's
// linker; WithDeltas inherits it from the receiver.
class KbGeneration {
 public:
  /// Loads the snapshot pair and applies `delta_paths` in order.
  static Result<std::shared_ptr<const KbGeneration>> Load(
      const std::string& kb_path, const std::string& embeddings_path,
      std::span<const std::string> delta_paths, uint64_t id,
      const core::TenetOptions& options = {});

  /// Loads a sharded layout ("TENETKBSHARDS1" manifest, DESIGN.md §14) and
  /// serves it through the same linker stack: candidate generation runs
  /// scatter/gather across the shards, everything downstream is identical.
  /// Sharded generations are read-only substrates — WithDeltas and Compact
  /// reject them (write a new sharded layout offline instead).
  static Result<std::shared_ptr<const KbGeneration>> LoadSharded(
      const std::string& manifest_path, uint64_t id,
      const core::TenetOptions& options = {});

  /// Wraps an already-built substrate (both must be finalized).
  static std::shared_ptr<const KbGeneration> FromSubstrate(
      kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings, uint64_t id,
      const core::TenetOptions& options = {});

  /// Wraps an already-built sharded substrate (same contract as
  /// LoadSharded).
  static std::shared_ptr<const KbGeneration> FromShardedKb(
      std::shared_ptr<const kb::ShardedKb> sharded, uint64_t id,
      const core::TenetOptions& options = {});

  /// A new generation = this one + `segments` (applied in order), linked
  /// with this generation's pipeline options.  The receiver is untouched
  /// and keeps serving.  kInvalidArgument on a sharded generation.
  Result<std::shared_ptr<const KbGeneration>> WithDeltas(
      std::span<const kb::DeltaSegment> segments, uint64_t id) const;

  /// Persists this generation as a fresh TENETKB3 + TENETEMB1 pair — the
  /// merge step that folds applied deltas back into a base snapshot.  Both
  /// writes are atomic; a crash between the two leaves a loadable (if
  /// mismatched-by-one) pair, never a torn file.  kInvalidArgument on a
  /// sharded generation (its layout is already on disk, shard by shard).
  Status Compact(const std::string& kb_path,
                 const std::string& embeddings_path) const;

  KbGeneration(const KbGeneration&) = delete;
  KbGeneration& operator=(const KbGeneration&) = delete;

  uint64_t id() const { return id_; }
  /// True when this generation serves a sharded substrate; kb() and
  /// embeddings() must not be called on it.
  bool sharded() const { return sharded_ != nullptr; }
  /// The substrate behind the generation's linker — always valid, flat or
  /// sharded.
  const kb::KbView& view() const { return *view_; }
  /// The sharded substrate (null for flat generations).
  const kb::ShardedKb* sharded_kb() const { return sharded_.get(); }
  const kb::KnowledgeBase& kb() const;
  const embedding::EmbeddingStore& embeddings() const;
  const text::Gazetteer& gazetteer() const { return gazetteer_; }
  const baselines::TenetLinker& linker() const { return *linker_; }
  /// Cumulative apply stats across every delta folded into this generation
  /// (all zero for a pure snapshot).
  const kb::DeltaApplyStats& delta_stats() const { return delta_stats_; }

 private:
  KbGeneration(kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings,
               uint64_t id, kb::DeltaApplyStats delta_stats,
               const core::TenetOptions& options);
  KbGeneration(std::shared_ptr<const kb::ShardedKb> sharded, uint64_t id,
               const core::TenetOptions& options);

  const uint64_t id_;
  // Flat substrate (empty for sharded generations).
  kb::KnowledgeBase kb_;
  embedding::EmbeddingStore embeddings_;
  // Sharded substrate (null for flat generations).
  std::shared_ptr<const kb::ShardedKb> sharded_;
  // The one handle the linker consumes, whatever the substrate shape.
  std::shared_ptr<const kb::KbView> view_;
  text::Gazetteer gazetteer_;
  kb::DeltaApplyStats delta_stats_;
  std::unique_ptr<baselines::TenetLinker> linker_;
};

}  // namespace serving
}  // namespace tenet

#endif  // TENET_SERVING_KB_GENERATION_H_
