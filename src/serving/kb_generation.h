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
#include "kb/delta.h"
#include "kb/kb_view.h"
#include "kb/sharded_kb.h"
#include "text/gazetteer.h"

namespace tenet {
namespace serving {

// One immutable, self-contained serving substrate: a KB layout with any
// number of TENETDELTA1 segments applied, plus the derived gazetteer and a
// TenetLinker built over both (DESIGN.md §12).  The layout is always a
// ShardedKb — a flat snapshot pair is its 1-shard layout (DESIGN.md §14) —
// so every feature (live updates, compaction) works at every shard count.
// This is the unit the serving layer hot-swaps: requests pin a generation
// for their whole lifetime, so everything here must be — and is —
// immutable after construction.
//
// Generations are heap-only (shared_ptr from the factories, never moved);
// the linker holds a raw pointer to the generation's gazetteer.  A
// generation derived by WithDeltas shares its parent's KB parts and
// gazetteer and owns only the delta's overlays (DESIGN.md §12), so
// deriving, swapping in and retiring one costs O(delta), not O(KB).  The `id` is
// the monotonically increasing generation number the caller assigns; the
// serving layer requires each published generation's id to exceed the one
// it replaces.  Every factory takes the pipeline tuning of the
// generation's linker; WithDeltas inherits it from the receiver.
class KbGeneration {
 public:
  /// Loads a KB — a flat snapshot pair, or a TENETKBSHARDS1 manifest at
  /// `kb_path` (whose shards name their own embeddings) — and applies
  /// `delta_paths` in order.
  static Result<std::shared_ptr<const KbGeneration>> Load(
      const std::string& kb_path, const std::string& embeddings_path,
      std::span<const std::string> delta_paths, uint64_t id,
      const core::TenetOptions& options = {});

  /// Loads a sharded layout from its TENETKBSHARDS1 manifest; candidate
  /// generation runs scatter/gather across the shards, everything
  /// downstream is identical.
  static Result<std::shared_ptr<const KbGeneration>> LoadSharded(
      const std::string& manifest_path, uint64_t id,
      const core::TenetOptions& options = {});

  /// Serves an already-built layout.
  static std::shared_ptr<const KbGeneration> FromShardedKb(
      std::shared_ptr<const kb::ShardedKb> sharded, uint64_t id,
      const core::TenetOptions& options = {});

  /// A new generation = this one + `segments` (applied in order, shard by
  /// shard), linked with this generation's pipeline options.  The receiver
  /// is untouched and keeps serving.  Only the surfaces the delta touched
  /// are re-derived into the new gazetteer's overlay.
  Result<std::shared_ptr<const KbGeneration>> WithDeltas(
      std::span<const kb::DeltaSegment> segments, uint64_t id) const;

  /// Persists this generation, folding applied deltas back into a base
  /// snapshot: a 1-shard layout as a fresh TENETKB3 + TENETEMB1 pair, an
  /// N-shard one as a TENETKBSHARDS1 manifest at `kb_path` with its shard
  /// files beside it (`embeddings_path` is then unused).  Every write is
  /// atomic; a crash between two leaves loadable (if mismatched-by-one)
  /// files, never a torn one.
  Status Compact(const std::string& kb_path,
                 const std::string& embeddings_path) const;

  KbGeneration(const KbGeneration&) = delete;
  KbGeneration& operator=(const KbGeneration&) = delete;

  uint64_t id() const { return id_; }
  /// The substrate behind the generation's linker.  kb() and embeddings()
  /// name the same layout (it serves records and vectors alike).
  const kb::KbView& view() const { return *kb_; }
  const kb::ShardedKb& kb() const { return *kb_; }
  const kb::ShardedKb& embeddings() const { return *kb_; }
  const text::Gazetteer& gazetteer() const { return *gazetteer_; }
  const baselines::TenetLinker& linker() const { return *linker_; }
  /// Cumulative apply stats across every delta folded into this generation
  /// (all zero for a pure snapshot).
  const kb::DeltaApplyStats& delta_stats() const { return delta_stats_; }

 private:
  KbGeneration(std::shared_ptr<const kb::ShardedKb> kb,
               std::shared_ptr<const text::Gazetteer> gazetteer, uint64_t id,
               kb::DeltaApplyStats delta_stats,
               const core::TenetOptions& options);

  const uint64_t id_;
  const std::shared_ptr<const kb::ShardedKb> kb_;
  const std::shared_ptr<const text::Gazetteer> gazetteer_;
  const kb::DeltaApplyStats delta_stats_;
  std::unique_ptr<baselines::TenetLinker> linker_;
};

}  // namespace serving
}  // namespace tenet

#endif  // TENET_SERVING_KB_GENERATION_H_
