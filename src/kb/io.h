#ifndef TENET_KB_IO_H_
#define TENET_KB_IO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "text/gazetteer.h"

namespace tenet {
namespace kb {

// Serialization of the knowledge base and the embedding store — the
// counterpart of the paper's offline preprocessing (indexing the Wikidata
// JSON dump, storing PBG vectors in a memory-mapped array): build the
// substrates once, persist them, and reload in O(size of file).
//
// One KB format (DESIGN.md §11): "TENETKB3", a binary snapshot of
// length-prefixed sections (string table, entities, predicates, facts, the
// frozen alias dictionary) behind a checksummed header, loaded zero-copy
// through common/mmap_file (with a buffered fallback) without
// re-tokenizing a single float.  There is one loader, ShardedKb::Load: a
// flat snapshot loads as shard 0 of a 1-shard layout, and a shard of an
// N-shard layout is the same container plus a shard_info section
// (ShardedKb::Save/Load).  The magic
// carries the format version, bumped on every layout change; files of an
// older version are rejected with a message naming the version and
// `tenet_cli kb build`, never loaded silently.
// Embeddings persist as the "TENETEMB1" binary container; the loader maps
// it and bulk-loads the matrix straight into the store's unit-normalized
// form (EmbeddingStore::LoadMatrix — one copy, no per-row reads).
//
// Round-trip contract: alias priors are persisted as the *finalized*
// probabilities and adopted bit-exactly (the dictionary is never
// renormalized on load) — a save→load cycle reproduces candidate
// distributions to the last bit, so near-tie disambiguation never flips
// across a restart.  All loaders validate declared counts and section
// lengths against the actual bytes before anything is returned; malformed
// or truncated input yields InvalidArgument (DataLoss for non-finite
// embedding payloads), never a crash, never a partially populated store.

/// Knobs of the load path.
struct KbLoadOptions {
  /// Map snapshots zero-copy when the platform allows it; false forces the
  /// buffered (streamed-read) path.
  bool prefer_mmap = true;
};

/// Writes `kb` (which must be finalized) to `path` as a TENETKB3
/// snapshot.  Alias priors are persisted as the finalized probabilities,
/// so a reloaded KB reproduces the exact candidate distributions.
Status SaveKnowledgeBase(const KnowledgeBase& kb, const std::string& path);

/// Writes the embedding store (finalized) to `path` (binary "TENETEMB1").
Status SaveEmbeddings(const embedding::EmbeddingStore& store,
                      const std::string& path);

/// Reads embeddings written by SaveEmbeddings and finalizes the store.
Result<embedding::EmbeddingStore> LoadEmbeddings(
    const std::string& path, const KbLoadOptions& options = {});

// Snapshot introspection for `tenet_cli kb inspect` and tests: format,
// logical counts, and (for snapshots) the section table.
struct KbSectionInfo {
  std::string name;
  uint64_t bytes = 0;
  uint64_t items = 0;
};

struct KbFileInfo {
  std::string format;  // "TENETKB3" or "TENETKBSHARDS1"
  uint64_t file_bytes = 0;
  int64_t entities = 0;
  int64_t predicates = 0;
  int64_t aliases = 0;
  int64_t facts = 0;
  std::vector<KbSectionInfo> sections;  // snapshots only
  /// Sharded-layout metadata: >0 when the file is one shard of a sharded
  /// KB (a TENETKB3 snapshot carrying a shard_info section) or a
  /// "TENETKBSHARDS1" manifest.  0 for ordinary flat snapshots.
  int32_t num_shards = 0;
  /// Which shard this snapshot is (-1 for manifests and flat snapshots).
  int32_t shard_index = -1;
  /// Per-shard stats, populated when inspecting a manifest.
  std::vector<KbFileInfo> shards;
  /// Frozen alias dictionary stats (TENETKB3 alias_dict section, DESIGN.md
  /// §15); false/zero for manifests, whose shards carry the stats.
  bool has_alias_dict = false;
  uint64_t dict_surfaces = 0;
  uint64_t dict_key_bytes = 0;      // front-coded key blob
  uint64_t dict_raw_key_bytes = 0;  // uncompressed folded key bytes
};

/// Reads only the metadata of a KB file (a TENETKB3 snapshot, or a
/// "TENETKBSHARDS1" manifest, for which per-shard stats are gathered).
/// Validates the same header/section invariants as the loader without
/// materializing the KB.
Result<KbFileInfo> InspectKnowledgeBaseFile(const std::string& path);

struct EmbFileInfo {
  uint64_t file_bytes = 0;
  int32_t dimension = 0;
  int32_t entities = 0;
  int32_t predicates = 0;
};

/// Reads only the header of a TENETEMB1 file and validates its size.
Result<EmbFileInfo> InspectEmbeddingsFile(const std::string& path);

class KbView;
class ShardedKb;

/// Derives an NER gazetteer from a KB: every alias surface is registered
/// under the type of its most probable entity sense (ties broken toward the
/// smaller entity id, so the result is independent of posting visitation
/// order and of the shard count); surfaces that start lowercase are marked
/// spottable in lowercase text.  This is how a loaded KB becomes usable by
/// the extraction pipeline without persisting the gazetteer separately.
text::Gazetteer DeriveGazetteer(const KbView& view);

/// The gazetteer of `kb` when `parent` is that of the KB `kb` was derived
/// from by a delta that touched only `touched_surfaces` (folded; what
/// AppliedDelta reports): a layered gazetteer over `parent` in which
/// exactly those surfaces are re-derived under DeriveGazetteer's rules.  A
/// surface left with no entity posting is removed.  O(touched surfaces +
/// overlay of `parent`).
text::Gazetteer DeriveGazetteer(
    const std::shared_ptr<const text::Gazetteer>& parent, const ShardedKb& kb,
    std::span<const std::string> touched_surfaces);

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_IO_H_
