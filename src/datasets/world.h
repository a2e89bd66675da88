#ifndef TENET_DATASETS_WORLD_H_
#define TENET_DATASETS_WORLD_H_

#include <cstdint>
#include <memory>

#include "embedding/embedding_store.h"
#include "embedding/trainer.h"
#include "kb/sharded_kb.h"
#include "kb/synthetic_kb.h"

namespace tenet {
namespace datasets {

// Configuration of the full synthetic world (KB + embeddings).
struct WorldOptions {
  kb::SyntheticKbOptions kb;
  embedding::TrainerOptions embeddings;
  uint64_t seed = 2021;
};

// The complete substrate every experiment runs against: KB, gazetteer,
// embeddings — the stand-ins for Wikidata, the Solr index and the
// PyTorch-BigGraph vectors of Sec. 6.1.  `kb_world` and `embeddings` are
// what the world was built from and what SaveKnowledgeBase/Partition
// persist; every linker reads `view`, their 1-shard layout, built once and
// shared by pointer.
struct SyntheticWorld {
  kb::SyntheticKb kb_world;
  embedding::EmbeddingStore embeddings;
  std::shared_ptr<const kb::ShardedKb> view;

  const kb::KnowledgeBase& kb() const { return kb_world.kb; }
  const text::Gazetteer& gazetteer() const { return kb_world.gazetteer; }
};

/// Builds a deterministic world from `options.seed`.
SyntheticWorld BuildWorld(const WorldOptions& options = {});

}  // namespace datasets
}  // namespace tenet

#endif  // TENET_DATASETS_WORLD_H_
