#include "datasets/world.h"

#include "common/rng.h"

namespace tenet {
namespace datasets {

SyntheticWorld BuildWorld(const WorldOptions& options) {
  Rng rng(options.seed);
  Rng kb_rng = rng.Fork(1);
  Rng embedding_rng = rng.Fork(2);
  kb::SyntheticKb kb_world =
      kb::SyntheticKbGenerator(options.kb).Generate(kb_rng);
  embedding::EmbeddingStore embeddings =
      embedding::StructuralEmbeddingTrainer(options.embeddings)
          .Train(kb_world.kb, embedding_rng);
  auto view = std::make_shared<const kb::ShardedKb>(
      kb::ShardedKb::Partition(kb_world.kb, embeddings, 1));
  return SyntheticWorld{std::move(kb_world), std::move(embeddings),
                        std::move(view)};
}

}  // namespace datasets
}  // namespace tenet
