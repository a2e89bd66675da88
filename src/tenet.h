// Umbrella header of the TENET library: joint entity and relation linking
// with coherence relaxation (Lin, Chen, Zhang — SIGMOD 2021).
//
// A typical embedding of the library:
//
//   #include "tenet.h"
//
//   // 1. Substrates: a knowledge base, concept embeddings, the 1-shard
//   //    KbView the linker reads (built once, shared by pointer), a
//   //    gazetteer.
//   tenet::kb::KnowledgeBase kb = ...;
//   tenet::embedding::EmbeddingStore vectors =
//       tenet::embedding::StructuralEmbeddingTrainer().Train(kb, rng);
//   auto view = std::make_shared<const tenet::kb::ShardedKb>(
//       tenet::kb::ShardedKb::Partition(kb, vectors, 1));
//   tenet::text::Gazetteer gazetteer = tenet::kb::DeriveGazetteer(*view);
//
//   // 2. Link documents.
//   tenet::core::TenetPipeline pipeline(view, &gazetteer);
//   auto result = pipeline.LinkDocument(text);
//
//   // Serving loads a snapshot (or sharded layout) as a KbGeneration
//   // instead: serving::KbGeneration::Load(kb_path, emb_path, {}, id).
//
//   // 3. Optional: harvest KB-population candidates.
//   tenet::core::KbPopulator populator(&kb);
//
// Layering (each header is also individually includable):
//   common/     -> error model (Status/Result), Rng, logging, timers
//   obs/        -> metrics registry + per-request stage tracing (std-only;
//                  everything above may publish into it)
//   graph/      -> MST, matching, shortest paths, rooted trees
//   kb/         -> triple store + alias index + persistence + synthesis
//   embedding/  -> vector store + structural trainer
//   text/       -> tokenizer, lemmatizer, extractor, gazetteer
//   core/       -> the paper's algorithms and the end-to-end pipeline
//                  (LinkContext carries per-request deadline + trace)
//   baselines/  -> the comparison systems of the evaluation
//   datasets/   -> synthetic corpora with gold annotations
//   eval/       -> scoring and the experiment harness
#ifndef TENET_TENET_H_
#define TENET_TENET_H_

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/disambiguator.h"
#include "core/link_context.h"
#include "core/mention.h"
#include "core/pipeline.h"
#include "core/population.h"
#include "core/tree_cover.h"
#include "core/tree_split.h"
#include "embedding/embedding_store.h"
#include "embedding/trainer.h"
#include "kb/io.h"
#include "kb/knowledge_base.h"
#include "kb/sharded_kb.h"
#include "kb/synthetic_kb.h"
#include "kb/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/extraction.h"
#include "text/gazetteer.h"

#endif  // TENET_TENET_H_
