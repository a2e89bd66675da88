#include "datasets/corpus_generator.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "text/wordlists.h"

namespace tenet {
namespace datasets {
namespace {

// Invented name fragments for non-linkable fresh phrases; disjoint from
// every wordlists pool so they never collide with KB surfaces.
constexpr std::string_view kFreshHeads[] = {
    "Zorvex",  "Quellin", "Marwick", "Tyberon", "Velgra",  "Ostrand",
    "Drelvik", "Yalmora", "Kresno",  "Bruntal", "Fexley",  "Glimmour",
};
constexpr std::string_view kFreshTails[] = {
    "Collective", "Syndicate", "Holdings", "Atelier", "Works",
    "Trust",      "Exchange",  "Depot",    "Forge",   "Guild",
};

// Lowercase filler clauses appended to pad documents toward the word
// target.  None of these words is a table verb, a connector that could
// bridge two mentions, or a topic-gazetteer word.
constexpr std::string_view kFillers[] = {
    "despite earlier doubts",
    "to widespread surprise",
    "after months of quiet preparation",
    "without much public notice",
    "amid growing enthusiasm",
    "following a long pause",
    "against all expectations",
    "as the season drew to a close",
    "while crowds gathered outside",
    "though few details emerged",
    "shortly before the deadline",
    "in a move long anticipated",
};

std::string_view PickView(std::span<const std::string_view> pool, Rng& rng) {
  return pool[rng.NextUint64(pool.size())];
}

// Inflects the first word of a lemma phrase; particles stay verbatim.
std::string InflectRelationalPhrase(const std::string& lemma_phrase,
                                    Rng& rng) {
  std::vector<std::string> words = SplitString(lemma_phrase, ' ');
  TENET_CHECK(!words.empty());
  const text::VerbForms* forms = text::FindVerbByLemma(words[0]);
  TENET_CHECK(forms != nullptr) << "unknown verb lemma " << words[0];
  words[0] = std::string(rng.NextBool(0.75) ? forms->past : forms->third);
  return JoinStrings(words, " ");
}

int CountWords(const std::string& sentence) {
  int words = 0;
  bool in_word = false;
  for (char c : sentence) {
    bool is_word = IsAsciiAlnumChar(c);
    if (is_word && !in_word) ++words;
    in_word = is_word;
  }
  return words;
}

int JitteredCount(double mean, double rel_jitter, Rng& rng) {
  double v = mean * (1.0 + rng.NextDouble(-rel_jitter, rel_jitter));
  return std::max(0, static_cast<int>(std::lround(v)));
}

}  // namespace

CorpusGenerator::CorpusGenerator(const kb::SyntheticKb* world)
    : world_(world) {
  TENET_CHECK(world != nullptr);
  TENET_CHECK(world->kb.finalized());
}

Dataset CorpusGenerator::Generate(const DatasetSpec& spec, Rng& rng) const {
  Dataset dataset;
  dataset.name = spec.name;
  dataset.has_relation_gold = spec.relations_per_doc > 0.0;
  int num_ads =
      static_cast<int>(std::lround(spec.advertisement_fraction *
                                   spec.num_docs));
  for (int i = 0; i < spec.num_docs; ++i) {
    bool advertisement = i < num_ads;
    dataset.documents.push_back(GenerateDocument(
        spec, spec.name + "-" + std::to_string(i), advertisement, rng));
  }
  return dataset;
}

Document CorpusGenerator::GenerateDocument(const DatasetSpec& spec,
                                           std::string doc_id,
                                           bool advertisement,
                                           Rng& rng) const {
  const kb::KnowledgeBase& kb = world_->kb;
  Document doc;
  doc.id = std::move(doc_id);
  doc.advertisement = advertisement;

  // ---- Plan the mention inventory ----------------------------------------
  const int n_nouns = std::max(2, JitteredCount(spec.mentions_per_doc,
                                                0.2, rng));
  double nonlink_rate = spec.nonlinkable_noun_rate;
  if (advertisement) nonlink_rate = std::min(0.65, nonlink_rate * 1.9);
  int n_fresh = 0;
  for (int i = 0; i < n_nouns; ++i) {
    if (rng.NextBool(nonlink_rate)) ++n_fresh;
  }
  int n_link = std::max(1, n_nouns - n_fresh);

  const int num_domains =
      static_cast<int>(world_->entities_by_domain.size());
  const int32_t primary = static_cast<int32_t>(rng.NextUint64(num_domains));

  int n_isolated =
      std::min(n_link / 2, JitteredCount(spec.isolated_entities_per_doc,
                                         0.5, rng));
  int n_composites = std::min(
      n_link, JitteredCount(spec.composites_per_doc, 0.6, rng));
  if (world_->composites_by_domain[primary].empty()) n_composites = 0;

  std::unordered_set<kb::EntityId> chosen_set;
  std::vector<kb::EntityId> chosen;
  auto choose_from = [&](const std::vector<kb::EntityId>& pool) -> bool {
    for (int attempt = 0; attempt < 32; ++attempt) {
      kb::EntityId id = rng.Pick(pool);
      if (chosen_set.insert(id).second) {
        chosen.push_back(id);
        return true;
      }
    }
    return false;
  };
  // Conjunction pairs: two independent entities rendered "A and B" (gold:
  // separate mentions).  Members come from the plain entities of the
  // primary domain with capitalized, connector-free labels.
  std::vector<std::pair<kb::EntityId, kb::EntityId>> conjunction_pairs;
  {
    std::unordered_set<kb::EntityId> composite_set(
        world_->composites_by_domain[primary].begin(),
        world_->composites_by_domain[primary].end());
    auto pairable = [&](kb::EntityId id) {
      if (composite_set.count(id) > 0) return false;
      const std::string& label = kb.entity(id).label;
      return IsCapitalized(label) &&
             label.find(" and ") == std::string::npos;
    };
    int n_pairs = JitteredCount(spec.conjunction_pairs_per_doc, 0.6, rng);
    for (int i = 0; i < n_pairs; ++i) {
      kb::EntityId a = kb::kInvalidEntity;
      kb::EntityId b = kb::kInvalidEntity;
      for (int attempt = 0; attempt < 32; ++attempt) {
        kb::EntityId pick = rng.Pick(world_->entities_by_domain[primary]);
        if (!pairable(pick)) continue;
        if (a == kb::kInvalidEntity) {
          a = pick;
        } else if (pick != a) {
          b = pick;
          break;
        }
      }
      if (a != kb::kInvalidEntity && b != kb::kInvalidEntity) {
        conjunction_pairs.emplace_back(a, b);
        chosen_set.insert(a);
        chosen_set.insert(b);
      }
    }
  }

  for (int i = 0; i < n_composites; ++i) {
    choose_from(world_->composites_by_domain[primary]);
  }
  // The coherent core is a fact-connected cluster: grow it by walking the
  // KB fact graph from a random seed (documents discuss related entities,
  // not arbitrary same-domain ones).
  {
    // Pair members already count toward the mention budget.
    const int walk_target = std::max(
        1, n_link - n_isolated -
               2 * static_cast<int>(conjunction_pairs.size()));
    kb::EntityId seed = rng.Pick(world_->entities_by_domain[primary]);
    chosen_set.insert(seed);
    chosen.push_back(seed);
    std::vector<kb::EntityId> frontier{seed};
    int guard = 0;
    while (static_cast<int>(chosen.size()) < walk_target &&
           !frontier.empty() && ++guard < 256) {
      kb::EntityId at = frontier[rng.NextUint64(frontier.size())];
      std::vector<kb::EntityId> neighbors = kb.NeighborEntities(at);
      bool grew = false;
      for (int attempt = 0;
           attempt < 8 && !neighbors.empty() && !grew; ++attempt) {
        kb::EntityId next = rng.Pick(neighbors);
        if (chosen_set.insert(next).second) {
          chosen.push_back(next);
          frontier.push_back(next);
          grew = true;
        }
      }
      if (!grew && frontier.size() > 1) {
        frontier.erase(frontier.begin() +
                       static_cast<long>(rng.NextUint64(frontier.size())));
      } else if (!grew) {
        break;
      }
    }
  }
  {
    const int walk_target = std::max(
        1, n_link - n_isolated -
               2 * static_cast<int>(conjunction_pairs.size()));
    while (static_cast<int>(chosen.size()) < walk_target) {
      if (!choose_from(world_->entities_by_domain[primary])) break;
    }
  }
  for (int i = 0; i < n_isolated && num_domains > 1; ++i) {
    int32_t other = primary;
    while (other == primary) {
      other = static_cast<int32_t>(rng.NextUint64(num_domains));
    }
    choose_from(world_->entities_by_domain[other]);
  }

  // Fresh (non-linkable) names.
  std::vector<std::string> fresh_names;
  std::unordered_set<std::string> used_fresh;
  for (int i = 0; i < n_fresh; ++i) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      std::string name = std::string(PickView(kFreshHeads, rng)) + " " +
                         std::string(PickView(kFreshTails, rng));
      if (world_->gazetteer.Contains(name)) continue;
      if (!used_fresh.insert(name).second) continue;
      fresh_names.push_back(std::move(name));
      break;
    }
  }

  // ---- Per-document consistency maps --------------------------------------
  std::unordered_map<std::string, kb::EntityId> surface_to_entity;
  std::unordered_map<std::string, kb::PredicateId> lemma_to_predicate;
  std::unordered_set<std::string> gold_recorded_surfaces;
  std::unordered_set<std::string> gold_recorded_lemmas;

  // Renders `id` as a document surface, honoring the ambiguity rate and
  // per-document surface consistency.  Returns empty when impossible.
  auto render_entity = [&](kb::EntityId id) -> std::string {
    const std::vector<std::string>& surfaces = world_->entity_surfaces[id];
    std::string surface;
    if (rng.NextBool(spec.ambiguous_surface_rate)) {
      // Prefer a surface shared by several KB entities.
      std::vector<const std::string*> ambiguous;
      for (const std::string& s : surfaces) {
        if (kb.alias_index().LookupEntities(s).size() >= 2) {
          ambiguous.push_back(&s);
        }
      }
      if (!ambiguous.empty()) {
        surface = *ambiguous[rng.NextUint64(ambiguous.size())];
      }
    }
    if (surface.empty()) surface = kb.entity(id).label;
    std::string key = AsciiToLower(surface);
    auto it = surface_to_entity.find(key);
    if (it != surface_to_entity.end() && it->second != id) {
      // Conflicting sense in this document: fall back to the label.
      surface = kb.entity(id).label;
      key = AsciiToLower(surface);
      it = surface_to_entity.find(key);
      if (it != surface_to_entity.end() && it->second != id) return "";
    }
    surface_to_entity.emplace(key, id);
    return surface;
  };

  auto record_entity_gold = [&](const std::string& surface,
                                kb::EntityId entity, int sentence) {
    std::string key = AsciiToLower(surface);
    if (!gold_recorded_surfaces.insert(key).second) return;
    GoldEntityLink gold;
    gold.surface = surface;
    gold.sentence = sentence;
    gold.entity = entity;
    doc.gold_entities.push_back(std::move(gold));
  };

  const bool relations_enabled = spec.relations_per_doc > 0.0;
  const int n_rels = relations_enabled
                         ? std::max(1, JitteredCount(spec.relations_per_doc,
                                                     0.25, rng))
                         : 0;
  int rels_recorded = 0;

  auto record_predicate_gold = [&](const std::string& lemma,
                                   kb::PredicateId predicate, int sentence) {
    if (!relations_enabled) return;
    if (!gold_recorded_lemmas.insert(lemma).second) return;
    GoldPredicateLink gold;
    gold.lemma = lemma;
    gold.sentence = sentence;
    gold.predicate = predicate;
    doc.gold_predicates.push_back(std::move(gold));
    ++rels_recorded;
  };

  // Picks a verb for a sentence; returns (lemma phrase, rendered form,
  // predicate or kInvalidPredicate).
  struct VerbChoice {
    std::string lemma;
    std::string rendered;
    kb::PredicateId predicate = kb::kInvalidPredicate;
  };
  auto choose_nonkb_verb = [&]() -> VerbChoice {
    VerbChoice choice;
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::string lemma = std::string(rng.Pick(text::NonKbVerbLemmas()));
      auto it = lemma_to_predicate.find(lemma);
      if (it != lemma_to_predicate.end() &&
          it->second != kb::kInvalidPredicate) {
        continue;
      }
      lemma_to_predicate[lemma] = kb::kInvalidPredicate;
      choice.lemma = lemma;
      choice.rendered = InflectRelationalPhrase(lemma, rng);
      return choice;
    }
    choice.lemma = "explore";
    choice.rendered = InflectRelationalPhrase(choice.lemma, rng);
    return choice;
  };
  auto choose_kb_verb = [&](kb::PredicateId preferred) -> VerbChoice {
    VerbChoice choice;
    for (int attempt = 0; attempt < 16; ++attempt) {
      kb::PredicateId pid = preferred;
      if (pid == kb::kInvalidPredicate || attempt > 0) {
        const std::vector<kb::PredicateId>& home =
            world_->predicates_by_domain[primary];
        pid = !home.empty() && rng.NextBool(0.7)
                  ? rng.Pick(home)
                  : static_cast<kb::PredicateId>(
                        rng.NextUint64(kb.num_predicates()));
      }
      const std::vector<std::string>& surfaces =
          world_->predicate_surfaces[pid];
      const std::string& lemma = surfaces[rng.NextUint64(surfaces.size())];
      auto it = lemma_to_predicate.find(lemma);
      if (it != lemma_to_predicate.end() && it->second != pid) continue;
      lemma_to_predicate[lemma] = pid;
      choice.lemma = lemma;
      choice.rendered = InflectRelationalPhrase(lemma, rng);
      choice.predicate = pid;
      return choice;
    }
    return choose_nonkb_verb();
  };

  // ---- Sentence loop -------------------------------------------------------
  // Every chosen entity / fresh name is introduced at least once; extra
  // sentences (re-using introduced items) pad toward the word target.
  struct Item {
    bool fresh = false;
    kb::EntityId entity = kb::kInvalidEntity;
    int fresh_index = -1;
  };
  std::deque<Item> pending;
  for (kb::EntityId id : chosen) pending.push_back(Item{false, id, -1});
  for (size_t i = 0; i < fresh_names.size(); ++i) {
    pending.push_back(Item{true, kb::kInvalidEntity, static_cast<int>(i)});
  }
  {
    std::vector<Item> shuffled(pending.begin(), pending.end());
    rng.Shuffle(shuffled);
    pending.assign(shuffled.begin(), shuffled.end());
  }

  std::vector<std::string> sentences;
  int word_count = 0;
  int sentence_index = 0;
  std::vector<kb::EntityId> introduced;
  kb::EntityId last_person_subject = kb::kInvalidEntity;
  // Hard cap against degenerate loops, scaled to the word target.
  const int max_sentences = std::max(80, spec.words_per_doc / 4);

  auto surface_is_subjectable = [](const std::string& s) {
    return !s.empty() && IsCapitalized(s);
  };

  while ((!pending.empty() || !conjunction_pairs.empty() ||
          word_count < spec.words_per_doc) &&
         sentence_index < max_sentences) {
    // -- conjunction-pair sentence: "A and B <verb> <obj>." --
    if (!conjunction_pairs.empty() && rng.NextBool(0.6)) {
      auto [a, b] = conjunction_pairs.back();
      conjunction_pairs.pop_back();
      const std::string& sa = kb.entity(a).label;
      const std::string& sb = kb.entity(b).label;
      std::string ka = AsciiToLower(sa);
      std::string kb_key = AsciiToLower(sb);
      auto ia = surface_to_entity.find(ka);
      auto ib = surface_to_entity.find(kb_key);
      if ((ia != surface_to_entity.end() && ia->second != a) ||
          (ib != surface_to_entity.end() && ib->second != b)) {
        continue;  // label already bound to a different sense: skip pair
      }
      surface_to_entity.emplace(ka, a);
      surface_to_entity.emplace(kb_key, b);

      std::string obj_surface;
      kb::EntityId obj_entity = kb::kInvalidEntity;
      bool obj_fresh = false;
      if (!pending.empty() && !pending.front().fresh) {
        obj_entity = pending.front().entity;
        pending.pop_front();
        obj_surface = render_entity(obj_entity);
        if (obj_surface.empty()) obj_surface = kb.entity(obj_entity).label;
      } else if (!introduced.empty()) {
        obj_entity = rng.Pick(introduced);
        obj_surface = kb.entity(obj_entity).label;
      } else {
        obj_surface = "Quellin Depot";
        obj_fresh = true;
      }
      VerbChoice verb = relations_enabled && rels_recorded < n_rels &&
                                !rng.NextBool(spec.nonlinkable_rel_rate)
                            ? choose_kb_verb(kb::kInvalidPredicate)
                            : choose_nonkb_verb();
      std::string sentence =
          sa + " and " + sb + " " + verb.rendered + " " + obj_surface + ".";
      word_count += CountWords(sentence);
      sentences.push_back(std::move(sentence));
      record_entity_gold(sa, a, sentence_index);
      record_entity_gold(sb, b, sentence_index);
      if (obj_fresh) {
        record_entity_gold(obj_surface, kb::kInvalidEntity, sentence_index);
      } else if (obj_entity != kb::kInvalidEntity) {
        record_entity_gold(obj_surface, obj_entity, sentence_index);
      }
      if (relations_enabled && rels_recorded < n_rels) {
        record_predicate_gold(verb.lemma, verb.predicate, sentence_index);
      }
      introduced.push_back(a);
      introduced.push_back(b);
      if (obj_entity != kb::kInvalidEntity) introduced.push_back(obj_entity);
      ++sentence_index;
      continue;
    }

    // -- choose subject --
    std::string subj_surface;
    kb::EntityId subj_entity = kb::kInvalidEntity;
    bool subj_fresh = false;
    bool subj_pronoun = false;

    if (pending.empty() && last_person_subject != kb::kInvalidEntity &&
        rng.NextBool(0.3)) {
      subj_surface = rng.NextBool(0.5) ? "He" : "She";
      subj_entity = last_person_subject;
      subj_pronoun = true;
    } else {
      // Scan pending for a subjectable item; topics and lowercase
      // composites go to object position instead.
      int found = -1;
      for (size_t i = 0; i < pending.size(); ++i) {
        const Item& item = pending[i];
        if (item.fresh) {
          found = static_cast<int>(i);
          break;
        }
        if (surface_is_subjectable(kb.entity(item.entity).label)) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found >= 0) {
        Item item = pending[found];
        pending.erase(pending.begin() + found);
        if (item.fresh) {
          subj_surface = fresh_names[item.fresh_index];
          subj_fresh = true;
        } else {
          subj_surface = render_entity(item.entity);
          subj_entity = item.entity;
          if (subj_surface.empty() ||
              !surface_is_subjectable(subj_surface)) {
            // Could not render consistently; use the label directly.
            subj_surface = kb.entity(item.entity).label;
          }
        }
      } else if (!introduced.empty()) {
        // Padding sentence over an already-introduced entity.
        subj_entity = rng.Pick(introduced);
        if (!surface_is_subjectable(kb.entity(subj_entity).label)) {
          subj_entity = kb::kInvalidEntity;
        }
        if (subj_entity != kb::kInvalidEntity) {
          subj_surface = kb.entity(subj_entity).label;
        }
      }
      if (subj_surface.empty() || !surface_is_subjectable(subj_surface)) {
        // No subjectable item this round: synthesize a pronoun-free filler
        // subject from an introduced person, else skip the round.
        if (last_person_subject != kb::kInvalidEntity) {
          subj_surface = kb.entity(last_person_subject).label;
          subj_entity = last_person_subject;
        } else if (!pending.empty()) {
          // Only lowercase items remain; attach one as object to a fresh
          // carrier subject.
          subj_surface = "They";
          subj_pronoun = true;
        } else {
          break;
        }
      }
    }

    // -- choose object --
    // Documents state facts: prefer a pending item that shares a KB fact
    // with the subject, so rendered co-occurrences reflect genuine KB
    // relatedness.
    std::string obj_surface;
    kb::EntityId obj_entity = kb::kInvalidEntity;
    bool obj_fresh = false;
    if (!pending.empty()) {
      size_t pick = 0;
      if (subj_entity != kb::kInvalidEntity) {
        for (size_t i = 0; i < pending.size(); ++i) {
          if (pending[i].fresh) continue;
          kb::EntityId candidate = pending[i].entity;
          bool connected = false;
          for (int32_t fact_index : kb.FactsOfEntity(subj_entity)) {
            const kb::Triple& t = kb.facts()[fact_index];
            if (t.object_is_entity &&
                ((t.subject == subj_entity &&
                  t.object_entity == candidate) ||
                 (t.subject == candidate &&
                  t.object_entity == subj_entity))) {
              connected = true;
              break;
            }
          }
          if (connected) {
            pick = i;
            break;
          }
        }
      }
      Item item = pending[pick];
      pending.erase(pending.begin() + static_cast<long>(pick));
      if (item.fresh) {
        obj_surface = fresh_names[item.fresh_index];
        obj_fresh = true;
      } else {
        obj_surface = render_entity(item.entity);
        obj_entity = item.entity;
        if (obj_surface.empty()) obj_surface = kb.entity(item.entity).label;
      }
    } else if (!introduced.empty()) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        obj_entity = rng.Pick(introduced);
        if (obj_entity != subj_entity) break;
      }
      if (obj_entity == subj_entity) obj_entity = kb::kInvalidEntity;
      if (obj_entity != kb::kInvalidEntity) {
        obj_surface = kb.entity(obj_entity).label;
      } else {
        obj_surface = "Quellin Depot";
        obj_fresh = true;
      }
    } else {
      obj_surface = "Quellin Depot";
      obj_fresh = true;
    }

    // -- choose verb --
    VerbChoice verb;
    bool want_linkable_rel =
        relations_enabled && rels_recorded < n_rels &&
        !rng.NextBool(spec.nonlinkable_rel_rate);
    if (want_linkable_rel && subj_entity != kb::kInvalidEntity &&
        obj_entity != kb::kInvalidEntity) {
      // Prefer a real KB fact between subject and object.
      kb::PredicateId preferred = kb::kInvalidPredicate;
      for (int32_t fact_index : kb.FactsOfEntity(subj_entity)) {
        const kb::Triple& t = kb.facts()[fact_index];
        if (t.object_is_entity &&
            ((t.subject == subj_entity && t.object_entity == obj_entity) ||
             (t.subject == obj_entity && t.object_entity == subj_entity))) {
          preferred = t.predicate;
          break;
        }
      }
      verb = choose_kb_verb(preferred);
    } else if (relations_enabled && rels_recorded < n_rels) {
      verb = choose_nonkb_verb();
    } else {
      verb = choose_nonkb_verb();
    }

    // -- render --
    std::string sentence = subj_surface + " " + verb.rendered + " " +
                           obj_surface;
    if (word_count + CountWords(sentence) < spec.words_per_doc &&
        rng.NextBool(0.45)) {
      sentence += " " + std::string(PickView(kFillers, rng));
    }
    sentence += ".";
    word_count += CountWords(sentence);
    sentences.push_back(std::move(sentence));

    // -- gold --
    if (!subj_pronoun) {
      if (subj_fresh) {
        record_entity_gold(subj_surface, kb::kInvalidEntity, sentence_index);
      } else if (subj_entity != kb::kInvalidEntity) {
        record_entity_gold(subj_surface, subj_entity, sentence_index);
      }
    }
    if (obj_fresh) {
      record_entity_gold(obj_surface, kb::kInvalidEntity, sentence_index);
    } else if (obj_entity != kb::kInvalidEntity) {
      record_entity_gold(obj_surface, obj_entity, sentence_index);
    }
    if (relations_enabled && rels_recorded < n_rels) {
      record_predicate_gold(verb.lemma, verb.predicate, sentence_index);
    }

    if (subj_entity != kb::kInvalidEntity && !subj_pronoun) {
      introduced.push_back(subj_entity);
      if (kb.entity(subj_entity).type == kb::EntityType::kPerson) {
        last_person_subject = subj_entity;
      }
    }
    if (obj_entity != kb::kInvalidEntity) introduced.push_back(obj_entity);
    ++sentence_index;
  }

  doc.text = JoinStrings(sentences, " ");
  doc.num_words = word_count;
  return doc;
}

}  // namespace datasets
}  // namespace tenet
