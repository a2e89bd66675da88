#ifndef TENET_TEXT_GAZETTEER_H_
#define TENET_TEXT_GAZETTEER_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"
#include "kb/types.h"

namespace tenet {
namespace text {

// Surface-form dictionary used for NER-style typing and for recognizing
// lowercase mentions (topics such as "machine learning" that carry no
// capitalization signal).  This is the TAGME-dictionary stand-in: in the
// paper the spotter's dictionary is likewise derived from the KB's
// labels/aliases.
//
// Lookups are case-insensitive.  A surface registered multiple times with
// different types keeps the first type (dominant sense).
class Gazetteer {
 public:
  Gazetteer() = default;

  /// Registers a surface form with its entity type.  `lowercase_mention`
  /// marks surfaces that should be spotted even without capitalization.
  void AddSurface(std::string_view surface, kb::EntityType type,
                  bool lowercase_mention = false);

  /// NER type of `surface`, or nullopt when unknown.
  std::optional<kb::EntityType> LookupType(std::string_view surface) const;

  bool Contains(std::string_view surface) const;

  /// True when `surface` may be spotted in lowercase text.
  bool IsLowercaseMention(std::string_view surface) const;

  /// NER type of `surface` when it may be spotted in lowercase text;
  /// nullopt when unknown or capitalized-only.
  std::optional<kb::EntityType> LowercaseMentionType(
      std::string_view surface) const;

  /// Most tokens of a lowercase-mention surface starting with `first_token`
  /// (0 when none does): the extractor's one-probe window reject and bound.
  int LowercaseMentionTokens(std::string_view first_token) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    kb::EntityType type;
    bool lowercase_mention;
  };
  // Keys are stored folded; a lookup folds its probe on the fly.
  template <typename V>
  using FoldedMap =
      std::unordered_map<std::string, V, AsciiFoldHasher, AsciiFoldEqual>;
  FoldedMap<Entry> entries_;
  FoldedMap<int> lowercase_heads_;  // first token -> most tokens
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_GAZETTEER_H_
