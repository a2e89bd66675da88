#ifndef TENET_TEXT_GAZETTEER_H_
#define TENET_TEXT_GAZETTEER_H_

#include <memory>
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
//
// A layered gazetteer (Extend) is how a live KB update re-derives only the
// surfaces it touched (DESIGN.md §12): it shares a frozen base gazetteer
// by pointer and keeps an overlay of set and removed surfaces that wins
// over the base.  Extending a layered gazetteer layers over the same base
// and copies the overlay, so the base is never itself layered.
class Gazetteer {
 public:
  Gazetteer() = default;

  /// A layered gazetteer answering exactly like `parent` until SetSurface
  /// changes it.  O(overlay of `parent`).
  static Gazetteer Extend(const std::shared_ptr<const Gazetteer>& parent);

  /// Registers a surface form with its entity type.  `lowercase_mention`
  /// marks surfaces that should be spotted even without capitalization.
  /// Unlayered gazetteers only.
  void AddSurface(std::string_view surface, kb::EntityType type,
                  bool lowercase_mention = false);

  /// Overlay edit of a layered gazetteer: `surface` (folded) answers
  /// `type` and `lowercase_mention` from now on, or is gone when `type` is
  /// nullopt.
  void SetSurface(std::string_view surface, std::optional<kb::EntityType> type,
                  bool lowercase_mention);

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
  /// On a layered gazetteer a removed surface may leave this above the
  /// live maximum — an upper bound costs the extractor a few probes, never
  /// a different answer, since no longer window can match.
  int LowercaseMentionTokens(std::string_view first_token) const;

  /// Number of surfaces the gazetteer answers.
  size_t size() const { return size_; }

 private:
  struct Entry {
    kb::EntityType type;
    bool lowercase_mention;
    bool removed = false;  // overlay tombstone: the base's entry is gone
  };
  // The live entry of `surface`, overlay first; null when unknown.
  const Entry* Find(std::string_view surface) const;

  // Keys are stored folded; a lookup folds its probe on the fly.
  template <typename V>
  using FoldedMap =
      std::unordered_map<std::string, V, AsciiFoldHasher, AsciiFoldEqual>;
  // The surfaces of an unlayered gazetteer, the overlay of a layered one.
  FoldedMap<Entry> entries_;
  FoldedMap<int> lowercase_heads_;  // first token -> most tokens
  std::shared_ptr<const Gazetteer> base_;  // layered gazetteers only
  size_t size_ = 0;
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_GAZETTEER_H_
