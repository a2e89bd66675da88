#include "text/gazetteer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace tenet {
namespace text {

namespace {

// Tokens and first token of a folded surface.
int TokenCount(std::string_view key) {
  return 1 + static_cast<int>(std::count(key.begin(), key.end(), ' '));
}
std::string_view FirstToken(std::string_view key) {
  return key.substr(0, key.find(' '));
}

}  // namespace

Gazetteer Gazetteer::Extend(const std::shared_ptr<const Gazetteer>& parent) {
  TENET_CHECK(parent != nullptr);
  Gazetteer out;
  if (parent->base_ == nullptr) {
    out.base_ = parent;
  } else {
    out.base_ = parent->base_;
    out.entries_ = parent->entries_;
    out.lowercase_heads_ = parent->lowercase_heads_;
  }
  out.size_ = parent->size_;
  return out;
}

void Gazetteer::AddSurface(std::string_view surface, kb::EntityType type,
                           bool lowercase_mention) {
  TENET_CHECK(base_ == nullptr) << "AddSurface on a layered gazetteer";
  std::string key = AsciiToLower(surface);
  if (key.empty()) return;
  if (lowercase_mention) {
    int& most = lowercase_heads_[std::string(FirstToken(key))];
    most = std::max(most, TokenCount(key));
  }
  auto [it, inserted] =
      entries_.try_emplace(std::move(key), Entry{type, lowercase_mention});
  if (inserted) {
    ++size_;
  } else {
    it->second.lowercase_mention |= lowercase_mention;
  }
}

void Gazetteer::SetSurface(std::string_view surface,
                           std::optional<kb::EntityType> type,
                           bool lowercase_mention) {
  TENET_CHECK(base_ != nullptr) << "SetSurface on an unlayered gazetteer";
  if (surface.empty()) return;
  const bool was_present = Find(surface) != nullptr;
  if (type.has_value() && lowercase_mention) {
    const std::string_view head = FirstToken(surface);
    auto it = lowercase_heads_.find(head);
    if (it == lowercase_heads_.end()) {
      it = lowercase_heads_
               .emplace(std::string(head),
                        base_->LowercaseMentionTokens(head))
               .first;
    }
    it->second = std::max(it->second, TokenCount(surface));
  }
  entries_.insert_or_assign(
      std::string(surface),
      Entry{type.value_or(kb::EntityType::kOther), lowercase_mention,
            !type.has_value()});
  size_ = size_ - (was_present ? 1 : 0) + (type.has_value() ? 1 : 0);
}

const Gazetteer::Entry* Gazetteer::Find(std::string_view surface) const {
  auto it = entries_.find(surface);
  if (it != entries_.end()) return it->second.removed ? nullptr : &it->second;
  return base_ != nullptr ? base_->Find(surface) : nullptr;
}

int Gazetteer::LowercaseMentionTokens(std::string_view first_token) const {
  auto it = lowercase_heads_.find(first_token);
  if (it != lowercase_heads_.end()) return it->second;
  return base_ != nullptr ? base_->LowercaseMentionTokens(first_token) : 0;
}

std::optional<kb::EntityType> Gazetteer::LookupType(
    std::string_view surface) const {
  const Entry* entry = Find(surface);
  if (entry == nullptr) return std::nullopt;
  return entry->type;
}

bool Gazetteer::Contains(std::string_view surface) const {
  return Find(surface) != nullptr;
}

bool Gazetteer::IsLowercaseMention(std::string_view surface) const {
  return LowercaseMentionType(surface).has_value();
}

std::optional<kb::EntityType> Gazetteer::LowercaseMentionType(
    std::string_view surface) const {
  const Entry* entry = Find(surface);
  if (entry == nullptr || !entry->lowercase_mention) return std::nullopt;
  return entry->type;
}

}  // namespace text
}  // namespace tenet
