#include "embedding/embedding_store.h"

#include <cmath>
#include <cstring>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "embedding/dot_kernel.h"

namespace tenet {
namespace embedding {

EmbeddingStore::EmbeddingStore(int dimension, int32_t num_entities,
                               int32_t num_predicates)
    : dimension_(dimension),
      num_entities_(num_entities),
      num_predicates_(num_predicates),
      data_(static_cast<size_t>(dimension) * (num_entities + num_predicates),
            0.0f),
      ops_("embedding/fetch") {
  TENET_CHECK_GT(dimension, 0);
  TENET_CHECK_GE(num_entities, 0);
  TENET_CHECK_GE(num_predicates, 0);
}

EmbeddingStore::EmbeddingStore(std::shared_ptr<const EmbeddingStore> base,
                               int32_t num_entities, int32_t num_predicates)
    : dimension_(base->dimension_),
      num_entities_(num_entities),
      num_predicates_(num_predicates),
      data_(static_cast<size_t>(base->dimension_) *
                ((num_entities - base->num_entities_) +
                 (num_predicates - base->num_predicates_)),
            0.0f),
      base_(std::move(base)),
      ops_("embedding/fetch") {
  TENET_CHECK(base_->finalized_ && base_->base_ == nullptr);
  TENET_CHECK_GE(num_entities, base_->num_entities_);
  TENET_CHECK_GE(num_predicates, base_->num_predicates_);
}

EmbeddingStore EmbeddingStore::Extend(
    const std::shared_ptr<const EmbeddingStore>& parent,
    int32_t num_entities, int32_t num_predicates) {
  TENET_CHECK(parent != nullptr && parent->finalized_);
  TENET_CHECK_GE(num_entities, parent->num_entities_);
  TENET_CHECK_GE(num_predicates, parent->num_predicates_);
  if (parent->base_ == nullptr) {
    return EmbeddingStore(parent, num_entities, num_predicates);
  }
  // Layer over the parent's base and carry the parent's own rows forward.
  const EmbeddingStore& base = *parent->base_;
  EmbeddingStore store(parent->base_, num_entities, num_predicates);
  const auto carry = [&](kb::ConceptRef ref) {
    std::span<const float> row = parent->Vector(ref);
    std::memcpy(store.MutableVector(ref).data(), row.data(),
                row.size() * sizeof(float));
  };
  for (int32_t e = base.num_entities_; e < parent->num_entities_; ++e) {
    carry(kb::ConceptRef::Entity(e));
  }
  for (int32_t p = base.num_predicates_; p < parent->num_predicates_; ++p) {
    carry(kb::ConceptRef::Predicate(p));
  }
  for (const auto& [row, slot] : parent->overrides_) {
    const auto id = static_cast<int32_t>(row);
    carry(id < base.num_entities_
              ? kb::ConceptRef::Entity(id)
              : kb::ConceptRef::Predicate(id - base.num_entities_));
  }
  return store;
}

size_t EmbeddingStore::RowIndex(kb::ConceptRef ref) const {
  TENET_CHECK(ref.valid());
  if (ref.is_entity()) {
    TENET_CHECK_LT(ref.id, num_entities_);
    return static_cast<size_t>(ref.id);
  }
  TENET_CHECK_LT(ref.id, num_predicates_);
  return static_cast<size_t>(num_entities_) + ref.id;
}

std::pair<const EmbeddingStore*, size_t> EmbeddingStore::Locate(
    kb::ConceptRef ref) const {
  if (base_ == nullptr) return {this, RowIndex(ref)};
  TENET_CHECK(ref.valid());
  const int32_t base_count =
      ref.is_entity() ? base_->num_entities_ : base_->num_predicates_;
  if (ref.id < base_count) {
    const size_t row = base_->RowIndex(ref);
    if (!overrides_.empty()) {
      auto it = overrides_.find(row);
      if (it != overrides_.end()) return {this, it->second};
    }
    return {base_.get(), row};
  }
  if (ref.is_entity()) {
    TENET_CHECK_LT(ref.id, num_entities_);
    return {this, static_cast<size_t>(ref.id - base_count)};
  }
  TENET_CHECK_LT(ref.id, num_predicates_);
  return {this, static_cast<size_t>(num_entities_ - base_->num_entities_) +
                    (ref.id - base_count)};
}

std::span<float> EmbeddingStore::MutableVector(kb::ConceptRef ref) {
  TENET_CHECK(!finalized_) << "write after Finalize";
  auto [store, row] = Locate(ref);
  if (store != this) {
    // First write to a base row: it becomes an own row, seeded with the
    // base's values.
    row = data_.size() / dimension_;
    overrides_.emplace(base_->RowIndex(ref), row);
    std::span<const float> seed = base_->Vector(ref);
    data_.insert(data_.end(), seed.begin(), seed.end());
  }
  return std::span<float>(data_.data() + row * dimension_, dimension_);
}

std::span<const float> EmbeddingStore::Vector(kb::ConceptRef ref) const {
  const auto [store, row] = Locate(ref);
  return std::span<const float>(store->data_.data() + row * dimension_,
                                dimension_);
}

std::span<const double> EmbeddingStore::UnitVector(kb::ConceptRef ref) const {
  TENET_CHECK(finalized_) << "UnitVector before Finalize";
  return std::span<const double>(UnitRow(ref), dimension_);
}

bool EmbeddingStore::BuildUnitRows() {
  const size_t count = data_.size() / dimension_;
  unit_data_.assign(data_.size(), 0.0);
  for (size_t i = 0; i < count; ++i) {
    const float* v = data_.data() + i * dimension_;
    double sum = 0.0;
    for (int d = 0; d < dimension_; ++d) sum += double{v[d]} * v[d];
    // Squares of finite floats cannot overflow a double sum, so a
    // non-finite sum means a non-finite component.
    if (!std::isfinite(sum)) {
      unit_data_.clear();
      return false;
    }
    double norm = std::sqrt(sum);
    if (norm <= 0.0) continue;  // zero rows stay zero: cosine 0 by design
    double* unit = unit_data_.data() + i * dimension_;
    for (int d = 0; d < dimension_; ++d) {
      unit[d] = double{v[d]} / norm;
    }
  }
  return true;
}

void EmbeddingStore::Finalize() {
  TENET_CHECK(!finalized_) << "Finalize called twice";
  // Every writer validates its rows first: ApplyDeltas rejects non-finite
  // overrides and the trainer only produces finite values.
  TENET_CHECK(BuildUnitRows()) << "non-finite embedding row";
  finalized_ = true;
}

Status EmbeddingStore::LoadMatrix(const void* matrix, size_t count_floats) {
  TENET_CHECK(!finalized_) << "LoadMatrix after Finalize";
  TENET_CHECK(base_ == nullptr) << "LoadMatrix on a layered store";
  if (count_floats != data_.size()) {
    return Status::InvalidArgument("embedding matrix size mismatch");
  }
  // memcpy tolerates any source alignment — mmapped payloads start at a
  // file offset the format does not promise to be float-aligned.
  std::memcpy(data_.data(), matrix, count_floats * sizeof(float));
  if (!BuildUnitRows()) {
    return Status::DataLoss("non-finite embedding payload");
  }
  finalized_ = true;
  return Status::Ok();
}

double EmbeddingStore::Cosine(kb::ConceptRef a, kb::ConceptRef b) const {
  TENET_CHECK(finalized_) << "Cosine before Finalize";
  // A fired fetch fault behaves like a missing vector: zero similarity,
  // the same value a genuinely absent (zero-norm) embedding yields.
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  TENET_OBSERVE_DEPENDENCY("embedding/fetch", !faulted);
  ops_.Record(!faulted);
  if (faulted) return 0.0;
  return ClampCosine(DotUnit(UnitRow(a), UnitRow(b), dimension_));
}

void EmbeddingStore::GatherUnit(std::span<const kb::ConceptRef> refs,
                                double* out) const {
  TENET_CHECK(finalized_) << "GatherUnit before Finalize";
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  TENET_OBSERVE_DEPENDENCY("embedding/fetch", !faulted);
  ops_.Record(!faulted);
  const size_t row_bytes = static_cast<size_t>(dimension_) * sizeof(double);
  if (faulted) {
    std::memset(out, 0, refs.size() * row_bytes);
    return;
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    std::memcpy(out + i * static_cast<size_t>(dimension_), UnitRow(refs[i]),
                row_bytes);
  }
}

}  // namespace embedding
}  // namespace tenet
