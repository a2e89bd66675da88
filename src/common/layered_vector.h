#ifndef TENET_COMMON_LAYERED_VECTOR_H_
#define TENET_COMMON_LAYERED_VECTOR_H_

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace tenet {

// An append-only array in two layers: a frozen base shared by pointer and
// a small tail of its own.  Copying one shares the base and copies only
// the tail, so a KB generation derived from another carries the parent's
// records by pointer and pays for the appended ones alone (DESIGN.md §12).
//
// Build: push_back into the tail, then Seal() once, which turns a tail
// with no base under it into the shared base.  Sealing an array that
// already has a base is a no-op: its tail stays the cumulative overlay
// until a compaction or reload writes everything out as a new base.
template <typename T>
class LayeredVector {
 public:
  size_t size() const { return base_size_ + tail_.size(); }

  const T& operator[](size_t i) const {
    return i < base_size_ ? base_data_[i] : tail_[i - base_size_];
  }

  void reserve(size_t n) {
    if (n > base_size_) tail_.reserve(n - base_size_);
  }
  void push_back(T value) { tail_.push_back(std::move(value)); }

  /// Makes the tail the shared base when there is no base yet.
  void Seal() {
    if (base_ != nullptr) return;
    base_ = std::make_shared<const std::vector<T>>(std::move(tail_));
    tail_ = {};
    base_data_ = base_->data();
    base_size_ = base_->size();
  }

  /// The shared base (null before Seal()); derived copies point at it.
  const std::shared_ptr<const std::vector<T>>& base() const { return base_; }

  /// The elements in order, as the base's span then the tail's.
  std::array<std::span<const T>, 2> parts() const {
    return {std::span<const T>(base_data_, base_size_),
            std::span<const T>(tail_)};
  }

 private:
  std::shared_ptr<const std::vector<T>> base_;
  // Cached from base_ so an element read costs one compare, no pointer
  // chase through the shared_ptr.
  const T* base_data_ = nullptr;
  size_t base_size_ = 0;
  std::vector<T> tail_;
};

}  // namespace tenet

#endif  // TENET_COMMON_LAYERED_VECTOR_H_
