// Chunked copy-on-write storage for MVCC snapshot versions.
//
// CowChunkVector<T> is an indexable container whose payload lives in
// fixed-size chunks held through shared_ptr. Cloning a CowChunkVector is a
// shallow copy of the chunk-pointer directory: O(slots / kChunkSize)
// pointer copies, with every chunk shared between the clone and its source.
// The first mutation of a slot whose chunk is shared copies that one chunk
// (copy-on-write); all other chunks stay shared. This is the structural-
// node-level versioning granularity of the MVCC design (DESIGN.md §14):
// an epoch clone shares everything a commit did not touch, and dropping a
// retired version releases exactly the chunks that version privatized.
//
// Sparse use (ColoredTree membership keyed by NodeId) is supported through
// per-chunk engagement bits: absent slots have no value, chunks with no
// engaged slot are null pointers, and a chunk whose last slot is erased is
// dropped so detached subtrees release memory per version.
//
// Thread model: a CowChunkVector that is reachable by concurrent readers
// must never be mutated — MVCC publishes a version and from then on only
// clones of it are written. Mutators privatize through CowOwn(), which
// decides "shared" with use_count(): that can only over-estimate sharing
// from the single writer's point of view (a racing reader release makes it
// copy once more than strictly needed — never mutate a chunk a reader
// still holds).
//
// CowLiveChunks() counts every live chunk process-wide (every CowCounted
// object: CowChunkVector chunks and the index-image directories and
// buckets of MctDatabase); the epoch-retirement leak tests compare it
// against the chunks resident in the head version to prove retired
// versions free their copies.

#ifndef COLORFUL_XML_COMMON_COW_H_
#define COLORFUL_XML_COMMON_COW_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace mct {

namespace cow_internal {
inline std::atomic<int64_t>& LiveChunkCount() {
  static std::atomic<int64_t> count{0};
  return count;
}
}  // namespace cow_internal

/// Process-wide number of live COW chunks (CowCounted objects). The
/// authoritative value is this plain atomic (not a metrics Gauge), so
/// MetricsRegistry::ResetForTest cannot corrupt it; MVCC mirrors it into
/// the mct.mvcc.cow_chunks gauge by Set().
inline int64_t CowLiveChunks() {
  return cow_internal::LiveChunkCount().load(std::memory_order_relaxed);
}

/// Base of every copy-on-write unit that versions share: constructing or
/// copying one adds it to the CowLiveChunks() census, destroying it
/// removes it.
struct CowCounted {
  CowCounted() {
    cow_internal::LiveChunkCount().fetch_add(1, std::memory_order_relaxed);
  }
  CowCounted(const CowCounted&) : CowCounted() {}
  CowCounted& operator=(const CowCounted&) { return *this; }
  ~CowCounted() {
    cow_internal::LiveChunkCount().fetch_sub(1, std::memory_order_relaxed);
  }
};

/// The object behind `p`, privately owned by the caller's version:
/// allocated when null, copied when another version still shares it, and
/// otherwise written in place. use_count() is a relaxed load, so reading 1
/// does not by itself order the last reads of the version that just
/// released its reference (on another thread) before our writes; the
/// acquire fence does, pairing with shared_ptr's acq_rel decrement.
template <typename T>
T* CowOwn(std::shared_ptr<T>& p) {
  if (p == nullptr) {
    p = std::make_shared<T>();
  } else if (p.use_count() > 1) {
    p = std::make_shared<T>(*p);
  } else {
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return p.get();
}

template <typename T>
class CowChunkVector {
 public:
  static constexpr size_t kChunkSlots = 64;

  CowChunkVector() = default;

  /// Shallow copy: shares every chunk with `o` (the COW clone step).
  CowChunkVector(const CowChunkVector&) = default;
  CowChunkVector& operator=(const CowChunkVector&) = default;
  CowChunkVector(CowChunkVector&&) noexcept = default;
  CowChunkVector& operator=(CowChunkVector&&) noexcept = default;

  /// The value at slot `i`, or null when `i` is out of range or the slot is
  /// not engaged. Never copies.
  const T* Find(size_t i) const {
    size_t ci = i / kChunkSlots, si = i % kChunkSlots;
    if (ci >= chunks_.size() || chunks_[ci] == nullptr) return nullptr;
    const Chunk& c = *chunks_[ci];
    if (((c.engaged >> si) & 1) == 0) return nullptr;
    return &c.slots[si];
  }

  /// The value at slot `i`, which must be engaged.
  const T& At(size_t i) const {
    const T* p = Find(i);
    assert(p != nullptr);
    return *p;
  }

  bool Contains(size_t i) const { return Find(i) != nullptr; }

  /// Mutable access to an engaged slot; copies the chunk first when shared.
  T* MutableFind(size_t i) {
    size_t ci = i / kChunkSlots, si = i % kChunkSlots;
    if (ci >= chunks_.size() || chunks_[ci] == nullptr) return nullptr;
    if (((chunks_[ci]->engaged >> si) & 1) == 0) return nullptr;
    return &Own(ci)->slots[si];
  }

  T& Mut(size_t i) {
    T* p = MutableFind(i);
    assert(p != nullptr);
    return *p;
  }

  /// Engages slot `i` (value-initialized when new) and returns a mutable
  /// reference. Extends the directory as needed.
  T& Put(size_t i) {
    size_t ci = i / kChunkSlots, si = i % kChunkSlots;
    if (ci >= chunks_.size()) chunks_.resize(ci + 1);
    Chunk* c = Own(ci);
    if (((c->engaged >> si) & 1) == 0) {
      c->engaged |= (uint64_t{1} << si);
      c->slots[si] = T{};
      ++count_;
    }
    return c->slots[si];
  }

  /// Disengages slot `i`, destroying its value. A chunk left with no
  /// engaged slot is dropped (memory returns when the last version sharing
  /// it is retired).
  void Erase(size_t i) {
    size_t ci = i / kChunkSlots, si = i % kChunkSlots;
    if (ci >= chunks_.size() || chunks_[ci] == nullptr) return;
    if (((chunks_[ci]->engaged >> si) & 1) == 0) return;
    Chunk* c = Own(ci);
    c->engaged &= ~(uint64_t{1} << si);
    c->slots[si] = T{};
    --count_;
    if (c->engaged == 0) chunks_[ci] = nullptr;
  }

  /// Engaged slots.
  size_t count() const { return count_; }

  /// Non-null chunks resident in this instance (shared ones included).
  size_t num_chunks() const {
    size_t n = 0;
    for (const auto& c : chunks_) n += (c != nullptr);
    return n;
  }

  /// Visits every engaged slot in increasing index order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t ci = 0; ci < chunks_.size(); ++ci) {
      const Chunk* c = chunks_[ci].get();
      if (c == nullptr) continue;
      uint64_t m = c->engaged;
      while (m != 0) {
        size_t si = static_cast<size_t>(__builtin_ctzll(m));
        fn(ci * kChunkSlots + si, c->slots[si]);
        m &= m - 1;
      }
    }
  }

 private:
  struct Chunk : CowCounted {
    uint64_t engaged = 0;
    std::array<T, kChunkSlots> slots{};
  };

  /// The chunk at directory slot `ci`, privately owned.
  Chunk* Own(size_t ci) { return CowOwn(chunks_[ci]); }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t count_ = 0;
};

}  // namespace mct

#endif  // COLORFUL_XML_COMMON_COW_H_
