// Chunked copy-on-write storage for MVCC snapshot versions.
//
// CowChunkVector<T> is an indexable container whose payload lives in
// fixed-size chunks of kChunkSlots (64) slots, reached through fixed-size
// leaves of kLeafChunks (128) chunk pointers. Versions share both levels
// through shared_ptr: each instance owns only a short vector of leaf
// pointers, one per 8,192 slots, so cloning a CowChunkVector copies
// slots / 8,192 pointers — 1/128 of a per-version chunk directory — with
// every leaf and chunk shared between the clone and its source. On scale-1
// TPC-W a whole MctDatabase::CowClone (node store and every colored tree,
// about 110 leaf pointers) measured 0.5-1.0 us and its drop 0.5-1.0 us.
// The first mutation of a slot copies, only while another version still
// holds them, its one leaf and then its one chunk (copy-on-write), and
// edits in place; all other leaves and chunks stay shared. A read pays one
// extra dependent load for the leaf. This is the structural-node-level
// versioning granularity of the MVCC design (DESIGN.md §14): an epoch clone
// shares everything a commit did not touch, and dropping a retired version
// releases exactly the leaves and chunks that version privatized.
//
// Sparse use (ColoredTree membership keyed by NodeId) is supported through
// per-chunk engagement bits: absent slots have no value, chunks with no
// engaged slot are null pointers, and a chunk whose last slot is erased is
// dropped (and its leaf with it once the leaf holds no chunk) so detached
// subtrees release memory per version.
//
// Thread model: a CowChunkVector that is reachable by concurrent readers
// must never be mutated — MVCC publishes a version and from then on only
// clones of it are written. Mutators privatize through CowOwn(), which
// decides "shared" with use_count(): that can only over-estimate sharing
// from the single writer's point of view (a racing reader release makes it
// copy once more than strictly needed — never mutate a leaf or chunk a
// reader still holds).
//
// CowLiveChunks() counts every live chunk process-wide (every CowCounted
// object: CowChunkVector leaves and chunks and the index-image directories
// and buckets of MctDatabase); the epoch-retirement leak tests compare it
// against the units resident in the head version to prove retired versions
// free their copies.

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
  static constexpr size_t kLeafChunks = 128;
  static constexpr size_t kLeafSlots = kChunkSlots * kLeafChunks;

  CowChunkVector() = default;

  /// Shallow copy: shares every leaf, and so every chunk, with `o` (the
  /// COW clone step).
  CowChunkVector(const CowChunkVector&) = default;
  CowChunkVector& operator=(const CowChunkVector&) = default;
  CowChunkVector(CowChunkVector&&) noexcept = default;
  CowChunkVector& operator=(CowChunkVector&&) noexcept = default;

  /// The value at slot `i`, or null when `i` is out of range or the slot is
  /// not engaged. Never copies.
  const T* Find(size_t i) const {
    size_t li = i / kLeafSlots, si = i % kChunkSlots;
    if (li >= leaves_.size() || leaves_[li] == nullptr) return nullptr;
    const Chunk* c = leaves_[li]->chunks[i / kChunkSlots % kLeafChunks].get();
    if (c == nullptr || ((c->engaged >> si) & 1) == 0) return nullptr;
    return &c->slots[si];
  }

  /// The value at slot `i`, which must be engaged.
  const T& At(size_t i) const {
    const T* p = Find(i);
    assert(p != nullptr);
    return *p;
  }

  bool Contains(size_t i) const { return Find(i) != nullptr; }

  /// Mutable access to an engaged slot; copies its leaf and chunk first
  /// when shared.
  T* MutableFind(size_t i) {
    if (Find(i) == nullptr) return nullptr;
    return &Own(i)->slots[i % kChunkSlots];
  }

  T& Mut(size_t i) {
    T* p = MutableFind(i);
    assert(p != nullptr);
    return *p;
  }

  /// Engages slot `i` (value-initialized when new) and returns a mutable
  /// reference. Extends the directory as needed.
  T& Put(size_t i) {
    size_t li = i / kLeafSlots, si = i % kChunkSlots;
    if (li >= leaves_.size()) leaves_.resize(li + 1);
    Chunk* c = Own(i);
    if (((c->engaged >> si) & 1) == 0) {
      c->engaged |= (uint64_t{1} << si);
      c->slots[si] = T{};
      ++count_;
    }
    return c->slots[si];
  }

  /// Disengages slot `i`, destroying its value. A chunk left with no
  /// engaged slot is dropped, and so is a leaf left with no chunk (memory
  /// returns when the last version sharing it is retired).
  void Erase(size_t i) {
    if (Find(i) == nullptr) return;
    size_t li = i / kLeafSlots, si = i % kChunkSlots;
    Chunk* c = Own(i);
    c->engaged &= ~(uint64_t{1} << si);
    c->slots[si] = T{};
    --count_;
    if (c->engaged != 0) return;
    Leaf* leaf = leaves_[li].get();  // privatized by Own
    leaf->chunks[i / kChunkSlots % kLeafChunks] = nullptr;
    if (--leaf->resident == 0) leaves_[li] = nullptr;
  }

  /// Engaged slots.
  size_t count() const { return count_; }

  /// Non-null chunks resident in this instance (shared ones included).
  size_t num_chunks() const {
    size_t n = 0;
    for (const auto& leaf : leaves_) n += leaf == nullptr ? 0 : leaf->resident;
    return n;
  }

  /// Non-null leaves resident in this instance (shared ones included).
  size_t num_leaves() const {
    size_t n = 0;
    for (const auto& leaf : leaves_) n += (leaf != nullptr);
    return n;
  }

  /// Visits every engaged slot in increasing index order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t li = 0; li < leaves_.size(); ++li) {
      const Leaf* leaf = leaves_[li].get();
      if (leaf == nullptr) continue;
      for (size_t ci = 0; ci < kLeafChunks; ++ci) {
        const Chunk* c = leaf->chunks[ci].get();
        if (c == nullptr) continue;
        const size_t base = li * kLeafSlots + ci * kChunkSlots;
        uint64_t m = c->engaged;
        while (m != 0) {
          size_t si = static_cast<size_t>(__builtin_ctzll(m));
          fn(base + si, c->slots[si]);
          m &= m - 1;
        }
      }
    }
  }

 private:
  struct Chunk : CowCounted {
    uint64_t engaged = 0;
    std::array<T, kChunkSlots> slots{};
  };
  struct Leaf : CowCounted {
    size_t resident = 0;  // non-null chunks
    std::array<std::shared_ptr<Chunk>, kLeafChunks> chunks;
  };

  /// The chunk holding slot `i` (allocated when absent), privately owned
  /// together with its leaf. The leaf's directory slot must exist.
  Chunk* Own(size_t i) {
    Leaf* leaf = CowOwn(leaves_[i / kLeafSlots]);
    std::shared_ptr<Chunk>& chunk = leaf->chunks[i / kChunkSlots % kLeafChunks];
    if (chunk == nullptr) ++leaf->resident;
    return CowOwn(chunk);
  }

  std::vector<std::shared_ptr<Leaf>> leaves_;
  size_t count_ = 0;
};

}  // namespace mct

#endif  // COLORFUL_XML_COMMON_COW_H_
