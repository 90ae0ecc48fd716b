// ShardRanges: interval-range sharding of one colored tree (DESIGN.md §17).
//
// The (start, end) labels give every colored tree a total order on starts,
// so a tree partitions naturally into N contiguous *start-label ranges*:
// shard s owns every structural node whose start label falls in
// [boundary[s], boundary[s+1]). Because a full relabel spaces starts
// uniformly (kLabelGap apart), splitting the root's label interval into N
// equal subranges yields near-equal node counts per shard — no histogram
// pass.
//
// Two properties make shards useful to the structural join operators:
//
//  * Run cutting. Any start-sorted node sequence (a TagScan, a stream of
//    descendant candidates) decomposes into at most N contiguous runs,
//    one per shard, by binary-searching the boundaries. Processing runs
//    in shard order and concatenating outputs reproduces the serial
//    document-order result exactly — the streaming merge is free.
//
//  * Interval pruning. A context ancestor with interval (a.start, a.end)
//    can only cover descendants whose starts lie inside it. A shard whose
//    range is disjoint from *every* context interval therefore emits
//    nothing and can be skipped without touching a node. The rule is
//    conservative (intersection is necessary, not sufficient), so pruning
//    never changes results.
//
// The ranges depend only on the shard count and the root's interval, so
// each operator computes them (N+1 integers) where it uses them, over the
// labels it has just made clean; nothing is cached on the database.
// shard_count = 1 means no ranges: every operator then takes its unsharded
// code path, bit for bit.

#ifndef COLORFUL_XML_MCT_SHARD_H_
#define COLORFUL_XML_MCT_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace mct {

class ColoredTree;

/// mct.shard.* metrics family. Pointers resolved once; registrations
/// survive MetricsRegistry::ResetForTest so they never dangle.
inline Counter* ShardTasksCounter() {
  static Counter* c = MetricsRegistry::Global().counter("mct.shard.tasks");
  return c;
}
inline Counter* ShardPrunedCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.shard.pruned_shards");
  return c;
}
inline Counter* ShardMergeRowsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.shard.merge_rows");
  return c;
}

class ShardRanges {
 public:
  /// Splits `tree`'s root interval into `shard_count` ranges. The tree's
  /// labels must be clean. shard_count must be >= 2 — one shard is
  /// represented by *no* ranges.
  ShardRanges(int shard_count, const ColoredTree& tree);

  int shard_count() const {
    return static_cast<int>(boundaries_.size()) - 1;
  }

  /// [lo, hi) start-label range owned by `shard`.
  std::pair<uint64_t, uint64_t> Range(int shard) const {
    return {boundaries_[static_cast<size_t>(shard)],
            boundaries_[static_cast<size_t>(shard) + 1]};
  }

  /// Shard owning start label `start`.
  int ShardOf(uint64_t start) const {
    // upper_bound over the interior boundaries b[1..N-1].
    int lo = 0;
    int hi = shard_count() - 1;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (start < boundaries_[static_cast<size_t>(mid) + 1]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  /// Cuts a start-sorted sequence of `n` elements (start of element i given
  /// by `start_of(i)`) into per-shard runs: returns N+1 cut indices with
  /// shard s owning [cuts[s], cuts[s+1]). Concatenating runs in shard order
  /// is the identity permutation — document order is preserved.
  template <typename StartFn>
  std::vector<size_t> CutRuns(size_t n, StartFn&& start_of) const {
    const int shards = shard_count();
    std::vector<size_t> cuts(static_cast<size_t>(shards) + 1, n);
    cuts[0] = 0;
    size_t pos = 0;
    for (int s = 1; s < shards; ++s) {
      // First index with start >= b[s], searching from the previous cut.
      size_t lo = pos;
      size_t hi = n;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (start_of(mid) < boundaries_[static_cast<size_t>(s)]) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      pos = lo;
      cuts[static_cast<size_t>(s)] = pos;
    }
    return cuts;
  }

  /// The interval-pruning rule: true when no context interval
  /// [starts[i], ends_prefix_max over starts < hi] can contain a start in
  /// [lo, hi) — i.e. the shard range is disjoint from every interval and
  /// the shard's descendant run cannot produce output. `starts` must be
  /// sorted ascending and `prefix_max_end[i]` = max(end[0..i]).
  static bool RangeDisjoint(const std::vector<uint64_t>& starts,
                            const std::vector<uint64_t>& prefix_max_end,
                            uint64_t lo, uint64_t hi) {
    // An interval (a.start, a.end) intersects [lo, hi) iff
    // a.start < hi and a.end > lo. Among intervals with start < hi the
    // largest end is prefix_max_end[k-1]; if even that one ends at or
    // before lo, every interval is disjoint from the shard range.
    size_t k = 0;
    {
      size_t l = 0;
      size_t h = starts.size();
      while (l < h) {
        size_t mid = l + (h - l) / 2;
        if (starts[mid] < hi) {
          l = mid + 1;
        } else {
          h = mid;
        }
      }
      k = l;
    }
    if (k == 0) return true;
    return prefix_max_end[k - 1] <= lo;
  }

 private:
  /// shard_count()+1 entries; shard s owns starts in
  /// [boundaries_[s], boundaries_[s+1]).
  std::vector<uint64_t> boundaries_;
};

}  // namespace mct

#endif  // COLORFUL_XML_MCT_SHARD_H_
