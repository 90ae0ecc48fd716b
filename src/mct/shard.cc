#include "mct/shard.h"

#include "mct/colored_tree.h"

namespace mct {

ShardRanges::ShardRanges(int shard_count, const ColoredTree& tree) {
  const uint64_t n = static_cast<uint64_t>(shard_count);
  // Half-open label space [lo, hi): the root's own start is in shard 0,
  // the maximal end label in shard N-1.
  const uint64_t lo = tree.Start(tree.root());
  uint64_t hi = tree.End(tree.root()) + 1;
  if (hi <= lo) hi = lo + 1;  // degenerate tree: all shards but 0 empty
  const uint64_t span = hi - lo;
  boundaries_.resize(n + 1);
  for (uint64_t s = 0; s <= n; ++s) {
    // lo + span*s/n without overflow: span < 2^63 in practice (labels are
    // event counts * 2^16), but split the multiply anyway.
    boundaries_[s] = lo + (span / n) * s + (span % n) * s / n;
  }
  // Guarantee exact cover regardless of rounding.
  boundaries_[0] = lo;
  boundaries_[n] = hi;
}

}  // namespace mct
