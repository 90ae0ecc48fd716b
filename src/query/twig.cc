#include "query/twig.h"

#include <algorithm>

#include "common/governor.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "mct/shard.h"

namespace mct::query {

namespace {

std::string ColName(const TwigPattern& p, int i) {
  return StrFormat("#%d:%s", i, p.nodes[static_cast<size_t>(i)].tag.c_str());
}

struct StreamElem {
  uint64_t start, end;
  NodeId node;
};

// Sorted (by start) stream of one pattern node's tag.
std::vector<StreamElem> StreamOf(MctDatabase* db, ColorId color,
                                 const std::string& tag,
                                 query::ExecStats* stats,
                                 const ExecContext& ctx) {
  std::vector<StreamElem> out;
  db->tree(color)->EnsureLabels();
  const ColoredTree& t = *db->tree(color);
  for (NodeId n : db->TagScan(color, tag, ctx.pool)) {  // start order
    out.push_back(StreamElem{t.Start(n), t.End(n), n});
  }
  if (stats != nullptr) stats->rows_scanned += out.size();
  return out;
}

// One PathStackJoin merge pass over the leaf elements with index in
// [leaf_begin, leaf_end), seeded at start label `lo`: every stream cursor
// begins at its first element with start >= lo, and each stack is
// pre-loaded with its *open chain* at lo — the elements whose interval
// contains lo and that have a full ancestor chain in the streams above.
//
// Why seeding is exact (the shard-decomposition argument, DESIGN.md §17):
// an element is on stack i at scan point lo iff (a) its interval contains
// lo — entries whose end has passed are cleaned before any later use, and
// coexisting entries always nest, so stale ones sit on top and vanish at
// the first cleaning — and (b) it was pushed, which required an entry of
// stack i-1 open at its own start; by proper interval nesting that
// ancestor also contains lo. So the stack state at lo is intrinsic to the
// streams (chains of open intervals), not to the scan history, and a task
// can rebuild it with one O(prefix) filter pass per stream. parent_top
// links equal the count of lower-start entries on the stack above, exactly
// as the serial scan would have left them. lo = 0, full leaf range
// reproduces the serial join byte for byte — that IS the serial join.
//
// Emissions fire only on leaf pushes, so the pass emits exactly the
// serial subsequence for its leaf range; concatenating per-shard outputs
// in shard order is the serial output (the document-order streaming
// merge). Appends rows to `out`; returns false on a governor trip.
bool PathStackRange(const TwigPattern& pattern,
                    const std::vector<std::vector<StreamElem>>& streams,
                    const ColoredTree* t, ResourceGovernor* gov,
                    uint64_t lo, size_t leaf_begin, size_t leaf_end,
                    Table* out) {
  const int k = static_cast<int>(pattern.nodes.size());

  struct Entry {
    StreamElem e;
    int parent_top;  // index of S_{i-1}'s top when pushed (-1 when i == 0)
  };
  std::vector<std::vector<Entry>> stacks(static_cast<size_t>(k));
  std::vector<size_t> cursor(static_cast<size_t>(k), 0);

  // Seed cursors and open chains at lo (no-op when lo == 0).
  for (int i = 0; i < k && lo > 0; ++i) {
    const auto& st = streams[static_cast<size_t>(i)];
    size_t c = 0;
    for (; c < st.size() && st[c].start < lo; ++c) {
      if (st[c].end < lo) continue;  // closed before lo
      if (i > 0) {
        // Chain check: some open entry above starts strictly earlier.
        const auto& above = stacks[static_cast<size_t>(i - 1)];
        int ptr = static_cast<int>(above.size()) - 1;
        while (ptr >= 0 &&
               above[static_cast<size_t>(ptr)].e.start >= st[c].start) {
          --ptr;
        }
        if (ptr < 0) continue;
        stacks[static_cast<size_t>(i)].push_back(Entry{st[c], ptr});
      } else {
        stacks[0].push_back(Entry{st[c], -1});
      }
    }
    cursor[static_cast<size_t>(i)] = i == k - 1 ? leaf_begin : c;
  }

  bool stopped = false;
  std::vector<NodeId> partial(static_cast<size_t>(k));
  auto emit_row_ok = [&]() -> bool {
    out->AppendRow(partial);
    if (gov != nullptr && (out->num_rows() & 1023) == 0 &&
        (gov->ShouldStop() ||
         gov->ChargeOrStop(1024 * static_cast<uint64_t>(k) *
                           sizeof(NodeId)))) {
      return false;
    }
    return true;
  };

  // Emits every solution ending at the just-pushed leaf entry.
  auto expand = [&](auto&& self, int level, int max_idx) -> void {
    if (stopped) return;
    if (level < 0) {
      if (!emit_row_ok()) stopped = true;
      return;
    }
    for (int idx = 0; idx <= max_idx && !stopped; ++idx) {
      const Entry& entry = stacks[static_cast<size_t>(level)]
                                 [static_cast<size_t>(idx)];
      // Child-axis edges are verified against the parent pointer; the
      // stacks only guarantee ancestorship.
      if (level + 1 < k &&
          pattern.nodes[static_cast<size_t>(level + 1)].child_axis) {
        NodeId below = partial[static_cast<size_t>(level + 1)];
        if (t->Parent(below) != entry.e.node) continue;
      }
      partial[static_cast<size_t>(level)] = entry.e.node;
      self(self, level - 1, entry.parent_top);
    }
  };

  uint64_t iters = 0;
  while (cursor[static_cast<size_t>(k - 1)] < leaf_end) {
    if (gov != nullptr &&
        (stopped || ((++iters & 1023) == 0 && gov->ShouldStop()))) {
      break;
    }
    // qmin: the stream whose next element has the smallest start.
    int qmin = -1;
    uint64_t min_start = ~0ULL;
    for (int i = 0; i < k; ++i) {
      const size_t limit = i == k - 1 ? leaf_end
                                      : streams[static_cast<size_t>(i)].size();
      if (cursor[static_cast<size_t>(i)] >= limit) continue;
      uint64_t s =
          streams[static_cast<size_t>(i)][cursor[static_cast<size_t>(i)]]
              .start;
      if (s < min_start) {
        min_start = s;
        qmin = i;
      }
    }
    if (qmin < 0) break;
    const StreamElem& e =
        streams[static_cast<size_t>(qmin)][cursor[static_cast<size_t>(qmin)]];
    // Clean every stack of entries that cannot contain e (or anything
    // after it).
    for (auto& s : stacks) {
      while (!s.empty() && s.back().e.end < e.start) s.pop_back();
    }
    // Push when the chain above is extendable. The linked ancestor entry
    // must contain e *strictly* (start < e.start): with a tag repeated
    // along the pattern (a//a) the same element sits on both stacks and
    // must not chain to itself.
    int ptr = -1;
    if (qmin > 0) {
      const auto& above = stacks[static_cast<size_t>(qmin - 1)];
      ptr = static_cast<int>(above.size()) - 1;
      while (ptr >= 0 &&
             above[static_cast<size_t>(ptr)].e.start >= e.start) {
        --ptr;
      }
    }
    if (qmin == 0 || ptr >= 0) {
      stacks[static_cast<size_t>(qmin)].push_back(Entry{e, ptr});
      if (qmin == k - 1) {
        partial[static_cast<size_t>(k - 1)] = e.node;
        expand(expand, k - 2,
               stacks[static_cast<size_t>(qmin)].back().parent_top);
        stacks[static_cast<size_t>(qmin)].pop_back();  // leaves never nest usefully
      }
    }
    cursor[static_cast<size_t>(qmin)]++;
  }
  return !stopped;
}

}  // namespace

bool TwigPattern::IsPath() const {
  std::vector<int> fanout(nodes.size(), 0);
  for (const TwigNode& n : nodes) {
    if (n.parent >= 0) fanout[static_cast<size_t>(n.parent)]++;
  }
  for (int f : fanout) {
    if (f > 1) return false;
  }
  return true;
}

Result<Table> PathStackJoin(MctDatabase* db, ColorId color,
                            const TwigPattern& pattern, const ExecContext& ctx) {
  if (!pattern.IsPath()) {
    return Status::InvalidArgument("PathStackJoin requires a path pattern");
  }
  if (pattern.nodes.empty()) {
    return Status::InvalidArgument("empty twig pattern");
  }
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;  // one holistic join
  const int k = static_cast<int>(pattern.nodes.size());

  Table out;
  for (int i = 0; i < k; ++i) out.vars.push_back(ColName(pattern, i));
  out.cols.resize(out.vars.size());

  // Streams in pattern order (node 0 is the path root), shared read-only
  // by every shard task.
  std::vector<std::vector<StreamElem>> streams;
  for (int i = 0; i < k; ++i) {
    streams.push_back(
        StreamOf(db, color, pattern.nodes[static_cast<size_t>(i)].tag,
                 ctx.stats, ctx));
    if (streams.back().empty()) return out;  // some tag never occurs
  }
  const ColoredTree* t = db->tree(color);
  ResourceGovernor* gov = ctx.governor;
  const std::vector<StreamElem>& leaves =
      streams[static_cast<size_t>(k - 1)];

  // Shard fan-out: cut the *leaf* stream into per-shard runs and solve
  // each run as an independent task with stacks seeded at the shard's
  // range start (see PathStackRange). Only the leaf stream is cut — the
  // chain above a leaf lives in earlier shards, so upper streams stay
  // whole per task. Shards with no leaves are skipped outright.
  if (db->shard_count() > 1 && ctx.pool != nullptr &&
      ctx.pool->num_threads() > 1 && leaves.size() > 1) {
    const ShardRanges ranges(db->shard_count(), *t);
    const size_t ns = static_cast<size_t>(ranges.shard_count());
    const std::vector<size_t> cuts = ranges.CutRuns(
        leaves.size(), [&](size_t i) { return leaves[i].start; });
    std::vector<Table> parts(ns);
    uint64_t tasks = 0;
    for (size_t s = 0; s < ns; ++s) {
      if (cuts[s] != cuts[s + 1]) ++tasks;
    }
    ShardTasksCounter()->Inc(tasks);
    ParallelFor(ctx.pool, ns, [&](size_t s) {
      if (cuts[s] == cuts[s + 1]) return;  // no leaves here
      if (gov != nullptr && gov->ShouldStop()) return;
      Table& part = parts[s];
      part.vars = out.vars;
      part.cols.resize(out.vars.size());
      uint64_t lo = ranges.Range(static_cast<int>(s)).first;
      PathStackRange(pattern, streams, t, gov, lo, cuts[s], cuts[s + 1],
                     &part);
    });
    // Document-order streaming merge: shard ranges are disjoint and
    // ordered, so concatenating per-shard solutions in shard order is the
    // serial output sequence.
    size_t total = 0;
    for (const Table& p : parts) total += p.num_rows();
    ShardMergeRowsCounter()->Inc(total);
    for (size_t j = 0; j < out.cols.size(); ++j) out.cols[j].reserve(total);
    for (Table& p : parts) {
      for (size_t j = 0; j < out.cols.size(); ++j) {
        out.cols[j].insert(out.cols[j].end(), p.cols[j].begin(),
                           p.cols[j].end());
      }
    }
  } else {
    PathStackRange(pattern, streams, t, gov, 0, 0, leaves.size(), &out);
  }
  // A governed abort must never surface its truncated table as a result.
  if (gov != nullptr && gov->tripped()) return gov->status();
  return out;
}

}  // namespace mct::query
