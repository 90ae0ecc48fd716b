#include "query/ops.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "mct/color.h"
#include "mct/shard.h"
#include "query/trace.h"

namespace mct::query {

namespace {

Counter* BatchCounter() {
  static Counter* c = MetricsRegistry::Global().counter("mct.exec.batches");
  return c;
}

// Visibility backstop (DESIGN.md §16): a color-parameterized operator
// asked to expand into a read-invisible color emits nothing. The analyzer
// and the evaluator's per-step filtering normally stop such steps far
// earlier; this guard makes the leak-freedom guarantee hold even for a
// code path that bypasses both. One branch per operator call.
bool MaskBlocks(const ExecContext& ctx, ColorId color) {
  return ctx.mask != nullptr && !ctx.mask->CanRead(color);
}

// Selectivity (rows kept, in percent) of the row-dropping operators —
// filters, cross-tree joins, semi-joins, dup-elim. Feeds the planner's
// future calibration and the observability story; one histogram sample per
// operator call, never per row.
void ObserveSelectivity(size_t rows_in, size_t rows_out) {
  static Histogram* h =
      MetricsRegistry::Global().histogram("mct.exec.selectivity");
  if (rows_in == 0) return;
  h->Observe(static_cast<uint64_t>(rows_out * 100 / rows_in));
}

// Records `n` batch kernel invocations (emit-collection chunks + gather
// passes) on the metrics registry and, when tracing, the operator's trace
// node.
void CountBatches(OpScope& tr, size_t n) {
  if (n == 0) return;
  BatchCounter()->Inc(n);
  if (tr.enabled()) tr.AddBatches(n);
}

// Groups logical row indices by the node bound in `col`.
std::unordered_map<NodeId, std::vector<uint32_t>> GroupByNode(const Table& t,
                                                              int col) {
  std::unordered_map<NodeId, std::vector<uint32_t>> groups;
  const size_t n = t.num_rows();
  for (size_t i = 0; i < n; ++i) {
    groups[t.At(i, col)].push_back(static_cast<uint32_t>(i));
  }
  return groups;
}

Table WithExtraColumn(const Table& in, const std::string& out_var) {
  Table out;
  out.vars = in.vars;
  out.vars.push_back(out_var);
  out.cols.resize(out.vars.size());
  return out;
}

// Resolves a tag to its interned id once per operator call; kInvalidNameId
// with an empty tag means "match any element".
NameId TagFilterId(const MctDatabase& db, const std::string& tag) {
  return tag.empty() ? kInvalidNameId : db.store().names().Lookup(tag);
}

bool TagIdMatches(const MctDatabase& db, NodeId n, const std::string& tag,
                  NameId tag_id) {
  return tag.empty() || db.TagId(n) == tag_id;
}

// Per-morsel emit buffers of the operators. Each is a pair (or single) of
// parallel index/value columns; morsel workers fill a private chunk and the
// chunks concatenate in morsel index order, which preserves the serial
// emission order exactly.

// (input row index, emitted node) pairs of the expansion operators.
struct EmitChunk {
  std::vector<uint32_t> idx;
  std::vector<NodeId> node;
  size_t size() const { return idx.size(); }
  void Reserve(size_t n) {
    idx.reserve(n);
    node.reserve(n);
  }
  void Append(EmitChunk&& o) {
    idx.insert(idx.end(), o.idx.begin(), o.idx.end());
    node.insert(node.end(), o.node.begin(), o.node.end());
  }
};

// (left row, right row) pairs of the join operators.
struct PairChunk {
  std::vector<uint32_t> li, ri;
  size_t size() const { return li.size(); }
  void Reserve(size_t n) {
    li.reserve(n);
    ri.reserve(n);
  }
  void Append(PairChunk&& o) {
    li.insert(li.end(), o.li.begin(), o.li.end());
    ri.insert(ri.end(), o.ri.begin(), o.ri.end());
  }
};

// Surviving logical row indices of filters and semi-joins.
struct IdxChunk {
  std::vector<uint32_t> idx;
  size_t size() const { return idx.size(); }
  void Reserve(size_t n) { idx.reserve(n); }
  void Append(IdxChunk&& o) {
    idx.insert(idx.end(), o.idx.begin(), o.idx.end());
  }
};

// Morsel-driven fan-out for emit-style operators: splits [0, n) into
// ctx.morsel_size chunks, runs `body(begin, end, chunk, stats)` per chunk
// (workers claim chunks off a shared counter), and concatenates the
// per-morsel chunks in morsel index order — so the output order is
// byte-identical to the serial run. Per-morsel ExecStats are merged into
// ctx.stats after the fan-out; the hot path never touches an atomic.
// Bodies may only perform const reads of shared state. Returns the number
// of morsels claimed (1 for a serial run) for the plan trace.
template <typename Chunk, typename Body>
size_t MorselCollect(const ExecContext& ctx, size_t n, Chunk* out,
                     const Body& body) {
  if (ctx.pool == nullptr || ctx.morsel_size == 0 || n <= ctx.morsel_size) {
    if (ctx.governor != nullptr) {
      // Governed serial run: chunk the loop at morsel granularity anyway,
      // so cancellation latency stays bounded by one morsel of work. The
      // ungoverned path below is untouched (single body call, no checks).
      const size_t step = ctx.morsel_size != 0 ? ctx.morsel_size : (n + 1);
      size_t chunks = 0;
      for (size_t b = 0; b < n; b += step) {
        if (ctx.governor->ShouldStop()) break;
        body(b, std::min(n, b + step), out, ctx.stats);
        ++chunks;
      }
      return chunks;
    }
    body(0, n, out, ctx.stats);
    return n > 0 ? 1 : 0;
  }
  const size_t num_morsels = (n + ctx.morsel_size - 1) / ctx.morsel_size;
  std::vector<Chunk> parts(num_morsels);
  std::vector<ExecStats> part_stats(ctx.stats != nullptr ? num_morsels : 0);
  ParallelFor(ctx.pool, num_morsels, [&](size_t m) {
    // Tripped governor: workers drain remaining morsels without running
    // them; the truncated output is discarded by the evaluator.
    if (ctx.governor != nullptr && ctx.governor->ShouldStop()) return;
    const size_t begin = m * ctx.morsel_size;
    const size_t end = std::min(n, begin + ctx.morsel_size);
    body(begin, end, &parts[m],
         ctx.stats != nullptr ? &part_stats[m] : nullptr);
  });
  size_t total = out->size();
  for (const auto& p : parts) total += p.size();
  out->Reserve(total);
  for (auto& p : parts) out->Append(std::move(p));
  if (ctx.stats != nullptr) {
    for (const ExecStats& s : part_stats) ctx.stats->Merge(s);
  }
  return num_morsels;
}

// Morsel fan-out for slot-writing loops (each index writes its own output
// slot, nothing is appended): just splits the range across workers.
// Returns the number of morsels claimed, as MorselCollect does.
template <typename Body>
size_t ForEachMorsel(const ExecContext& ctx, size_t n, const Body& body) {
  if (ctx.pool == nullptr || ctx.morsel_size == 0 || n <= ctx.morsel_size) {
    if (ctx.governor != nullptr) {
      // Governed serial run: morsel-granular chunks for bounded
      // cancellation latency (see MorselCollect).
      const size_t step = ctx.morsel_size != 0 ? ctx.morsel_size : (n + 1);
      size_t chunks = 0;
      for (size_t b = 0; b < n; b += step) {
        if (ctx.governor->ShouldStop()) break;
        body(b, std::min(n, b + step));
        ++chunks;
      }
      return chunks;
    }
    body(0, n);
    return n > 0 ? 1 : 0;
  }
  const size_t num_morsels = (n + ctx.morsel_size - 1) / ctx.morsel_size;
  ParallelFor(ctx.pool, num_morsels, [&](size_t m) {
    if (ctx.governor != nullptr && ctx.governor->ShouldStop()) return;
    const size_t begin = m * ctx.morsel_size;
    body(begin, std::min(n, begin + ctx.morsel_size));
  });
  return num_morsels;
}

// Batch gather: materializes src's logical rows `idx` (in order) into
// dst's columns [dst_col0, dst_col0 + src.num_cols()), which must be
// empty. Column-at-a-time, morsel-parallel over the row range, so the
// inner loop is a tight index copy per column. Returns the number of batch
// kernel invocations (row chunks x columns) for the batch accounting.
size_t GatherColumns(const ExecContext& ctx, const Table& src,
                     std::span<const uint32_t> idx, Table* dst,
                     size_t dst_col0) {
  assert(dst->dense());
  const size_t n = idx.size();
  const size_t ncols = src.num_cols();
  // Columnar emit buffers are the dominant materialization: charge them to
  // the memory budget before they grow. A refusal trips the governor; the
  // destination columns stay empty (schema intact, zero rows) and the
  // evaluator surfaces the sticky status before the output can escape.
  if (ctx.governor != nullptr &&
      ctx.governor->ChargeOrStop(n * ncols * sizeof(NodeId))) {
    return 0;
  }
  for (size_t j = 0; j < ncols; ++j) {
    assert(dst->cols[dst_col0 + j].empty());
    dst->cols[dst_col0 + j].resize(n);
  }
  if (n == 0 || ncols == 0) return 0;
  size_t chunks = ForEachMorsel(ctx, n, [&](size_t begin, size_t end) {
    for (size_t j = 0; j < ncols; ++j) {
      const NodeId* in = src.cols[j].data();
      NodeId* out = dst->cols[dst_col0 + j].data();
      if (src.use_sel) {
        const uint32_t* sel = src.sel.data();
        for (size_t r = begin; r < end; ++r) out[r] = in[sel[idx[r]]];
      } else {
        for (size_t r = begin; r < end; ++r) out[r] = in[idx[r]];
      }
    }
  });
  return chunks * ncols;
}

// Materializes an expansion's output: batch-gathers the base columns for
// the emitted row indices and installs the emitted bindings as the final
// column (a move, not a copy). Returns the batch count.
size_t GatherExpand(const ExecContext& ctx, const Table& in, EmitChunk&& hits,
                    Table* out) {
  const size_t gathers = GatherColumns(ctx, in, hits.idx, out, 0);
  if (ctx.governor != nullptr && ctx.governor->tripped()) {
    // The gather was refused (or cancelled mid-way): emit a consistent
    // zero-row table rather than columns of unequal length.
    for (auto& c : out->cols) c.clear();
    hits.node.clear();
  }
  const bool any = !hits.node.empty();
  out->cols.back() = std::move(hits.node);
  return any ? gathers + 1 : 0;
}

}  // namespace

std::optional<std::string> ExtractKey(const MctDatabase& db, NodeId node,
                                      const KeySpec& spec) {
  switch (spec.kind) {
    case KeySpec::Kind::kOwnContent:
      if (!db.store().HasContent(node)) return std::nullopt;
      return db.Content(node);
    case KeySpec::Kind::kChildContent: {
      if (!db.Colors(node).Has(spec.color)) return std::nullopt;
      std::optional<std::string> out;
      db.tree(spec.color)->ForEachChild(node, [&](NodeId c) {
        if (!out.has_value() && db.Tag(c) == spec.name) out = db.Content(c);
      });
      return out;
    }
    case KeySpec::Kind::kAttr: {
      const std::string* v = db.FindAttr(node, spec.name);
      if (v == nullptr) return std::nullopt;
      return *v;
    }
    case KeySpec::Kind::kStringValue:
      return db.StringValue(node, spec.color);
  }
  return std::nullopt;
}

bool KeySpecViewable(const KeySpec& spec) {
  return spec.kind != KeySpec::Kind::kStringValue;
}

std::optional<std::string_view> ExtractKeyView(const MctDatabase& db,
                                               NodeId node,
                                               const KeySpec& spec) {
  switch (spec.kind) {
    case KeySpec::Kind::kOwnContent:
      if (!db.store().HasContent(node)) return std::nullopt;
      return std::string_view(db.Content(node));
    case KeySpec::Kind::kChildContent: {
      if (!db.Colors(node).Has(spec.color)) return std::nullopt;
      std::optional<std::string_view> out;
      db.tree(spec.color)->ForEachChild(node, [&](NodeId c) {
        if (!out.has_value() && db.Tag(c) == spec.name) {
          out = std::string_view(db.Content(c));
        }
      });
      return out;
    }
    case KeySpec::Kind::kAttr: {
      const std::string* v = db.FindAttr(node, spec.name);
      if (v == nullptr) return std::nullopt;
      return std::string_view(*v);
    }
    case KeySpec::Kind::kStringValue:
      break;  // concatenates: no stable storage to view (precondition)
  }
  return std::nullopt;
}

Table TagScanTable(MctDatabase* db, ColorId color, const std::string& var,
                   const std::string& tag, const ExecContext& ctx) {
  OpScope tr(ctx, "TAG SCAN", 0);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return Table::FromNodes(var, {});
  }
  std::vector<NodeId> nodes = db->TagScan(color, tag, ctx.pool);
  if (ctx.stats != nullptr) ctx.stats->rows_scanned += nodes.size();
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}%s -> %s", db->ColorName(color).c_str(),
                            tag.c_str(), var.c_str()));
    tr.Finish(nodes.size(), nodes.empty() ? 0 : 1, nodes.size());
  }
  // The scan vector becomes the column directly — no per-row work.
  return Table::FromNodes(var, std::move(nodes));
}

Table ExpandChildren(MctDatabase* db, const Table& in, int col, ColorId color,
                     const std::string& tag, const std::string& out_var,
                     const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "CHILD STEP", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}child::%s -> %s",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  const ColoredTree* t = db->tree(color);
  NameId tag_id = TagFilterId(*db, tag);
  if (!tag.empty() && tag_id == kInvalidNameId) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;  // unknown tag
  }
  const MctDatabase& cdb = *db;
  EmitChunk hits;
  const size_t morsels = MorselCollect(
      ctx, in.num_rows(), &hits,
      [&](size_t begin, size_t end, EmitChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          NodeId n = in.At(i, col);
          if (!cdb.Colors(n).Has(color)) continue;
          t->ForEachChild(n, [&](NodeId c) {
            if (cdb.Kind(c) == xml::NodeKind::kElement &&
                TagIdMatches(cdb, c, tag, tag_id)) {
              chunk->idx.push_back(static_cast<uint32_t>(i));
              chunk->node.push_back(c);
            }
          });
        }
      });
  CountBatches(tr, morsels + GatherExpand(ctx, in, std::move(hits), &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

namespace {

// A distinct ancestor candidate of the interval merge: the context node's
// labels in the color, sorted by start.
struct Anc {
  uint64_t start, end;
  NodeId node;
};

std::vector<Anc> AncCandidates(
    const std::unordered_map<NodeId, std::vector<uint32_t>>& groups,
    const ColoredTree& ct) {
  std::vector<Anc> ancs;
  ancs.reserve(groups.size());
  for (const auto& [n, _] : groups) {
    if (!ct.Contains(n)) continue;
    ancs.push_back(Anc{ct.Start(n), ct.End(n), n});
  }
  std::sort(ancs.begin(), ancs.end(),
            [](const Anc& a, const Anc& b) { return a.start < b.start; });
  return ancs;
}

// Interval-range shard pruning (DESIGN.md §17): cuts the start-sorted
// descendant stream into per-shard runs and drops the runs of shards whose
// label range is disjoint from every context interval — those descendants
// can have no open ancestor in the merge, so they emit nothing, and
// removing them up front preserves the exact output sequence while the
// stack replay (and its fan-out) skips the dead ranges entirely. The
// surviving runs, concatenated in shard order, stay in ascending start
// order. Runs only after mask filtering (the caller returns before the
// scan on a masked color), so pruning never observes masked data.
std::vector<NodeId> ShardPrune(int shard_count,
                               const std::vector<NodeId>& descs,
                               const std::vector<Anc>& ancs,
                               const ColoredTree& ct) {
  const ShardRanges ranges(shard_count, ct);
  const size_t ns = static_cast<size_t>(shard_count);
  const std::vector<size_t> cuts = ranges.CutRuns(
      descs.size(), [&](size_t i) { return ct.Start(descs[i]); });
  // Context intervals, sorted by start (AncCandidates' order) with a
  // running max end — the O(log) disjointness probe per shard.
  std::vector<uint64_t> astarts;
  std::vector<uint64_t> amax;
  astarts.reserve(ancs.size());
  amax.reserve(ancs.size());
  uint64_t m = 0;
  for (const Anc& a : ancs) {
    astarts.push_back(a.start);
    m = std::max(m, a.end);
    amax.push_back(m);
  }
  std::vector<NodeId> kept;
  kept.reserve(descs.size());
  uint64_t kept_shards = 0;
  uint64_t pruned_shards = 0;
  for (size_t s = 0; s < ns; ++s) {
    if (cuts[s] == cuts[s + 1]) continue;  // no members here anyway
    auto [lo, hi] = ranges.Range(static_cast<int>(s));
    if (ShardRanges::RangeDisjoint(astarts, amax, lo, hi)) {
      ++pruned_shards;
      continue;
    }
    ++kept_shards;
    kept.insert(kept.end(),
                descs.begin() + static_cast<ptrdiff_t>(cuts[s]),
                descs.begin() + static_cast<ptrdiff_t>(cuts[s + 1]));
  }
  ShardTasksCounter()->Inc(kept_shards);
  ShardPrunedCounter()->Inc(pruned_shards);
  return kept;
}

// Stack-based interval merge (stack-tree join, Al-Khalifa et al.): both
// inputs in ascending start order; the stack holds the chain of ancestor
// candidates currently open around the scan point. The stack state at a
// given descendant depends only on its start label, so each morsel of the
// descendant stream can rebuild it independently (one O(|ancs|) replay
// per morsel) and emit exactly the serial subsequence. Collects one
// (input row, matched descendant) pair per match.
size_t IntervalMerge(
    const ExecContext& ctx, const std::vector<NodeId>& descs,
    const std::vector<Anc>& ancs,
    const std::unordered_map<NodeId, std::vector<uint32_t>>& groups,
    const ColoredTree& ct, EmitChunk* out) {
  return MorselCollect(
      ctx, descs.size(), out,
      [&](size_t begin, size_t end, EmitChunk* chunk, ExecStats*) {
        std::vector<const Anc*> stack;
        size_t ai = 0;
        for (size_t di = begin; di < end; ++di) {
          NodeId d = descs[di];
          uint64_t ds = ct.Start(d);
          uint64_t de = ct.End(d);
          while (ai < ancs.size() && ancs[ai].start < ds) {
            while (!stack.empty() && stack.back()->end < ancs[ai].start) {
              stack.pop_back();
            }
            stack.push_back(&ancs[ai]);
            ++ai;
          }
          while (!stack.empty() && stack.back()->end < ds) stack.pop_back();
          // Every remaining stack entry contains d (intervals are properly
          // nested). Guard de anyway for robustness against equal labels.
          for (const Anc* a : stack) {
            if (a->end > de) {
              for (uint32_t ri : groups.at(a->node)) {
                chunk->idx.push_back(ri);
                chunk->node.push_back(d);
              }
            }
          }
        }
      });
}

// Shared emission tail of the descendant-merge operators: collects
// (row, descendant) pairs, then gathers.
size_t MergeEmit(const ExecContext& ctx, const Table& in,
                 const std::vector<NodeId>& descs,
                 const std::vector<Anc>& ancs,
                 const std::unordered_map<NodeId, std::vector<uint32_t>>& groups,
                 const ColoredTree& ct, Table* out, OpScope& tr) {
  EmitChunk hits;
  const size_t morsels = IntervalMerge(ctx, descs, ancs, groups, ct, &hits);
  CountBatches(tr, morsels + GatherExpand(ctx, in, std::move(hits), out));
  return morsels;
}

}  // namespace

Table ExpandDescendants(MctDatabase* db, const Table& in, int col,
                        ColorId color, const std::string& tag,
                        const std::string& out_var, const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "DESCENDANT STEP", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}descendant::%s -> %s",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  std::vector<NodeId> descs = db->TagScan(color, tag, ctx.pool);
  if (ctx.stats != nullptr) ctx.stats->rows_scanned += descs.size();
  if (descs.empty() || in.num_rows() == 0) {
    if (tr.enabled()) tr.Finish(0, 0, descs.size());
    return out;
  }

  ColoredTree* t = db->tree(color);
  t->EnsureLabels();
  const ColoredTree& ct = *t;  // clean labels: const reads from here on

  // Distinct ancestor candidates (rows grouped per node), sorted by start.
  const auto groups = GroupByNode(in, col);
  const std::vector<Anc> ancs = AncCandidates(groups, ct);

  const size_t scanned = descs.size();
  const int shards = db->shard_count();
  if (shards > 1) descs = ShardPrune(shards, descs, ancs, ct);

  size_t morsels = MergeEmit(ctx, in, descs, ancs, groups, ct, &out, tr);
  if (shards > 1) ShardMergeRowsCounter()->Inc(out.num_rows());
  // Re-establish row order of the left input (group expansion visits in
  // descendant order): callers that need input order should sort; FLWOR
  // semantics here only require the binding set, so we keep merge order.
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels, scanned);
  return out;
}

Table ExpandDescendantsAmong(MctDatabase* db, const Table& in, int col,
                             ColorId color, const std::string& tag,
                             const std::vector<NodeId>& cands,
                             const std::string& out_var,
                             const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "DESCENDANT SEEK", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}descendant::%s -> %s (%zu candidates)",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str(), cands.size()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  ColoredTree* t = db->tree(color);
  t->EnsureLabels();
  const ColoredTree& ct = *t;
  NameId tag_id = TagFilterId(*db, tag);
  if (!tag.empty() && tag_id == kInvalidNameId) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }

  // Normalize the candidate set to the exact subsequence of the tag scan it
  // represents: color members of the right kind and tag, deduped, ascending
  // start order (= local document order, the tag index's order). After
  // this, the interval merge below sees precisely the baseline's descendant
  // stream restricted to the candidates, so it emits the identical
  // subsequence of the baseline's output rows.
  std::vector<NodeId> descs;
  descs.reserve(cands.size());
  {
    std::unordered_set<NodeId> seen;
    seen.reserve(cands.size() * 2);
    for (NodeId d : cands) {
      if (!ct.Contains(d)) continue;
      if (db->Kind(d) != xml::NodeKind::kElement) continue;
      if (!TagIdMatches(*db, d, tag, tag_id)) continue;
      if (seen.insert(d).second) descs.push_back(d);
    }
  }
  std::sort(descs.begin(), descs.end(),
            [&](NodeId a, NodeId b) { return ct.Start(a) < ct.Start(b); });
  if (ctx.stats != nullptr) ctx.stats->rows_scanned += descs.size();
  if (descs.empty() || in.num_rows() == 0) {
    if (tr.enabled()) tr.Finish(0, 0, descs.size());
    return out;
  }

  const auto groups = GroupByNode(in, col);
  const std::vector<Anc> ancs = AncCandidates(groups, ct);

  // Seek pushdown composes with sharding for free: the normalized
  // candidate stream is start-sorted, so pruning routes the merge to only
  // the shards owning candidates under a live context interval.
  const size_t scanned = descs.size();
  const int shards = db->shard_count();
  if (shards > 1) descs = ShardPrune(shards, descs, ancs, ct);

  size_t morsels = MergeEmit(ctx, in, descs, ancs, groups, ct, &out, tr);
  if (shards > 1) ShardMergeRowsCounter()->Inc(out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels, scanned);
  return out;
}

Table ExpandDescendantsNav(MctDatabase* db, const Table& in, int col,
                           ColorId color, const std::string& tag,
                           const std::string& out_var,
                           const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "DESCENDANT NAV", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}descendant::%s -> %s",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  ColoredTree* t = db->tree(color);
  t->EnsureLabels();
  const ColoredTree& ct = *t;
  NameId tag_id = TagFilterId(*db, tag);
  if (!tag.empty() && tag_id == kInvalidNameId) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  if (in.num_rows() == 0) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }

  const auto groups = GroupByNode(in, col);
  struct Ctx {
    uint64_t start;
    NodeId node;
  };
  std::vector<Ctx> ancs;
  ancs.reserve(groups.size());
  for (const auto& [n, _] : groups) {
    if (!ct.Contains(n)) continue;
    ancs.push_back(Ctx{ct.Start(n), n});
  }
  std::sort(ancs.begin(), ancs.end(),
            [](const Ctx& a, const Ctx& b) { return a.start < b.start; });

  // Walk each context subtree; order hits globally like the interval merge
  // does: by (descendant start, ancestor start). With nested contexts a
  // descendant is found once per containing context, exactly as the merge
  // emits it once per open stack entry, bottom (outermost) first.
  struct Hit {
    uint64_t ds;
    size_t anc_idx;
    NodeId d;
  };
  std::vector<Hit> hits;
  size_t visited = 0;
  for (size_t a = 0; a < ancs.size(); ++a) {
    for (NodeId d : ct.PreOrder(ancs[a].node)) {
      ++visited;
      if (d == ancs[a].node) continue;  // proper descendants only
      if (db->Kind(d) != xml::NodeKind::kElement) continue;
      if (!TagIdMatches(*db, d, tag, tag_id)) continue;
      hits.push_back(Hit{ct.Start(d), a, d});
    }
  }
  if (ctx.stats != nullptr) ctx.stats->rows_scanned += visited;
  std::sort(hits.begin(), hits.end(), [](const Hit& x, const Hit& y) {
    return x.ds != y.ds ? x.ds < y.ds : x.anc_idx < y.anc_idx;
  });
  EmitChunk emits;
  emits.Reserve(hits.size());
  for (const Hit& h : hits) {
    for (uint32_t ri : groups.at(ancs[h.anc_idx].node)) {
      emits.idx.push_back(ri);
      emits.node.push_back(h.d);
    }
  }
  CountBatches(tr, 1 + GatherExpand(ctx, in, std::move(emits), &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), 1, hits.size());
  return out;
}

Table ExpandDescendantsRoot(MctDatabase* db, const Table& in, int col,
                            ColorId color, const std::string& tag,
                            const std::string& out_var,
                            const ExecContext& ctx) {
  // Precondition fallback: only the lone document row qualifies.
  if (in.num_rows() != 1 || in.At(0, col) != db->document()) {
    return ExpandDescendants(db, in, col, color, tag, out_var, ctx);
  }
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "DESCENDANT SCAN", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}descendant::%s -> %s",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  // Every tag-index entry of the color is a proper descendant of the
  // document root, and the index is in local document order — exactly the
  // (start(d), start(doc), row 0) order the interval merge would emit.
  // With shards active the order-restoring sort inside the scan fans out
  // one task per shard (the whole-document context prunes nothing).
  std::vector<NodeId> descs = db->TagScan(color, tag, ctx.pool);
  if (ctx.stats != nullptr) ctx.stats->rows_scanned += descs.size();
  const ColoredTree* t = db->tree(color);
  std::vector<NodeId> kept;
  kept.reserve(descs.size());
  for (NodeId d : descs) {
    if (t->Contains(d)) kept.push_back(d);
  }
  // The base columns are n copies of the single input row; the emit
  // column is the filtered scan itself (moved in).
  const size_t ncols = in.num_cols();
  for (size_t j = 0; j < ncols; ++j) {
    out.cols[j].assign(kept.size(), in.At(0, static_cast<int>(j)));
  }
  if (!kept.empty()) CountBatches(tr, ncols + 1);
  out.cols.back() = std::move(kept);
  if (tr.enabled()) tr.Finish(out.num_rows(), descs.empty() ? 0 : 1,
                              descs.size());
  return out;
}

Table ExpandParent(MctDatabase* db, const Table& in, int col, ColorId color,
                   const std::string& tag, const std::string& out_var,
                   const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "PARENT STEP", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}parent::%s -> %s",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  NameId tag_id = TagFilterId(*db, tag);
  if (!tag.empty() && tag_id == kInvalidNameId) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  const MctDatabase& cdb = *db;
  EmitChunk hits;
  const size_t morsels = MorselCollect(
      ctx, in.num_rows(), &hits,
      [&](size_t begin, size_t end, EmitChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          auto p = cdb.Parent(in.At(i, col), color);
          if (p.has_value() && cdb.Kind(*p) == xml::NodeKind::kElement &&
              TagIdMatches(cdb, *p, tag, tag_id)) {
            chunk->idx.push_back(static_cast<uint32_t>(i));
            chunk->node.push_back(*p);
          }
        }
      });
  CountBatches(tr, morsels + GatherExpand(ctx, in, std::move(hits), &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

Table ExpandAncestors(MctDatabase* db, const Table& in, int col, ColorId color,
                      const std::string& tag, const std::string& out_var,
                      const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "ANCESTOR STEP", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s}ancestor::%s -> %s",
                            db->ColorName(color).c_str(),
                            tag.empty() ? "node()" : tag.c_str(),
                            out_var.c_str()));
  }
  Table out = WithExtraColumn(in, out_var);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  NameId tag_id = TagFilterId(*db, tag);
  if (!tag.empty() && tag_id == kInvalidNameId) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  const ColoredTree* t = db->tree(color);
  const MctDatabase& cdb = *db;
  EmitChunk hits;
  const size_t morsels = MorselCollect(
      ctx, in.num_rows(), &hits,
      [&](size_t begin, size_t end, EmitChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          NodeId n = in.At(i, col);
          if (!t->Contains(n)) continue;
          for (NodeId p = t->Parent(n); p != kInvalidNodeId;
               p = t->Parent(p)) {
            if (cdb.Kind(p) == xml::NodeKind::kElement &&
                TagIdMatches(cdb, p, tag, tag_id)) {
              chunk->idx.push_back(static_cast<uint32_t>(i));
              chunk->node.push_back(p);
            }
          }
        }
      });
  CountBatches(tr, morsels + GatherExpand(ctx, in, std::move(hits), &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

namespace {

// Shared survivor collection of CrossTreeJoin: logical row indices whose
// `col` node carries the target color.
size_t CollectColorSurvivors(const ExecContext& ctx, const Table& in, int col,
                             const ColoredTree& t, IdxChunk* keep) {
  return MorselCollect(
      ctx, in.num_rows(), keep,
      [&](size_t begin, size_t end, IdxChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          if (t.Contains(in.At(i, col))) {
            chunk->idx.push_back(static_cast<uint32_t>(i));
          }
        }
      });
}

}  // namespace

Table CrossTreeJoin(MctDatabase* db, const Table& in, int col, ColorId to_color,
                    const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->cross_tree_joins;
  OpScope tr(ctx, "CROSS-TREE JOIN", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("%s -> {%s}",
                            in.vars[static_cast<size_t>(col)].c_str(),
                            db->ColorName(to_color).c_str()));
    tr.AddColorTransition();
  }
  // Bulk identity join: follow the back-links from the shared node record
  // to the structural node of the target color (Section 6.2); rows whose
  // node lacks the color are dropped.
  Table out = Table::WithVars(in.vars);
  if (MaskBlocks(ctx, to_color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  IdxChunk keep;
  const size_t morsels =
      CollectColorSurvivors(ctx, in, col, *db->tree(to_color), &keep);
  CountBatches(tr, morsels + GatherColumns(ctx, in, keep.idx, &out, 0));
  ObserveSelectivity(in.num_rows(), out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

Table CrossTreeJoin(MctDatabase* db, Table&& in, int col, ColorId to_color,
                    const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->cross_tree_joins;
  OpScope tr(ctx, "CROSS-TREE JOIN", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("%s -> {%s}",
                            in.vars[static_cast<size_t>(col)].c_str(),
                            db->ColorName(to_color).c_str()));
    tr.AddColorTransition();
  }
  if (MaskBlocks(ctx, to_color)) {
    Table out = std::move(in);
    out.KeepRows({});
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  const ColoredTree* t = db->tree(to_color);
  IdxChunk keep;
  size_t morsels = CollectColorSurvivors(ctx, in, col, *t, &keep);
  const size_t rows_in = in.num_rows();
  // Survivors become the selection vector of the moved table: no cell
  // copies at all.
  Table out = std::move(in);
  out.KeepRows(std::move(keep.idx));
  CountBatches(tr, morsels);
  ObserveSelectivity(rows_in, out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

Table StructuralSemiJoin(MctDatabase* db, const Table& in, int col,
                         ColorId color, const std::vector<NodeId>& anc_set,
                         const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->structural_joins;
  OpScope tr(ctx, "STRUCTURAL SEMI-JOIN", in.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("{%s} %llu ancestors",
                            db->ColorName(color).c_str(),
                            static_cast<unsigned long long>(anc_set.size())));
  }
  Table out = Table::WithVars(in.vars);
  if (MaskBlocks(ctx, color)) {
    if (tr.enabled()) tr.Finish(0, 0, 0);
    return out;
  }
  ColoredTree* t = db->tree(color);
  t->EnsureLabels();
  const ColoredTree& ct = *t;
  struct Iv {
    uint64_t start, end;
  };
  std::vector<Iv> ivs;
  ivs.reserve(anc_set.size());
  for (NodeId a : anc_set) {
    if (ct.Contains(a)) ivs.push_back(Iv{ct.Start(a), ct.End(a)});
  }
  std::sort(ivs.begin(), ivs.end(),
            [](const Iv& a, const Iv& b) { return a.start < b.start; });
  // Tree intervals are nested or disjoint, so node n (start s) lies under
  // some interval iff an interval with start < s has end > s. Precompute the
  // running max end so each probe is one binary search.
  std::vector<uint64_t> prefix_max_end(ivs.size());
  uint64_t running = 0;
  for (size_t i = 0; i < ivs.size(); ++i) {
    running = std::max(running, ivs[i].end);
    prefix_max_end[i] = running;
  }
  auto contained = [&](NodeId n) {
    if (!ct.Contains(n)) return false;
    uint64_t s = ct.Start(n);
    // Last interval with start < s.
    size_t lo = 0, hi = ivs.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (ivs[mid].start < s) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo > 0 && prefix_max_end[lo - 1] > s;
  };
  IdxChunk keep;
  const size_t morsels = MorselCollect(
      ctx, in.num_rows(), &keep,
      [&](size_t begin, size_t end, IdxChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          if (contained(in.At(i, col))) {
            chunk->idx.push_back(static_cast<uint32_t>(i));
          }
        }
      });
  CountBatches(tr, morsels + GatherColumns(ctx, in, keep.idx, &out, 0));
  ObserveSelectivity(in.num_rows(), out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

namespace {

// Batch key extraction: fills one key slot per logical row (morsel-
// parallel slot writes — extraction is the expensive part of a value
// join). Returns the chunk count for the batch accounting.
template <typename Key, typename Fn>
size_t ExtractKeyColumn(const ExecContext& ctx, size_t n,
                        std::vector<std::optional<Key>>* keys, const Fn& fn) {
  keys->resize(n);
  return ForEachMorsel(ctx, n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) (*keys)[i] = fn(i);
  });
}

// Hash-join core: build a key -> build-row-index table (serial), then
// probe morsel-parallel over the probe key column emitting (left row,
// right row) pairs, probe-major in bucket insertion order.
template <typename Key>
size_t HashJoinProbe(const ExecContext& ctx, bool build_left,
                     const std::vector<std::optional<Key>>& bkeys,
                     const std::vector<std::optional<Key>>& pkeys,
                     PairChunk* pairs) {
  // Join scratch: charge the hash table (bucket array + per-entry node and
  // row-index vector, ~48 bytes each) before building it.
  if (ctx.governor != nullptr && ctx.governor->ChargeOrStop(bkeys.size() * 48)) {
    return 0;
  }
  std::unordered_map<Key, std::vector<uint32_t>> ht;
  ht.reserve(bkeys.size() * 2);
  for (size_t i = 0; i < bkeys.size(); ++i) {
    if (bkeys[i].has_value()) {
      ht[*bkeys[i]].push_back(static_cast<uint32_t>(i));
    }
  }
  return MorselCollect(
      ctx, pkeys.size(), pairs,
      [&](size_t begin, size_t end, PairChunk* chunk, ExecStats*) {
        for (size_t pi = begin; pi < end; ++pi) {
          if (!pkeys[pi].has_value()) continue;
          auto it = ht.find(*pkeys[pi]);
          if (it == ht.end()) continue;
          for (uint32_t bi : it->second) {
            chunk->li.push_back(build_left ? bi : static_cast<uint32_t>(pi));
            chunk->ri.push_back(build_left ? static_cast<uint32_t>(pi) : bi);
          }
        }
      });
}

Table JoinOutput(const Table& left, const Table& right) {
  Table out;
  out.vars = left.vars;
  out.vars.insert(out.vars.end(), right.vars.begin(), right.vars.end());
  out.cols.resize(out.vars.size());
  return out;
}

// Materializes a join's output from collected row pairs: one batch gather
// per side. Returns the batch count.
size_t GatherJoin(const ExecContext& ctx, const Table& left,
                  const Table& right, const PairChunk& pairs, Table* out) {
  size_t batches = GatherColumns(ctx, left, pairs.li, out, 0);
  batches += GatherColumns(ctx, right, pairs.ri, out, left.num_cols());
  return batches;
}

}  // namespace

Table HashValueJoin(MctDatabase* db, const Table& left, int lcol,
                    const KeySpec& lkey, const Table& right, int rcol,
                    const KeySpec& rkey, const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->value_joins;
  OpScope tr(ctx, "HASH VALUE JOIN", left.num_rows() + right.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("%s = %s",
                            left.vars[static_cast<size_t>(lcol)].c_str(),
                            right.vars[static_cast<size_t>(rcol)].c_str()));
  }
  Table out = JoinOutput(left, right);
  // Build on the smaller input (serial); probe in parallel morsels.
  const bool build_left = left.num_rows() <= right.num_rows();
  const Table& build = build_left ? left : right;
  const Table& probe = build_left ? right : left;
  const int bcol = build_left ? lcol : rcol;
  const int pcol = build_left ? rcol : lcol;
  const KeySpec& bkey = build_left ? lkey : rkey;
  const KeySpec& pkey = build_left ? rkey : lkey;
  const MctDatabase& cdb = *db;

  // Viewable keys (content / attribute images) hash as string_views into
  // the node store — no per-row key copies on either side.
  size_t morsels;
  PairChunk pairs;
  size_t batches = 0;
  if (KeySpecViewable(bkey) && KeySpecViewable(pkey)) {
    std::vector<std::optional<std::string_view>> bk, pk;
    batches += ExtractKeyColumn(ctx, build.num_rows(), &bk, [&](size_t i) {
      return ExtractKeyView(cdb, build.At(i, bcol), bkey);
    });
    batches += ExtractKeyColumn(ctx, probe.num_rows(), &pk, [&](size_t i) {
      return ExtractKeyView(cdb, probe.At(i, pcol), pkey);
    });
    morsels = HashJoinProbe(ctx, build_left, bk, pk, &pairs);
  } else {
    std::vector<std::optional<std::string>> bk, pk;
    batches += ExtractKeyColumn(ctx, build.num_rows(), &bk, [&](size_t i) {
      return ExtractKey(cdb, build.At(i, bcol), bkey);
    });
    batches += ExtractKeyColumn(ctx, probe.num_rows(), &pk, [&](size_t i) {
      return ExtractKey(cdb, probe.At(i, pcol), pkey);
    });
    morsels = HashJoinProbe(ctx, build_left, bk, pk, &pairs);
  }
  CountBatches(tr,
               batches + morsels + GatherJoin(ctx, left, right, pairs, &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels, probe.num_rows());
  return out;
}

Table IdrefsJoin(MctDatabase* db, const Table& left, int lcol,
                 const KeySpec& lkey, const Table& right, int rcol,
                 const KeySpec& rkey, const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->value_joins;
  OpScope tr(ctx, "IDREFS VALUE JOIN", left.num_rows() + right.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("%s ~ %s",
                            left.vars[static_cast<size_t>(lcol)].c_str(),
                            right.vars[static_cast<size_t>(rcol)].c_str()));
  }
  Table out = JoinOutput(left, right);
  const MctDatabase& cdb = *db;
  // Hash the single-id side (serial), then probe once per token of each
  // list, morsel-parallel over the list side. The table (string keys +
  // row-index vectors, ~64 bytes each) is join scratch: budget it first.
  if (ctx.governor != nullptr &&
      ctx.governor->ChargeOrStop(right.num_rows() * 64)) {
    return out;
  }
  std::unordered_map<std::string, std::vector<uint32_t>> ht;
  for (size_t i = 0; i < right.num_rows(); ++i) {
    auto k = ExtractKey(cdb, right.At(i, rcol), rkey);
    if (k.has_value()) ht[*k].push_back(static_cast<uint32_t>(i));
  }
  PairChunk pairs;
  const size_t morsels = MorselCollect(
      ctx, left.num_rows(), &pairs,
      [&](size_t begin, size_t end, PairChunk* chunk, ExecStats*) {
        for (size_t li = begin; li < end; ++li) {
          auto list = ExtractKey(cdb, left.At(li, lcol), lkey);
          if (!list.has_value()) continue;
          for (const std::string& token : SplitWhitespace(*list)) {
            auto it = ht.find(token);
            if (it == ht.end()) continue;
            for (uint32_t ri : it->second) {
              chunk->li.push_back(static_cast<uint32_t>(li));
              chunk->ri.push_back(ri);
            }
          }
        }
      });
  CountBatches(tr, morsels + GatherJoin(ctx, left, right, pairs, &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels, left.num_rows());
  return out;
}

Table NestedLoopJoin(MctDatabase* db, const Table& left, const Table& right,
                     const std::function<bool(size_t, size_t)>& pred,
                     const ExecContext& ctx) {
  (void)db;
  if (ctx.stats != nullptr) ++ctx.stats->nested_loop_joins;
  OpScope tr(ctx, "NESTED-LOOP JOIN", left.num_rows() + right.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("%llu x %llu",
                            static_cast<unsigned long long>(left.num_rows()),
                            static_cast<unsigned long long>(right.num_rows())));
  }
  Table out = JoinOutput(left, right);
  const size_t rn = right.num_rows();
  // The quadratic operator: one morsel of left rows costs O(morsel * rn)
  // predicate calls, so a morsel-boundary check alone could be arbitrarily
  // late. When governed and the inner side is large enough to amortize a
  // clock read, check per left row.
  const bool row_check = ctx.governor != nullptr && rn > 256;
  PairChunk pairs;
  const size_t morsels = MorselCollect(
      ctx, left.num_rows(), &pairs,
      [&](size_t begin, size_t end, PairChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          if (row_check && ctx.governor->ShouldStop()) return;
          for (size_t j = 0; j < rn; ++j) {
            if (pred(i, j)) {
              chunk->li.push_back(static_cast<uint32_t>(i));
              chunk->ri.push_back(static_cast<uint32_t>(j));
            }
          }
        }
      });
  CountBatches(tr, morsels + GatherJoin(ctx, left, right, pairs, &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels, left.num_rows());
  return out;
}

Table IdentityJoin(MctDatabase* db, const Table& left, int lcol,
                   const Table& right, int rcol, const ExecContext& ctx) {
  (void)db;
  if (ctx.stats != nullptr) {
    ++ctx.stats->structural_joins;  // identity = label equality
  }
  OpScope tr(ctx, "IDENTITY JOIN", left.num_rows() + right.num_rows());
  if (tr.enabled()) {
    tr.set_detail(StrFormat("%s is %s",
                            left.vars[static_cast<size_t>(lcol)].c_str(),
                            right.vars[static_cast<size_t>(rcol)].c_str()));
  }
  Table out = JoinOutput(left, right);
  const auto groups = GroupByNode(right, rcol);
  PairChunk pairs;
  const size_t morsels = MorselCollect(
      ctx, left.num_rows(), &pairs,
      [&](size_t begin, size_t end, PairChunk* chunk, ExecStats*) {
        for (size_t li = begin; li < end; ++li) {
          auto it = groups.find(left.At(li, lcol));
          if (it == groups.end()) continue;
          for (uint32_t ri : it->second) {
            chunk->li.push_back(static_cast<uint32_t>(li));
            chunk->ri.push_back(ri);
          }
        }
      });
  CountBatches(tr, morsels + GatherJoin(ctx, left, right, pairs, &out));
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels, left.num_rows());
  return out;
}

namespace {

// Shared survivor collection of FilterRows.
size_t CollectFilterSurvivors(const ExecContext& ctx, size_t n,
                              const std::function<bool(size_t)>& pred,
                              IdxChunk* keep) {
  return MorselCollect(
      ctx, n, keep,
      [&](size_t begin, size_t end, IdxChunk* chunk, ExecStats*) {
        for (size_t i = begin; i < end; ++i) {
          if (pred(i)) chunk->idx.push_back(static_cast<uint32_t>(i));
        }
      });
}

}  // namespace

Table FilterRows(const Table& in, const std::function<bool(size_t)>& pred,
                 const ExecContext& ctx) {
  OpScope tr(ctx, "FILTER", in.num_rows());
  Table out = Table::WithVars(in.vars);
  IdxChunk keep;
  const size_t morsels =
      CollectFilterSurvivors(ctx, in.num_rows(), pred, &keep);
  CountBatches(tr, morsels + GatherColumns(ctx, in, keep.idx, &out, 0));
  ObserveSelectivity(in.num_rows(), out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

Table FilterRows(Table&& in, const std::function<bool(size_t)>& pred,
                 const ExecContext& ctx) {
  OpScope tr(ctx, "FILTER", in.num_rows());
  IdxChunk keep;
  size_t morsels = CollectFilterSurvivors(ctx, in.num_rows(), pred, &keep);
  const size_t rows_in = in.num_rows();
  // Survivors become the selection vector of the moved table.
  Table out = std::move(in);
  out.KeepRows(std::move(keep.idx));
  CountBatches(tr, morsels);
  ObserveSelectivity(rows_in, out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), morsels);
  return out;
}

namespace {

// Fixed-width byte key of one logical row's projection onto `cols`.
void DupKeyAt(const Table& t, size_t row, const std::vector<int>& cols,
              std::string* key) {
  key->clear();
  for (int c : cols) {
    NodeId v = t.At(row, c);
    key->append(reinterpret_cast<const char*>(&v), sizeof(NodeId));
  }
}

// First-occurrence survivors of duplicate elimination. Inherently order-
// dependent, so it stays serial.
std::vector<uint32_t> DupSurvivors(const Table& in,
                                   const std::vector<int>& cols) {
  std::vector<uint32_t> keep;
  std::unordered_set<std::string> seen;
  std::string key;
  const size_t n = in.num_rows();
  for (size_t i = 0; i < n; ++i) {
    DupKeyAt(in, i, cols, &key);
    if (seen.insert(key).second) keep.push_back(static_cast<uint32_t>(i));
  }
  return keep;
}

}  // namespace

Table DupElim(const Table& in, const std::vector<int>& cols,
              const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->dup_elims;
  OpScope tr(ctx, "DUP ELIM", in.num_rows());
  const size_t n = in.num_rows();
  Table out = Table::WithVars(in.vars);
  CountBatches(tr, GatherColumns(ctx, in, DupSurvivors(in, cols), &out, 0));
  ObserveSelectivity(n, out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), n == 0 ? 0 : 1, 0);
  return out;
}

Table DupElim(Table&& in, const std::vector<int>& cols,
              const ExecContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->dup_elims;
  OpScope tr(ctx, "DUP ELIM", in.num_rows());
  const size_t n = in.num_rows();
  std::vector<uint32_t> keep = DupSurvivors(in, cols);
  // Survivors become the selection vector of the moved table.
  Table out = std::move(in);
  out.KeepRows(std::move(keep));
  ObserveSelectivity(n, out.num_rows());
  if (tr.enabled()) tr.Finish(out.num_rows(), n == 0 ? 0 : 1, 0);
  return out;
}

Table Project(const Table& in, const std::vector<int>& cols) {
  Table out;
  out.vars.reserve(cols.size());
  out.cols.reserve(cols.size());
  for (int c : cols) {
    out.vars.push_back(in.vars[static_cast<size_t>(c)]);
    out.cols.push_back(in.cols[static_cast<size_t>(c)]);
  }
  out.sel = in.sel;
  out.use_sel = in.use_sel;
  return out;
}

Table Project(Table&& in, const std::vector<int>& cols) {
  // Move whole column vectors out of the source; a column referenced twice
  // is copied from its first (already moved) occurrence. The selection
  // vector carries over untouched.
  Table out;
  out.vars.reserve(cols.size());
  out.cols.reserve(cols.size());
  std::vector<int> placed(in.cols.size(), -1);
  for (size_t j = 0; j < cols.size(); ++j) {
    const size_t c = static_cast<size_t>(cols[j]);
    if (placed[c] < 0) {
      out.vars.push_back(std::move(in.vars[c]));
      out.cols.push_back(std::move(in.cols[c]));
      placed[c] = static_cast<int>(j);
    } else {
      out.vars.push_back(out.vars[static_cast<size_t>(placed[c])]);
      out.cols.push_back(out.cols[static_cast<size_t>(placed[c])]);
    }
  }
  out.sel = std::move(in.sel);
  out.use_sel = in.use_sel;
  in.vars.clear();
  in.cols.clear();
  in.use_sel = false;
  return out;
}

}  // namespace mct::query
