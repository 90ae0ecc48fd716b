#include "query/planner.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace mct::query {
namespace {

// Cost-model constants, in "node touches" (relative units only — the
// planner compares alternatives, it never predicts wall time). Calibrated
// against bench_ablation_joins shapes: an index-entry touch is ~1, a stack
// push/pop in the interval merge is cheaper, an interpreted predicate
// evaluation (EvalBool over the AST) is several times a scan touch.
constexpr double kScanC = 1.0;    // tag-index entry scan
constexpr double kGroupC = 1.5;   // group-by-node hash build, per input row
constexpr double kStackC = 0.6;   // interval-merge stack traffic, per node
constexpr double kEmitC = 1.0;    // output-row materialization
constexpr double kProbeC = 1.2;   // content/attr index probe, per row
constexpr double kFilterC = 6.0;  // interpreted predicate, per row
constexpr double kCrossC = 1.2;   // cross-tree join, per row
constexpr double kNavC = 1.5;     // pointer-chasing pre-order visit
// An alternative must beat the baseline by this factor: estimates are
// rough, and flapping between near-equal plans would make benchmarks and
// EXPLAIN PLAN output noisy for no gain.
constexpr double kHysteresis = 0.8;
// Runtime guard for kNavDescendant: if the context table turns out larger
// than this, the evaluator silently falls back to the baseline merge.
constexpr uint64_t kNavMaxRows = 64;

double Selectivity(const PredDesc& p, double expand) {
  if (p.positional) return 0.2;  // [N]: keeps ~one row per group
  if (p.est_matches >= 0 && expand > 0) {
    return std::min(1.0, p.est_matches / expand);
  }
  return 0.5;  // unknown predicate: coin flip
}

/// Cost of evaluating `preds` (minus the consumed seek pred) over
/// `rows` rows, cheapest-first when reordering is legal.
double PredCost(const StepDesc& step, const StepPlan& sp, double rows) {
  double cost = 0;
  for (int i = 0; i < static_cast<int>(step.preds.size()); ++i) {
    if (i == sp.seek_pred) continue;
    const PredDesc& p = step.preds[static_cast<size_t>(i)];
    double per_row =
        (p.seek != PredDesc::Seek::kNone) ? kProbeC : kFilterC;
    cost += per_row * rows;
    rows *= Selectivity(p, rows);
  }
  return cost;
}

bool HasPositional(const StepDesc& step) {
  for (const PredDesc& p : step.preds) {
    if (p.positional) return true;
  }
  return false;
}

/// Cross-tree elision is legal exactly when the axis operator itself
/// filters to the step color: ExpandChildren/Descendants scan the color's
/// tag index, ExpandParent asks Parent(n, color), ExpandAncestors checks
/// tree membership. kSelf/kAttribute filter in place (no color test) and
/// kDescendantOrSelf merges the input row itself back in unfiltered, so
/// the explicit join must stay.
bool AxisColorFilters(PlanAxis axis) {
  switch (axis) {
    case PlanAxis::kChild:
    case PlanAxis::kDescendant:
    case PlanAxis::kParent:
    case PlanAxis::kAncestor:
      return true;
    case PlanAxis::kDescendantOrSelf:
    case PlanAxis::kSelf:
    case PlanAxis::kAttribute:
      return false;
  }
  return false;
}

/// Estimated rows the axis expansion of `step` emits from `in_rows`
/// context rows. Prefers the color-flow lattice estimate when present
/// (absolute per-document cardinality, scaled to pairs only loosely: the
/// workload paths are near tree-shaped so pairs ≈ matching nodes), else
/// falls back to live tag-index counts.
double ExpandEstimate(const StepDesc& step, double in_rows, double tag_count,
                      double color_size) {
  switch (step.axis) {
    case PlanAxis::kChild:
    case PlanAxis::kDescendant:
    case PlanAxis::kDescendantOrSelf: {
      double e = step.flow_out >= 0 ? step.flow_out : tag_count;
      if (step.axis == PlanAxis::kDescendantOrSelf) e += in_rows;
      return std::max(e, 1.0);
    }
    case PlanAxis::kParent:
    case PlanAxis::kAncestor: {
      // At most one parent per row; ancestors bounded by depth (~log n).
      double depth = std::max(1.0, std::log2(color_size + 2));
      return step.axis == PlanAxis::kParent ? in_rows : in_rows * depth;
    }
    case PlanAxis::kSelf:
    case PlanAxis::kAttribute:
      return std::max(in_rows, 1.0);
  }
  return std::max(in_rows, 1.0);
}

/// Baseline cost of the axis expansion itself (tag scan + group hash +
/// interval merge / parent-pointer join), excluding predicates. `par` is
/// the shard fan-out (DESIGN.md §17): the interval merge and the emit run
/// as shard-parallel tasks, so their cost divides by the fan-out; the tag
/// scan and group hash stay serial in the model (the scan's sort does
/// parallelize, but its constant is small enough to ignore). par = 1 is
/// the exact pre-shard model.
double BaselineExpandCost(const StepDesc& step, double in_rows,
                          double tag_count, double expand, double par) {
  switch (step.axis) {
    case PlanAxis::kChild:
    case PlanAxis::kDescendant:
    case PlanAxis::kDescendantOrSelf:
      return kScanC * tag_count + kGroupC * in_rows +
             (kStackC * (in_rows + tag_count) + kEmitC * expand) / par;
    case PlanAxis::kParent:
    case PlanAxis::kAncestor:
      return kScanC * in_rows + kEmitC * expand;
    case PlanAxis::kSelf:
    case PlanAxis::kAttribute:
      return kScanC * in_rows;
  }
  return kScanC * in_rows;
}

/// Fills pred_order: index-seekable predicates first (most selective
/// first), the rest in source order. Only legal without positionals.
void OrderPreds(const StepDesc& step, StepPlan* sp) {
  sp->pred_order.clear();
  if (step.preds.empty() || HasPositional(step)) return;
  std::vector<int> order;
  for (int i = 0; i < static_cast<int>(step.preds.size()); ++i) {
    if (i != sp->seek_pred) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const PredDesc& pa = step.preds[static_cast<size_t>(a)];
    const PredDesc& pb = step.preds[static_cast<size_t>(b)];
    bool sa = pa.seek != PredDesc::Seek::kNone;
    bool sb = pb.seek != PredDesc::Seek::kNone;
    if (sa != sb) return sa;  // probes before interpreted filters
    if (sa && sb && pa.est_matches >= 0 && pb.est_matches >= 0) {
      return pa.est_matches < pb.est_matches;
    }
    return false;
  });
  sp->pred_order = std::move(order);
}

/// A binding qualifies for one holistic PathStackJoin when it is a pure
/// multi-step descendant spine in one color from the document: the join
/// produces exactly the baseline's row set (property-tested equal to the
/// composed binary joins) and the evaluator re-sorts to the baseline
/// order.
bool SpineEligible(const BindingDesc& b) {
  if (!b.doc_context || !b.single_row) return false;
  if (b.steps.size() < 2) return false;
  for (size_t i = 0; i < b.steps.size(); ++i) {
    const StepDesc& s = b.steps[i];
    if (s.masked) return false;  // visibility layer empties the step
    if (s.axis != PlanAxis::kDescendant) return false;
    if (s.tag.empty()) return false;
    if (!s.preds.empty()) return false;
    if (s.color != b.steps[0].color) return false;
    if (i > 0 && s.color_change) return false;
  }
  return true;
}

const char* AccessName(StepAccess a) {
  switch (a) {
    case StepAccess::kBaseline:
      return "baseline";
    case StepAccess::kScanShortcut:
      return "scan-shortcut";
    case StepAccess::kIndexSeek:
      return "index-seek";
    case StepAccess::kNavDescendant:
      return "nav";
  }
  return "?";
}

std::string FmtEst(double v) {
  if (v < 0) return "?";
  if (v == std::floor(v) && v < 1e15) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%.3g", v);
}

}  // namespace

StatementPlan PlanStatement(const std::vector<BindingDesc>& bindings,
                            const StatsProvider& stats,
                            ResourceGovernor* governor) {
  StatementPlan plan;
  plan.shard_count = std::max(1, stats.ShardCount());
  // Effective shard parallelism: fan-out is capped by what a typical pool
  // can actually run side by side, so 64 shards don't make the
  // model believe in 64x merges.
  const double par = std::min(plan.shard_count, 8);
  plan.bindings.reserve(bindings.size());
  for (const BindingDesc& b : bindings) {
    if (governor != nullptr && governor->ShouldStop()) {
      // Deadline already passed or session cancelled: don't spend time
      // costing a statement that will not run. The empty plan is the
      // all-baseline shape; the evaluator surfaces the governor's status
      // before execution starts.
      return StatementPlan{};
    }
    BindingPlan bp;
    bp.steps.resize(b.steps.size());
    double rows = std::max(b.in_rows, 1.0);
    double baseline_total = 0;
    double chosen_total = 0;
    for (size_t si = 0; si < b.steps.size(); ++si) {
      const StepDesc& step = b.steps[si];
      StepPlan& sp = bp.steps[si];

      // Masked step: the visibility layer empties it at runtime, so any
      // index seek, shortcut or elision would be wasted (or worse, the
      // elided cross-tree filter is what enforcement relies on). Keep the
      // baseline shape with zero estimates and move on; downstream steps
      // see ~zero input rows.
      if (step.masked) {
        sp.access = StepAccess::kBaseline;
        sp.seek_pred = -1;
        sp.est_in = rows;
        sp.est_expand = 0;
        sp.est_out = 0;
        rows = 1e-3;
        continue;
      }

      double tag_count = step.tag.empty() ? stats.ColorSize(step.color)
                                          : stats.TagCount(step.color, step.tag);
      double color_size = std::max(stats.ColorSize(step.color), 1.0);
      double expand = ExpandEstimate(step, rows, tag_count, color_size);
      sp.est_in = rows;
      sp.est_expand = expand;

      // Cross-tree join: cost it, and elide when the axis operator's own
      // color filter subsumes it (same kept rows, same order).
      double cross_cost = 0;
      if (step.color_change) {
        if (AxisColorFilters(step.axis)) {
          sp.elide_cross_tree = true;
        } else {
          cross_cost = kCrossC * rows;
        }
        baseline_total += kCrossC * rows;
      }

      double base_expand_cost =
          BaselineExpandCost(step, rows, tag_count, expand, par);
      StepPlan natural;  // baseline access, natural pred order
      natural.seek_pred = -1;
      double base_pred_cost = PredCost(step, natural, expand);
      double baseline_step = base_expand_cost + base_pred_cost;
      baseline_total += baseline_step;

      double best = base_expand_cost + base_pred_cost;
      sp.access = StepAccess::kBaseline;
      sp.seek_pred = -1;

      bool positional = HasPositional(step);
      bool first_from_doc = b.doc_context && si == 0;

      // kScanShortcut: the lone document row contains everything — the tag
      // scan is the answer, no grouping or merging needed.
      if (first_from_doc && b.single_row &&
          step.axis == PlanAxis::kDescendant) {
        double c = kScanC * tag_count + kEmitC * expand / par +
                   PredCost(step, natural, expand);
        if (c < best) {
          best = c;
          sp.access = StepAccess::kScanShortcut;
          sp.seek_pred = -1;
        }
      }

      // kIndexSeek: hoist the most selective seekable equality predicate
      // into a content/attr-index lookup, run the same interval merge over
      // the (typically tiny) candidate set. Illegal with positionals: [N]
      // counts per-group over the *pre-predicate* expansion.
      if (step.axis == PlanAxis::kDescendant && !positional) {
        int pick = -1;
        double pick_m = -1;
        for (int i = 0; i < static_cast<int>(step.preds.size()); ++i) {
          const PredDesc& p = step.preds[static_cast<size_t>(i)];
          if (p.seek == PredDesc::Seek::kNone || p.est_matches < 0) continue;
          if (pick < 0 || p.est_matches < pick_m) {
            pick = i;
            pick_m = p.est_matches;
          }
        }
        if (pick >= 0) {
          StepPlan alt;
          alt.seek_pred = pick;
          double m = pick_m;
          double out = std::min(expand, m);
          double c = kProbeC * (m + 1) + kGroupC * rows +
                     (kStackC * (rows + m) + kEmitC * out) / par +
                     PredCost(step, alt, out);
          if (c < kHysteresis * best) {
            best = c;
            sp.access = StepAccess::kIndexSeek;
            sp.seek_pred = pick;
          }
        }
      }

      // kNavDescendant: few context rows over small subtrees — walk them.
      // Subtree size estimated as the color's fan share under the context.
      if (step.axis == PlanAxis::kDescendant && !first_from_doc &&
          rows <= static_cast<double>(kNavMaxRows)) {
        double ctx_count =
            si > 0 ? std::max(
                         1.0, b.steps[si - 1].tag.empty()
                                  ? rows
                                  : stats.TagCount(b.steps[si - 1].color,
                                                   b.steps[si - 1].tag))
                   : std::max(rows, 1.0);
        double subtree = color_size / ctx_count;
        double c = kNavC * rows * subtree + kEmitC * expand +
                   PredCost(step, natural, expand);
        if (c < kHysteresis * best) {
          best = c;
          sp.access = StepAccess::kNavDescendant;
          sp.seek_pred = -1;
          sp.nav_max_rows = kNavMaxRows;
        }
      }

      OrderPreds(step, &sp);
      chosen_total += best + cross_cost;

      // Row estimate leaving the step (order of predicate application does
      // not change the estimate).
      double out = expand;
      for (const PredDesc& p : step.preds) {
        out *= Selectivity(p, expand);
      }
      out = std::max(out, 0.0);
      sp.est_out = out;
      rows = std::max(out, 1e-3);
    }

    // Whole-binding alternative: holistic path-stack spine.
    if (SpineEligible(b)) {
      double scan_sum = 0;
      for (const StepDesc& s : b.steps) {
        scan_sum += stats.TagCount(s.color, s.tag);
      }
      double out = bp.steps.empty() ? 1.0 : std::max(bp.steps.back().est_out, 1.0);
      // Leaf-sharded path stack: stack traffic and emission fan out; the
      // order-restore sort stays serial.
      double spine = (kStackC * scan_sum + kEmitC * out) / par +
                     kEmitC * out * std::log2(out + 2);  // order-restore sort
      if (spine < kHysteresis * chosen_total) {
        bp.use_path_stack = true;
        chosen_total = spine;
      }
    }

    bp.est_rows = b.steps.empty() ? b.in_rows
                                  : std::max(bp.steps.back().est_out, 0.0);
    plan.cost_baseline += baseline_total;
    plan.cost_chosen += chosen_total;
    plan.bindings.push_back(std::move(bp));
  }
  return plan;
}

std::string StatementPlan::Describe() const {
  std::string out =
      StrFormat("PLAN cost %.1f baseline -> %.1f chosen\n", cost_baseline,
                cost_chosen);
  if (shard_count > 1) {
    out += StrFormat("  shard fan-out: %d interval-range shards\n",
                     shard_count);
  }
  for (size_t bi = 0; bi < bindings.size(); ++bi) {
    const BindingPlan& bp = bindings[bi];
    out += StrFormat("  binding %zu%s est~%s\n", bi,
                     bp.use_path_stack ? ": path-stack spine" : "",
                     FmtEst(bp.est_rows).c_str());
    for (size_t si = 0; si < bp.steps.size(); ++si) {
      const StepPlan& sp = bp.steps[si];
      out += StrFormat("    step %zu: %s", si, AccessName(sp.access));
      if (sp.seek_pred >= 0) {
        out += StrFormat(" pred#%d", sp.seek_pred);
      }
      if (sp.elide_cross_tree) out += " elide-cross-tree";
      if (!sp.pred_order.empty()) {
        out += " preds[";
        for (size_t i = 0; i < sp.pred_order.size(); ++i) {
          if (i) out += ",";
          out += StrFormat("%d", sp.pred_order[i]);
        }
        out += "]";
      }
      out += StrFormat("  est %s -> %s -> %s\n", FmtEst(sp.est_in).c_str(),
                       FmtEst(sp.est_expand).c_str(),
                       FmtEst(sp.est_out).c_str());
    }
  }
  return out;
}

std::string NormalizeStatement(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == '"' || c == '\'') {
      // String literal: copy the quotes, parameterize the body.
      char q = c;
      out += q;
      out += '?';
      ++i;
      while (i < text.size() && text[i] != q) ++i;
      if (i < text.size()) {
        out += q;
        ++i;
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Standalone numeric literal (not part of an identifier like "TQ5" or
      // a variable like $x2): previous significant char must not be
      // alphanumeric, '_' or '$'.
      char prev = out.empty() ? '\0' : out.back();
      bool ident_tail = std::isalnum(static_cast<unsigned char>(prev)) ||
                        prev == '_' || prev == '$' || prev == '?';
      if (!ident_tail) {
        out += '?';
        while (i < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[i])) ||
                text[i] == '.')) {
          ++i;
        }
        continue;
      }
    }
    out += c;
    ++i;
  }
  return out;
}

namespace {
Counter* CacheCounter(const char* name) {
  return MetricsRegistry::Global().counter(name);
}

/// Cache key: the statement (or skeleton) text, extended with the mask
/// fingerprint when one is set. Masked tenants get their own slice — a
/// plan pruned against one mask must never serve another — while unmasked
/// sessions keep the plain-text key (zero cost when off) and different
/// tenants coexist instead of evicting each other.
std::string CacheKey(const std::string& text, uint64_t fingerprint) {
  if (fingerprint == 0) return text;
  return text + '\x1f' + std::to_string(fingerprint);
}
}  // namespace

std::shared_ptr<const void> PlanCache::LookupExact(const std::string& text,
                                                   uint64_t epoch,
                                                   uint64_t fingerprint) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = exact_.find(CacheKey(text, fingerprint));
  // The fingerprint is part of the key, so a lookup can only ever see an
  // entry planned under the same visibility mask; the stored fingerprint
  // double-checks that invariant.
  if (it == exact_.end() || it->second.fingerprint != fingerprint) {
    ++stats_.misses;
    CacheCounter("mct.planner.cache_misses")->Inc();
    return nullptr;
  }
  // A hit at any epoch is sound — plans are result-identical by the
  // determinism contract — so no replan stampede after every commit. The
  // stamp advances to the newest epoch that used the entry (Prune's
  // recency horizon).
  if (epoch > it->second.epoch) it->second.epoch = epoch;
  ++stats_.hits;
  CacheCounter("mct.planner.cache_hits")->Inc();
  return it->second.payload;
}

void PlanCache::InsertExact(const std::string& text,
                            std::shared_ptr<const void> payload,
                            uint64_t epoch, uint64_t fingerprint) {
  std::lock_guard<std::mutex> lk(mu_);
  std::string key = CacheKey(text, fingerprint);
  auto it = exact_.find(key);
  // Never clobber a newer session's entry with an older snapshot's plan.
  if (it != exact_.end() && it->second.epoch > epoch) return;
  exact_[key] = ExactEntry{std::move(payload), epoch, fingerprint};
}

bool PlanCache::LookupSkeleton(const std::string& normalized,
                               StatementPlan* out, uint64_t epoch,
                               uint64_t fingerprint) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = skeletons_.find(CacheKey(normalized, fingerprint));
  if (it == skeletons_.end() || it->second.fingerprint != fingerprint) {
    return false;
  }
  if (epoch > it->second.epoch) it->second.epoch = epoch;
  ++stats_.skeleton_hits;
  CacheCounter("mct.planner.skeleton_hits")->Inc();
  if (out != nullptr) *out = it->second.plan;
  return true;
}

void PlanCache::InsertSkeleton(const std::string& normalized,
                               const StatementPlan& plan, uint64_t epoch,
                               uint64_t fingerprint) {
  std::lock_guard<std::mutex> lk(mu_);
  std::string key = CacheKey(normalized, fingerprint);
  auto it = skeletons_.find(key);
  if (it != skeletons_.end() && it->second.epoch > epoch) return;
  skeletons_[key] = SkeletonEntry{plan, epoch, fingerprint};
}

void PlanCache::Invalidate() {
  std::lock_guard<std::mutex> lk(mu_);
  exact_.clear();
  skeletons_.clear();
  ++stats_.invalidations;
  CacheCounter("mct.planner.cache_invalidations")->Inc();
}

void PlanCache::Prune(uint64_t min_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = exact_.begin(); it != exact_.end();) {
    it = it->second.epoch < min_epoch ? exact_.erase(it) : std::next(it);
  }
  for (auto it = skeletons_.begin(); it != skeletons_.end();) {
    it = it->second.epoch < min_epoch ? skeletons_.erase(it) : std::next(it);
  }
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return exact_.size() + skeletons_.size();
}

}  // namespace mct::query
