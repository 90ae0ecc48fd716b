#include "workload/runner.h"

#include "common/timer.h"
#include "mcx/parser.h"

namespace mct::workload {

Result<QueryRun> RunQuery(MctDatabase* db, ColorId default_color,
                          const std::string& text, bool collect_values,
                          int num_threads, size_t morsel_size,
                          query::QueryTrace* trace, WalWriter* wal,
                          mcx::AnalyzeMode analyze, mcx::AnalysisReport* check,
                          bool planner, query::PlanCache* plan_cache,
                          CancelToken* cancel,
                          int64_t deadline_ms, uint64_t memory_limit_bytes,
                          const ColorMask& mask,
                          mcx::AnalyzeMode mask_enforcement) {
  QueryRun run;
  MemoryBudget budget(memory_limit_bytes);
  mcx::EvalOptions opts;
  opts.default_color = default_color;
  opts.stats = &run.stats;
  opts.num_threads = num_threads;
  opts.morsel_size = morsel_size;
  opts.trace = trace;
  opts.wal = wal;
  opts.analyze = analyze;
  opts.check = check;
  opts.planner = planner || plan_cache != nullptr;
  opts.plan_cache = plan_cache;
  opts.cancel_token = cancel;
  if (deadline_ms > 0) {
    opts.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline_ms);
  }
  if (memory_limit_bytes > 0) opts.memory_budget = &budget;
  opts.mask = mask;
  opts.mask_enforcement = mask_enforcement;
  mcx::Evaluator ev(db, opts);
  mcx::QueryResult result;
  bool is_update = false;
  if (plan_cache != nullptr) {
    // Session-style: parse + plan + execute inside the timer, so cache
    // hits (which skip the first two) show up in the measurement.
    MCT_ASSIGN_OR_RETURN(mcx::ParsedQuery probe, mcx::Parse(text));
    is_update = probe.is_update;
    Timer timer;
    MCT_ASSIGN_OR_RETURN(result, ev.Run(text));
    run.seconds = timer.ElapsedSeconds();
  } else {
    MCT_ASSIGN_OR_RETURN(mcx::ParsedQuery parsed, mcx::Parse(text));
    is_update = parsed.is_update;
    Timer timer;
    MCT_ASSIGN_OR_RETURN(result, ev.Run(parsed));
    run.seconds = timer.ElapsedSeconds();
  }
  if (is_update) {
    run.result_count = result.updated_count;
  } else {
    run.result_count = result.items.size();
    if (collect_values) {
      run.values.reserve(result.items.size());
      for (const mcx::Item& item : result.items) {
        if (item.is_node) {
          // Atomize by own content (catalog queries return field nodes),
          // falling back to the first-color string value.
          if (db->store().HasContent(item.node)) {
            run.values.push_back(db->Content(item.node));
          } else {
            auto colors = db->Colors(item.node).ToVector();
            run.values.push_back(
                colors.empty()
                    ? ""
                    : db->StringValue(item.node, colors.front()).value_or(""));
          }
        } else {
          run.values.push_back(item.atomic);
        }
      }
    }
  }
  return run;
}

}  // namespace mct::workload
