#include "workload/runner.h"

#include "common/timer.h"
#include "mcx/parser.h"

namespace mct::workload {

Result<QueryRun> RunQuery(MctDatabase* db, const std::string& text,
                          mcx::EvalOptions opts, bool collect_values) {
  QueryRun run;
  opts.stats = &run.stats;
  mcx::Evaluator ev(db, opts);
  mcx::QueryResult result;
  bool is_update = false;
  if (opts.plan_cache != nullptr) {
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
