// Query runner shared by the benchmark harness and the cross-schema
// equivalence tests: parse + plan + execute one catalog query against one
// database, reporting the paper's metrics (wall time, result cardinality,
// join anatomy).

#ifndef COLORFUL_XML_WORKLOAD_RUNNER_H_
#define COLORFUL_XML_WORKLOAD_RUNNER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mct/database.h"
#include "mcx/evaluator.h"
#include "query/table.h"

namespace mct::workload {

struct QueryRun {
  uint64_t result_count = 0;   // items for reads, affected nodes for updates
  double seconds = 0;
  query::ExecStats stats;
  /// Atomized result items (only when collect_values was set).
  std::vector<std::string> values;
};

/// Runs `text` against `db` under `opts` (mcx::EvalOptions), with
/// `opts.stats` pointed at the returned run's stats. The reported time
/// covers execution; with `opts.plan_cache` set it covers parse + plan +
/// execute through Evaluator::Run(text), so repeated statements show
/// their cache hits. `collect_values` atomizes each result item into
/// QueryRun::values.
Result<QueryRun> RunQuery(MctDatabase* db, const std::string& text,
                          mcx::EvalOptions opts, bool collect_values = false);

}  // namespace mct::workload

#endif  // COLORFUL_XML_WORKLOAD_RUNNER_H_
