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
#include "storage/wal.h"

namespace mct::workload {

struct QueryRun {
  uint64_t result_count = 0;   // items for reads, affected nodes for updates
  double seconds = 0;
  query::ExecStats stats;
  /// Atomized result items (only when collect_values was set).
  std::vector<std::string> values;
};

/// Runs `text` against `db` with `default_color` for uncolored steps.
/// `num_threads` follows EvalOptions: 1 = serial (default), 0 = hardware
/// concurrency; `morsel_size` sets the parallel row granularity. When
/// `trace` is non-null the evaluator records an EXPLAIN ANALYZE plan trace
/// into it (see query/trace.h). Durable mode: when `wal` is non-null,
/// update statements are logged and fsynced to it before returning, so a
/// crash after RunQuery reports an update is recoverable
/// (mct::RecoverDatabase); the reported wall time then includes the fsync,
/// as a real durable engine's commit latency would. `analyze` gates the
/// static analyzer (mcx/analysis.h): kWarn records diagnostics into
/// `check` (when non-null) without blocking, kStrict additionally rejects
/// statements with MCX0xx errors before execution (Status::StaticError).
/// `planner` enables cost-based plan selection (EvalOptions::planner);
/// `plan_cache` (implies planner-style session timing) additionally routes
/// the statement through Evaluator::Run(text), so the measured wall time
/// covers parse + plan + execute and repeated statements hit the cache —
/// the workload-session cost the planner bench compares.
/// Resource governor (common/governor.h): `cancel` may be raised from
/// another thread to abort the run; `deadline_ms` > 0 bounds its wall
/// clock; `memory_limit_bytes` > 0 caps its materialized bytes — trips
/// surface as Cancelled / DeadlineExceeded / ResourceExhausted.
/// Secure color views (DESIGN.md §16): an active `mask` restricts the run
/// to its visible colors; `mask_enforcement` kStrict rejects violating
/// statements with PermissionDenied, kWarn filters silently.
Result<QueryRun> RunQuery(MctDatabase* db, ColorId default_color,
                          const std::string& text, bool collect_values = false,
                          int num_threads = 1, size_t morsel_size = 1024,
                          query::QueryTrace* trace = nullptr,
                          WalWriter* wal = nullptr,
                          mcx::AnalyzeMode analyze = mcx::AnalyzeMode::kOff,
                          mcx::AnalysisReport* check = nullptr,
                          bool planner = false,
                          query::PlanCache* plan_cache = nullptr,
                          CancelToken* cancel = nullptr,
                          int64_t deadline_ms = 0,
                          uint64_t memory_limit_bytes = 0,
                          const ColorMask& mask = {},
                          mcx::AnalyzeMode mask_enforcement =
                              mcx::AnalyzeMode::kStrict);

}  // namespace mct::workload

#endif  // COLORFUL_XML_WORKLOAD_RUNNER_H_
