// Engine-facing helpers shared by the workloads: building the scale-1
// TPC-W MCT database with each step timed and traced, and small wrappers
// around statement execution.

#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mct/database.h"
#include "mcx/evaluator.h"
#include "workload/tpcw_data.h"
#include "workload/tpcw_db.h"

namespace perfbench {

/// TPC-W scale every workload runs at: 158,921 elements, Table 1 at
/// 27.01 MB data and 28.26 MB index. The dataset itself is fixed (the
/// generator's default seeds): a seeded dataset would move the selectivity
/// of the catalog's data-derived parameters from run to run, and the
/// Table 1 figures would stop being a guard. --seed drives the op schedule
/// and the literals drawn from the data.
inline constexpr double kTpcwScale = 1.0;

/// One built TPC-W MCT database and what its construction cost.
struct BuiltTpcw {
  mct::workload::TpcwData data;
  mct::workload::TpcwDb db;
  double generate_ms = 0;
  double build_ms = 0;
  double labels_ms = 0;
  /// Deltas over the build: buffer-pool evictions and B+-tree node splits.
  uint64_t pool_evictions = 0;
  uint64_t bptree_splits = 0;
  /// Table 1 figures of the freshly built database (the paper-shape guard).
  mct::DatabaseStats table1;
};

/// GenerateTpcw + BuildTpcw(kMct) + EnsureLabels on every color, at
/// `scale`. Exits on failure: building the fixed dataset never fails.
BuiltTpcw BuildTpcwTimed(double scale);

/// Reports the per-layer metrics of one build: generate, build and label
/// times, the Table 1 figures, and the build's storage and index counters.
void ReportBuildLayers(const BuiltTpcw& b, Report* report);

/// Reports storage.wal_append_us and storage.wal_sync_us: the median
/// WalWriter::Append and Sync of one update record per statement text, on
/// a scratch in-memory log (steps a commit hides inside one call).
void ProbeWal(const std::vector<std::string>& texts, Report* report);

/// EnsureLabels on every colored tree of `db`.
void LabelAll(mct::MctDatabase* db);

/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix` (labeled buffer pools register one counter per pool).
uint64_t SumCounters(const std::string& prefix, const std::string& suffix);

/// The planner-off oracle: runs `text` on `db` with the planner off and
/// renders the result with ToXml. An active `mask` runs it as that tenant,
/// analyzing against `schema` (null infers one). Returns false, with the
/// status in *xml, when the statement fails.
bool PlannerOffXml(mct::MctDatabase* db, mct::ColorId color,
                   const std::string& text, std::string* xml,
                   mct::query::ExecStats* stats = nullptr,
                   const mct::ColorMask& mask = {},
                   const mct::serialize::MctSchema* schema = nullptr);

/// Prints a fatal message and exits the process with status 1.
[[noreturn]] void Die(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
