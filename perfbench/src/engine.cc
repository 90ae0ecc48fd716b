#include "engine.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/metrics.h"
#include "storage/fault_env.h"
#include "storage/wal.h"

namespace perfbench {

using namespace mct;

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void LabelAll(MctDatabase* db) {
  for (size_t c = 0; c < db->num_colors(); ++c) {
    db->tree(static_cast<ColorId>(c))->EnsureLabels();
  }
}

uint64_t SumCounters(const std::string& prefix, const std::string& suffix) {
  std::istringstream in(MetricsRegistry::Global().ToText());
  std::string name, value;
  uint64_t sum = 0;
  while (in >> name && std::getline(in, value)) {
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    sum += std::strtoull(value.c_str(), nullptr, 10);
  }
  return sum;
}

BuiltTpcw BuildTpcwTimed(double scale) {
  BuiltTpcw b;
  const workload::TpcwScale s = workload::TpcwScale::Default().ScaledBy(scale);
  b.generate_ms = TimedSpan("workload.GenerateTpcw",
                            [&] { b.data = workload::GenerateTpcw(s); });
  const uint64_t evictions0 = SumCounters("mct.buffer_pool.", ".evictions");
  const uint64_t splits0 = CounterValue("mct.bptree.node_splits");
  b.build_ms = TimedSpan("mct.BuildTpcw", [&] {
    auto built = workload::BuildTpcw(b.data, workload::SchemaKind::kMct);
    if (!built.ok()) Die("BuildTpcw: " + built.status().ToString());
    b.db = std::move(*built);
  });
  b.pool_evictions = SumCounters("mct.buffer_pool.", ".evictions") - evictions0;
  b.bptree_splits = CounterValue("mct.bptree.node_splits") - splits0;
  b.labels_ms = TimedSpan("mct.EnsureLabels", [&] { LabelAll(b.db.db.get()); });
  b.table1 = b.db.db->Stats();
  return b;
}

void ReportBuildLayers(const BuiltTpcw& b, Report* report) {
  report->Layer("workload.generate_ms", b.generate_ms);
  report->Layer("mct.build_ms", b.build_ms);
  report->Layer("mct.labels_ms", b.labels_ms);
  report->Layer("mct.table1_data_mb", b.table1.DataMBytes());
  report->Layer("mct.table1_index_mb", b.table1.IndexMBytes());
  report->Layer("storage.pool_evictions", static_cast<double>(b.pool_evictions));
  report->Layer("index.bptree_splits", static_cast<double>(b.bptree_splits));
}

void ProbeWal(const std::vector<std::string>& texts, Report* report) {
  FaultInjectionEnv scratch;
  auto wal = WalWriter::Open(&scratch, "/scratch/wal.log", 1, true);
  if (!wal.ok()) Die("scratch WAL: " + wal.status().ToString());
  std::vector<double> append_us, sync_us;
  for (const std::string& text : texts) {
    std::string payload(4, '\0');  // the default-color prefix of an update record
    payload += text;
    append_us.push_back(1e3 * TimedSpan("storage.WalWriter::Append", [&] {
      (void)(*wal)->Append(WalRecordType::kUpdateStatement, payload);
    }));
    sync_us.push_back(1e3 * TimedSpan("storage.WalWriter::Sync",
                                      [&] { (void)(*wal)->Sync(); }));
  }
  report->Layer("storage.wal_append_us", Median(append_us));
  report->Layer("storage.wal_sync_us", Median(sync_us));
}

bool PlannerOffXml(MctDatabase* db, ColorId color, const std::string& text,
                   std::string* xml, query::ExecStats* stats,
                   const ColorMask& mask, const serialize::MctSchema* schema) {
  mcx::EvalOptions o;
  o.default_color = color;
  o.stats = stats;
  o.mask = mask;
  o.schema = schema;
  mcx::Evaluator ev(db, o);
  auto r = ev.Run(text);
  if (!r.ok()) {
    *xml = r.status().ToString();
    return false;
  }
  *xml = ev.ToXml(*r, color);
  return true;
}

}  // namespace perfbench
