// Workload `ingest_restart`: an operator's load-and-restart script. One
// thread, closed loop, repeating cycles until the run's time is used (at
// least kMinCycles):
//  1. GenerateTpcw, BuildTpcw, EnsureLabels, DurableSession::Open +
//     Bootstrap (the checkpoint) — the cycle's set-up, reported as setup_s;
//  2. InferSchema + OptSerialize + ExportXml of the live database;
//  3. ImportXml of that text, checked isomorphic to the exported state;
//  4. FaultInjectionEnv::SimulateCrash, then RecoverDatabase, checked to
//     hold every acknowledged commit.
// Sync-each DurableSession::Run commits (the warm ops) run in five chunks
// between the bulk steps, so their samples spread over the whole cycle.
// Why: bulk writes go through the node store, index images, the Table-1
// write-through, snapshots, WAL replay and the xml layer, which the other
// workloads barely touch; its durable commits take the commit path without
// the server, so a change that speeds one up and slows the other shows.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine.h"
#include "mct/durability.h"
#include "mct/snapshot.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "storage/fault_env.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using namespace mct;

constexpr int kMinCycles = 3;
// Commits run in kChunks chunks per cycle, between the bulk steps.
constexpr size_t kChunks = 5;
constexpr size_t kCommitsPerChunk = 120;
constexpr size_t kCommitsPerCycle = kChunks * kCommitsPerChunk;
// The host reference runs every kCommitsPerRef commits and after each chunk.
constexpr size_t kCommitsPerRef = 30;
constexpr char kDir[] = "/ingest";

struct Commit {
  std::string kind;
  std::string text;
  std::string marker;
  bool auth = false;  // marker lands in the {auth} tree
};

std::vector<Commit> MakeCommits(const workload::TpcwData& d, Rand* rng,
                                int cycle) {
  std::vector<Commit> out;
  char buf[512];
  for (size_t k = 0; k < kCommitsPerCycle; ++k) {
    const std::string marker =
        "m" + std::to_string(cycle) + "x" + std::to_string(k);
    Commit c;
    c.marker = marker;
    switch (k % 3) {
      case 0:
        std::snprintf(buf, sizeof(buf),
                      "for $c in document(\"tpcw.xml\")/{cust}descendant::"
                      "customer[@id = \"c%d\"] update $c { insert <mark>%s"
                      "</mark> into {cust} }",
                      d.customers[rng->Below(d.customers.size())].id,
                      marker.c_str());
        c.kind = "d_cust_mark";
        break;
      case 1:
        std::snprintf(buf, sizeof(buf),
                      "for $i in document(\"tpcw.xml\")/{auth}descendant::"
                      "item[@id = \"i%d\"] update $i { insert <mark>%s</mark>"
                      " into {auth} }",
                      d.items[rng->Below(d.items.size())].id, marker.c_str());
        c.kind = "d_item_mark";
        c.auth = true;
        break;
      default:
        std::snprintf(buf, sizeof(buf),
                      "for $o in document(\"tpcw.xml\")/{cust}descendant::"
                      "order[@id = \"o%d\"] update $o { insert <mark>%s"
                      "</mark> into {cust} }",
                      d.orders[rng->Below(d.orders.size())].id,
                      marker.c_str());
        c.kind = "d_order_mark";
        break;
    }
    c.text = buf;
    out.push_back(std::move(c));
  }
  return out;
}

std::string NewestCheckpoint(FileEnv* fs) {
  auto names = fs->ListDir(kDir);
  std::string best;
  if (!names.ok()) return best;
  for (const std::string& n : *names) {
    if (n.rfind("checkpoint-", 0) == 0 && n.size() > 5 &&
        n.compare(n.size() - 5, 5, ".snap") == 0 && n > best) {
      best = n;
    }
  }
  return best.empty() ? best : std::string(kDir) + "/" + best;
}

}  // namespace

int RunIngestRestart(const Args& args, Report* report) {
  Rand rng(args.seed ^ 0x1a6e57ULL);
  HostRef ref;
  OpLog commits, cold, setups, traced, untraced;
  // Traced-run layer samples.
  std::vector<double> gen_ms, build_ms, labels_ms, growth, save_ms, open_ms,
      replay_us, infer_ms, opt_us, export_ms, import_ms, parse_ms, export_mb,
      ck_mb, evictions, splits;
  uint64_t acked = 0, wal_bytes = 0;
  std::vector<std::string> wal_texts;  // a cycle's commits, for the WAL probe
  DatabaseStats t1;
  const Clock::time_point start = Clock::now();
  uint64_t op_id = 0;
  int cycle = 0;
  for (; cycle < kMinCycles || MsSince(start) < args.seconds * 1e3; ++cycle) {
    Tracer::SetOp(++op_id);
    // ---- 1. Ingest: the cycle's set-up. ----
    BuiltTpcw b;
    auto fs = std::make_unique<FaultInjectionEnv>();
    std::unique_ptr<DurableSession> session;
    const uint64_t ck0 = CounterValue("mct.checkpoint.bytes");
    double boot_ms = 0;
    TimedSetUp(&ref, &setups, [&] {
      b = BuildTpcwTimed(kTpcwScale);
      {
        PB_SPAN(span, "mct.DurableSession::Open");
        auto s = DurableSession::Open(kDir, fs.get());
        if (!s.ok()) Die("DurableSession::Open: " + s.status().ToString());
        session = std::move(*s);
      }
      boot_ms = TimedSpan("mct.DurableSession::Bootstrap", [&] {
        Status s = session->Bootstrap(std::move(b.db.db));
        if (!s.ok()) Die("Bootstrap: " + s.ToString());
      });
    });
    const ColorId color = b.db.default_color();
    t1 = b.table1;
    if (args.trace) {
      gen_ms.push_back(b.generate_ms);
      build_ms.push_back(b.build_ms);
      labels_ms.push_back(b.labels_ms);
      evictions.push_back(static_cast<double>(b.pool_evictions));
      splits.push_back(static_cast<double>(b.bptree_splits));
      save_ms.push_back(boot_ms);
      ck_mb.push_back((CounterValue("mct.checkpoint.bytes") - ck0) / 1048576.0);
      // Growth probe: the same build at a quarter of the scale.
      BuiltTpcw q = BuildTpcwTimed(kTpcwScale / 4);
      growth.push_back(b.build_ms / q.build_ms);
    }

    // Durable commits, each WAL-synced before it returns.
    std::vector<Commit> todo = MakeCommits(b.data, &rng, cycle);
    if (args.trace) {
      wal_texts.clear();
      for (const Commit& c : todo) wal_texts.push_back(c.text);
    }
    std::vector<const Commit*> ok;
    size_t next = 0;
    auto commit_chunk = [&] {
      const uint64_t wal0 = CounterValue("mct.wal.bytes");
      for (size_t end = next + kCommitsPerChunk; next < end; ++next) {
        if (next % kCommitsPerRef == 0) ref.Sample();
        const Commit& c = todo[next];
        const bool tr = args.trace && next % 2 == 0;
        Tracer::SetOp(++op_id, tr);
        report->Attempt();
        Clock::time_point c0 = Clock::now();
        auto r = [&] {
          PB_SPAN(span, "mct.DurableSession::Run");
          return session->Run(c.text, color, /*sync_each=*/true);
        }();
        const double ms = MsSince(c0);
        if (!r.ok()) {
          report->Fail(c.kind + ": " + r.status().ToString());
          continue;
        }
        if (r->updated_count == 0) report->Wrong(c.kind + " had no effect");
        commits.Add(c.kind, ms);
        if (args.trace) (tr ? traced : untraced).Add(c.kind, ms);
        ok.push_back(&c);
      }
      wal_bytes += CounterValue("mct.wal.bytes") - wal0;
      ref.Sample();
      Tracer::SetOp(++op_id);
    };
    commit_chunk();

    // ---- 2. Export with the optimal serialization. ----
    // The export-time state, kept for the import check (COW: cheap), so
    // commits may go on between the export's steps.
    std::unique_ptr<MctDatabase> exported = session->db()->CowClone(false);
    std::unique_ptr<serialize::MctSchema> schema;
    const double i_ms = TimedSpan("serialize.InferSchema", [&] {
      schema = std::make_unique<serialize::MctSchema>(
          serialize::InferSchema(*exported));
    });
    commit_chunk();
    std::string text;
    double o_ms = 0;
    const double e_ms = TimedSpan("serialize.ExportXml", [&] {
      Clock::time_point p = Clock::now();
      auto scheme = [&] {
        PB_SPAN(span, "serialize.OptSerialize");
        return serialize::OptSerialize(*schema);
      }();
      o_ms = MsSince(p);
      if (!scheme.ok()) Die("OptSerialize: " + scheme.status().ToString());
      auto xml = serialize::ExportXml(exported.get(), *scheme);
      if (!xml.ok()) Die("ExportXml: " + xml.status().ToString());
      text = std::move(*xml);
    });
    cold.Add("export", i_ms + e_ms);
    export_mb.push_back(static_cast<double>(text.size()) / 1048576.0);
    if (args.trace) {
      infer_ms.push_back(i_ms);
      opt_us.push_back(o_ms * 1e3);
      export_ms.push_back(e_ms - o_ms);
      parse_ms.push_back(TimedSpan("xml.Parse", [&] {
        auto doc = xml::Parse(text);
        if (!doc.ok()) Die("xml::Parse: " + doc.status().ToString());
      }));
    }
    commit_chunk();

    // ---- 3. Import that text; it must reproduce the exported state. ----
    std::unique_ptr<MctDatabase> imported;
    const double imp_ms = TimedSpan("serialize.ImportXml", [&] {
      auto r = serialize::ImportXml(text);
      if (!r.ok()) Die("ImportXml: " + r.status().ToString());
      imported = std::move(*r);
    });
    cold.Add("import", imp_ms);
    if (args.trace) import_ms.push_back(imp_ms);
    text.clear();
    commit_chunk();
    std::string why;
    if (!serialize::DatabasesIsomorphic(*imported, *exported, &why)) {
      report->Wrong("ImportXml result not isomorphic to the export: " + why);
    }
    imported.reset();
    exported.reset();
    commit_chunk();
    acked += ok.size();

    // ---- 4. Crash and recover. ----
    fs->SimulateCrash();
    session.reset();
    if (args.trace) {
      const std::string snap = NewestCheckpoint(fs.get());
      open_ms.push_back(TimedSpan("mct.OpenSnapshot", [&] {
        auto db = OpenSnapshot(snap, fs.get());
        if (!db.ok()) Die("OpenSnapshot: " + db.status().ToString());
      }));
    }
    const uint64_t replayed0 = CounterValue("mct.recovery.replayed_records");
    std::unique_ptr<MctDatabase> db;
    const double rec_ms = TimedSpan("mct.RecoverDatabase", [&] {
      auto rec = RecoverDatabase(kDir, fs.get());
      if (!rec.ok()) Die("RecoverDatabase: " + rec.status().ToString());
      db = std::move(rec->db);
    });
    cold.Add("recover", rec_ms);
    const uint64_t replayed =
        CounterValue("mct.recovery.replayed_records") - replayed0;
    if (args.trace && replayed > 0) {
      replay_us.push_back((rec_ms - open_ms.back()) * 1e3 / replayed);
    }
    fs.reset();

    // Every acknowledged commit must survive the crash.
    std::string cust_marks, auth_marks;
    PlannerOffXml(db.get(), color,
                  "for $m in document(\"tpcw.xml\")/{cust}descendant::mark "
                  "return $m", &cust_marks);
    PlannerOffXml(db.get(), color,
                  "for $m in document(\"tpcw.xml\")/{auth}descendant::mark "
                  "return $m", &auth_marks);
    size_t missing = 0;
    for (const Commit* c : ok) {
      const std::string& in = c->auth ? auth_marks : cust_marks;
      if (in.find(">" + c->marker + "<") == std::string::npos) ++missing;
    }
    if (missing != 0) {
      report->Wrong(std::to_string(missing) + " of " +
                    std::to_string(ok.size()) +
                    " acknowledged commits lost by recovery");
    }
  }

  // ---- Report. ----
  RunSummary sum;
  sum.peak_rss_mb = PeakRssMb();
  std::printf("ingest_restart: %d cycles, %zu commits each, %.1f s\n", cycle,
              kCommitsPerCycle, MsSince(start) / 1e3);
  const Kinds commit_kinds = commits.Rescaled(ref);
  Kinds cold_kinds = cold.Rescaled(ref);
  sum.warm = CombineKinds("warm ops (sync-each durable commits)", commit_kinds);
  sum.cold = CombineKinds("cold ops (recover, export, import)", cold_kinds);
  auto all_kinds = commit_kinds;
  all_kinds.insert(cold_kinds.begin(), cold_kinds.end());
  sum.pass = CombineKinds("every op kind", all_kinds, false);
  sum.setup_s = SetUpSeconds(setups, ref);
  sum.host = &ref;
  sum.setup_how = "rescaled median cycle ingest (= ingest_s): generate, build, "
                  "label, open, bootstrap checkpoint";
  sum.warm_how = "gated: geomean over durable-commit templates of their "
                 "rescaled upper quartiles";
  sum.cold_how = "gated: the same over recover, export and import";
  sum.pass_how = "gated: sum over commit templates, recover, export and import "
                 "of their rescaled upper quartiles";
  PrintMetric("ingest_s", Median(sum.setup_s.scaled), "s", sum.setup_s.scaled.size(),
              "generate, build, label, open, bootstrap checkpoint (gated as setup_s)");
  PrintMetric("commit_p50_ms", sum.warm.p50, "ms", sum.warm.samples,
              "geomean over durable-commit templates of their medians");
  PrintMetric("commit_tail_ms", sum.warm.tail, "ms", sum.warm.samples,
              "geomean over their tails");
  PrintMetric("recover_s", Median(cold_kinds["recover"].scaled) / 1e3, "s",
              cold_kinds["recover"].scaled.size(), "RecoverDatabase after SimulateCrash");
  PrintMetric("export_s", Median(cold_kinds["export"].scaled) / 1e3, "s",
              cold_kinds["export"].scaled.size(), "InferSchema + OptSerialize + ExportXml");
  PrintMetric("import_s", Median(cold_kinds["import"].scaled) / 1e3, "s",
              cold_kinds["import"].scaled.size(), "ImportXml of the exported text");
  std::printf("paper shape: Table 1 TPC-W MCT data %.2f MB, index %.2f MB; "
              "optimal export %.2f MB\n", t1.DataMBytes(), t1.IndexMBytes(),
              Median(export_mb));
  ReportRun(sum, report);
  if (!args.trace) return 0;

  // ---- Per-layer metrics (traced run). ----
  report->Layer("workload.generate_ms", Median(gen_ms));
  report->Layer("mct.build_ms", Median(build_ms));
  report->Layer("mct.build_growth", Median(growth));
  std::printf("  (base: build at scale 1 over build at scale 0.25, %zu cycles)\n",
              growth.size());
  report->Layer("mct.labels_ms", Median(labels_ms));
  report->Layer("mct.table1_data_mb", t1.DataMBytes());
  report->Layer("mct.table1_index_mb", t1.IndexMBytes());
  report->Layer("storage.pool_evictions", Median(evictions));
  report->Layer("index.bptree_splits", Median(splits));
  report->Layer("mct.snapshot_save_ms", Median(save_ms));
  report->Layer("storage.checkpoint_mb", Median(ck_mb));
  report->Layer("mct.snapshot_open_ms", Median(open_ms));
  report->Layer("mct.replay_us_per_record", Median(replay_us));
  report->Layer("serialize.infer_schema_ms", Median(infer_ms));
  report->Layer("serialize.opt_serialize_us", Median(opt_us));
  report->Layer("serialize.export_ms", Median(export_ms));
  report->Layer("serialize.import_ms", Median(import_ms));
  report->Layer("serialize.export_mb", Median(export_mb));
  report->Layer("xml.parse_ms", Median(parse_ms));
  report->Layer("storage.wal_bytes_per_commit",
                acked == 0 ? 0 : static_cast<double>(wal_bytes) / acked);
  std::printf("  (base: %llu WAL bytes over %llu commits)\n",
              static_cast<unsigned long long>(wal_bytes),
              static_cast<unsigned long long>(acked));
  ProbeWal(wal_texts, report);
  report->Layer("trace.overhead_pct", TraceOverheadPct(traced, untraced));
  return 0;
}

}  // namespace perfbench
