// Open-loop serving benchmark for the MVCC layer (DESIGN.md §14).
//
// Phase A drives reader sessions alone against the TPC-W MCT database;
// phase B adds writer sessions committing through the group committer.
// Readers are OPEN-loop: each operation has a scheduled arrival time and
// its latency is measured from that schedule, not from the previous
// completion — so a slow snapshot shows up as queueing delay instead of
// silently slowing the request rate (no coordinated omission). The offered
// load is fixed, never calibrated from the run: each reader issues one
// statement every kReaderInterval. Writers are open-loop too, paced at 4x
// the reader interval; their latency is the
// commit round trip through admission, the writer queue, the WAL group
// fsync, and publication, measured from the same kind of schedule.
//
// The acceptance gate (--check): under mixed load, reader p99 must stay
// within 2x the read-only p99 — snapshots make readers (almost) immune to
// writers. Results land in BENCH_serve.json.
//
// --overload adds a third phase: a closed-loop writer burst offering far
// more load than the writer gate admits, against a server with a bounded
// admission queue (ServerOptions::max_queue_depth). Excess commits must be
// shed fast with ResourceExhausted instead of piling up, and readers must
// stay responsive — the overload gate (with --check) requires sheds > 0
// and overload reader p99 within 3x the uncontended baseline.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "mct/database.h"
#include "serve/server.h"
#include "storage/fault_env.h"
#include "workload/catalog.h"
#include "workload/tpcw_data.h"
#include "workload/tpcw_db.h"

namespace mct::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReaders = 4;
constexpr int kWriters = 2;
// One read per reader every 25 ms, whatever the build's latency, so runs of
// different builds offer the same load.
constexpr std::chrono::microseconds kReaderInterval{25000};

double Percentile(std::vector<double>& ms, double p) {
  if (ms.empty()) return 0;
  std::sort(ms.begin(), ms.end());
  double idx = p / 100.0 * static_cast<double>(ms.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, ms.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return ms[lo] + (ms[hi] - ms[lo]) * frac;
}

struct PhaseStats {
  std::vector<double> ms;
  double p50 = 0, p99 = 0, p999 = 0;
  void Finish() {
    p50 = Percentile(ms, 50);
    p99 = Percentile(ms, 99);
    p999 = Percentile(ms, 99.9);
  }
};

/// One open-loop reader session: `ops` operations scheduled every
/// `interval`, latency measured from the schedule.
void ReaderLoop(serve::ColorServer* server,
                const std::vector<std::string>& reads, int id, int ops,
                std::chrono::microseconds interval,
                std::vector<double>* out_ms) {
  auto session = server->Connect();
  if (!session.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 session.status().ToString().c_str());
    std::abort();
  }
  Clock::time_point start = Clock::now();
  for (int k = 0; k < ops; ++k) {
    Clock::time_point scheduled = start + interval * k;
    std::this_thread::sleep_until(scheduled);
    const std::string& q = reads[(static_cast<size_t>(k) + id) % reads.size()];
    if (!(*session)->Begin().ok()) std::abort();
    auto r = (*session)->Run(q);
    if (!r.ok()) {
      std::fprintf(stderr, "read failed: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    (void)(*session)->Commit();
    out_ms->push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
            .count());
  }
}

int Main(int argc, char** argv) {
  double scale = ScaleFromArgs(argc, argv);
  bool check = HasFlag(argc, argv, "--check");
  bool overload = HasFlag(argc, argv, "--overload");

  workload::TpcwData data =
      workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(scale));
  auto tpcw = workload::BuildTpcw(data, workload::SchemaKind::kMct);
  if (!tpcw.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 tpcw.status().ToString().c_str());
    return 1;
  }

  // Hermetic in-memory store: the bench isolates the serving layer's
  // queueing and snapshot costs from disk noise.
  FaultInjectionEnv env;
  serve::ServerOptions opts;
  opts.default_color = tpcw->default_color();
  opts.planner = true;
  opts.max_concurrent_writers = kWriters;
  if (overload) {
    // Bounded admission from the start: the paced phases never fill a
    // 2-deep queue (writers offer well under capacity), so A and B measure
    // exactly what they do without --overload; only the burst phase can
    // trip the bound.
    opts.max_queue_depth = 2;
  }
  auto server = serve::ColorServer::Open("/bench", opts, &env);
  if (!server.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*server)->Bootstrap(std::move(tpcw->db)); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Read set: the catalog's first few MCT read queries, round-robined.
  std::vector<std::string> reads;
  for (const workload::CatalogQuery& q : workload::TpcwCatalog(data)) {
    if (!q.is_update) reads.push_back(q.mct);
    if (reads.size() == 4) break;
  }

  // One serial pass fills the plan cache, so phase A measures warm reads.
  {
    auto session = (*server)->Connect();
    for (const std::string& q : reads) {
      auto r = (*session)->Run(q);
      if (!r.ok()) {
        std::fprintf(stderr, "warmup failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
  }
  const auto interval = kReaderInterval;
  const int ops = std::max(40, static_cast<int>(300 * scale));

  auto run_readers = [&](PhaseStats* stats) {
    std::vector<std::vector<double>> per(kReaders);
    std::vector<std::thread> threads;
    for (int i = 0; i < kReaders; ++i) {
      threads.emplace_back(ReaderLoop, server->get(), std::cref(reads), i,
                           ops, interval, &per[static_cast<size_t>(i)]);
    }
    for (auto& t : threads) t.join();
    for (auto& v : per) {
      stats->ms.insert(stats->ms.end(), v.begin(), v.end());
    }
    stats->Finish();
  };

  // ---- Phase A: read-only baseline. ----
  PhaseStats read_only;
  run_readers(&read_only);

  // ---- Phase B: mixed — same readers, plus open-loop writers. ----
  // Writers are paced, not saturating: each offers a commit every 4x the
  // reader interval, so the phase measures snapshot isolation under a
  // steady update stream rather than however many commits the CPUs can
  // grind through (which on a small machine starves everything else).
  PhaseStats mixed_read, mixed_write;
  {
    auto winterval = interval * 4;
    const int wops = std::max(10, ops / 4);
    std::vector<std::vector<double>> wlat(kWriters);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        auto session = (*server)->Connect();
        if (!session.ok()) std::abort();
        Clock::time_point start = Clock::now();
        for (int k = 0; k < wops; ++k) {
          Clock::time_point scheduled = start + winterval * k;
          std::this_thread::sleep_until(scheduled);
          const workload::TpcwItem& item =
              data.items[static_cast<size_t>(k * kWriters + w) %
                         data.items.size()];
          std::string stmt = StrFormat(
              "for $i in document(\"tpcw.xml\")/{auth}descendant::item"
              "[{auth}child::title = \"%s\"] "
              "update $i { insert <note>b%d-%d</note> into {auth} }",
              item.title.c_str(), w, k);
          auto r = (*session)->Run(stmt);
          if (!r.ok()) {
            std::fprintf(stderr, "commit failed: %s\n",
                         r.status().ToString().c_str());
            std::abort();
          }
          wlat[static_cast<size_t>(w)].push_back(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        scheduled)
                  .count());
        }
      });
    }
    run_readers(&mixed_read);
    for (auto& t : writers) t.join();
    for (auto& v : wlat) {
      mixed_write.ms.insert(mixed_write.ms.end(), v.begin(), v.end());
    }
    mixed_write.Finish();
  }

  // ---- Phase C (--overload): closed-loop writer burst vs bounded queue. ----
  // 8 writers commit back-to-back against a writer gate of 2 and a 2-deep
  // admission queue: offered load exceeds capacity by construction, so the
  // server must shed (retryable ResourceExhausted) rather than queue
  // without bound. Readers run their open-loop schedule throughout.
  PhaseStats over_read;
  uint64_t burst_served = 0;
  uint64_t burst_shed = 0;
  if (overload) {
    constexpr int kBurstWriters = 8;
    const int burst_ops = std::max(20, ops / 2);
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kBurstWriters; ++w) {
      writers.emplace_back([&, w] {
        auto session = (*server)->Connect();
        if (!session.ok()) std::abort();
        for (int k = 0; k < burst_ops && !stop.load(); ++k) {
          const workload::TpcwItem& item =
              data.items[static_cast<size_t>(k * kBurstWriters + w) %
                         data.items.size()];
          std::string stmt = StrFormat(
              "for $i in document(\"tpcw.xml\")/{auth}descendant::item"
              "[{auth}child::title = \"%s\"] "
              "update $i { insert <note>o%d-%d</note> into {auth} }",
              item.title.c_str(), w, k);
          auto r = (*session)->Run(stmt);
          if (r.ok()) {
            served.fetch_add(1);
          } else if (r.status().IsResourceExhausted()) {
            shed.fetch_add(1);
          } else {
            std::fprintf(stderr, "overload commit failed: %s\n",
                         r.status().ToString().c_str());
            std::abort();
          }
        }
      });
    }
    run_readers(&over_read);
    stop.store(true);  // readers done: cap the burst so the phase ends
    for (auto& t : writers) t.join();
    burst_served = served.load();
    burst_shed = shed.load();
  }

  double ratio = read_only.p99 > 0 ? mixed_read.p99 / read_only.p99 : 0;
  bool check_ok = ratio <= 2.0;
  double over_ratio =
      read_only.p99 > 0 ? over_read.p99 / read_only.p99 : 0;
  bool overload_ok = !overload || (burst_shed > 0 && over_ratio <= 3.0);
  uint64_t commits =
      MetricsRegistry::Global().counter("mct.serve.committed_statements")
          ->value();
  uint64_t batches =
      MetricsRegistry::Global().counter("mct.serve.group_commits")->value();

  std::printf("serve bench  scale=%.2f  readers=%d writers=%d  ops/reader=%d  "
              "interval=%lldus\n",
              scale, kReaders, kWriters, ops,
              static_cast<long long>(interval.count()));
  PrintRule();
  std::printf("%-18s %10s %10s %10s\n", "phase", "p50(ms)", "p99(ms)",
              "p99.9(ms)");
  std::printf("%-18s %10.3f %10.3f %10.3f\n", "read-only", read_only.p50,
              read_only.p99, read_only.p999);
  std::printf("%-18s %10.3f %10.3f %10.3f\n", "mixed:reads", mixed_read.p50,
              mixed_read.p99, mixed_read.p999);
  std::printf("%-18s %10.3f %10.3f %10.3f\n", "mixed:commits", mixed_write.p50,
              mixed_write.p99, mixed_write.p999);
  if (overload) {
    std::printf("%-18s %10.3f %10.3f %10.3f\n", "overload:reads", over_read.p50,
                over_read.p99, over_read.p999);
  }
  PrintRule();
  std::printf("reader p99 ratio (mixed / read-only): %.2fx  [%s]\n", ratio,
              check_ok ? "ok" : "FAIL > 2x");
  if (overload) {
    std::printf("overload: %llu served, %llu shed; reader p99 %.2fx "
                "read-only  [%s]\n",
                static_cast<unsigned long long>(burst_served),
                static_cast<unsigned long long>(burst_shed), over_ratio,
                overload_ok ? "ok" : "FAIL");
  }
  std::printf("%llu statements in %llu group commits, final epoch %llu\n",
              static_cast<unsigned long long>(commits),
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>((*server)->head_epoch()));

  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot create BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve\",\n");
  std::fprintf(out, "  \"scale\": %.3f,\n", scale);
  std::fprintf(out, "  \"readers\": %d,\n", kReaders);
  std::fprintf(out, "  \"writers\": %d,\n", kWriters);
  std::fprintf(out, "  \"ops_per_reader\": %d,\n", ops);
  std::fprintf(out, "  \"interval_us\": %lld,\n",
               static_cast<long long>(interval.count()));
  auto phase = [&](const char* name, const PhaseStats& s) {
    std::fprintf(out,
                 "  \"%s\": {\"ops\": %zu, \"p50_ms\": %.4f, \"p99_ms\": "
                 "%.4f, \"p999_ms\": %.4f},\n",
                 name, s.ms.size(), s.p50, s.p99, s.p999);
  };
  phase("read_only", read_only);
  phase("mixed_read", mixed_read);
  phase("mixed_write", mixed_write);
  std::fprintf(out, "  \"committed_statements\": %llu,\n",
               static_cast<unsigned long long>(commits));
  std::fprintf(out, "  \"group_commits\": %llu,\n",
               static_cast<unsigned long long>(batches));
  if (overload) {
    std::fprintf(out,
                 "  \"overload\": {\"served\": %llu, \"shed\": %llu, "
                 "\"reader_p99_ms\": %.4f, \"reader_p99_ratio\": %.4f},\n",
                 static_cast<unsigned long long>(burst_served),
                 static_cast<unsigned long long>(burst_shed), over_read.p99,
                 over_ratio);
    std::fprintf(out, "  \"overload_ok\": %s,\n",
                 overload_ok ? "true" : "false");
  }
  std::fprintf(out, "  \"reader_p99_ratio\": %.4f,\n", ratio);
  std::fprintf(out, "  \"check_ok\": %s\n", check_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("Wrote BENCH_serve.json\n");

  return (check && !(check_ok && overload_ok)) ? 1 : 0;
}

}  // namespace
}  // namespace mct::bench

int main(int argc, char** argv) { return mct::bench::Main(argc, argv); }
