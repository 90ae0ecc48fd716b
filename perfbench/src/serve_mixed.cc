// Workload `serve_mixed`: a multi-tenant ColorServer under a fixed open-loop
// mix, on the in-memory FaultInjectionEnv (sync_commits on, so every commit
// group is fsynced, but fsync is free: commit latency is the engine's, not
// a device's). Server defaults otherwise: planner on, shard_count 1.
//
// Four client threads, each with a schedule of due times from the seed:
//  * two unmasked readers at kReaderRate ops/s each, drawing point and range
//    templates at random; literals come from the data without replacement,
//    so no text repeats and the exact-text plan cache always misses while
//    the skeleton level serves;
//  * one tenant opened with Connect(ColorMask) at kTenantRate ops/s, running
//    strict-admitted templates (every masked statement pays the visibility
//    analysis over an inferred schema);
//  * one writer at kWriterRate commits/s over TU-style templates: three vary
//    only quoted literals (plan-skeleton hits) and one carries new element
//    content in every commit, so it replans every time.
// The tenant and the writer share one fixed frame per second (kFrame).
// Why: writes run beside reads through snapshots, group commit, trial
// clones, per-epoch relabeling and the per-statement Evaluator, which
// `catalog` bypasses; the reads are light, so evaluator work is small.
//
// Ops are timed from their due time, so a stall shows as latency of the ops
// queued behind it; how late each op was issued is reported separately.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine.h"
#include "mcx/analysis.h"
#include "mcx/parser.h"
#include "serialize/schema.h"
#include "serve/server.h"
#include "storage/fault_env.h"

namespace perfbench {
namespace {

using namespace mct;

constexpr int kSetups = 3;
// Offered load: constants, never calibrated from the run.
constexpr double kReaderRate = 50;  // ops/s per reader thread
constexpr int kReaders = 2;
constexpr double kTenantRate = 1;   // ops/s: one masked read per frame
constexpr double kWriterRate = 4;   // commits/s: four commits per frame

/// The kind of a tenant-schedule entry that samples the host reference.
constexpr char kHostRefKind[] = "host.ref";

struct Op {
  std::string kind;
  std::string text;
  /// Marker an insert template adds (checked in the final state).
  std::string marker;
  /// When the op is due, in seconds from the start of the window.
  double due_s = 0;
};

/// Literal pools drawn without replacement.
class Pool {
 public:
  Pool(std::vector<std::string> values, Rand* rng) : v_(std::move(values)) {
    rng->Shuffle(&v_);
  }
  const std::string& Next() { return v_[next_++ % v_.size()]; }

 private:
  std::vector<std::string> v_;
  size_t next_ = 0;
};

std::string Fmt(const std::string& fmt, const std::string& a,
                const std::string& b = "", const std::string& c = "") {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt.c_str(), a.c_str(), b.c_str(), c.c_str());
  return buf;
}

/// Letters-only rendering of n: element content that never normalizes to
/// a shared plan skeleton.
std::string Letters(uint64_t n) {
  std::string s;
  do {
    s += static_cast<char>('a' + n % 26);
    n /= 26;
  } while (n != 0);
  return s;
}

struct Schedules {
  std::vector<std::vector<Op>> readers;
  std::vector<Op> tenant;
  std::vector<Op> writer;
  /// One op of every kind, for the set-up warm-up.
  std::vector<Op> warm_reads, warm_masked, warm_commits;
};

Schedules MakeSchedules(const workload::TpcwData& d, uint64_t seed,
                        int seconds) {
  Rand rng(seed ^ 0x5e7e0ULL);
  std::vector<std::string> unames, orders, items, streets, dates, customers,
      cents;
  for (const auto& c : d.customers) unames.push_back(c.uname);
  for (const auto& c : d.customers) customers.push_back(std::to_string(c.id));
  for (const auto& o : d.orders) orders.push_back(std::to_string(o.id));
  for (const auto& i : d.items) items.push_back(std::to_string(i.id));
  for (const auto& a : d.addresses) streets.push_back(a.street);
  for (const auto& t : d.dates) dates.push_back(t.value);
  for (int c = 0; c < 100000; c += 7) cents.push_back(std::to_string(c));
  Pool p_uname(unames, &rng), p_order(orders, &rng), p_item(items, &rng),
      p_street(streets, &rng), p_date(dates, &rng), p_cust(customers, &rng),
      p_cents(cents, &rng), p_uname_m(unames, &rng);

  const char* kDoc = "document(\"tpcw.xml\")";
  auto read = [&](size_t which) -> Op {
    switch (which) {
      case 0:
        return {"r_cust_lname",
                Fmt("for $c in %s/{cust}descendant::customer[{cust}child::uname"
                    " = \"%s\"] return $c/{cust}child::lname",
                    kDoc, p_uname.Next()), ""};
      case 1:
        return {"r_order_total",
                Fmt("for $o in %s/{cust}descendant::order[@id = \"o%s\"] "
                    "return $o/{cust}child::total", kDoc, p_order.Next()), ""};
      case 2:
        return {"r_order_lines",
                Fmt("for $l in %s/{cust}descendant::order[@id = \"o%s\"]/"
                    "{cust}child::orderline return $l/{cust}child::qty",
                    kDoc, p_order.Next()), ""};
      case 3: {
        // A two-unit window of order totals starting at a distinct cent.
        const int c = std::stoi(p_cents.Next());
        char lo[32], hi[32];
        std::snprintf(lo, sizeof(lo), "%d.%02d", c / 100, c % 100);
        std::snprintf(hi, sizeof(hi), "%d.%02d", c / 100 + 2, c % 100);
        return {"r_total_range",
                Fmt("for $o in %s/{cust}descendant::order[{cust}child::total"
                    " > %s][{cust}child::total < %s] return $o/@id",
                    kDoc, lo, hi), ""};
      }
      default:
        return {"r_item_lines",
                Fmt("for $l in %s/{auth}descendant::item[@id = \"i%s\"]/"
                    "{auth}child::orderline return $l/{auth}child::qty",
                    kDoc, p_item.Next()), ""};
    }
  };
  auto masked = [&](size_t which) -> Op {
    if (which == 0) {
      return {"m_cust_orders",
              Fmt("for $o in %s/{cust}descendant::customer[{cust}child::uname"
                  " = \"%s\"]/{cust}child::order return $o/{cust}child::total",
                  kDoc, p_uname_m.Next()), ""};
    }
    return {"m_date_orders",
            Fmt("for $o in %s/{date}descendant::date[. = \"%s\"]/"
                "{date}child::order return $o/@id", kDoc, p_date.Next()), ""};
  };
  uint64_t note = seed * 1000003;
  auto commit = [&](size_t which) -> Op {
    switch (which) {
      case 0:
        return {"u_item_stock",
                Fmt("for $i in %s/{auth}descendant::item[@id = \"i%s\"] "
                    "update $i { replace stock with \"%s\" }",
                    kDoc, p_item.Next(), std::to_string(rng.Below(500))),
                ""};
      case 1:
        return {"u_order_status",
                Fmt("for $o in %s/{cust}descendant::order[@id = \"o%s\"] "
                    "update $o { replace status with \"shipped\" }",
                    kDoc, p_order.Next()), ""};
      case 2:
        return {"u_addr_verified",
                Fmt("for $a in %s/{bill}descendant::address[{bill}child::street"
                    " = \"%s\"] update $a { insert <verified>yes</verified> "
                    "into {bill} }", kDoc, p_street.Next()), ""};
      default: {
        std::string marker = "n" + Letters(++note);
        return {"u_cust_note_new",
                Fmt("for $c in %s/{cust}descendant::customer[@id = \"c%s\"] "
                    "update $c { insert <note>%s</note> into {cust} }",
                    kDoc, p_cust.Next(), marker), marker};
      }
    }
  };

  Schedules s;
  for (size_t k = 0; k < 5; ++k) s.warm_reads.push_back(read(k));
  for (size_t k = 0; k < 2; ++k) s.warm_masked.push_back(masked(k));
  for (size_t k = 0; k < 4; ++k) s.warm_commits.push_back(commit(k));
  // Each client starts at a seeded phase within its first interval.
  auto phase = [&](double rate) { return rng.Below(1000) / 1000.0 / rate; };
  s.readers.resize(kReaders);
  std::vector<double> reader_phase;
  for (int i = 0; i < kReaders; ++i) reader_phase.push_back(phase(kReaderRate));
  for (size_t k = 0; k < static_cast<size_t>(kReaderRate * seconds); ++k) {
    for (int i = 0; i < kReaders; ++i) {
      s.readers[i].push_back(read(rng.Below(5)));
      s.readers[i].back().due_s = reader_phase[i] + k / kReaderRate;
    }
  }
  // One frame per second for the tenant and the writer: the replanning
  // commit, the masked read, then the three skeleton-hit commits. The first
  // two take about a quarter second each, and even a third slower none of
  // these ops overlaps another, so no template's latency depends on the
  // seeded phase. With independent phases, each seed fixed which commit
  // templates always ran beside a masked read; with an even 250 ms spacing,
  // every commit queued behind the replanning one.
  struct Slot {
    double at_s;
    int commit;  // template index, or -1 for the masked read
  };
  static constexpr Slot kFrame[] = {
      {0.0, 3}, {0.35, -1}, {0.72, 0}, {0.82, 1}, {0.92, 2}};
  // The tenant's thread also runs the host reference, in the gaps after its
  // masked read and between the short commits, each time up to one reader
  // interval later: with fixed times, the readers' seeded phases would
  // decide how often a sample overlaps a read, and so bias it per seed.
  static constexpr double kRefTimes[] = {0.66, 0.77, 0.87, 0.965};
  const double frame_phase = phase(1.0);
  for (size_t f = 0; f < static_cast<size_t>(seconds); ++f) {
    const double frame_s = frame_phase + static_cast<double>(f);
    for (const Slot& slot : kFrame) {
      std::vector<Op>& ops = slot.commit < 0 ? s.tenant : s.writer;
      ops.push_back(slot.commit < 0 ? masked(f % 2)
                                    : commit(static_cast<size_t>(slot.commit)));
      ops.back().due_s = frame_s + slot.at_s;
    }
    for (double at : kRefTimes) {
      const double jitter = static_cast<double>(rng.Below(1000)) / 1000 / kReaderRate;
      s.tenant.push_back({kHostRefKind, "", "", frame_s + at + jitter});
    }
  }
  return s;
}

struct ServeEnv {
  std::unique_ptr<FaultInjectionEnv> fs;
  std::unique_ptr<serve::ColorServer> server;
  ColorId default_color = 0;
  ColorMask tenant_mask;
  BuiltTpcw build_stats;  // timings only; the database moved into the server
  double bootstrap_ms = 0;
  uint64_t checkpoint_bytes = 0;
  std::vector<std::string> markers;  // acknowledged note inserts
  size_t verified = 0;  // <verified> elements acknowledged commits inserted
};

/// ToXml of a result on the database it was read from. ToXml only reads,
/// so a session's snapshot view (its private clone) may render it.
std::string Render(const MctDatabase* db, ColorId color,
                   const mcx::QueryResult& r, const ColorMask& mask) {
  mcx::EvalOptions o;
  o.default_color = color;
  o.mask = mask;
  mcx::Evaluator ev(const_cast<MctDatabase*>(db), o);
  return ev.ToXml(r, color);
}

std::unique_ptr<ServeEnv> SetUp(const Schedules& sched) {
  auto env = std::make_unique<ServeEnv>();
  BuiltTpcw b = BuildTpcwTimed(kTpcwScale);
  env->default_color = b.db.default_color();
  env->tenant_mask = ColorMask::AllowOnly(
      ColorSet::Of(b.db.cust).Union(ColorSet::Of(b.db.date)));
  env->fs = std::make_unique<FaultInjectionEnv>();
  serve::ServerOptions opts;
  opts.default_color = env->default_color;
  opts.sync_commits = true;
  {
    PB_SPAN(span, "serve.ColorServer::Open");
    auto server = serve::ColorServer::Open("/serve", opts, env->fs.get());
    if (!server.ok()) Die("ColorServer::Open: " + server.status().ToString());
    env->server = std::move(*server);
  }
  const uint64_t ck0 = CounterValue("mct.checkpoint.bytes");
  env->bootstrap_ms = TimedSpan("serve.ColorServer::Bootstrap", [&] {
    Status s = env->server->Bootstrap(std::move(b.db.db));
    if (!s.ok()) Die("Bootstrap: " + s.ToString());
  });
  env->checkpoint_bytes = CounterValue("mct.checkpoint.bytes") - ck0;
  env->build_stats = std::move(b);

  // Warm-up: one op of every kind, which plans every template once.
  auto session = env->server->Connect();
  auto tenant = env->server->Connect(env->tenant_mask);
  if (!session.ok() || !tenant.ok()) Die("Connect failed");
  for (const Op& op : sched.warm_reads) {
    auto r = (*session)->Run(op.text);
    if (!r.ok()) Die(op.kind + " warm-up: " + r.status().ToString());
    (void)(*session)->Commit();
  }
  for (const Op& op : sched.warm_masked) {
    auto r = (*tenant)->Run(op.text);
    if (!r.ok()) Die(op.kind + " warm-up: " + r.status().ToString());
    (void)(*tenant)->Commit();
  }
  for (const Op& op : sched.warm_commits) {
    auto r = (*session)->Run(op.text);
    if (!r.ok() || r->updated_count == 0) {
      Die(op.kind + " warm-up commit: " +
          (r.ok() ? std::string("no effect") : r.status().ToString()));
    }
    if (!op.marker.empty()) env->markers.push_back(op.marker);
    if (op.kind == "u_addr_verified") env->verified += r->updated_count;
  }
  return env;
}

/// A served read, rendered right after it ran, for the planner-off check
/// after the window.
struct ReadRecord {
  const Op* op = nullptr;
  uint64_t epoch = 0;
  bool masked = false;
  std::string xml;
};

struct ThreadResult {
  std::vector<ReadRecord> reads;
  std::vector<double> lag_ms;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::string> wrong;
  std::vector<std::string> markers;
  size_t verified = 0;
  // Traced-run extras.
  OpLog traced, untraced, run_ms, begin_us;
  std::vector<double> gauges_chunks, gauges_versions;
};

/// The planner-off check of every served read at the epoch it pinned. It
/// rebuilds the bootstrap database (the dataset is fixed) and replays the
/// server's commit history on it in publish order with the planner off.
/// After the last commit at or before each epoch that reads pinned, it runs
/// those reads on clones of the replayed state, over four checker threads.
/// Nothing of the server's state is held for this during the window.
std::vector<std::string> CheckReads(
    const std::vector<serve::CommittedStatement>& history,
    const std::vector<ThreadResult>& results, ColorId color,
    const ColorMask& tenant_mask) {
  std::map<uint64_t, std::vector<const ReadRecord*>> by_epoch;
  for (const ThreadResult& r : results) {
    for (const ReadRecord& rec : r.reads) by_epoch[rec.epoch].push_back(&rec);
  }
  std::vector<std::string> wrong;
  BuiltTpcw oracle = BuildTpcwTimed(kTpcwScale);
  MctDatabase* twin = oracle.db.db.get();
  std::unique_ptr<serialize::MctSchema> schema;
  size_t applied = 0, checked = 0;
  for (const auto& entry : by_epoch) {
    const uint64_t epoch = entry.first;
    const std::vector<const ReadRecord*>& reads = entry.second;
    for (; applied < history.size() && history[applied].epoch <= epoch;
         ++applied) {
      mcx::EvalOptions o;
      o.default_color = history[applied].default_color;
      mcx::Evaluator ev(twin, o);
      auto r = ev.Run(history[applied].text);
      if (!r.ok()) {
        wrong.push_back("replaying " + history[applied].text + ": " +
                        r.status().ToString());
      }
    }
    LabelAll(twin);
    // The masked oracle analyzes against one schema, inferred at the first
    // checked epoch, instead of one per read: the analysis only admits or
    // refuses, and the schema facts the tenant templates depend on do not
    // change during the run.
    if (schema == nullptr) {
      schema = std::make_unique<serialize::MctSchema>(serialize::InferSchema(*twin));
    }
    std::atomic<size_t> next{0};
    std::mutex mu;
    auto check = [&] {
      std::unique_ptr<MctDatabase> db = twin->CowClone(false);
      for (size_t i = next++; i < reads.size(); i = next++) {
        const ReadRecord& rec = *reads[i];
        const ColorMask mask = rec.masked ? tenant_mask : ColorMask{};
        std::string want, bad;
        if (!PlannerOffXml(db.get(), color, rec.op->text, &want, nullptr, mask,
                           schema.get())) {
          bad = rec.op->kind + " oracle failed: " + want;
        } else if (rec.xml != want) {
          bad = rec.op->kind + " != planner-off oracle at epoch " +
                std::to_string(epoch) + ": " + rec.op->text;
        }
        if (!bad.empty()) {
          std::lock_guard<std::mutex> g(mu);
          wrong.push_back(bad);
        }
      }
    };
    std::vector<std::thread> checkers;
    for (int i = 0; i < 4; ++i) checkers.emplace_back(check);
    for (auto& t : checkers) t.join();
    checked += reads.size();
  }
  std::printf("checked %zu reads at %zu epochs against a planner-off replay "
              "of %zu commits\n", checked, by_epoch.size(), applied);
  return wrong;
}

}  // namespace

int RunServeMixed(const Args& args, Report* report) {
  // ---- Set-up, several times; the median is setup_s. ----
  // The whole op schedule comes from the seed and the (fixed) dataset.
  const Schedules sched = MakeSchedules(
      workload::GenerateTpcw(workload::TpcwScale::Default().ScaledBy(kTpcwScale)),
      args.seed, args.seconds);
  HostRef ref;
  OpLog setups;
  std::unique_ptr<ServeEnv> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    TimedSetUp(&ref, &setups, [&] { env = SetUp(sched); });
  }
  serve::ColorServer* server = env->server.get();
  const ColorId color = env->default_color;

  const query::PlanCache::Stats cache0 = server->plan_cache().stats();
  const uint64_t planned0 = CounterValue("mct.planner.statements");
  const uint64_t wal0 = CounterValue("mct.wal.bytes");

  OpLog log;
  std::vector<ThreadResult> results(kReaders + 2);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);

  // One open-loop client: each op runs at its due time, and its latency is
  // measured from that due time.
  auto client = [&](std::unique_ptr<serve::Session> session,
                    const std::vector<Op>* ops, bool masked, bool writer,
                    size_t thread_index) {
    ThreadResult& res = results[thread_index];
    for (size_t k = 0; k < ops->size(); ++k) {
      const Op& op = (*ops)[k];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(op.due_s));
      WaitUntil(due);
      if (op.kind == kHostRefKind) {
        ref.Sample();
        continue;
      }
      res.lag_ms.push_back(MsSince(due));
      const bool traced = args.trace && k % 2 == 0;
      Tracer::SetOp(thread_index * 1000000 + k, traced);
      ++res.attempted;
      if (writer) {
        Clock::time_point r0 = Clock::now();
        auto r = [&] {
          PB_SPAN(span, "serve.Session::Run[update]");
          return session->Run(op.text);
        }();
        const Clock::time_point done = Clock::now();
        if (!r.ok()) {
          res.failures.push_back(op.kind + ": " + r.status().ToString());
          continue;
        }
        if (r->updated_count == 0) res.wrong.push_back(op.kind + " had no effect");
        log.Add(op.kind, MsBetween(due, done));
        if (!op.marker.empty()) res.markers.push_back(op.marker);
        if (op.kind == "u_addr_verified") res.verified += r->updated_count;
        if (args.trace) {
          res.run_ms.Add(op.kind, MsBetween(r0, done));
          res.gauges_chunks.push_back(
              static_cast<double>(GaugeValue("mct.mvcc.cow_chunks")));
          res.gauges_versions.push_back(
              static_cast<double>(GaugeValue("mct.mvcc.live_versions")));
        }
        continue;
      }
      Clock::time_point b0 = Clock::now();
      Status bs = [&] {
        PB_SPAN(span, "serve.Session::Begin");
        return session->Begin();
      }();
      Clock::time_point r0 = Clock::now();
      auto r = [&] {
        PB_SPAN(span, "serve.Session::Run");
        return session->Run(op.text);
      }();
      const Clock::time_point done = Clock::now();
      if (!bs.ok() || !r.ok()) {
        res.failures.push_back(op.kind + ": " +
                               (bs.ok() ? r.status() : bs).ToString());
        (void)session->Commit();
        continue;
      }
      log.Add(op.kind, MsBetween(due, done));
      if (args.trace) {
        (traced ? res.traced : res.untraced).Add(op.kind, MsBetween(b0, done));
        if (traced) {
          res.run_ms.Add(op.kind, MsBetween(r0, done));
          res.begin_us.Add(op.kind, MsBetween(b0, r0) * 1e3);
        }
      }
      // Outside the timed region, before the snapshot is released: render
      // the result for the planner-off check after the window.
      res.reads.push_back({&op, session->snapshot_epoch(), masked,
                           Render(session->snapshot_db(), color, *r,
                                  session->mask())});
      (void)session->Commit();
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    auto s = server->Connect();
    if (!s.ok()) Die("Connect: " + s.status().ToString());
    threads.emplace_back(client, std::move(*s), &sched.readers[i], false,
                         false, i);
  }
  {
    auto s = server->Connect(env->tenant_mask);
    if (!s.ok()) Die("Connect: " + s.status().ToString());
    threads.emplace_back(client, std::move(*s), &sched.tenant, true, false,
                         kReaders);
  }
  {
    auto s = server->Connect();
    if (!s.ok()) Die("Connect: " + s.status().ToString());
    threads.emplace_back(client, std::move(*s), &sched.writer, false, true,
                         kReaders + 1);
  }
  for (auto& t : threads) t.join();
  const double wall_s = MsSince(start) / 1e3;
  // Taken before the checks below, which hold a second database.
  RunSummary sum;
  sum.peak_rss_mb = PeakRssMb();
  const query::PlanCache::Stats cache1 = server->plan_cache().stats();
  const uint64_t planned = CounterValue("mct.planner.statements") - planned0;
  const uint64_t wal_bytes = CounterValue("mct.wal.bytes") - wal0;

  // ---- Checks: failures, oracle mismatches, acknowledged inserts. ----
  Tracer::SetOp(0, false);  // the checks are not the workload's calls
  for (const std::string& w :
       CheckReads(server->CommitHistory(), results, color, env->tenant_mask)) {
    report->Wrong(w);
  }
  Tracer::SetOp(0, true);

  std::vector<double> lag;
  for (ThreadResult& r : results) {
    report->Attempt(r.attempted);
    for (const std::string& f : r.failures) report->Fail(f);
    for (const std::string& w : r.wrong) report->Wrong(w);
    env->markers.insert(env->markers.end(), r.markers.begin(), r.markers.end());
    env->verified += r.verified;
    lag.insert(lag.end(), r.lag_ms.begin(), r.lag_ms.end());
  }
  const uint64_t commits = sched.writer.size() - results[kReaders + 1].failures.size();
  {
    std::unique_ptr<MctDatabase> head = server->mvcc().Head()->CowClone(false);
    std::string notes, verified;
    PlannerOffXml(head.get(), color,
                  "for $n in document(\"tpcw.xml\")/{cust}descendant::note "
                  "return $n", &notes);
    PlannerOffXml(head.get(), color,
                  "for $v in document(\"tpcw.xml\")/{bill}descendant::verified "
                  "return $v", &verified);
    size_t found = 0;
    for (const std::string& m : env->markers) {
      if (notes.find(">" + m + "<") != std::string::npos) ++found;
    }
    size_t verified_found = 0;
    for (size_t p = verified.find("<verified"); p != std::string::npos;
         p = verified.find("<verified", p + 1)) {
      ++verified_found;
    }
    if (found != env->markers.size() || verified_found != env->verified) {
      report->Wrong("acknowledged commits missing from the head: notes " +
                    std::to_string(found) + "/" +
                    std::to_string(env->markers.size()) + ", verified " +
                    std::to_string(verified_found) + "/" +
                    std::to_string(env->verified));
    }
  }

  // ---- Report. ----
  const Kinds kinds = log.Rescaled(ref);
  Kinds warm, cold, reads, masked, upd;
  for (const auto& [k, v] : kinds) {
    const bool is_cold = k.rfind("m_", 0) == 0 || k == "u_cust_note_new";
    (is_cold ? cold : warm)[k] = v;
    if (k.rfind("r_", 0) == 0) reads[k] = v;
    if (k.rfind("m_", 0) == 0) masked[k] = v;
    if (k.rfind("u_", 0) == 0) upd[k] = v;
  }
  std::printf("serve_mixed: %d readers x %.0f/s, tenant %.0f/s, writer %.0f "
              "commits/s; %.1f s wall\n", kReaders, kReaderRate, kTenantRate,
              kWriterRate, wall_s);
  sum.warm = CombineKinds("warm ops (unmasked reads, skeleton-hit commits)", warm);
  sum.cold = CombineKinds("cold ops (masked reads, replanning commit)", cold);
  sum.pass = CombineKinds("every op kind", kinds, false);
  sum.setup_s = SetUpSeconds(setups, ref);
  sum.host = &ref;
  sum.setup_how = "rescaled median of the run's set-ups: generate, build, "
                  "label, open, bootstrap, warm";
  sum.warm_how = "gated: geomean over unmasked read and skeleton-hit commit "
                 "templates of their rescaled upper quartiles";
  sum.cold_how = "gated: the same over masked read and replanning commit templates";
  sum.pass_how = "gated: sum over every read and commit template of its "
                 "rescaled upper quartile";
  const Combined rd = CombineKinds("reads", reads, false);
  const Combined cm = CombineKinds("commits", upd, false);
  std::vector<double> all_masked;
  for (const auto& [k, v] : masked) {
    all_masked.insert(all_masked.end(), v.scaled.begin(), v.scaled.end());
  }
  PrintMetric("read_p50_ms", rd.p50, "ms", rd.samples, "geomean over read templates");
  PrintMetric("read_tail_ms", rd.tail, "ms", rd.samples, "geomean over read-template tails");
  PrintMetric("masked_read_p50_ms", Median(all_masked), "ms", all_masked.size(),
              "median of the tenant's reads");
  PrintMetric("commit_p50_ms", cm.p50, "ms", cm.samples,
              "geomean over update templates, due time to acknowledged");
  PrintMetric("commit_tail_ms", cm.tail, "ms", cm.samples,
              "geomean over update-template tails (templates with >= 11 samples)");
  std::printf("generator lag: median %.4f ms, max %.4f ms over %zu ops\n",
              Median(lag), lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()),
              lag.size());
  const DatabaseStats& t1 = env->build_stats.table1;
  std::printf("paper shape: Table 1 TPC-W MCT data %.2f MB, index %.2f MB, "
              "%llu elements\n", t1.DataMBytes(), t1.IndexMBytes(),
              static_cast<unsigned long long>(t1.num_elements));
  ReportRun(sum, report);
  if (!args.trace) return 0;

  // ---- Per-layer metrics (traced run). ----
  ReportBuildLayers(env->build_stats, report);
  report->Layer("mct.snapshot_save_ms", env->bootstrap_ms);
  report->Layer("storage.checkpoint_mb", env->checkpoint_bytes / 1048576.0);
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;
  const uint64_t skel = cache1.skeleton_hits - cache0.skeleton_hits;
  report->Layer("query.exact_hit_ratio",
                hits + misses == 0 ? 0 : double(hits) / double(hits + misses));
  report->Layer("query.skeleton_hit_ratio", misses == 0 ? 0 : double(skel) / double(misses));
  std::printf("  (base: %llu exact hits, %llu exact misses, %llu skeleton hits)\n",
              (unsigned long long)hits, (unsigned long long)misses,
              (unsigned long long)skel);
  report->Layer("query.plans_per_commit", commits == 0 ? 0 : double(planned) / double(commits));
  std::printf("  (base: %llu plans over %llu commits)\n", (unsigned long long)planned,
              (unsigned long long)commits);
  report->Layer("storage.wal_bytes_per_commit",
                commits == 0 ? 0 : double(wal_bytes) / double(commits));
  std::printf("  (base: %llu WAL bytes over %llu commits)\n",
              (unsigned long long)wal_bytes, (unsigned long long)commits);
  const ThreadResult& writer = results[kReaders + 1];
  report->Layer("mct.cow_chunks", Median(writer.gauges_chunks));
  report->Layer("serve.live_versions", Median(writer.gauges_versions));
  std::printf("  (base: gauge medians over %zu writer op boundaries)\n",
              writer.gauges_chunks.size());
  OpLog read_run, commit_run, traced, untraced;
  std::vector<double> begins;
  for (ThreadResult& r : results) {
    for (const auto& [k, v] : r.begin_us.Snapshot()) begins.insert(begins.end(), v.begin(), v.end());
    for (const auto& [k, v] : r.run_ms.Snapshot()) {
      for (double x : v) (k.rfind("u_", 0) == 0 ? commit_run : read_run).Add(k, x);
    }
    for (const auto& [k, v] : r.traced.Snapshot()) for (double x : v) traced.Add(k, x);
    for (const auto& [k, v] : r.untraced.Snapshot()) for (double x : v) untraced.Add(k, x);
  }
  report->Layer("serve.begin_us", Median(begins));
  std::vector<double> rr, cr;
  for (const auto& [k, v] : read_run.Snapshot()) if (k.rfind("r_", 0) == 0) rr.push_back(Median(v));
  for (const auto& [k, v] : commit_run.Snapshot()) cr.push_back(Median(v));
  report->Layer("serve.read_run_ms", GeoMean(rr));
  report->Layer("serve.commit_run_ms", GeoMean(cr));
  std::printf("  (base: geomeans over %zu read and %zu update templates of "
              "their medians)\n", rr.size(), cr.size());
  double lag_mean = 0;
  for (double x : lag) lag_mean += x;
  report->Layer("serve.generator_lag_ms", lag.empty() ? 0 : lag_mean / lag.size());

  // Side probes on the final head: the steps hidden inside one server call.
  std::shared_ptr<const MctDatabase> head = server->mvcc().Head();
  std::vector<double> clone_r, clone_t, relabel, upd_eval, infer, analyze, parse;
  for (int i = 0; i < 20; ++i) {
    clone_r.push_back(1e3 * TimedSpan("mct.CowClone(reader)", [&] {
      auto clone = head->CowClone(false);
    }));
    clone_t.push_back(1e3 * TimedSpan("mct.CowClone(trial)", [&] {
      auto clone = head->CowClone(true);
    }));
  }
  for (const Op& op : sched.warm_commits) {
    std::unique_ptr<MctDatabase> trial = head->CowClone(true);
    mcx::EvalOptions o;
    o.default_color = color;
    o.planner = true;
    o.plan_cache = &server->plan_cache();
    o.cache_epoch = server->head_epoch();
    mcx::Evaluator ev(trial.get(), o);
    upd_eval.push_back(TimedSpan("mcx.Evaluator::Run[trial]", [&] {
      auto r = ev.Run(op.text);
      if (!r.ok()) Die("probe update: " + r.status().ToString());
    }));
    relabel.push_back(TimedSpan("mct.EnsureLabels[trial]", [&] { LabelAll(trial.get()); }));
  }
  std::unique_ptr<serialize::MctSchema> schema;
  for (int i = 0; i < 3; ++i) {
    infer.push_back(TimedSpan("serialize.InferSchema", [&] {
      schema = std::make_unique<serialize::MctSchema>(serialize::InferSchema(*head));
    }));
  }
  for (const Op& op : sched.tenant) {
    if (op.kind == kHostRefKind) continue;
    auto q = mcx::Parse(op.text);
    if (!q.ok()) continue;
    mcx::AnalyzeOptions ao;
    ao.schema = schema.get();
    ao.default_color = head->ColorName(color);
    ao.mask.active = true;
    for (ColorId cid : env->tenant_mask.read.ToVector()) ao.mask.read.push_back(head->ColorName(cid));
    for (ColorId cid : env->tenant_mask.write.ToVector()) ao.mask.write.push_back(head->ColorName(cid));
    analyze.push_back(1e3 * TimedSpan("mcx.Analyze", [&] { mcx::Analyze(*q, ao); }));
  }
  for (size_t i = 0; i < sched.readers[0].size(); i += 10) {
    parse.push_back(1e3 * TimedSpan("mcx.Parse", [&] { (void)mcx::Parse(sched.readers[0][i].text); }));
  }
  report->Layer("mct.clone_reader_us", Median(clone_r));
  report->Layer("mct.clone_trial_us", Median(clone_t));
  report->Layer("mcx.update_eval_ms", Median(upd_eval));
  double relabel_sum = 0;
  for (double x : relabel) relabel_sum += x;
  report->Layer("mct.relabel_ms", relabel.empty() ? 0 : relabel_sum / relabel.size());
  std::printf("  (base: relabel is the mean over %zu writer templates)\n",
              relabel.size());
  report->Layer("serialize.infer_schema_ms", Median(infer));
  report->Layer("mcx.analyze_us", Median(analyze));
  report->Layer("mcx.parse_us", Median(parse));
  std::vector<std::string> texts;
  for (const Op& op : sched.writer) texts.push_back(op.text);
  ProbeWal(texts, report);
  report->Layer("trace.overhead_pct", TraceOverheadPct(traced, untraced));
  return 0;
}

}  // namespace perfbench
