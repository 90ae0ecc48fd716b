#include "bench.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory_resource>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "engine.h"

namespace perfbench {

// ------------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

KindStats Summarize(std::vector<double> v) {
  KindStats s;
  s.n = v.size();
  s.median = Median(v);
  if (!v.empty()) {
    std::sort(v.begin(), v.end());
    const double pos = 0.75 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    s.p75 = v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  if (v.size() >= 11) {
    // 1-based rank: at most the 90th percentile, with at least ten samples
    // beyond it. Higher ranks of a sub-millisecond op on a shared host are
    // a handful of stalls, which differ from run to run far more than any
    // bound a regression gate could use.
    const size_t rank = std::min((v.size() * 9 + 9) / 10, v.size() - 10);
    s.tail = v[rank - 1];
    s.tail_pct = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(v.size());
  }
  return s;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void OpLog::Add(const std::string& kind, double ms) {
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> g(mu_);
  by_kind_[kind].push_back({end, ms});
}

std::map<std::string, std::vector<double>> OpLog::Snapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [kind, v] : by_kind_) {
    for (const Sample& x : v) out[kind].push_back(x.ms);
  }
  return out;
}

Kinds OpLog::Rescaled(const HostRef& ref, size_t nearest) const {
  std::lock_guard<std::mutex> g(mu_);
  Kinds out;
  for (const auto& [kind, v] : by_kind_) {
    std::vector<Clock::time_point> mid;
    for (const Sample& x : v) {
      mid.push_back(x.end - std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(x.ms / 2)));
    }
    const std::vector<double> scale = ref.Scales(mid, nearest);
    KindSamples& k = out[kind];
    for (size_t i = 0; i < v.size(); ++i) {
      k.raw.push_back(v[i].ms);
      k.scaled.push_back(v[i].ms * scale[i]);
    }
  }
  return out;
}

Combined CombineKinds(const std::string& label, const Kinds& kinds, bool print) {
  Combined c;
  std::vector<double> medians, p75s, tails, raw_p75s;
  if (print) {
    std::printf("  %s: per-kind samples, rescaled median, upper quartile and "
                "tail, raw upper quartile (ms)\n", label.c_str());
  }
  for (const auto& [kind, samples] : kinds) {
    const KindStats s = Summarize(samples.scaled);
    const KindStats r = Summarize(samples.raw);
    c.samples += s.n;
    c.p75_sum += s.p75;
    c.raw_p75_sum += r.p75;
    medians.push_back(s.median);
    p75s.push_back(s.p75);
    raw_p75s.push_back(r.p75);
    if (s.n >= 11) tails.push_back(s.tail);
    if (!print) continue;
    std::printf("    %-15s n=%-5zu p50=%-10.4f p75=%-10.4f", kind.c_str(), s.n,
                s.median, s.p75);
    if (s.n >= 11) {
      std::printf(" p%.1f=%-10.4f", s.tail_pct, s.tail);
    } else {
      std::printf(" (no tail: < 11)");
    }
    std::printf(" raw p75=%.4f\n", r.p75);
  }
  c.p50 = GeoMean(medians);
  c.p75 = GeoMean(p75s);
  c.tail = GeoMean(tails);
  c.raw_p75 = GeoMean(raw_p75s);
  return c;
}

// ---------------------------------------------------------------- tracing

namespace {
thread_local std::vector<int> t_stack;
thread_local uint64_t t_op = 0;
thread_local bool t_traced = true;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer& Tracer::Get() {
  static Tracer t;
  return t;
}

void Tracer::SetOp(uint64_t op, bool traced) {
  t_op = op;
  t_traced = traced;
}

bool Tracer::recording() const { return enabled_ && t_traced; }

int Tracer::Open(const char* name) {
  Span s;
  s.name = name;
  s.parent = t_stack.empty() ? -1 : t_stack.back();
  s.op = t_op;
  int index;
  {
    std::lock_guard<std::mutex> g(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_stack.push_back(index);
  int64_t start = NowNs();
  std::lock_guard<std::mutex> g(mu_);
  spans_[static_cast<size_t>(index)].start_ns = start;
  return index;
}

void Tracer::Close(int index) {
  int64_t end = NowNs();
  t_stack.pop_back();
  std::lock_guard<std::mutex> g(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_->recording()) index_ = t_->Open(name);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) t_->Close(index_);
}

std::map<std::string, std::pair<double, size_t>> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, std::pair<double, size_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      if (k.end_ns == 0) continue;
      iv.emplace_back(std::max(k.start_ns, s.start_ns),
                      std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    auto& slot = out[s.name];
    slot.first += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    slot.second += 1;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"op\": %llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

double TimedSpan(const char* name, const std::function<void()>& fn) {
  PB_SPAN(span, name);
  Clock::time_point t0 = Clock::now();
  fn();
  return MsSince(t0);
}

// ------------------------------------------------------------ measurement

uint64_t CounterValue(const std::string& name) {
  return mct::MetricsRegistry::Global().counter(name)->value();
}

int64_t GaugeValue(const std::string& name) {
  return mct::MetricsRegistry::Global().gauge(name)->value();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

// Written by the host reference kernel so the compiler must compute it.
std::atomic<uint64_t> g_host_ref_sink{0};

namespace {

/// Fresh anonymous memory, unmapped when it goes out of scope.
class Mapping {
 public:
  explicit Mapping(size_t bytes)
      : bytes_(bytes),
        mem_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (mem_ == MAP_FAILED) Die("host reference: mmap failed");
  }
  ~Mapping() { munmap(mem_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  char* data() const { return static_cast<char*>(mem_); }

 private:
  size_t bytes_;
  void* mem_;
};

uint64_t NextLcg(uint64_t* x) {
  *x = *x * 6364136223846793005ULL + 1442695040888963407ULL;
  return *x >> 11;
}

/// The host reference kernel; every input is fixed, so only the host moves
/// its time. It allocates only from memory it maps itself, so the engine's
/// heap does not move it either.
void HostRefKernel() {
  constexpr size_t kSlots = size_t{1} << 18;  // hash table: 4 MB
  constexpr size_t kArena = size_t{6} << 20;  // containers: 6 MB
  const Mapping mem(kSlots * 16 + kArena);
  uint64_t x = 0x5eed, sum = 0;
  // Page faults and random access: an open-addressing table in the freshly
  // mapped memory, filled to 40%.
  uint64_t* t = reinterpret_cast<uint64_t*>(mem.data());
  for (size_t i = 0; i < kSlots * 2 / 5; ++i) {
    const uint64_t key = NextLcg(&x) | 1;
    size_t h = (key * 0x9e3779b97f4a7c15ULL) >> 46;
    while (t[2 * h] != 0 && t[2 * h] != key) h = (h + 1) & (kSlots - 1);
    t[2 * h] = key;
    t[2 * h + 1] = i;
    sum += h;
  }
  {
    std::pmr::monotonic_buffer_resource arena(
        mem.data() + kSlots * 16, kArena, std::pmr::null_memory_resource());
    // Small allocations and pointer chasing: an ordered map of strings.
    std::pmr::map<uint64_t, std::pmr::string> m(&arena);
    for (int i = 0; i < 8000; ++i) {
      m[NextLcg(&x) >> 20] =
          std::pmr::string(24, static_cast<char>('a' + i % 26), &arena);
    }
    sum += m.size();
    // String building and compares: sort short decimal strings.
    std::pmr::vector<std::pmr::string> v(&arena);
    char buf[32];
    for (int i = 0; i < 8000; ++i) {
      const int len = std::snprintf(buf, sizeof(buf), "%llu-ref",
                                    static_cast<unsigned long long>(NextLcg(&x)));
      v.emplace_back(buf, static_cast<size_t>(len));
    }
    std::sort(v.begin(), v.end());
    sum += v[v.size() / 2].size();
  }
  g_host_ref_sink.store(sum, std::memory_order_relaxed);
}

}  // namespace

void HostRef::Sample() {
  const Clock::time_point t0 = Clock::now();
  HostRefKernel();
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> g(mu_);
  samples_.push_back({t0 + (t1 - t0) / 2, MsBetween(t0, t1)});
}

std::vector<double> HostRef::SampleMs() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<double> out;
  for (const auto& s : samples_) out.push_back(s.second);
  return out;
}

std::vector<double> HostRef::Scales(const std::vector<Clock::time_point>& at,
                                    size_t nearest) const {
  std::vector<std::pair<Clock::time_point, double>> s;
  {
    std::lock_guard<std::mutex> g(mu_);
    s = samples_;
  }
  std::sort(s.begin(), s.end());
  std::vector<double> out;
  for (const Clock::time_point t : at) {
    if (s.empty()) {
      out.push_back(1);
      continue;
    }
    // Grow a window of the `nearest` samples around t.
    size_t hi = static_cast<size_t>(
        std::lower_bound(s.begin(), s.end(), std::make_pair(t, 0.0)) - s.begin());
    size_t lo = hi;
    while (hi - lo < std::min(nearest, s.size())) {
      if (lo == 0) {
        ++hi;
      } else if (hi == s.size() || t - s[lo - 1].first <= s[hi].first - t) {
        --lo;
      } else {
        ++hi;
      }
    }
    std::vector<double> near;
    for (size_t i = lo; i < hi; ++i) near.push_back(s[i].second);
    out.push_back(kNominalMs / Median(near));
  }
  return out;
}

void TimedSetUp(HostRef* ref, OpLog* log, const std::function<void()>& fn) {
  for (int i = 0; i < kSetUpRefs; ++i) ref->Sample();
  const Clock::time_point t0 = Clock::now();
  fn();
  log->Add("setup", MsSince(t0));
  for (int i = 0; i < kSetUpRefs; ++i) ref->Sample();
}

KindSamples SetUpSeconds(const OpLog& log, const HostRef& ref) {
  KindSamples s = log.Rescaled(ref, 2 * kSetUpRefs)["setup"];
  for (double& x : s.raw) x /= 1e3;
  for (double& x : s.scaled) x /= 1e3;
  return s;
}

double TraceOverheadPct(const OpLog& traced, const OpLog& untraced) {
  std::vector<double> ratios;
  auto tw = traced.Snapshot(), uw = untraced.Snapshot();
  for (const auto& [kind, v] : tw) {
    if (uw.count(kind) != 0) ratios.push_back(Median(v) / Median(uw[kind]));
  }
  std::printf("  (base: geomean over %zu kinds of traced/untraced median ratios)\n",
              ratios.size());
  return (GeoMean(ratios) - 1) * 100;
}

void PrintMetric(const std::string& name, double value, const std::string& unit,
                 size_t samples, const std::string& how) {
  std::printf("metric %-20s %14.4f %-3s n=%-6zu %s\n", name.c_str(), value,
              unit.c_str(), samples, how.c_str());
}

void ReportRun(const RunSummary& s, Report* report) {
  std::printf("set-ups (s, rescaled / raw):");
  for (size_t i = 0; i < s.setup_s.raw.size(); ++i) {
    std::printf(" %.3f/%.3f", s.setup_s.scaled[i], s.setup_s.raw[i]);
  }
  std::printf("\n");
  const double setup = Median(s.setup_s.scaled);
  PrintMetric("setup_s", setup, "s", s.setup_s.scaled.size(), s.setup_how);
  PrintMetric("warm_p75_ms", s.warm.p75, "ms", s.warm.samples, s.warm_how);
  PrintMetric("cold_p75_ms", s.cold.p75, "ms", s.cold.samples, s.cold_how);
  PrintMetric("pass_p75_ms", s.pass.p75_sum, "ms", s.pass.samples, s.pass_how);
  PrintMetric("peak_rss_mb", s.peak_rss_mb, "MB", 1,
              "peak resident set at the end of the measured work");
  std::printf("raw (not rescaled): setup_s %.4f, warm_p75_ms %.4f, cold_p75_ms "
              "%.4f, pass_p75_ms %.4f\n", Median(s.setup_s.raw), s.warm.raw_p75,
              s.cold.raw_p75, s.pass.raw_p75_sum);
  report->Metric("setup_s", setup, "s");
  report->Metric("warm_p75_ms", s.warm.p75, "ms");
  report->Metric("cold_p75_ms", s.cold.p75, "ms");
  report->Metric("pass_p75_ms", s.pass.p75_sum, "ms");
  report->Metric("peak_rss_mb", s.peak_rss_mb, "MB");
  const std::vector<double> host = s.host->SampleMs();
  if (host.empty()) return;
  auto [lo, hi] = std::minmax_element(host.begin(), host.end());
  std::printf("host.ref_ms median %.4f min %.4f max %.4f (n=%zu, nominal %.1f): "
              "the host phase, not the engine\n", Median(host), *lo, *hi,
              host.size(), HostRef::kNominalMs);
  report->Layer("host.ref_ms", Median(host));
}

void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(1500);
  Clock::time_point now = Clock::now();
  if (due - now > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

// -------------------------------------------------------------- reporting

void Report::Fail(const std::string& what) {
  ++failed_;
  std::printf("FAILED op: %s\n", what.c_str());
}

void Report::Wrong(const std::string& what) {
  ++wrong_;
  std::printf("WRONG result: %s\n", what.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    metrics_[it->second].second = {value, unit};
    return;
  }
  index_[name] = metrics_.size();
  metrics_.push_back({name, {value, unit}});
}

void Report::Layer(const std::string& name, double value) {
  if (!args_.trace) return;
  const LayerDef* def = nullptr;
  for (const LayerDef& d : LayerCatalog()) {
    if (d.name == name) def = &d;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: %s is not in LayerCatalog()\n", name.c_str());
    std::exit(1);
  }
  Metric(name, value, def->unit);
  std::printf("  layer %-34s %14.4f %-6s -> %s\n", name.c_str(), value,
              def->unit.c_str(), def->moves.c_str());
}

void Report::FillLayers() {
  for (const LayerDef& d : LayerCatalog()) {
    if (index_.count(d.name) != 0) continue;
    Metric(d.name, 0, d.unit);
    std::printf("  layer %-34s %14s %-6s    (not on this workload's path)\n",
                d.name.c_str(), "0", d.unit.c_str());
  }
}

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::map<std::string, bool> layer_names;
  for (const LayerDef& d : LayerCatalog()) layer_names[d.name] = true;
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if ((layer_names.count(name) != 0) != args_.trace) continue;
    double v = std::isfinite(vu.first) ? vu.first : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const std::vector<std::string>& CatalogStatementIds() {
  static const std::vector<std::string> ids = [] {
    std::vector<std::string> v;
    for (int i = 1; i <= 16; ++i) v.push_back("TQ" + std::to_string(i));
    for (int i = 1; i <= 5; ++i) v.push_back("SQ" + std::to_string(i));
    v.push_back("BQ1");
    v.push_back("BQ2");
    return v;
  }();
  return ids;
}

const std::vector<LayerDef>& LayerCatalog() {
  static const std::vector<LayerDef> defs = [] {
    std::vector<LayerDef> d = {
        {"workload.generate_ms", "ms", "setup_s @ all"},
        {"mct.build_ms", "ms", "setup_s @ all (the ingest @ ingest_restart)"},
        {"mct.build_growth", "ratio", "setup_s @ ingest_restart (4.0 = linear)"},
        {"mct.labels_ms", "ms", "setup_s @ all"},
        {"mct.table1_data_mb", "MB", "none: paper shape, 27.01 at scale 1"},
        {"mct.table1_index_mb", "MB", "none: paper shape, 28.26 at scale 1"},
        {"mct.clone_reader_us", "us", "warm_p75_ms @ serve_mixed (every read)"},
        {"mct.clone_trial_us", "us", "warm_p75_ms, cold_p75_ms @ serve_mixed (every commit)"},
        {"mct.relabel_ms", "ms", "warm_p75_ms, cold_p75_ms @ serve_mixed (every commit)"},
        {"mct.cow_chunks", "count", "peak_rss_mb @ serve_mixed"},
        {"serve.live_versions", "count", "peak_rss_mb @ serve_mixed"},
        {"mct.snapshot_save_ms", "ms", "setup_s @ serve_mixed, ingest_restart"},
        {"mct.snapshot_open_ms", "ms", "cold_p75_ms, pass_p75_ms @ ingest_restart (recover)"},
        {"mct.replay_us_per_record", "us", "cold_p75_ms, pass_p75_ms @ ingest_restart (recover)"},
        {"mcx.parse_us", "us", "warm_p75_ms @ serve_mixed; cold_p75_ms @ catalog"},
        {"mcx.to_xml_us", "us", "warm_p75_ms, pass_p75_ms @ catalog"},
        {"mcx.color_flow_ms", "ms", "cold_p75_ms @ catalog"},
        {"mcx.analyze_us", "us", "cold_p75_ms @ serve_mixed (masked reads)"},
        {"mcx.update_eval_ms", "ms", "warm_p75_ms, cold_p75_ms @ serve_mixed (commits)"},
        {"query.plan_us", "us", "cold_p75_ms @ catalog"},
        {"query.rows_scanned_per_result", "ratio", "warm_p75_ms, pass_p75_ms @ catalog"},
        {"query.value_joins", "count", "none: Table 2 join anatomy @ catalog"},
        {"query.cross_tree_joins", "count", "none: Table 2 join anatomy @ catalog"},
        {"query.nested_loop_joins", "count", "none: Table 2 join anatomy @ catalog"},
        {"query.exact_hit_ratio", "ratio", "warm_p75_ms @ catalog, serve_mixed"},
        {"query.skeleton_hit_ratio", "ratio", "warm_p75_ms, cold_p75_ms @ serve_mixed"},
        {"query.plans_per_commit", "ratio", "cold_p75_ms @ serve_mixed"},
        {"serialize.infer_schema_ms", "ms", "cold_p75_ms @ all"},
        {"serialize.opt_serialize_us", "us", "cold_p75_ms @ ingest_restart (export)"},
        {"serialize.export_ms", "ms", "cold_p75_ms, pass_p75_ms @ ingest_restart"},
        {"serialize.import_ms", "ms", "cold_p75_ms, pass_p75_ms @ ingest_restart"},
        {"serialize.export_mb", "MB", "none: the optimal size must not grow @ ingest_restart"},
        {"xml.parse_ms", "ms", "cold_p75_ms, pass_p75_ms @ ingest_restart (import)"},
        {"storage.wal_append_us", "us", "warm_p75_ms @ serve_mixed, ingest_restart"},
        {"storage.wal_sync_us", "us", "warm_p75_ms @ serve_mixed, ingest_restart"},
        {"storage.wal_bytes_per_commit", "B", "warm_p75_ms @ serve_mixed, ingest_restart"},
        {"storage.checkpoint_mb", "MB", "setup_s @ serve_mixed, ingest_restart"},
        {"storage.pool_evictions", "count", "setup_s @ all"},
        {"index.bptree_splits", "count", "setup_s @ all"},
        {"serve.begin_us", "us", "warm_p75_ms @ serve_mixed"},
        {"serve.read_run_ms", "ms", "warm_p75_ms @ serve_mixed"},
        {"serve.commit_run_ms", "ms", "warm_p75_ms, cold_p75_ms @ serve_mixed"},
        {"serve.generator_lag_ms", "ms", "none: the run is invalid if it grows @ serve_mixed"},
        {"host.ref_ms", "ms", "none: the host phase every latency is rescaled by @ all"},
        {"trace.overhead_pct", "%", "none: traced vs untraced op medians @ all"},
    };
    for (const std::string& id : CatalogStatementIds()) {
      d.push_back({"mcx.exec_ms." + id, "ms",
                   id.rfind("BQ", 0) == 0 ? "warm_p75_ms @ catalog"
                                          : "warm_p75_ms, pass_p75_ms @ catalog"});
    }
    return d;
  }();
  return defs;
}

}  // namespace perfbench
