// Shared plumbing of the repository benchmark (perfbench/run.py drives it).
//
// Each workload runs in its own process from one seed. A run reports the
// end-to-end metrics of BENCHMARK.json with tracing off (--trace 0), or the
// per-layer metrics with tracing on (--trace 1). Every timed op belongs to
// an op *kind* (a catalog statement, a served template, an ingest phase);
// a run summarizes each kind by its own median, upper quartile and tail,
// then combines kinds by a geometric mean, never by a percentile pooled
// over kinds whose latencies differ by orders of magnitude. The gated
// latencies are first rescaled by a host reference kernel sampled between
// the ops (HostRef), which takes out the host's slow and fast phases.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// The benchmark's own deterministic generator (the engine's RNG is not
/// used, so a change to it cannot move the offered load).
class Rand {
 public:
  explicit Rand(uint64_t seed) : g_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(g_() % n); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  std::mt19937_64 g_;
};

/// Per-kind statistics of one run.
struct KindStats {
  size_t n = 0;
  double median = 0;
  /// Upper quartile (linear interpolation between ranks).
  double p75 = 0;
  /// The tail: the highest percentile up to p90 with at least ten samples
  /// beyond it (0 when the kind has fewer than 11 samples).
  double tail = 0;
  double tail_pct = 0;
};
KindStats Summarize(std::vector<double> v);
double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);

/// The host reference: a fixed kernel owned by the benchmark, sampled
/// between the workload's ops. A shared virtual machine alternates between
/// phases in which the same engine work runs up to 1.6x slower, for seconds
/// to minutes at a time (measured on a 4-vCPU VM: vmstat shows no steal,
/// thread CPU time tracks wall time). The kernel mixes what the engine's
/// ops spend their time on -- page faults on freshly mapped memory, random
/// access over a few MB, small allocations, pointer chasing and string
/// compares -- so its time moves with those phases and not with the engine.
/// Latencies are rescaled by kNominalMs over the kernel's local time, which
/// turns them into milliseconds on the reference host in its fast phase.
class HostRef {
 public:
  /// The kernel's time on the reference host in its fast phase (its run
  /// medians there read 7.3-8.5 ms).
  static constexpr double kNominalMs = 8.0;
  /// How many samples nearest in time form the local estimate: 2-4 s of
  /// samples on catalog and serve_mixed, three commit chunks on
  /// ingest_restart, well inside a host phase. Each op's latency is multiplied
  /// by its estimate, so the estimate's own noise widens the upper quartile;
  /// 15 samples halved the 6-run spread of serve_mixed against 5.
  static constexpr size_t kNearest = 15;

  /// Runs the kernel once and records when and how long it took.
  /// Thread-safe.
  void Sample();
  /// Every sample's time, in recording order.
  std::vector<double> SampleMs() const;
  /// Rescaling factors for latencies measured around each of `at`:
  /// kNominalMs over the median of the `nearest` samples nearest in time.
  /// 1 when there are no samples.
  std::vector<double> Scales(const std::vector<Clock::time_point>& at,
                             size_t nearest = kNearest) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
};

/// One op kind's latencies: as measured, and rescaled to the reference host
/// by the host reference sampled around each op.
struct KindSamples {
  std::vector<double> raw, scaled;
};
using Kinds = std::map<std::string, KindSamples>;

/// Latency samples grouped by op kind, each stamped with when it ended.
/// Thread-safe.
class OpLog {
 public:
  void Add(const std::string& kind, double ms);
  /// Raw samples by kind.
  std::map<std::string, std::vector<double>> Snapshot() const;
  /// Raw and rescaled samples by kind; each op is rescaled by the `nearest`
  /// host reference samples around its midpoint.
  Kinds Rescaled(const HostRef& ref, size_t nearest = HostRef::kNearest) const;

 private:
  struct Sample {
    Clock::time_point end;
    double ms;
  };
  mutable std::mutex mu_;
  std::map<std::string, std::vector<Sample>> by_kind_;
};

/// Geometric mean over kinds of per-kind medians, upper quartiles and (over
/// the kinds that have one) tails, of the rescaled samples. Prints one line
/// per kind.
///
/// The gated end-to-end latencies use the rescaled upper quartile. The
/// rescaling removes most of a host phase; of what is left, a median still
/// moves with the share of the run that fell in each phase, while the upper
/// quartile stays with the common one.
struct Combined {
  double p50 = 0;
  double p75 = 0;
  double tail = 0;
  /// Sum over kinds of their upper quartiles: unlike the geometric mean,
  /// it moves with the heaviest kinds' own cost.
  double p75_sum = 0;
  /// The same two figures over the raw samples, for reference.
  double raw_p75 = 0;
  double raw_p75_sum = 0;
  size_t samples = 0;
};
Combined CombineKinds(const std::string& label, const Kinds& kinds,
                      bool print = true);

// ----------------------------------------------------------------- tracing

/// In-memory span recorder for traced runs. A span covers one call the
/// benchmark makes into a layer's public function; spans nest through a
/// per-thread parent stack and carry the id of the op that made them.
/// Disabled (the untraced run), a Scope costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t op = 0;
  };

  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  /// Sets the op id recorded on spans this thread opens next, and whether
  /// this op is traced. Traced runs alternate traced and untraced ops so
  /// trace.overhead_pct compares the two within one process.
  static void SetOp(uint64_t op, bool traced = true);
  /// True when spans opened by this thread are recorded.
  bool recording() const;

  /// Per-name total self time (duration minus the time its children
  /// cover), in ms, and span count.
  std::map<std::string, std::pair<double, size_t>> SelfTimes() const;
  /// Writes every span as one JSON line to `path`.
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const;

 private:
  int Open(const char* name);
  void Close(int index);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one public call; a no-op unless tracing is enabled.
#define PB_SPAN(var, name) \
  ::perfbench::Tracer::Scope var(&::perfbench::Tracer::Get(), name)

/// Times `fn` and records it under `name` when tracing; returns its ms.
double TimedSpan(const char* name, const std::function<void()>& fn);

// ----------------------------------------------------------- measurement

/// Value of a MetricsRegistry counter (0 if the engine never registered it).
uint64_t CounterValue(const std::string& name);
int64_t GaugeValue(const std::string& name);
/// Peak resident set of this process, in MB.
double PeakRssMb();

// --------------------------------------------------------------- reporting

/// Collects a run's outcome and prints the final JSON line.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  /// A wrong output: the run is reported as incorrect.
  void Wrong(const std::string& what);
  bool correct() const { return wrong_ == 0; }

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a per-layer metric of LayerCatalog() and prints it with its
  /// unit and the end-to-end metric it should move.
  void Layer(const std::string& name, double value);
  /// Records every per-layer metric of LayerCatalog() this run did not
  /// (zero: not on this workload's path).
  void FillLayers();

  /// Prints the final line: the end-to-end metrics (untraced run) or the
  /// per-layer metrics (traced run).
  void PrintJson() const;

 private:
  Args args_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, size_t> index_;
};

/// Every per-layer metric name with its unit and the end-to-end metric it
/// should move, in BENCHMARK.json order (perfbench/run.py checks the units
/// against BENCHMARK.json).
struct LayerDef {
  std::string name;
  std::string unit;
  std::string moves;
};
const std::vector<LayerDef>& LayerCatalog();

/// Names of the catalog statements timed per statement (mcx.exec_ms.<id>).
const std::vector<std::string>& CatalogStatementIds();

/// trace.overhead_pct: geomean over kinds of the traced/untraced median
/// ratio, minus one, in percent (prints its base).
double TraceOverheadPct(const OpLog& traced, const OpLog& untraced);

/// Prints one metric line: name, value, unit, how many samples it rests
/// on and how it was formed.
void PrintMetric(const std::string& name, double value, const std::string& unit,
                 size_t samples, const std::string& how);

/// What every workload reports the same way: the gated end-to-end metrics
/// and the host reference.
struct RunSummary {
  /// Set-up durations (s), raw and rescaled; setup_s is the rescaled median.
  KindSamples setup_s;
  /// warm_p75_ms and cold_p75_ms: geomeans of the kinds' upper quartiles.
  Combined warm, cold;
  /// pass_p75_ms: the sum of these kinds' upper quartiles.
  Combined pass;
  double peak_rss_mb = 0;
  const HostRef* host = nullptr;
  /// How each gated metric is formed on this workload.
  std::string setup_how, warm_how, cold_how, pass_how;
};
/// Prints and records the summary's metrics (host.ref_ms only when traced).
void ReportRun(const RunSummary& s, Report* report);

/// Times one set-up into `log` (kind "setup", ms), sampling the host
/// reference kSetUpRefs times before and after it, outside the timed region.
/// A set-up lasts seconds and no sample can run inside it, so it is
/// rescaled by all of these samples.
inline constexpr int kSetUpRefs = 5;
void TimedSetUp(HostRef* ref, OpLog* log, const std::function<void()>& fn);
/// The set-ups TimedSetUp logged, in seconds, raw and rescaled.
KindSamples SetUpSeconds(const OpLog& log, const HostRef& ref);

/// Open-loop pacing: sleeps until shortly before `due`, then spins, so
/// wake-up jitter does not swamp sub-millisecond ops.
void WaitUntil(Clock::time_point due);

int RunCatalog(const Args& args, Report* report);
int RunServeMixed(const Args& args, Report* report);
int RunIngestRestart(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
