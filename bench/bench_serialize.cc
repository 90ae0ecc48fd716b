// E9 — Section 5: optimal serialization. For the Figure 8 movie schema and
// for schemas inferred from the generated workloads, compares the expected
// and measured serialization overhead of optSerialize's scheme against
// (a) the worst ranked scheme and (b) per-type pessimal choices, and
// validates the round trip (export -> parse -> import -> isomorphic).
// Last, it times the loaders (BuildTpcw, snapshot save and open, exchange
// export and import, and a bare xml::Tokenizer pass over the exported text,
// import's first layer) at --scale and at twice that scale and prints each
// one's growth ratio (2.0 is linear).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "mct/snapshot.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"
#include "xml/tokenizer.h"

namespace {

using namespace mct;
using namespace mct::serialize;
using namespace mct::workload;

void ReportScheme(const char* label, MctDatabase* db,
                  const SerializationScheme& scheme) {
  ExportStats stats;
  Timer t;
  auto xml = ExportXml(db, scheme, &stats);
  double secs = t.ElapsedSeconds();
  if (!xml.ok()) {
    std::fprintf(stderr, "export failed: %s\n",
                 xml.status().ToString().c_str());
    std::exit(1);
  }
  std::printf(
      "  %-22s parent-ptrs %8llu  annotations %8llu  cost-units %10.0f  "
      "bytes %10llu  (%.3fs)\n",
      label, static_cast<unsigned long long>(stats.parent_pointers),
      static_cast<unsigned long long>(stats.color_annotations),
      stats.CostUnits(), static_cast<unsigned long long>(stats.bytes), secs);
}

SerializationScheme Reversed(const SerializationScheme& s) {
  SerializationScheme out = s;
  for (auto& [_, ranked] : out.primary) {
    std::reverse(ranked.begin(), ranked.end());
  }
  return out;
}

void RunDataset(const char* name, MctDatabase* db) {
  std::printf("%s:\n", name);
  MctSchema schema = InferSchema(*db);
  auto scheme = OptSerialize(schema);
  if (!scheme.ok()) {
    std::fprintf(stderr, "optSerialize failed\n");
    std::exit(1);
  }
  std::printf("  expected cost (DP): %.0f units\n", scheme->expected_cost);
  ReportScheme("optSerialize", db, *scheme);
  ReportScheme("worst ranking", db, Reversed(*scheme));
  // Round trip.
  auto xml = ExportXml(db, *scheme, nullptr);
  Timer t;
  auto imported = ImportXml(*xml);
  if (!imported.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 imported.status().ToString().c_str());
    std::exit(1);
  }
  std::string why;
  bool iso = DatabasesIsomorphic(*db, **imported, &why);
  std::printf("  round trip: parse+import %.3fs, isomorphic: %s%s\n",
              t.ElapsedSeconds(), iso ? "yes" : "NO ", why.c_str());
  if (!iso) std::exit(1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Times the loaders of MCT TPC-W at `scale` and at twice that scale,
// interleaved (each repetition runs both scales): BuildTpcw from generated
// data, SaveSnapshot then OpenSnapshot, ExportXml, a bare tokenizer pass
// over the exported text, then ImportXml (which reads through the same
// tokenizer and builds and indexes the database). Reports the median of 3
// and each step's growth ratio.
void RunGrowth(double scale) {
  constexpr int kReps = 3;
  struct Side {
    double scale;
    TpcwData data;
    std::unique_ptr<MctDatabase> db;
    SerializationScheme scheme;
    std::vector<double> build_s, save_s, open_s, export_s, tokenize_s,
        import_s;
    size_t bytes = 0;
    size_t tokens = 0;
  };
  auto die = [](const char* what, const Status& s) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::exit(1);
  };
  const std::string snap =
      (std::filesystem::temp_directory_path() / "bench_serialize_growth.snap")
          .string();
  Side sides[2];
  for (int i = 0; i < 2; ++i) {
    sides[i].scale = scale * (i + 1);
    sides[i].data = GenerateTpcw(TpcwScale::Default().ScaledBy(sides[i].scale));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (Side& side : sides) {
      Timer tb;
      auto built = BuildTpcw(side.data, SchemaKind::kMct);
      side.build_s.push_back(tb.ElapsedSeconds());
      if (!built.ok()) die("build", built.status());
      side.db = std::move(built->db);
      if (rep == 0) {
        auto scheme = OptSerialize(InferSchema(*side.db));
        if (!scheme.ok()) die("optSerialize", scheme.status());
        side.scheme = *scheme;
      }
      Timer ts;
      Status saved = SaveSnapshot(*side.db, snap);
      side.save_s.push_back(ts.ElapsedSeconds());
      if (!saved.ok()) die("save", saved);
      Timer to;
      auto opened = OpenSnapshot(snap);
      side.open_s.push_back(to.ElapsedSeconds());
      if (!opened.ok()) die("open", opened.status());
      opened->reset();
      Timer te;
      auto xml = ExportXml(side.db.get(), side.scheme, nullptr);
      side.export_s.push_back(te.ElapsedSeconds());
      if (!xml.ok()) die("export", xml.status());
      side.bytes = xml->size();
      Timer tt;
      xml::Tokenizer tokenizer(*xml);
      size_t tokens = 0;
      while (true) {
        auto tok = tokenizer.Next();
        if (!tok.ok()) die("tokenize", tok.status());
        if (tok->kind == xml::TokenKind::kEndOfDocument) break;
        ++tokens;
      }
      side.tokenize_s.push_back(tt.ElapsedSeconds());
      side.tokens = tokens;
      Timer ti;
      auto imported = ImportXml(*xml);
      side.import_s.push_back(ti.ElapsedSeconds());
      if (!imported.ok()) die("import", imported.status());
    }
  }
  std::filesystem::remove(snap);
  std::printf("\nLoad and exchange growth (TPC-W MCT, median of %d, "
              "interleaved):\n",
              kReps);
  for (const Side& side : sides) {
    std::printf("  scale %-6g nodes %8zu  bytes %10zu  tokens %8zu  "
                "build %7.3fs  save %7.3fs  open %7.3fs  export %7.3fs  "
                "tokenize %7.3fs  import %7.3fs\n",
                side.scale, side.db->store().size(), side.bytes, side.tokens,
                Median(side.build_s), Median(side.save_s),
                Median(side.open_s), Median(side.export_s),
                Median(side.tokenize_s), Median(side.import_s));
  }
  auto growth = [&](std::vector<double> Side::*times) {
    return Median(sides[1].*times) / Median(sides[0].*times);
  };
  std::printf("  growth (x2 data): build %.2f  save %.2f  open %.2f  "
              "export %.2f  tokenize %.2f  import %.2f  (2.00 is linear)\n",
              growth(&Side::build_s), growth(&Side::save_s),
              growth(&Side::open_s), growth(&Side::export_s),
              growth(&Side::tokenize_s), growth(&Side::import_s));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = mct::bench::ScaleFromArgs(argc, argv, 0.1);
  std::printf("=== Serialization (Section 5 / E9) ===\n\n");

  {
    std::printf("Figure 8 movie schema (DP vs exhaustive enumeration):\n");
    MctSchema s = MovieSchemaOfFigure8();
    auto scheme = OptSerialize(s);
    double brute = BruteForceOptimalCost(s);
    std::printf("  DP cost %.1f, brute-force optimum %.1f (Theorem 5.1: "
                "%s)\n",
                scheme->expected_cost, brute,
                scheme->expected_cost <= brute + 1e-9 ? "optimal"
                                                      : "SUBOPTIMAL");
    std::printf("  chosen primaries:");
    for (const auto& [type, ranked] : scheme->primary) {
      if (s.Find(type)->colors.size() > 1) {
        std::printf(" %s->%s", type.c_str(), ranked.front().c_str());
      }
    }
    std::printf("\n\n");
  }
  {
    TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(scale));
    auto db = BuildTpcw(data, SchemaKind::kMct);
    RunDataset("TPC-W (MCT, 5 colors)", db->db.get());
    std::printf("\n");
  }
  {
    SigmodData data = GenerateSigmod(SigmodScale::Default().ScaledBy(scale));
    auto db = BuildSigmod(data, SchemaKind::kMct);
    RunDataset("SIGMOD-Record (MCT, 2 colors)", db->db.get());
  }
  RunGrowth(scale);
  std::printf(
      "\nExpected shape: optSerialize's scheme never costs more than the\n"
      "reversed ranking, every export reimports isomorphically, and the\n"
      "loaders and the exchange grow about linearly with the data.\n");
  return 0;
}
