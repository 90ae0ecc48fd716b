// Reproduces Table 1 (storage requirements): number of elements,
// attributes, content nodes, data megabytes and index megabytes for the
// MCT, shallow and deep representations of the TPC-W and SIGMOD-Record
// datasets.
//
// Expected shape (paper): deep has far more elements/attrs/content than
// MCT == shallow; data and index sizes order shallow < MCT <= deep. Sizes
// come from MctDatabase::Stats()'s page model, a function of the loaded
// version alone (DESIGN.md §2).

#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace {

using mct::DatabaseStats;
using namespace mct::workload;

void Report(const char* dataset, SchemaKind kind, const DatabaseStats& s,
            double build_seconds) {
  std::printf("%-14s %-8s %12llu %12llu %12llu %10.2f %10.2f   (built in %.2fs)\n",
              dataset, std::string(SchemaKindName(kind)).c_str(),
              static_cast<unsigned long long>(s.num_elements),
              static_cast<unsigned long long>(s.num_attrs),
              static_cast<unsigned long long>(s.num_content_nodes),
              s.DataMBytes(), s.IndexMBytes(), build_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  double scale = mct::bench::ScaleFromArgs(argc, argv);
  std::printf("=== Table 1: Storage Requirement ===\n");
  std::printf("(scale factor %.3g; see EXPERIMENTS.md E1)\n\n", scale);
  std::printf("%-14s %-8s %12s %12s %12s %10s %10s\n", "Dataset", "Schema",
              "NumElements", "NumAttrs", "ContentNodes", "Data MB",
              "Index MB");
  mct::bench::PrintRule(96);

  {
    TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(scale));
    for (SchemaKind k :
         {SchemaKind::kMct, SchemaKind::kShallow, SchemaKind::kDeep}) {
      mct::Timer t;
      auto db = BuildTpcw(data, k);
      if (!db.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     db.status().ToString().c_str());
        return 1;
      }
      // Label every tree so the build time includes the interval labels.
      for (mct::ColorId c = 0; c < db->db->num_colors(); ++c) {
        db->db->tree(c)->EnsureLabels();
      }
      Report("TPC-W", k, db->db->Stats(), t.ElapsedSeconds());
    }
  }
  mct::bench::PrintRule(96);
  {
    SigmodData data = GenerateSigmod(SigmodScale::Default().ScaledBy(scale));
    for (SchemaKind k :
         {SchemaKind::kMct, SchemaKind::kShallow, SchemaKind::kDeep}) {
      mct::Timer t;
      auto db = BuildSigmod(data, k);
      if (!db.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     db.status().ToString().c_str());
        return 1;
      }
      for (mct::ColorId c = 0; c < db->db->num_colors(); ++c) {
        db->db->tree(c)->EnsureLabels();
      }
      Report("SIGMOD-Record", k, db->db->Stats(), t.ElapsedSeconds());
    }
  }
  mct::bench::PrintRule(96);
  std::printf(
      "\nPaper (Table 1, for shape comparison):\n"
      "  TPC-W:  elements 1.50M / 1.50M / 3.88M,  data MB 786 / 329 / 893\n"
      "  SIGMOD: elements 112K / 112K / 125K,     data MB 104 / 88 / 153\n");
  return 0;
}
