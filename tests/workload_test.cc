// Workload integration tests: the generators produce consistent logical
// data in all three physical schemas, and — the central correctness
// property of the reproduction — every catalog read query returns the same
// multiset of values on the MCT, shallow and deep databases.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_db.h"

namespace mct::workload {
namespace {

TEST(TpcwDataTest, DeterministicAndConsistent) {
  TpcwScale scale = TpcwScale::Tiny();
  TpcwData a = GenerateTpcw(scale);
  TpcwData b = GenerateTpcw(scale);
  ASSERT_EQ(a.orderlines.size(), b.orderlines.size());
  for (size_t i = 0; i < a.orderlines.size(); ++i) {
    EXPECT_EQ(a.orderlines[i].item_id, b.orderlines[i].item_id);
  }
  EXPECT_EQ(a.customers.size(), static_cast<size_t>(scale.num_customers));
  EXPECT_EQ(a.orders.size(), static_cast<size_t>(scale.num_orders));
  // Every order has between min and max orderlines... plus coverage extras.
  EXPECT_GE(a.orderlines.size(),
            static_cast<size_t>(scale.num_orders * scale.min_orderlines));
  // Referential integrity.
  for (const TpcwOrder& o : a.orders) {
    ASSERT_LT(static_cast<size_t>(o.customer_id), a.customers.size());
    ASSERT_LT(static_cast<size_t>(o.bill_addr_id), a.addresses.size());
    ASSERT_LT(static_cast<size_t>(o.ship_addr_id), a.addresses.size());
    ASSERT_LT(static_cast<size_t>(o.date_id), a.dates.size());
  }
  // Every item ordered at least once (deep-schema equivalence invariant).
  std::vector<bool> ordered(a.items.size(), false);
  for (const TpcwOrderLine& ol : a.orderlines) {
    ordered[static_cast<size_t>(ol.item_id)] = true;
  }
  for (bool b2 : ordered) EXPECT_TRUE(b2);
}

TEST(TpcwDataTest, ScaledByGrowsCounts) {
  TpcwScale base = TpcwScale::Tiny();
  TpcwScale big = base.ScaledBy(2.0);
  EXPECT_EQ(big.num_orders, base.num_orders * 2);
  EXPECT_EQ(big.num_items, base.num_items * 2);
}

TEST(TpcwBuildTest, SchemasShareLogicalCounts) {
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  auto m = BuildTpcw(data, SchemaKind::kMct);
  auto s = BuildTpcw(data, SchemaKind::kShallow);
  auto dp = BuildTpcw(data, SchemaKind::kDeep);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(dp.ok()) << dp.status();

  DatabaseStats ms = m->db->Stats();
  DatabaseStats ss = s->db->Stats();
  DatabaseStats ds = dp->db->Stats();
  // Table 1 shape: deep has many more elements than MCT; MCT and shallow
  // are close (paper: identical); MCT stores more structural nodes than
  // elements, deep stores exactly one per element.
  EXPECT_GT(ds.num_elements, ms.num_elements);
  EXPECT_NEAR(static_cast<double>(ms.num_elements),
              static_cast<double>(ss.num_elements),
              static_cast<double>(ss.num_elements) * 0.02);
  EXPECT_GT(ms.num_struct_nodes, ms.num_elements);
  // Data bytes: shallow < MCT < deep (Table 1's ordering).
  EXPECT_LT(ss.data_bytes, ms.data_bytes);
  EXPECT_LT(ms.data_bytes, ds.data_bytes);

  // MCT color sanity: orders in 4 trees, orderlines in 5.
  EXPECT_EQ(m->db->TagScan(m->cust, "order").size(), data.orders.size());
  EXPECT_EQ(m->db->TagScan(m->bill, "order").size(), data.orders.size());
  EXPECT_EQ(m->db->TagScan(m->ship, "order").size(), data.orders.size());
  EXPECT_EQ(m->db->TagScan(m->date, "order").size(), data.orders.size());
  EXPECT_EQ(m->db->TagScan(m->auth, "orderline").size(),
            data.orderlines.size());
  EXPECT_EQ(m->db->TagScan(m->cust, "orderline").size(),
            data.orderlines.size());
}

TEST(SigmodBuildTest, SchemasShareLogicalCounts) {
  SigmodData data = GenerateSigmod(SigmodScale::Tiny());
  auto m = BuildSigmod(data, SchemaKind::kMct);
  auto s = BuildSigmod(data, SchemaKind::kShallow);
  auto dp = BuildSigmod(data, SchemaKind::kDeep);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(dp.ok()) << dp.status();
  EXPECT_EQ(m->db->TagScan(m->time, "article").size(), data.articles.size());
  EXPECT_EQ(m->db->TagScan(m->topic, "article").size(), data.articles.size());
  EXPECT_EQ(m->db->TagScan(m->topic, "editor").size(), data.editors.size());
  // Deep replicates editors per article.
  EXPECT_EQ(dp->db->TagScan(dp->doc, "editor").size(), data.articles.size());
  DatabaseStats ms = m->db->Stats();
  DatabaseStats ds = dp->db->Stats();
  EXPECT_GT(ds.num_elements, ms.num_elements);
}

// ---- Cross-schema result equivalence: the load-bearing integration test.

std::multiset<std::string> SortedValues(const QueryRun& run) {
  return std::multiset<std::string>(run.values.begin(), run.values.end());
}

class TpcwEquivalence : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new TpcwData(GenerateTpcw(TpcwScale::Tiny()));
    mct_ = new TpcwDb(std::move(BuildTpcw(*data_, SchemaKind::kMct)).value());
    shallow_ = new TpcwDb(std::move(BuildTpcw(*data_, SchemaKind::kShallow)).value());
    deep_ = new TpcwDb(std::move(BuildTpcw(*data_, SchemaKind::kDeep)).value());
  }
  static void TearDownTestSuite() {
    delete mct_;
    delete shallow_;
    delete deep_;
    delete data_;
    mct_ = shallow_ = deep_ = nullptr;
    data_ = nullptr;
  }
  static TpcwData* data_;
  static TpcwDb* mct_;
  static TpcwDb* shallow_;
  static TpcwDb* deep_;
};

TpcwData* TpcwEquivalence::data_ = nullptr;
TpcwDb* TpcwEquivalence::mct_ = nullptr;
TpcwDb* TpcwEquivalence::shallow_ = nullptr;
TpcwDb* TpcwEquivalence::deep_ = nullptr;

TEST_F(TpcwEquivalence, AllReadQueriesAgreeAcrossSchemas) {
  auto catalog = TpcwCatalog(*data_);
  ASSERT_EQ(catalog.size(), 20u);  // 16 reads + 4 updates
  for (const CatalogQuery& q : catalog) {
    if (q.is_update) continue;
    SCOPED_TRACE(q.id + ": " + q.description);
    auto rm = RunQuery(mct_->db.get(), q.mct,
                       {.default_color = mct_->default_color()}, true);
    ASSERT_TRUE(rm.ok()) << "MCT: " << rm.status() << "\n" << q.mct;
    auto rs = RunQuery(shallow_->db.get(), q.shallow,
                       {.default_color = shallow_->default_color()}, true);
    ASSERT_TRUE(rs.ok()) << "shallow: " << rs.status() << "\n" << q.shallow;
    auto rd = RunQuery(deep_->db.get(), q.deep,
                       {.default_color = deep_->default_color()}, true);
    ASSERT_TRUE(rd.ok()) << "deep: " << rd.status() << "\n" << q.deep;
    EXPECT_GT(rm->result_count, 0u) << "query should be satisfiable";
    EXPECT_EQ(SortedValues(*rm), SortedValues(*rs)) << "MCT vs shallow";
    EXPECT_EQ(SortedValues(*rm), SortedValues(*rd)) << "MCT vs deep";
    if (!q.deep_nodup.empty()) {
      auto rdn = RunQuery(deep_->db.get(), q.deep_nodup,
                          {.default_color = deep_->default_color()}, true);
      ASSERT_TRUE(rdn.ok()) << rdn.status();
      // The duplicate-free variant returns at least as many rows, and its
      // distinct values match.
      EXPECT_GE(rdn->result_count, rd->result_count);
      std::set<std::string> dn(rdn->values.begin(), rdn->values.end());
      std::set<std::string> dd(rd->values.begin(), rd->values.end());
      EXPECT_EQ(dn, dd);
    }
  }
}

TEST_F(TpcwEquivalence, JoinAnatomyMatchesAnnotations) {
  auto catalog = TpcwCatalog(*data_);
  for (const CatalogQuery& q : catalog) {
    if (q.is_update) continue;
    SCOPED_TRACE(q.id);
    auto rm = RunQuery(mct_->db.get(), q.mct,
                       {.default_color = mct_->default_color()});
    ASSERT_TRUE(rm.ok());
    auto rs = RunQuery(shallow_->db.get(), q.shallow,
                       {.default_color = shallow_->default_color()});
    ASSERT_TRUE(rs.ok());
    // MCT color crossings = colors - 1 (on the main path; predicates may
    // navigate extra colors without a bulk crossing).
    EXPECT_LE(rm->stats.cross_tree_joins,
              static_cast<uint64_t>(q.colors - 1) + 1)
        << "unexpected crossings";
    // MCT never needs a value join; shallow needs them exactly when the
    // query spans multiple trees.
    EXPECT_EQ(rm->stats.value_joins, 0u);
    if (q.trees > 1) {
      EXPECT_GE(rs->stats.value_joins + rs->stats.nested_loop_joins, 1u)
          << "shallow should have joined";
    } else {
      EXPECT_EQ(rs->stats.value_joins + rs->stats.nested_loop_joins, 0u);
    }
  }
}

TEST_F(TpcwEquivalence, UpdatesAffectSameLogicalElements) {
  // Updates mutate; build fresh databases for this test.
  auto catalog = TpcwCatalog(*data_);
  auto m = BuildTpcw(*data_, SchemaKind::kMct);
  auto s = BuildTpcw(*data_, SchemaKind::kShallow);
  auto dp = BuildTpcw(*data_, SchemaKind::kDeep);
  ASSERT_TRUE(m.ok() && s.ok() && dp.ok());
  for (const CatalogQuery& q : catalog) {
    if (!q.is_update) continue;
    SCOPED_TRACE(q.id + ": " + q.description);
    auto rm = RunQuery(m->db.get(), q.mct,
                       {.default_color = m->default_color()});
    ASSERT_TRUE(rm.ok()) << "MCT: " << rm.status() << "\n" << q.mct;
    auto rs = RunQuery(s->db.get(), q.shallow,
                       {.default_color = s->default_color()});
    ASSERT_TRUE(rs.ok()) << "shallow: " << rs.status();
    auto rd = RunQuery(dp->db.get(), q.deep,
                       {.default_color = dp->default_color()});
    ASSERT_TRUE(rd.ok()) << "deep: " << rd.status();
    EXPECT_GT(rm->result_count, 0u);
    // MCT and shallow store each element once: identical counts. Deep pays
    // one update per replica: at least as many.
    EXPECT_EQ(rm->result_count, rs->result_count);
    EXPECT_GE(rd->result_count, rm->result_count);
  }
}

class SigmodEquivalence : public testing::Test {
 protected:
  void SetUp() override {
    data_ = GenerateSigmod(SigmodScale::Tiny());
    mct_ = std::move(BuildSigmod(data_, SchemaKind::kMct)).value();
    shallow_ = std::move(BuildSigmod(data_, SchemaKind::kShallow)).value();
    deep_ = std::move(BuildSigmod(data_, SchemaKind::kDeep)).value();
  }
  SigmodData data_;
  SigmodDb mct_, shallow_, deep_;
};

TEST_F(SigmodEquivalence, AllReadQueriesAgreeAcrossSchemas) {
  auto catalog = SigmodCatalog(data_);
  ASSERT_EQ(catalog.size(), 7u);  // 5 reads + 2 updates
  for (const CatalogQuery& q : catalog) {
    if (q.is_update) continue;
    SCOPED_TRACE(q.id + ": " + q.description);
    auto rm = RunQuery(mct_.db.get(), q.mct,
                       {.default_color = mct_.default_color()}, true);
    ASSERT_TRUE(rm.ok()) << "MCT: " << rm.status() << "\n" << q.mct;
    auto rs = RunQuery(shallow_.db.get(), q.shallow,
                       {.default_color = shallow_.default_color()}, true);
    ASSERT_TRUE(rs.ok()) << "shallow: " << rs.status();
    auto rd = RunQuery(deep_.db.get(), q.deep,
                       {.default_color = deep_.default_color()}, true);
    ASSERT_TRUE(rd.ok()) << "deep: " << rd.status();
    EXPECT_GT(rm->result_count, 0u);
    EXPECT_EQ(SortedValues(*rm), SortedValues(*rs)) << "MCT vs shallow";
    EXPECT_EQ(SortedValues(*rm), SortedValues(*rd)) << "MCT vs deep";
  }
}

TEST_F(SigmodEquivalence, UpdatesAffectSameLogicalElements) {
  auto catalog = SigmodCatalog(data_);
  for (const CatalogQuery& q : catalog) {
    if (!q.is_update) continue;
    SCOPED_TRACE(q.id);
    auto rm = RunQuery(mct_.db.get(), q.mct,
                       {.default_color = mct_.default_color()});
    ASSERT_TRUE(rm.ok()) << rm.status() << "\n" << q.mct;
    auto rs = RunQuery(shallow_.db.get(), q.shallow,
                       {.default_color = shallow_.default_color()});
    ASSERT_TRUE(rs.ok()) << rs.status();
    auto rd = RunQuery(deep_.db.get(), q.deep,
                       {.default_color = deep_.default_color()});
    ASSERT_TRUE(rd.ok()) << rd.status();
    EXPECT_EQ(rm->result_count, rs->result_count);
    EXPECT_GE(rd->result_count, rm->result_count);
  }
}

}  // namespace
}  // namespace mct::workload
