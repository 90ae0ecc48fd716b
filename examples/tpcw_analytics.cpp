// Domain example: the TPC-W store modeled as a 5-hierarchy MCT database,
// queried from every angle — by customer, by date, by geography (billing
// hierarchy), and by author — without a single value join, plus the same
// question asked of the shallow schema for contrast.
//
//   ./build/examples/tpcw_analytics

#include <cstdio>

#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/tpcw_db.h"

using namespace mct;
using namespace mct::workload;

namespace {

void Run(TpcwDb* db, const char* label, const std::string& text) {
  auto r = RunQuery(db->db.get(), text, {.default_color = db->default_color()},
                    /*collect_values=*/true);
  if (!r.ok()) {
    std::printf("%-46s ERROR %s\n", label, r.status().ToString().c_str());
    return;
  }
  std::printf("%-46s %6llu results  %.4fs  (struct joins %llu, value joins "
              "%llu, crossings %llu)\n",
              label, static_cast<unsigned long long>(r->result_count),
              r->seconds,
              static_cast<unsigned long long>(r->stats.structural_joins),
              static_cast<unsigned long long>(r->stats.value_joins),
              static_cast<unsigned long long>(r->stats.cross_tree_joins));
}

}  // namespace

int main() {
  TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(0.2));
  auto mct_db = BuildTpcw(data, SchemaKind::kMct);
  auto shallow_db = BuildTpcw(data, SchemaKind::kShallow);
  if (!mct_db.ok() || !shallow_db.ok()) return 1;
  std::printf("TPC-W store: %zu customers, %zu orders, %zu orderlines, "
              "%zu items\n\n",
              data.customers.size(), data.orders.size(),
              data.orderlines.size(), data.items.size());

  const std::string u = data.customers[0].uname;
  const std::string doc = "document(\"tpcw.xml\")";

  std::printf("One store, five angles — each a structural walk in its own "
              "colored hierarchy:\n\n");
  Run(&*mct_db, "orders of one customer (cust)",
      "for $o in " + doc + "/{cust}descendant::customer[{cust}child::uname "
      "= \"" + u + "\"]/{cust}child::order return $o/@id");
  Run(&*mct_db, "orders on one date (date)",
      "for $o in " + doc + "/{date}descendant::date[. = \"" +
      data.dates[10].value + "\"]/{date}child::order return $o/@id");
  Run(&*mct_db, "orders billed in one country (bill)",
      "for $o in " + doc + "/{bill}descendant::address[{bill}child::country "
      "= \"" + data.countries[0].name + "\"]/{bill}child::order return "
      "$o/@id");
  Run(&*mct_db, "orderlines of one author's items (auth)",
      "for $l in " + doc + "/{auth}descendant::author[{auth}child::lname = "
      "\"" + data.authors[static_cast<size_t>(data.items[0].author_id)].lname +
      "\"]/{auth}descendant::orderline return $l/@id");
  Run(&*mct_db, "customer's authors (cust->auth crossing)",
      "for $a in " + doc + "/{cust}descendant::customer[{cust}child::uname "
      "= \"" + u + "\"]/{cust}descendant::orderline/{auth}parent::item/"
      "{auth}parent::author return $a/{auth}child::lname");

  std::printf("\nThe same last question on the shallow (ID/IDREF) schema — "
              "four value joins:\n\n");
  Run(&*shallow_db, "customer's authors (shallow)",
      "for $c in " + doc + "//customer[uname = \"" + u + "\"], $o in " + doc +
      "//order, $l in " + doc + "//orderline, $i in " + doc +
      "//item, $a in " + doc + "//author "
      "where $o/@customerIdRef = $c/@id and $l/@orderIdRef = $o/@id and "
      "$l/@itemIdRef = $i/@id and $i/@authorIdRef = $a/@id "
      "return $a/lname");

  std::printf("\nUpdate without anomalies: one item element, no matter how "
              "many orders it is in.\n");
  Run(&*mct_db, "restock the most popular item",
      "for $i in " + doc + "/{auth}descendant::item[@id = \"i0\"] "
      "update $i { replace stock with \"500\" }");
  return 0;
}
