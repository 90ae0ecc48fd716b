#include "workload/tpcw_db.h"

#include "common/strings.h"

namespace mct::workload {

namespace {

std::string Money(double v) { return StrFormat("%.2f", v); }

// Creates a field child carrying every color of its parent (the paper's
// convention for name subelements in the movie example).
Status AddField(MctDatabase* db, NodeId parent, ColorSet colors,
                const std::string& tag, const std::string& content) {
  auto cs = colors.ToVector();
  MCT_ASSIGN_OR_RETURN(NodeId field, db->CreateElement(cs[0], parent, tag));
  for (size_t i = 1; i < cs.size(); ++i) {
    MCT_RETURN_IF_ERROR(db->AddNodeColor(field, cs[i], parent));
  }
  return db->SetContent(field, content);
}

Status BuildMct(const TpcwData& d, TpcwDb& out) {
  MctDatabase* db = out.db.get();
  MCT_ASSIGN_OR_RETURN(out.cust, db->RegisterColor("cust"));
  MCT_ASSIGN_OR_RETURN(out.bill, db->RegisterColor("bill"));
  MCT_ASSIGN_OR_RETURN(out.ship, db->RegisterColor("ship"));
  MCT_ASSIGN_OR_RETURN(out.date, db->RegisterColor("date"));
  MCT_ASSIGN_OR_RETURN(out.auth, db->RegisterColor("auth"));
  NodeId doc = db->document();

  // Customers (cust tree roots).
  std::vector<NodeId> customers;
  customers.reserve(d.customers.size());
  for (const TpcwCustomer& c : d.customers) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(out.cust, doc, "customer"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "c" + std::to_string(c.id)));
    ColorSet cs = ColorSet::Of(out.cust);
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "uname", c.uname));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "fname", c.fname));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "lname", c.lname));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "since", c.since));
    customers.push_back(n);
  }

  // Addresses: every address participates in both the billing and the
  // shipping hierarchy.
  std::vector<NodeId> addresses;
  addresses.reserve(d.addresses.size());
  for (const TpcwAddress& a : d.addresses) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(out.bill, doc, "address"));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(n, out.ship, doc));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "a" + std::to_string(a.id)));
    ColorSet cs = ColorSet::Of(out.bill).Union(ColorSet::Of(out.ship));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "street", a.street));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "city", a.city));
    MCT_RETURN_IF_ERROR(AddField(
        db, n, cs, "country",
        d.countries[static_cast<size_t>(a.country_id)].name));
    addresses.push_back(n);
  }

  // Dates.
  std::vector<NodeId> dates;
  dates.reserve(d.dates.size());
  for (const TpcwDate& dt : d.dates) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(out.date, doc, "date"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "d" + std::to_string(dt.id)));
    MCT_RETURN_IF_ERROR(db->SetContent(n, dt.value));
    dates.push_back(n);
  }

  // Authors and items.
  std::vector<NodeId> authors(d.authors.size(), kInvalidNodeId);
  for (const TpcwAuthor& a : d.authors) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(out.auth, doc, "author"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "au" + std::to_string(a.id)));
    ColorSet cs = ColorSet::Of(out.auth);
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "fname", a.fname));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "lname", a.lname));
    authors[static_cast<size_t>(a.id)] = n;
  }
  std::vector<NodeId> items(d.items.size(), kInvalidNodeId);
  for (const TpcwItem& it : d.items) {
    NodeId author = authors[static_cast<size_t>(it.author_id)];
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(out.auth, author, "item"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "i" + std::to_string(it.id)));
    // The paper's MCT database carries the same generated attributes as the
    // shallow one (Table 1 reports identical attribute counts); the IdRefs
    // are redundant next to the colored hierarchies but kept for parity.
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "authorIdRef", "au" + std::to_string(it.author_id)));
    ColorSet cs = ColorSet::Of(out.auth);
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "title", it.title));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "cost", Money(it.cost)));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "subject", it.subject));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "stock", std::to_string(it.stock)));
    items[static_cast<size_t>(it.id)] = n;
  }

  // Orders: cust + bill + ship + date.
  std::vector<NodeId> orders;
  orders.reserve(d.orders.size());
  for (const TpcwOrder& o : d.orders) {
    NodeId customer = customers[static_cast<size_t>(o.customer_id)];
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(out.cust, customer, "order"));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(
        n, out.bill, addresses[static_cast<size_t>(o.bill_addr_id)]));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(
        n, out.ship, addresses[static_cast<size_t>(o.ship_addr_id)]));
    MCT_RETURN_IF_ERROR(
        db->AddNodeColor(n, out.date, dates[static_cast<size_t>(o.date_id)]));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "o" + std::to_string(o.id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "customerIdRef", "c" + std::to_string(o.customer_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "billAddrIdRef", "a" + std::to_string(o.bill_addr_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "shipAddrIdRef", "a" + std::to_string(o.ship_addr_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "dateIdRef", "d" + std::to_string(o.date_id)));
    // Field children carry the colors the workload navigates them in
    // (cust and date); the model permits any subset of the parent's colors
    // and the paper's TPC-W schema does not pin this down.
    ColorSet cs = ColorSet::Of(out.cust).Union(ColorSet::Of(out.date));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "status", o.status));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "total", Money(o.total)));
    orders.push_back(n);
  }

  // Orderlines: under the order in four trees, under the item in auth.
  for (const TpcwOrderLine& ol : d.orderlines) {
    NodeId order = orders[static_cast<size_t>(ol.order_id)];
    MCT_ASSIGN_OR_RETURN(NodeId n,
                         db->CreateElement(out.cust, order, "orderline"));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(n, out.bill, order));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(n, out.ship, order));
    MCT_RETURN_IF_ERROR(db->AddNodeColor(n, out.date, order));
    MCT_RETURN_IF_ERROR(
        db->AddNodeColor(n, out.auth, items[static_cast<size_t>(ol.item_id)]));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "ol" + std::to_string(ol.id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "orderIdRef", "o" + std::to_string(ol.order_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "itemIdRef", "i" + std::to_string(ol.item_id)));
    ColorSet cs = ColorSet::Of(out.cust).Union(ColorSet::Of(out.auth));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "qty", std::to_string(ol.qty)));
    MCT_RETURN_IF_ERROR(AddField(db, n, cs, "discount", Money(ol.discount)));
  }
  return Status::OK();
}

Status BuildShallow(const TpcwData& d, TpcwDb& out) {
  MctDatabase* db = out.db.get();
  MCT_ASSIGN_OR_RETURN(out.doc, db->RegisterColor("doc"));
  const ColorId c = out.doc;
  MCT_ASSIGN_OR_RETURN(NodeId tpcw,
                       db->CreateElement(c, db->document(), "tpcw"));
  ColorSet cs = ColorSet::Of(c);

  auto field = [&](NodeId parent, const std::string& tag,
                   const std::string& content) {
    return AddField(db, parent, cs, tag, content);
  };

  MCT_ASSIGN_OR_RETURN(NodeId customers, db->CreateElement(c, tpcw, "customers"));
  for (const TpcwCustomer& cust : d.customers) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, customers, "customer"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "c" + std::to_string(cust.id)));
    MCT_RETURN_IF_ERROR(field(n, "uname", cust.uname));
    MCT_RETURN_IF_ERROR(field(n, "fname", cust.fname));
    MCT_RETURN_IF_ERROR(field(n, "lname", cust.lname));
    MCT_RETURN_IF_ERROR(field(n, "since", cust.since));
  }
  MCT_ASSIGN_OR_RETURN(NodeId addresses, db->CreateElement(c, tpcw, "addresses"));
  for (const TpcwAddress& a : d.addresses) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, addresses, "address"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "a" + std::to_string(a.id)));
    MCT_RETURN_IF_ERROR(field(n, "street", a.street));
    MCT_RETURN_IF_ERROR(field(n, "city", a.city));
    MCT_RETURN_IF_ERROR(field(
        n, "country", d.countries[static_cast<size_t>(a.country_id)].name));
  }
  MCT_ASSIGN_OR_RETURN(NodeId dates, db->CreateElement(c, tpcw, "dates"));
  for (const TpcwDate& dt : d.dates) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, dates, "date"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "d" + std::to_string(dt.id)));
    MCT_RETURN_IF_ERROR(db->SetContent(n, dt.value));
  }
  MCT_ASSIGN_OR_RETURN(NodeId authors, db->CreateElement(c, tpcw, "authors"));
  for (const TpcwAuthor& a : d.authors) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, authors, "author"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "au" + std::to_string(a.id)));
    MCT_RETURN_IF_ERROR(field(n, "fname", a.fname));
    MCT_RETURN_IF_ERROR(field(n, "lname", a.lname));
  }
  MCT_ASSIGN_OR_RETURN(NodeId items, db->CreateElement(c, tpcw, "items"));
  for (const TpcwItem& it : d.items) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, items, "item"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "i" + std::to_string(it.id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "authorIdRef", "au" + std::to_string(it.author_id)));
    MCT_RETURN_IF_ERROR(field(n, "title", it.title));
    MCT_RETURN_IF_ERROR(field(n, "cost", Money(it.cost)));
    MCT_RETURN_IF_ERROR(field(n, "subject", it.subject));
    MCT_RETURN_IF_ERROR(field(n, "stock", std::to_string(it.stock)));
  }
  MCT_ASSIGN_OR_RETURN(NodeId orders, db->CreateElement(c, tpcw, "orders"));
  for (const TpcwOrder& o : d.orders) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, orders, "order"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "o" + std::to_string(o.id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "customerIdRef", "c" + std::to_string(o.customer_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "billAddrIdRef", "a" + std::to_string(o.bill_addr_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "shipAddrIdRef", "a" + std::to_string(o.ship_addr_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "dateIdRef", "d" + std::to_string(o.date_id)));
    MCT_RETURN_IF_ERROR(field(n, "status", o.status));
    MCT_RETURN_IF_ERROR(field(n, "total", Money(o.total)));
  }
  MCT_ASSIGN_OR_RETURN(NodeId orderlines,
                       db->CreateElement(c, tpcw, "orderlines"));
  for (const TpcwOrderLine& ol : d.orderlines) {
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, orderlines, "orderline"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "ol" + std::to_string(ol.id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "orderIdRef", "o" + std::to_string(ol.order_id)));
    MCT_RETURN_IF_ERROR(
        db->SetAttr(n, "itemIdRef", "i" + std::to_string(ol.item_id)));
    MCT_RETURN_IF_ERROR(field(n, "qty", std::to_string(ol.qty)));
    MCT_RETURN_IF_ERROR(field(n, "discount", Money(ol.discount)));
  }
  return Status::OK();
}

Status BuildDeep(const TpcwData& d, TpcwDb& out) {
  MctDatabase* db = out.db.get();
  MCT_ASSIGN_OR_RETURN(out.doc, db->RegisterColor("doc"));
  const ColorId c = out.doc;
  MCT_ASSIGN_OR_RETURN(NodeId tpcw,
                       db->CreateElement(c, db->document(), "tpcw"));
  ColorSet cs = ColorSet::Of(c);

  auto field = [&](NodeId parent, const std::string& tag,
                   const std::string& content) {
    return AddField(db, parent, cs, tag, content);
  };
  // Replicated address subtree under an order; the role attribute
  // distinguishes billing from shipping (one tag keeps queries uniform).
  auto add_address = [&](NodeId order, const std::string& role,
                         int addr_id) -> Status {
    const TpcwAddress& a = d.addresses[static_cast<size_t>(addr_id)];
    MCT_ASSIGN_OR_RETURN(NodeId n, db->CreateElement(c, order, "address"));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "role", role));
    MCT_RETURN_IF_ERROR(db->SetAttr(n, "id", "a" + std::to_string(a.id)));
    MCT_RETURN_IF_ERROR(field(n, "street", a.street));
    MCT_RETURN_IF_ERROR(field(n, "city", a.city));
    return field(n, "country",
                 d.countries[static_cast<size_t>(a.country_id)].name);
  };

  // Orderlines grouped by order for nesting.
  std::vector<std::vector<const TpcwOrderLine*>> by_order(d.orders.size());
  for (const TpcwOrderLine& ol : d.orderlines) {
    by_order[static_cast<size_t>(ol.order_id)].push_back(&ol);
  }
  // Orders grouped by customer.
  std::vector<std::vector<const TpcwOrder*>> by_customer(d.customers.size());
  for (const TpcwOrder& o : d.orders) {
    by_customer[static_cast<size_t>(o.customer_id)].push_back(&o);
  }

  for (const TpcwCustomer& cust : d.customers) {
    MCT_ASSIGN_OR_RETURN(NodeId cn, db->CreateElement(c, tpcw, "customer"));
    MCT_RETURN_IF_ERROR(db->SetAttr(cn, "id", "c" + std::to_string(cust.id)));
    MCT_RETURN_IF_ERROR(field(cn, "uname", cust.uname));
    MCT_RETURN_IF_ERROR(field(cn, "fname", cust.fname));
    MCT_RETURN_IF_ERROR(field(cn, "lname", cust.lname));
    MCT_RETURN_IF_ERROR(field(cn, "since", cust.since));
    for (const TpcwOrder* o : by_customer[static_cast<size_t>(cust.id)]) {
      MCT_ASSIGN_OR_RETURN(NodeId on, db->CreateElement(c, cn, "order"));
      MCT_RETURN_IF_ERROR(db->SetAttr(on, "id", "o" + std::to_string(o->id)));
      MCT_RETURN_IF_ERROR(field(on, "status", o->status));
      MCT_RETURN_IF_ERROR(field(on, "total", Money(o->total)));
      MCT_RETURN_IF_ERROR(
          field(on, "order_date",
                d.dates[static_cast<size_t>(o->date_id)].value));
      MCT_RETURN_IF_ERROR(add_address(on, "billing", o->bill_addr_id));
      MCT_RETURN_IF_ERROR(add_address(on, "shipping", o->ship_addr_id));
      for (const TpcwOrderLine* ol : by_order[static_cast<size_t>(o->id)]) {
        MCT_ASSIGN_OR_RETURN(NodeId ln, db->CreateElement(c, on, "orderline"));
        MCT_RETURN_IF_ERROR(
            db->SetAttr(ln, "id", "ol" + std::to_string(ol->id)));
        MCT_RETURN_IF_ERROR(field(ln, "qty", std::to_string(ol->qty)));
        MCT_RETURN_IF_ERROR(field(ln, "discount", Money(ol->discount)));
        // Replicated item subtree (with its replicated author).
        const TpcwItem& it = d.items[static_cast<size_t>(ol->item_id)];
        MCT_ASSIGN_OR_RETURN(NodeId in, db->CreateElement(c, ln, "item"));
        MCT_RETURN_IF_ERROR(db->SetAttr(in, "id", "i" + std::to_string(it.id)));
        MCT_RETURN_IF_ERROR(field(in, "title", it.title));
        MCT_RETURN_IF_ERROR(field(in, "cost", Money(it.cost)));
        MCT_RETURN_IF_ERROR(field(in, "subject", it.subject));
        MCT_RETURN_IF_ERROR(field(in, "stock", std::to_string(it.stock)));
        const TpcwAuthor& au = d.authors[static_cast<size_t>(it.author_id)];
        MCT_ASSIGN_OR_RETURN(NodeId an, db->CreateElement(c, in, "author"));
        MCT_RETURN_IF_ERROR(db->SetAttr(an, "id", "au" + std::to_string(au.id)));
        MCT_RETURN_IF_ERROR(field(an, "fname", au.fname));
        MCT_RETURN_IF_ERROR(field(an, "lname", au.lname));
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string_view SchemaKindName(SchemaKind k) {
  switch (k) {
    case SchemaKind::kMct:
      return "MCT";
    case SchemaKind::kShallow:
      return "Shallow";
    case SchemaKind::kDeep:
      return "Deep";
  }
  return "?";
}

Result<TpcwDb> BuildTpcw(const TpcwData& data, SchemaKind kind) {
  TpcwDb out;
  out.kind = kind;
  out.db = std::make_unique<MctDatabase>();
  // One bulk load: each index posting list is built once, at Finish.
  MctDatabase::Loader loader(out.db.get());
  switch (kind) {
    case SchemaKind::kMct:
      MCT_RETURN_IF_ERROR(BuildMct(data, out));
      break;
    case SchemaKind::kShallow:
      MCT_RETURN_IF_ERROR(BuildShallow(data, out));
      break;
    case SchemaKind::kDeep:
      MCT_RETURN_IF_ERROR(BuildDeep(data, out));
      break;
    default:
      return Status::InvalidArgument("unknown schema kind");
  }
  loader.Finish();
  return out;
}

}  // namespace mct::workload
