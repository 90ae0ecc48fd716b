#include <gtest/gtest.h>

#include "mcx/ast.h"
#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "mcx/printer.h"

namespace mct::mcx {
namespace {

ParsedQuery MustParse(const std::string& text) {
  auto r = Parse(text);
  EXPECT_TRUE(r.ok()) << r.status() << "\nquery: " << text;
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

TEST(ParserTest, UnabbreviatedColoredPath) {
  ParsedQuery q = MustParse(
      "for $m in document(\"mdb.xml\")/{red}descendant::movie-genre"
      "[{red}child::name = \"Comedy\"]/{red}descendant::movie "
      "return $m");
  ASSERT_EQ(q.root->kind, Expr::Kind::kFLWOR);
  ASSERT_EQ(q.root->bindings.size(), 1u);
  const PathExpr& p = q.root->bindings[0].expr->path;
  EXPECT_TRUE(p.from_document);
  EXPECT_EQ(p.doc_arg, "mdb.xml");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].color, "red");
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[0].tag, "movie-genre");
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  const Expr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, Expr::Kind::kCompare);
  EXPECT_EQ(pred.cmp, CmpOp::kEq);
  EXPECT_EQ(pred.children[0]->kind, Expr::Kind::kPath);
  EXPECT_EQ(pred.children[0]->path.steps[0].axis, Axis::kChild);
  EXPECT_EQ(pred.children[0]->path.steps[0].color, "red");
  EXPECT_EQ(pred.children[1]->str, "Comedy");
  EXPECT_EQ(p.steps[1].tag, "movie");
}

TEST(ParserTest, AbbreviatedColoredPath) {
  ParsedQuery q = MustParse(
      "for $m in document(\"mdb.xml\")/{red}//movie-genre[name = \"Comedy\"]"
      "/{red}//movie return $m");
  const PathExpr& p = q.root->bindings[0].expr->path;
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[0].color, "red");
  // Abbreviated predicate path: bare child step, no color (inherits).
  const Expr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.children[0]->path.steps[0].axis, Axis::kChild);
  EXPECT_EQ(pred.children[0]->path.steps[0].color, "");
}

TEST(ParserTest, UncoloredPathsForSingleColorDatabases) {
  ParsedQuery q = MustParse(
      "for $m in document(\"db.xml\")//movie[.//actor/name = \"Bette Davis\"]"
      " return $m");
  const PathExpr& p = q.root->bindings[0].expr->path;
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
  // .//actor -> self step then descendant.
  const PathExpr& pp = p.steps[0].predicates[0]->children[0]->path;
  EXPECT_EQ(pp.steps[0].axis, Axis::kSelf);
  EXPECT_EQ(pp.steps[1].axis, Axis::kDescendant);
  EXPECT_EQ(pp.steps[1].tag, "actor");
  EXPECT_EQ(pp.steps[2].axis, Axis::kChild);
}

TEST(ParserTest, AttributeSteps) {
  ParsedQuery q = MustParse(
      "for $m in document(\"d\")//movie, $g in document(\"d\")//genre "
      "where $g/@id = $m/@genreIdRef return $m");
  ASSERT_NE(q.root->where, nullptr);
  const Expr& w = *q.root->where;
  EXPECT_EQ(w.kind, Expr::Kind::kCompare);
  EXPECT_EQ(w.children[0]->path.start_var, "$g");
  EXPECT_EQ(w.children[0]->path.steps[0].axis, Axis::kAttribute);
  EXPECT_EQ(w.children[0]->path.steps[0].tag, "id");
  EXPECT_EQ(w.children[1]->path.start_var, "$m");
}

TEST(ParserTest, WhereWithAndContains) {
  ParsedQuery q = MustParse(
      "for $m in document(\"d\")//movie "
      "where contains($m/movie-award/name, \"Oscar\") and $m/votes > 10 "
      "return $m");
  const Expr& w = *q.root->where;
  EXPECT_EQ(w.kind, Expr::Kind::kAnd);
  EXPECT_EQ(w.children[0]->kind, Expr::Kind::kContains);
  EXPECT_EQ(w.children[1]->kind, Expr::Kind::kCompare);
  EXPECT_EQ(w.children[1]->cmp, CmpOp::kGt);
  EXPECT_EQ(w.children[1]->children[1]->num, 10.0);
}

TEST(ParserTest, IdentityPredicate) {
  ParsedQuery q = MustParse(
      "for $m in document(\"d\")/{green}//movie, "
      "$r in document(\"d\")/{red}//movie[. = $m]/{red}child::movie-role "
      "return $r");
  const PathExpr& p = q.root->bindings[1].expr->path;
  const Expr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, Expr::Kind::kCompare);
  EXPECT_EQ(pred.children[0]->path.steps[0].axis, Axis::kSelf);
  EXPECT_EQ(pred.children[1]->kind, Expr::Kind::kVarRef);
  EXPECT_EQ(pred.children[1]->str, "$m");
}

TEST(ParserTest, ConstructorWithEnclosedExpr) {
  ParsedQuery q = MustParse(
      "for $m in document(\"d\")//movie "
      "return createColor(black, <m-name> { $m/{red}child::name } </m-name>)");
  const Expr& ret = *q.root->ret;
  EXPECT_EQ(ret.kind, Expr::Kind::kCreateColor);
  EXPECT_EQ(ret.str, "black");
  const Expr& elem = *ret.children[0];
  EXPECT_EQ(elem.kind, Expr::Kind::kElement);
  EXPECT_EQ(elem.tag, "m-name");
  ASSERT_EQ(elem.children.size(), 1u);
  EXPECT_EQ(elem.children[0]->kind, Expr::Kind::kPath);
}

TEST(ParserTest, ConstructorWithAttrsTextAndNesting) {
  ParsedQuery q = MustParse(
      "createColor(black, <a x=\"1\"><b>hi</b><c/>{ count($m) }</a>)");
  const Expr& elem = *q.root->children[0];
  ASSERT_EQ(elem.attrs.size(), 1u);
  EXPECT_EQ(elem.attrs[0].name, "x");
  ASSERT_EQ(elem.children.size(), 3u);
  EXPECT_EQ(elem.children[0]->kind, Expr::Kind::kElement);
  EXPECT_EQ(elem.children[0]->children[0]->kind, Expr::Kind::kText);
  EXPECT_EQ(elem.children[0]->children[0]->str, "hi");
  EXPECT_EQ(elem.children[2]->kind, Expr::Kind::kCount);
}

TEST(ParserTest, NestedFLWORInConstructor) {
  ParsedQuery q = MustParse(
      "createColor(black, <byvotes> {"
      " for $v in distinct-values(document(\"d\")/{green}descendant::votes)"
      " order by $v"
      " return <award-byvotes> {"
      "   for $m in document(\"d\")/{green}descendant::movie"
      "     [{green}child::votes = $v] return $m }"
      "   <votes> { $v } </votes>"
      " </award-byvotes> } </byvotes>)");
  const Expr& byvotes = *q.root->children[0];
  EXPECT_EQ(byvotes.tag, "byvotes");
  const Expr& flwor = *byvotes.children[0];
  EXPECT_EQ(flwor.kind, Expr::Kind::kFLWOR);
  EXPECT_EQ(flwor.bindings[0].expr->kind, Expr::Kind::kDistinctValues);
  ASSERT_NE(flwor.order_by, nullptr);
  const Expr& inner_elem = *flwor.ret;
  EXPECT_EQ(inner_elem.tag, "award-byvotes");
  EXPECT_EQ(inner_elem.children[0]->kind, Expr::Kind::kFLWOR);
  EXPECT_EQ(inner_elem.children[1]->tag, "votes");
}

TEST(ParserTest, CreateCopy) {
  ParsedQuery q = MustParse("createCopy($m/{red}child::name)");
  EXPECT_EQ(q.root->kind, Expr::Kind::kCreateCopy);
}

TEST(ParserTest, MultipleBindingsCommaAndFor) {
  ParsedQuery q = MustParse(
      "for $a in document(\"d\")//x, $b in document(\"d\")//y "
      "for $c in $a/z return $c");
  EXPECT_EQ(q.root->bindings.size(), 3u);
  EXPECT_EQ(q.root->bindings[2].expr->path.start_var, "$a");
}

TEST(ParserTest, LetBinding) {
  ParsedQuery q = MustParse("let $n := document(\"d\")//x return $n");
  EXPECT_TRUE(q.root->bindings[0].is_let);
}

TEST(ParserTest, OrderByDescending) {
  ParsedQuery q = MustParse(
      "for $m in document(\"d\")//movie order by $m/votes descending "
      "return $m");
  EXPECT_TRUE(q.root->order_descending);
  ASSERT_NE(q.root->order_by, nullptr);
}

TEST(ParserTest, UpdateInsert) {
  ParsedQuery q = MustParse(
      "for $o in document(\"d\")//order[status = \"open\"] "
      "update $o { insert <flag>expedite</flag> into {cust} }");
  ASSERT_TRUE(q.is_update);
  EXPECT_EQ(q.target_var, "$o");
  ASSERT_EQ(q.actions.size(), 1u);
  EXPECT_EQ(q.actions[0].kind, UpdateAction::Kind::kInsert);
  EXPECT_EQ(q.actions[0].color, "cust");
  EXPECT_EQ(q.actions[0].constructor->tag, "flag");
}

TEST(ParserTest, UpdateDeleteAndReplace) {
  ParsedQuery q = MustParse(
      "for $o in document(\"d\")//order "
      "where $o/@id = \"o1\" "
      "update $o { delete {cust} flag, replace status with \"closed\" }");
  ASSERT_TRUE(q.is_update);
  ASSERT_EQ(q.actions.size(), 2u);
  EXPECT_EQ(q.actions[0].kind, UpdateAction::Kind::kDelete);
  EXPECT_EQ(q.actions[0].color, "cust");
  EXPECT_EQ(q.actions[0].selector.steps[0].tag, "flag");
  EXPECT_EQ(q.actions[1].kind, UpdateAction::Kind::kReplace);
  EXPECT_EQ(q.actions[1].new_value, "closed");
}

TEST(ParserTest, UpdateDeleteSelf) {
  ParsedQuery q = MustParse(
      "for $x in document(\"d\")//obsolete update $x { delete }");
  ASSERT_TRUE(q.is_update);
  EXPECT_TRUE(q.actions[0].selector.steps.empty());
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(Parse("").status().IsParseError());
  EXPECT_TRUE(Parse("for $m in").status().IsParseError());
  EXPECT_TRUE(Parse("for $m in document(\"d\")//x").status().IsParseError());
  EXPECT_TRUE(Parse("for m in document(\"d\")//x return $m")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("return $m").status().IsParseError());
  EXPECT_TRUE(
      Parse("for $m in document(\"d\")/{red descendant::x return $m")
          .status()
          .IsParseError());
  EXPECT_TRUE(Parse("for $m in document(\"d\")//x return <a>{$m}</b>")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("for $m in document(\"d\")//x return $m extra")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("for $m in document(\"d\")/child::x[1tag] return $m")
                  .status()
                  .IsParseError());
}

/// `left` x depth, then `mid`, then `right` x depth.
std::string Nested(const std::string& left, const std::string& mid,
                   const std::string& right, int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += left;
  out += mid;
  for (int i = 0; i < depth; ++i) out += right;
  return out;
}

TEST(ParserTest, NestingIsCappedWithASpannedError) {
  // Deep but under the cap: accepted.
  EXPECT_TRUE(Parse(Nested("(", "1", ")", 200)).ok());
  EXPECT_TRUE(Parse(Nested("<a>", "x", "</a>", 200)).ok());
  // 20,000 levels (a stack overflow before the cap): refused.
  for (const std::string& text : {Nested("(", "1", ")", 20000),
                                  Nested("<a>", "x", "</a>", 20000),
                                  "for $m in document(\"d\")//x return " +
                                      Nested("<a>{", "$m", "}</a>", 20000)}) {
    Status s = Parse(text).status();
    EXPECT_TRUE(s.IsInvalidArgument()) << s;
    EXPECT_NE(s.message().find("nested deeper than"), std::string::npos) << s;
    EXPECT_NE(s.message().find("line 1 col"), std::string::npos) << s;
  }
}

/// `terms` copies of "1 = 1" joined by `op`.
std::string Chain(const std::string& op, int terms) {
  std::string out = "1 = 1";
  for (int i = 1; i < terms; ++i) out += " " + op + " 1 = 1";
  return out;
}

TEST(ParserTest, AndOrChainsCountAgainstTheNestingCap) {
  // A chain builds a left-deep tree as deep as it is long, so a statement
  // holds at most 256 `and` / `or` nodes: 257 terms parse, 258 and
  // 100,000 (which tore down recursively past the stack before the cap)
  // are refused with a span.
  for (const std::string op : {"and", "or"}) {
    EXPECT_TRUE(Parse(Chain(op, 257)).ok()) << op;
    for (int terms : {258, 100000}) {
      Status s = Parse(Chain(op, terms)).status();
      EXPECT_TRUE(s.IsInvalidArgument()) << s;
      EXPECT_NE(s.message().find("nested deeper than"), std::string::npos)
          << s;
      EXPECT_NE(s.message().find("line 1 col"), std::string::npos) << s;
    }
  }
  // Every node counts, however parentheses split the chain.
  EXPECT_TRUE(Parse(Nested("(", Chain("and", 100), ")", 100)).ok());
  EXPECT_TRUE(Parse("(" + Chain("and", 200) + ") and " + Chain("and", 200))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Parse("(" + Chain("or", 200) + ") and " + Chain("or", 200))
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, EveryAcceptedChainReparsesFromItsPrint) {
  // WAL replay parses Print(q), which drops the parentheses that split a
  // chain, so whatever Parse accepts its printed form must parse too.
  // Left-nested parentheses: ((1 = 1 and 1 = 1) and 1 = 1) and ...
  auto left_nested = [](int levels) {
    std::string out = "1 = 1";
    for (int i = 0; i < levels; ++i) out = "(" + out + ") and 1 = 1";
    return out;
  };
  const std::string where[] = {
      "(" + Chain("and", 128) + ") and " + Chain("and", 129),
      "(" + Chain("and", 200) + ") and " + Chain("and", 200),
      "(" + Chain("or", 100) + ") and " + Chain("and", 157),
      left_nested(200),
      left_nested(255),
      left_nested(300),
  };
  int accepted = 0;
  for (const std::string& w : where) {
    const std::string text = "for $m in document(\"d\")//movie where " + w +
                             " update $m { replace votes with \"9\" }";
    auto q = Parse(text);
    if (!q.ok()) {
      EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status();
      continue;
    }
    ++accepted;
    const std::string printed = Print(*q);
    auto again = Parse(printed);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(Print(*again), printed);
  }
  EXPECT_EQ(accepted, 4);
}

TEST(ParserTest, ErrorMessagesCarryLineColAndNearText) {
  // Single-line error: position points at the offending token.
  Status s = Parse("for $m in document(\"d\")//x return $m extra").status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 1 col"), std::string::npos) << s;
  EXPECT_NE(s.message().find("near 'extra'"), std::string::npos) << s;

  // Multi-line statement: the line number advances past the newline.
  Status s2 = Parse("for $m in document(\"d\")//x\nreturn $m ???").status();
  ASSERT_TRUE(s2.IsParseError());
  EXPECT_NE(s2.message().find("line 2"), std::string::npos) << s2;
}

TEST(ParserTest, ResolveLineColComputesPositions) {
  const std::string text = "abc\ndef\nghi";
  LineCol a = ResolveLineCol(text, 0);
  EXPECT_EQ(a.line, 1u);
  EXPECT_EQ(a.col, 1u);
  LineCol b = ResolveLineCol(text, 5);  // 'e'
  EXPECT_EQ(b.line, 2u);
  EXPECT_EQ(b.col, 2u);
  LineCol c = ResolveLineCol(text, 10);  // 'i'
  EXPECT_EQ(c.line, 3u);
  EXPECT_EQ(c.col, 3u);
}

TEST(ParserTest, AstCarriesSourceSpans) {
  const std::string text =
      "for $m in document(\"mdb.xml\")/{red}descendant::movie "
      "return $m/{red}child::name";
  ParsedQuery q = MustParse(text);
  EXPECT_EQ(q.source, text);
  ASSERT_EQ(q.root->bindings.size(), 1u);
  const Binding& b = q.root->bindings[0];
  ASSERT_TRUE(b.span.valid());
  // The binding's span covers "$m in document(...)...movie".
  EXPECT_EQ(text.substr(b.span.begin, 2), "$m");
  const PathExpr& p = b.expr->path;
  ASSERT_EQ(p.steps.size(), 1u);
  ASSERT_TRUE(p.steps[0].span.valid());
  std::string step_text = text.substr(
      p.steps[0].span.begin, p.steps[0].span.end - p.steps[0].span.begin);
  EXPECT_EQ(step_text, "{red}descendant::movie");
}

TEST(ParserTest, UpdateActionsCarrySpans) {
  const std::string text =
      "for $m in document(\"d\")/{red}descendant::movie "
      "update $m { insert <verified>yes</verified> into {red}, "
      "delete {red} name }";
  ParsedQuery q = MustParse(text);
  ASSERT_TRUE(q.is_update);
  ASSERT_TRUE(q.target_span.valid());
  EXPECT_EQ(text.substr(q.target_span.begin, 2), "$m");
  ASSERT_EQ(q.actions.size(), 2u);
  for (const UpdateAction& a : q.actions) {
    ASSERT_TRUE(a.span.valid());
  }
  EXPECT_EQ(text.substr(q.actions[0].span.begin, 6), "insert");
  EXPECT_EQ(text.substr(q.actions[1].span.begin, 6), "delete");
}

TEST(ComplexityTest, CountsPathsAndBindings) {
  // Shallow-1 query from Example 1.1: 5 bindings, several paths.
  ParsedQuery q = MustParse(
      "for $mg in document(\"mdb.xml\")//movie-genre[name = \"Comedy\"], "
      "$m in document(\"mdb.xml\")//movie, "
      "$ma in document(\"mdb.xml\")//movie-award, "
      "$a in document(\"mdb.xml\")//actor[name = \"Bette Davis\"], "
      "$r in document(\"mdb.xml\")//movie-role "
      "where contains($ma/name, \"Oscar\") and "
      "$mg/@id = $m/@movieGenreIdRef and "
      "contains($m/@movieAwardIdRefs, $ma/@id) and "
      "contains($m/@roleIdRefs, $r/@id) and "
      "contains($a/@roleIdRefs, $r/@id) "
      "return <m-name> { $m/name } </m-name>");
  QueryComplexity c = AnalyzeComplexity(q);
  EXPECT_EQ(c.num_variable_bindings, 5);
  // 5 binding paths + 2 predicate paths + 9 where paths + 1 return path.
  EXPECT_EQ(c.num_path_exprs, 17);

  // Deep-1 equivalent: 1 binding, far fewer paths.
  ParsedQuery qd = MustParse(
      "for $m in document(\"mdb.xml\")//movie-genre[name = \"Comedy\"]"
      "//movie[.//actor/name = \"Bette Davis\"] "
      "where contains($m/movie-award/name, \"Oscar\") "
      "return <m-name> { $m/name } </m-name>");
  QueryComplexity cd = AnalyzeComplexity(qd);
  EXPECT_EQ(cd.num_variable_bindings, 1);
  EXPECT_LT(cd.num_path_exprs, c.num_path_exprs);
}

}  // namespace
}  // namespace mct::mcx
