#include "mcx/parser.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace mct::mcx {

LineCol ResolveLineCol(std::string_view text, size_t pos) {
  LineCol lc;
  for (size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++lc.line;
      lc.col = 1;
    } else {
      ++lc.col;
    }
  }
  return lc;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  static SourceSpan Union(const SourceSpan& a, const SourceSpan& b) {
    if (!a.valid()) return b;
    if (!b.valid()) return a;
    return SourceSpan{std::min(a.begin, b.begin), std::max(a.end, b.end)};
  }

  Result<ParsedQuery> ParseStatement() {
    SkipWs();
    ParsedQuery q;
    q.source = std::string(in_);
    const size_t stmt_start = pos_;
    if (LookKeyword("for") || LookKeyword("let")) {
      // Could be a query FLWOR or an update statement; parse the prefix and
      // decide at the 'return' / 'update' keyword.
      std::vector<Binding> bindings;
      MCT_RETURN_IF_ERROR(ParseBindings(&bindings));
      ExprPtr where;
      if (ConsumeKeyword("where")) {
        MCT_ASSIGN_OR_RETURN(where, ParseExpr());
      }
      SkipWs();
      if (ConsumeKeyword("update")) {
        q.is_update = true;
        q.bindings = std::move(bindings);
        q.where = std::move(where);
        MCT_RETURN_IF_ERROR(ParseUpdateTail(&q));
        SkipWs();
        if (pos_ != in_.size()) return Err("trailing input after update");
        return q;
      }
      auto flwor = std::make_unique<Expr>(Expr::Kind::kFLWOR);
      flwor->bindings = std::move(bindings);
      flwor->where = std::move(where);
      if (ConsumeKeyword("order")) {
        if (!ConsumeKeyword("by")) return Err("expected 'by' after 'order'");
        MCT_ASSIGN_OR_RETURN(flwor->order_by, ParseExpr());
        if (ConsumeKeyword("descending")) flwor->order_descending = true;
        ConsumeKeyword("ascending");
      }
      if (!ConsumeKeyword("return")) return Err("expected 'return'");
      MCT_ASSIGN_OR_RETURN(flwor->ret, ParseExpr());
      flwor->span = SpanFrom(stmt_start);
      q.root = std::move(flwor);
    } else {
      MCT_ASSIGN_OR_RETURN(q.root, ParseExpr());
    }
    SkipWs();
    if (pos_ != in_.size()) return Err("trailing input after expression");
    return q;
  }

 private:
  // Recursion cap. Every recursive path of the grammar re-enters through
  // ParsePrimary (parentheses, predicates, calls, nested FLWORs, enclosed
  // expressions) or ParseElementConstructor (nested literal constructors),
  // so counting those two bounds the parser's stack. `and` / `or` chains
  // loop instead but build left-deep trees as deep as they are long, so a
  // statement may hold at most kMaxNesting `and` / `or` nodes in all. That
  // count, unlike a depth, does not depend on how parentheses group a
  // chain, which the printer drops: Parse(Print(q)), as in WAL replay,
  // accepts every statement Parse accepted. Together the two caps bound
  // the depth of the tree the recursive analysis, printer, evaluator and
  // destructor walk. The workload catalogs nest 4 levels and chain a few
  // terms at most.
  static constexpr int kMaxNesting = 256;

  /// Holds one nesting level for its scope.
  class Nest {
   public:
    explicit Nest(int* depth) : depth_(depth) { ++*depth_; }
    ~Nest() { --*depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    int* depth_;
  };

  Status Err(const std::string& what) const {
    return Status::ParseError(what + Where());
  }

  /// Refuses input nested past kMaxNesting: the statement is well formed
  /// up to here but too deep to accept.
  Status TooDeep() const {
    return Status::InvalidArgument(
        StrFormat("expression nested deeper than %d levels", kMaxNesting) +
        Where());
  }

  /// " at line L col C near '...'" for the cursor.
  std::string Where() const {
    LineCol lc = ResolveLineCol(in_, pos_);
    // Excerpt the upcoming input (up to the line end, clipped) so the
    // message carries the offending token, not just coordinates.
    std::string_view rest = in_.substr(pos_);
    size_t cut = rest.find('\n');
    if (cut == std::string_view::npos || cut > 24) cut = std::min<size_t>(rest.size(), 24);
    std::string near(rest.substr(0, cut));
    if (near.empty()) near = "<end of input>";
    return StrFormat(" at line %zu col %zu near '%s'", lc.line, lc.col,
                     near.c_str());
  }

  /// Span from `start` to the current cursor, trailing whitespace excluded.
  SourceSpan SpanFrom(size_t start) const {
    size_t end = pos_;
    while (end > start &&
           std::isspace(static_cast<unsigned char>(in_[end - 1]))) {
      --end;
    }
    return SourceSpan{static_cast<uint32_t>(start),
                      static_cast<uint32_t>(end)};
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek(size_t off = 0) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }
  void SkipWs() {
    while (!AtEnd() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }
  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsNameChar(char c) {
    // ':' is excluded so axis specifiers (descendant::movie) lex as
    // name, "::", name; MCXQuery names in this subset are NCNames.
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.';
  }

  /// Does the input at the cursor start with keyword `kw` (word boundary)?
  bool LookKeyword(std::string_view kw) {
    SkipWs();
    if (in_.substr(pos_, kw.size()) != kw) return false;
    char next = pos_ + kw.size() < in_.size() ? in_[pos_ + kw.size()] : '\0';
    return !IsNameChar(next);
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (!LookKeyword(kw)) return false;
    pos_ += kw.size();
    return true;
  }

  bool ConsumeSymbol(std::string_view sym) {
    SkipWs();
    if (in_.substr(pos_, sym.size()) != sym) return false;
    pos_ += sym.size();
    return true;
  }

  bool LookSymbol(std::string_view sym) {
    SkipWs();
    return in_.substr(pos_, sym.size()) == sym;
  }

  Result<std::string> ParseName() {
    SkipWs();
    if (AtEnd() || !IsNameStart(Peek())) return Err("expected a name");
    size_t start = pos_;
    ++pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<std::string> ParseVar() {
    SkipWs();
    if (Peek() != '$') return Err("expected '$variable'");
    ++pos_;
    MCT_ASSIGN_OR_RETURN(std::string name, ParseName());
    return "$" + name;
  }

  Result<std::string> ParseStringLiteral() {
    SkipWs();
    char quote = Peek();
    if (quote != '"' && quote != '\'') return Err("expected string literal");
    ++pos_;
    std::string out;
    while (!AtEnd() && Peek() != quote) {
      out.push_back(Peek());
      ++pos_;
    }
    if (AtEnd()) return Err("unterminated string literal");
    ++pos_;
    return out;
  }

  // ---- Bindings ----

  Status ParseBindings(std::vector<Binding>* out) {
    // One or more "for $v in expr, $v2 in expr" / "let $v := expr" groups.
    while (true) {
      bool is_for = ConsumeKeyword("for");
      bool is_let = !is_for && ConsumeKeyword("let");
      if (!is_for && !is_let) break;
      do {
        SkipWs();
        const size_t bind_start = pos_;
        Binding b;
        b.is_let = is_let;
        MCT_ASSIGN_OR_RETURN(b.var, ParseVar());
        if (is_for) {
          if (!ConsumeKeyword("in")) return Err("expected 'in'");
        } else {
          if (!ConsumeSymbol(":=")) return Err("expected ':='");
        }
        MCT_ASSIGN_OR_RETURN(b.expr, ParseExpr());
        b.span = SpanFrom(bind_start);
        out->push_back(std::move(b));
      } while (ConsumeSymbol(","));
    }
    if (out->empty()) return Err("expected bindings");
    return Status::OK();
  }

  // ---- Expressions ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    MCT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("or")) {
      if (++chain_nodes_ > kMaxNesting) return TooDeep();
      MCT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      auto node = std::make_unique<Expr>(Expr::Kind::kOr);
      node->span = Union(lhs->span, rhs->span);
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    MCT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
    while (ConsumeKeyword("and")) {
      if (++chain_nodes_ > kMaxNesting) return TooDeep();
      MCT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
      auto node = std::make_unique<Expr>(Expr::Kind::kAnd);
      node->span = Union(lhs->span, rhs->span);
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    MCT_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePrimary());
    SkipWs();
    CmpOp op;
    if (ConsumeSymbol("!=")) {
      op = CmpOp::kNe;
    } else if (ConsumeSymbol("<=")) {
      op = CmpOp::kLe;
    } else if (ConsumeSymbol(">=")) {
      op = CmpOp::kGe;
    } else if (LookSymbol("<") && Peek(1) != '/' && !IsNameStart(Peek(1))) {
      // "<" starts a comparison only when not an element constructor.
      ConsumeSymbol("<");
      op = CmpOp::kLt;
    } else if (ConsumeSymbol(">")) {
      op = CmpOp::kGt;
    } else if (ConsumeSymbol("=")) {
      op = CmpOp::kEq;
    } else {
      return lhs;
    }
    MCT_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePrimary());
    auto node = std::make_unique<Expr>(Expr::Kind::kCompare);
    node->cmp = op;
    node->span = Union(lhs->span, rhs->span);
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    return node;
  }

  /// Wrapper stamping the source span of whatever primary was parsed; the
  /// grammar dispatch lives in ParsePrimaryInner.
  Result<ExprPtr> ParsePrimary() {
    SkipWs();
    if (depth_ >= kMaxNesting) return TooDeep();
    Nest nest(&depth_);
    const size_t start = pos_;
    MCT_ASSIGN_OR_RETURN(ExprPtr node, ParsePrimaryInner());
    if (node != nullptr && !node->span.valid()) node->span = SpanFrom(start);
    return node;
  }

  Result<ExprPtr> ParsePrimaryInner() {
    SkipWs();
    if (AtEnd()) return Err("unexpected end of input");
    char c = Peek();
    if (c == '"' || c == '\'') {
      MCT_ASSIGN_OR_RETURN(std::string s, ParseStringLiteral());
      auto node = std::make_unique<Expr>(Expr::Kind::kString);
      node->str = std::move(s);
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
      size_t start = pos_;
      if (c == '-') ++pos_;
      while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                          Peek() == '.')) {
        ++pos_;
      }
      auto node = std::make_unique<Expr>(Expr::Kind::kNumber);
      auto v = ParseDouble(in_.substr(start, pos_ - start));
      if (!v.has_value()) return Err("malformed number");
      node->num = *v;
      return node;
    }
    if (c == '<') return ParseElementConstructor();
    if (c == '(') {
      ++pos_;
      MCT_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      // A parenthesized expression may still be a path start: ($x)/...
      return inner;
    }
    if (LookKeyword("for") || LookKeyword("let")) {
      // Nested FLWOR.
      auto flwor = std::make_unique<Expr>(Expr::Kind::kFLWOR);
      MCT_RETURN_IF_ERROR(ParseBindings(&flwor->bindings));
      if (ConsumeKeyword("where")) {
        MCT_ASSIGN_OR_RETURN(flwor->where, ParseExpr());
      }
      if (ConsumeKeyword("order")) {
        if (!ConsumeKeyword("by")) return Err("expected 'by'");
        MCT_ASSIGN_OR_RETURN(flwor->order_by, ParseExpr());
        if (ConsumeKeyword("descending")) flwor->order_descending = true;
        ConsumeKeyword("ascending");
      }
      if (!ConsumeKeyword("return")) return Err("expected 'return'");
      MCT_ASSIGN_OR_RETURN(flwor->ret, ParseExpr());
      return flwor;
    }
    if (LookKeyword("contains")) {
      ConsumeKeyword("contains");
      if (!ConsumeSymbol("(")) return Err("expected '(' after contains");
      auto node = std::make_unique<Expr>(Expr::Kind::kContains);
      MCT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      if (!ConsumeSymbol(",")) return Err("expected ',' in contains");
      MCT_ASSIGN_OR_RETURN(ExprPtr b, ParseExpr());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      node->children.push_back(std::move(a));
      node->children.push_back(std::move(b));
      return node;
    }
    if (LookKeyword("distinct-values")) {
      ConsumeKeyword("distinct-values");
      if (!ConsumeSymbol("(")) return Err("expected '('");
      auto node = std::make_unique<Expr>(Expr::Kind::kDistinctValues);
      MCT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      node->children.push_back(std::move(a));
      return node;
    }
    if (LookKeyword("count")) {
      ConsumeKeyword("count");
      if (!ConsumeSymbol("(")) return Err("expected '('");
      auto node = std::make_unique<Expr>(Expr::Kind::kCount);
      MCT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      node->children.push_back(std::move(a));
      return node;
    }
    if (LookKeyword("createColor")) {
      ConsumeKeyword("createColor");
      if (!ConsumeSymbol("(")) return Err("expected '('");
      auto node = std::make_unique<Expr>(Expr::Kind::kCreateColor);
      MCT_ASSIGN_OR_RETURN(node->str, ParseName());  // color literal
      if (!ConsumeSymbol(",")) return Err("expected ',' in createColor");
      MCT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      node->children.push_back(std::move(a));
      return node;
    }
    if (LookKeyword("createCopy")) {
      ConsumeKeyword("createCopy");
      if (!ConsumeSymbol("(")) return Err("expected '('");
      auto node = std::make_unique<Expr>(Expr::Kind::kCreateCopy);
      MCT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      node->children.push_back(std::move(a));
      return node;
    }
    // Path expression: document(...), $var[/steps], or a relative step
    // (used inside predicates: name = "Comedy", {red}child::name, @attr).
    return ParsePathExpr();
  }

  // ---- Paths ----

  Result<ExprPtr> ParsePathExpr() {
    auto node = std::make_unique<Expr>(Expr::Kind::kPath);
    PathExpr& p = node->path;
    SkipWs();
    if (LookKeyword("document")) {
      ConsumeKeyword("document");
      if (!ConsumeSymbol("(")) return Err("expected '(' after document");
      MCT_ASSIGN_OR_RETURN(p.doc_arg, ParseStringLiteral());
      if (!ConsumeSymbol(")")) return Err("expected ')'");
      p.from_document = true;
    } else if (Peek() == '$') {
      MCT_ASSIGN_OR_RETURN(p.start_var, ParseVar());
      // Bare variable reference (no steps)?
      SkipWs();
      if (Peek() != '/' && Peek() != '[') {
        auto ref = std::make_unique<Expr>(Expr::Kind::kVarRef);
        ref->str = p.start_var;
        return ref;
      }
      // Predicate directly on the variable: $m[...]: model as self step.
      if (Peek() == '[') {
        const size_t step_start = pos_;
        PathStep self;
        self.axis = Axis::kSelf;
        MCT_RETURN_IF_ERROR(ParsePredicates(&self));
        self.span = SpanFrom(step_start);
        p.steps.push_back(std::move(self));
      }
    } else if (Peek() == '.') {
      // Context item ".": a self step path (predicates like [. = $m]).
      PathStep self;
      self.span = SourceSpan{static_cast<uint32_t>(pos_),
                             static_cast<uint32_t>(pos_ + 1)};
      ++pos_;
      self.axis = Axis::kSelf;
      p.steps.push_back(std::move(self));
      SkipWs();
      if (Peek() != '/') return node;
    } else if (Peek() == '{' || Peek() == '@' || IsNameStart(Peek())) {
      // Relative step(s) inside a predicate: name, {red}child::name, @id.
      MCT_RETURN_IF_ERROR(ParseSteps(&p, /*allow_bare_first=*/true));
      return node;
    } else {
      return Err("expected a path expression");
    }
    MCT_RETURN_IF_ERROR(ParseSteps(&p, /*allow_bare_first=*/false));
    if (p.from_document && p.steps.empty()) {
      return Err("document() must be followed by steps");
    }
    return node;
  }

  /// Parses zero or more location steps. Every step starts with '/' or
  /// '//'; when `allow_bare_first` is set, the first step may appear
  /// without a slash (relative paths inside predicates: name = "Comedy").
  Status ParseSteps(PathExpr* p, bool allow_bare_first) {
    bool first = true;
    while (true) {
      SkipWs();
      bool descendant_slash = false;
      if (LookSymbol("//")) {
        ConsumeSymbol("//");
        descendant_slash = true;
      } else if (LookSymbol("/")) {
        ConsumeSymbol("/");
      } else if (first && allow_bare_first &&
                 (Peek() == '{' || Peek() == '@' || Peek() == '*' ||
                  IsNameStart(Peek()))) {
        // Bare relative first step.
      } else {
        return Status::OK();
      }
      first = false;
      SkipWs();
      const size_t step_start = pos_;
      PathStep step;
      MCT_RETURN_IF_ERROR(ParseOneStep(&step, descendant_slash));
      step.span = SpanFrom(step_start);
      p->steps.push_back(std::move(step));
    }
  }

  Status ParseOneStep(PathStep* step, bool descendant_slash) {
    SkipWs();
    // Optional {color}.
    if (Peek() == '{') {
      ++pos_;
      MCT_ASSIGN_OR_RETURN(step->color, ParseName());
      if (!ConsumeSymbol("}")) return Err("expected '}' after color");
      SkipWs();
      // `{c}//tag` abbreviation: color before the double slash.
      if (LookSymbol("//")) {
        ConsumeSymbol("//");
        descendant_slash = true;
      } else if (LookSymbol("/")) {
        // `{c}/tag` — color before single slash.
        ConsumeSymbol("/");
      }
      SkipWs();
    }
    if (Peek() == '@') {
      ++pos_;
      step->axis = Axis::kAttribute;
      MCT_ASSIGN_OR_RETURN(step->tag, ParseName());
      return Status::OK();
    }
    if (Peek() == '.') {
      ++pos_;
      step->axis = Axis::kSelf;
      MCT_RETURN_IF_ERROR(ParsePredicates(step));
      return Status::OK();
    }
    // Axis name?
    size_t save = pos_;
    MCT_ASSIGN_OR_RETURN(std::string name, ParseName());
    SkipWs();
    if (ConsumeSymbol("::")) {
      if (name == "child") {
        step->axis = Axis::kChild;
      } else if (name == "descendant") {
        step->axis = Axis::kDescendant;
      } else if (name == "descendant-or-self") {
        step->axis = Axis::kDescendantOrSelf;
      } else if (name == "parent") {
        step->axis = Axis::kParent;
      } else if (name == "ancestor") {
        step->axis = Axis::kAncestor;
      } else if (name == "self") {
        step->axis = Axis::kSelf;
      } else if (name == "attribute") {
        step->axis = Axis::kAttribute;
      } else {
        return Err("unknown axis '" + name + "'");
      }
      SkipWs();
      if (Peek() == '*') {
        ++pos_;
        step->tag.clear();
      } else if (LookKeyword("node")) {
        ConsumeKeyword("node");
        if (!ConsumeSymbol("(") || !ConsumeSymbol(")")) {
          return Err("expected node()");
        }
        step->tag.clear();
      } else {
        MCT_ASSIGN_OR_RETURN(step->tag, ParseName());
      }
    } else {
      // Abbreviated: plain tag; axis from the slash form.
      pos_ = save;
      SkipWs();
      if (Peek() == '*') {
        ++pos_;
        step->tag.clear();
      } else {
        MCT_ASSIGN_OR_RETURN(step->tag, ParseName());
      }
      step->axis = descendant_slash ? Axis::kDescendant : Axis::kChild;
      descendant_slash = false;
    }
    if (descendant_slash && step->axis == Axis::kChild) {
      // `//child::x` means descendant-or-self::node()/child::x == descendant.
      step->axis = Axis::kDescendant;
    }
    return ParsePredicates(step);
  }

  Status ParsePredicates(PathStep* step) {
    while (true) {
      SkipWs();
      if (Peek() != '[') return Status::OK();
      ++pos_;
      MCT_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      if (!ConsumeSymbol("]")) return Err("expected ']'");
      step->predicates.push_back(std::move(pred));
    }
  }

  // ---- Element constructors ----

  Result<ExprPtr> ParseElementConstructor() {
    // At '<'.
    if (Peek() != '<') return Err("expected '<'");
    if (depth_ >= kMaxNesting) return TooDeep();
    Nest nest(&depth_);
    const size_t ctor_start = pos_;
    ++pos_;
    auto node = std::make_unique<Expr>(Expr::Kind::kElement);
    MCT_ASSIGN_OR_RETURN(node->tag, ParseName());
    // Attributes (string literals only in this subset).
    while (true) {
      SkipWs();
      if (LookSymbol("/>")) {
        ConsumeSymbol("/>");
        node->span = SpanFrom(ctor_start);
        return node;
      }
      if (LookSymbol(">")) {
        ConsumeSymbol(">");
        break;
      }
      ConstructorAttr attr;
      MCT_ASSIGN_OR_RETURN(attr.name, ParseName());
      if (!ConsumeSymbol("=")) return Err("expected '=' in constructor attr");
      MCT_ASSIGN_OR_RETURN(attr.value, ParseStringLiteral());
      node->attrs.push_back(std::move(attr));
    }
    // Content: literal text, nested constructors, enclosed expressions.
    std::string text;
    auto flush_text = [&]() {
      std::string trimmed(StripWhitespace(text));
      if (!trimmed.empty()) {
        auto t = std::make_unique<Expr>(Expr::Kind::kText);
        t->str = trimmed;
        node->children.push_back(std::move(t));
      }
      text.clear();
    };
    while (true) {
      if (AtEnd()) return Err("unterminated constructor <" + node->tag + ">");
      if (Peek() == '<' && Peek(1) == '/') {
        flush_text();
        pos_ += 2;
        MCT_ASSIGN_OR_RETURN(std::string close, ParseName());
        if (close != node->tag) {
          return Err("mismatched </" + close + "> for <" + node->tag + ">");
        }
        if (!ConsumeSymbol(">")) return Err("expected '>'");
        node->span = SpanFrom(ctor_start);
        return node;
      }
      if (Peek() == '<') {
        flush_text();
        MCT_ASSIGN_OR_RETURN(ExprPtr child, ParseElementConstructor());
        node->children.push_back(std::move(child));
        continue;
      }
      if (Peek() == '{') {
        flush_text();
        ++pos_;
        MCT_ASSIGN_OR_RETURN(ExprPtr enclosed, ParseEnclosedSequence());
        if (!ConsumeSymbol("}")) return Err("expected '}'");
        node->children.push_back(std::move(enclosed));
        continue;
      }
      text.push_back(Peek());
      ++pos_;
    }
  }

  Result<ExprPtr> ParseEnclosedSequence() {
    MCT_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
    SkipWs();
    if (!LookSymbol(",")) return first;
    auto seq = std::make_unique<Expr>(Expr::Kind::kSequence);
    seq->children.push_back(std::move(first));
    while (ConsumeSymbol(",")) {
      MCT_ASSIGN_OR_RETURN(ExprPtr next, ParseExpr());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  // ---- Updates ----

  Status ParseUpdateTail(ParsedQuery* q) {
    SkipWs();
    const size_t target_start = pos_;
    MCT_ASSIGN_OR_RETURN(q->target_var, ParseVar());
    q->target_span = SpanFrom(target_start);
    if (!ConsumeSymbol("{")) return Err("expected '{' after update target");
    do {
      SkipWs();
      const size_t action_start = pos_;
      UpdateAction action;
      if (ConsumeKeyword("insert")) {
        action.kind = UpdateAction::Kind::kInsert;
        SkipWs();
        MCT_ASSIGN_OR_RETURN(action.constructor, ParseElementConstructor());
        if (ConsumeKeyword("into")) {
          if (!ConsumeSymbol("{")) return Err("expected '{color}'");
          MCT_ASSIGN_OR_RETURN(action.color, ParseName());
          if (!ConsumeSymbol("}")) return Err("expected '}'");
        }
      } else if (ConsumeKeyword("delete")) {
        action.kind = UpdateAction::Kind::kDelete;
        SkipWs();
        if (Peek() == '{') {
          ++pos_;
          MCT_ASSIGN_OR_RETURN(action.color, ParseName());
          if (!ConsumeSymbol("}")) return Err("expected '}'");
          SkipWs();
        }
        if (Peek() != ',' && Peek() != '}') {
          MCT_RETURN_IF_ERROR(
              ParseSteps(&action.selector, /*allow_bare_first=*/true));
        }
      } else if (ConsumeKeyword("replace")) {
        action.kind = UpdateAction::Kind::kReplace;
        MCT_RETURN_IF_ERROR(
            ParseSteps(&action.selector, /*allow_bare_first=*/true));
        if (!ConsumeKeyword("with")) return Err("expected 'with'");
        MCT_ASSIGN_OR_RETURN(action.new_value, ParseStringLiteral());
      } else {
        return Err("expected insert/delete/replace");
      }
      action.span = SpanFrom(action_start);
      q->actions.push_back(std::move(action));
    } while (ConsumeSymbol(","));
    if (!ConsumeSymbol("}")) return Err("expected '}' after update actions");
    return Status::OK();
  }

  std::string_view in_;
  size_t pos_ = 0;
  int depth_ = 0;        // ParsePrimary / ParseElementConstructor frames
  int chain_nodes_ = 0;  // `and` / `or` nodes built so far
};

}  // namespace

Result<ParsedQuery> Parse(std::string_view text) {
  Parser p(text);
  return p.ParseStatement();
}

}  // namespace mct::mcx
