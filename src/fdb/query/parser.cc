#include "fdb/query/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>
#include <string_view>

namespace fdb {
namespace {

enum class Tok {
  kIdent,
  kNumber,
  kString,
  kStar,
  kComma,
  kLParen,
  kRParen,
  kOp,   // comparison operator
  kEnd,
};

struct Token {
  Tok kind;
  std::string_view text;  // the token's source text (keywords as written)
  Value value;            // for numbers / strings
  CmpOp op = CmpOp::kEq;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) { Advance(); }

  const Token& peek() const { return tok_; }

  Token Take() {
    Token t = std::move(tok_);
    Advance();
    return t;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::invalid_argument("SQL parse error at position " +
                                std::to_string(i_) + ": " + what);
  }

  void Advance() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    tok_.pos = i_;
    if (i_ >= s_.size()) {
      tok_ = {Tok::kEnd, "", {}, CmpOp::kEq, i_};
      return;
    }
    char c = s_[i_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i_;
      while (j < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[j])) ||
              s_[j] == '_' || s_[j] == '.' || s_[j] == '#')) {
        ++j;
      }
      tok_ = {Tok::kIdent, Slice(i_, j), {}, CmpOp::kEq, i_};
      i_ = j;
      return;
    }
    if (StartsNumber(i_)) {
      LexNumber();
      return;
    }
    if (c == '\'') {
      std::string str;
      size_t j = i_ + 1;
      for (;; ++j) {
        if (j >= s_.size()) Fail("unterminated string literal");
        if (s_[j] != '\'') {
          str.push_back(s_[j]);
        } else if (j + 1 < s_.size() && s_[j + 1] == '\'') {
          str.push_back(s_[++j]);  // '' escapes a quote
        } else {
          break;
        }
      }
      tok_ = {Tok::kString, Slice(i_, j + 1), Value(std::move(str)),
              CmpOp::kEq, i_};
      i_ = j + 1;
      return;
    }
    // Two-character operators first, so "<=" is not read as "<".
    static constexpr struct {
      std::string_view text;
      Tok kind;
      CmpOp op;
    } kPunct[] = {
        {"<>", Tok::kOp, CmpOp::kNe},    {"!=", Tok::kOp, CmpOp::kNe},
        {"<=", Tok::kOp, CmpOp::kLe},    {">=", Tok::kOp, CmpOp::kGe},
        {"=", Tok::kOp, CmpOp::kEq},     {"<", Tok::kOp, CmpOp::kLt},
        {">", Tok::kOp, CmpOp::kGt},     {"*", Tok::kStar, CmpOp::kEq},
        {",", Tok::kComma, CmpOp::kEq},  {"(", Tok::kLParen, CmpOp::kEq},
        {")", Tok::kRParen, CmpOp::kEq},
    };
    for (const auto& p : kPunct) {
      if (c == p.text[0] && Slice(i_, i_ + p.text.size()) == p.text) {
        tok_ = {p.kind, p.text, {}, p.op, i_};
        i_ += p.text.size();
        return;
      }
    }
    if (c == ';') {
      // Trailing statement separator: skip and continue.
      ++i_;
      Advance();
      return;
    }
    Fail(std::string("unexpected character '") + c + "'");
  }

  std::string_view Slice(size_t from, size_t to) const {
    return std::string_view(s_).substr(from, to - from);
  }

  bool DigitAt(size_t j) const {
    return j < s_.size() && std::isdigit(static_cast<unsigned char>(s_[j]));
  }

  size_t SkipDigits(size_t j) const {
    while (DigitAt(j)) ++j;
    return j;
  }

  // A number starts with a digit, or '.' and a digit, either optionally
  // signed.
  bool StartsNumber(size_t j) const {
    if (s_[j] == '+' || s_[j] == '-') ++j;
    return DigitAt(j) || (j < s_.size() && s_[j] == '.' && DigitAt(j + 1));
  }

  // [+-] digits [. digits] [(e|E) [+-] digits]. The literal is checked
  // whole: one that runs on into a letter or another '.' is malformed
  // (not cut short), and one that does not fit its type is out of range.
  void LexNumber() {
    size_t j = i_;
    if (s_[j] == '+' || s_[j] == '-') ++j;
    j = SkipDigits(j);
    bool is_double = false;
    if (j < s_.size() && s_[j] == '.') {
      is_double = true;
      j = SkipDigits(j + 1);
    }
    if (j < s_.size() && (s_[j] == 'e' || s_[j] == 'E')) {
      size_t k = j + 1;
      if (k < s_.size() && (s_[k] == '+' || s_[k] == '-')) ++k;
      if (DigitAt(k)) {
        is_double = true;
        j = SkipDigits(k);
      }
    }
    auto word = [this](size_t k) {
      return k < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[k])) ||
              s_[k] == '_' || s_[k] == '.');
    };
    if (word(j)) {
      while (word(j)) ++j;
      Fail("malformed number '" + s_.substr(i_, j - i_) + "'");
    }
    // from_chars takes no leading '+'; the scan above already fixed the
    // literal's extent, so it only converts and range-checks.
    const char* first = s_.data() + i_ + (s_[i_] == '+' ? 1 : 0);
    const char* last = s_.data() + j;
    Value v;
    std::errc ec;
    if (is_double) {
      double d = 0;
      ec = std::from_chars(first, last, d).ec;
      v = Value(d);
    } else {
      int64_t n = 0;
      ec = std::from_chars(first, last, n).ec;
      v = Value(n);
    }
    if (ec != std::errc()) {
      Fail("number out of range '" + s_.substr(i_, j - i_) + "'");
    }
    tok_ = {Tok::kNumber, Slice(i_, j), std::move(v), CmpOp::kEq, i_};
    i_ = j;
  }

  const std::string& s_;
  size_t i_ = 0;
  Token tok_;
};

// Case-insensitive comparison of `text` with the lower-case `word`
// (keywords are ASCII).
bool IsWord(std::string_view text, std::string_view word) {
  return std::equal(text.begin(), text.end(), word.begin(), word.end(),
                    [](char a, char b) {
                      return (a >= 'A' && a <= 'Z' ? a - 'A' + 'a' : a) == b;
                    });
}

class Parser {
 public:
  explicit Parser(const std::string& sql) : lex_(sql) {}

  ParsedQuery Parse() {
    ParsedQuery q;
    if (PeekKeyword("insert") || PeekKeyword("delete")) {
      q.kind = PeekKeyword("insert") ? StmtKind::kInsert : StmtKind::kDelete;
      Take();
      ExpectKeyword(q.kind == StmtKind::kInsert ? "into" : "from");
      q.target = ExpectIdent();
      ExpectKeyword("values");
      Expect(Tok::kLParen, "'('");
      q.values.push_back(ParseLiteral());
      while (lex_.peek().kind == Tok::kComma) {
        Take();
        q.values.push_back(ParseLiteral());
      }
      Expect(Tok::kRParen, "')'");
    } else if (PeekKeyword("begin") || PeekKeyword("commit") ||
               PeekKeyword("rollback")) {
      q.kind = PeekKeyword("begin")    ? StmtKind::kBegin
               : PeekKeyword("commit") ? StmtKind::kCommit
                                       : StmtKind::kRollback;
      Take();
    } else {
      ParseSelect(&q);
    }
    if (lex_.peek().kind != Tok::kEnd) {
      Fail(lex_.peek(), "unexpected trailing input");
    }
    return q;
  }

 private:
  void ParseSelect(ParsedQuery* out) {
    ParsedQuery& q = *out;
    if (PeekKeyword("explain")) {
      Take();
      ExpectKeyword("analyze");
      q.explain_analyze = true;
    }
    ExpectKeyword("select");
    if (PeekKeyword("distinct")) {
      Take();
      q.distinct = true;
    }
    if (lex_.peek().kind == Tok::kStar) {
      Take();
      q.select_star = true;
    } else {
      q.items.push_back(ParseSelectItem());
      while (lex_.peek().kind == Tok::kComma) {
        Take();
        q.items.push_back(ParseSelectItem());
      }
    }
    ExpectKeyword("from");
    q.from.push_back(ExpectIdent());
    while (lex_.peek().kind == Tok::kComma) {
      Take();
      q.from.push_back(ExpectIdent());
    }
    if (PeekKeyword("where")) {
      Take();
      q.where.push_back(ParseWherePred());
      while (PeekKeyword("and")) {
        Take();
        q.where.push_back(ParseWherePred());
      }
    }
    if (PeekKeyword("group")) {
      Take();
      ExpectKeyword("by");
      q.group_by.push_back(ExpectIdent());
      while (lex_.peek().kind == Tok::kComma) {
        Take();
        q.group_by.push_back(ExpectIdent());
      }
    }
    if (PeekKeyword("having")) {
      Take();
      q.having.push_back(ParseHavingPred());
      while (PeekKeyword("and")) {
        Take();
        q.having.push_back(ParseHavingPred());
      }
    }
    if (PeekKeyword("order")) {
      Take();
      ExpectKeyword("by");
      q.order_by.push_back(ParseOrderItem());
      while (lex_.peek().kind == Tok::kComma) {
        Take();
        q.order_by.push_back(ParseOrderItem());
      }
    }
    if (PeekKeyword("limit")) {
      Take();
      Token t = Take();
      if (t.kind != Tok::kNumber || !t.value.is_int()) {
        Fail(t, "expected integer after LIMIT");
      }
      q.limit = t.value.as_int();
    }
  }

  [[noreturn]] void Fail(const Token& t, const std::string& what) const {
    throw std::invalid_argument("SQL parse error at position " +
                                std::to_string(t.pos) + ": " + what);
  }

  Token Take() { return lex_.Take(); }

  bool PeekKeyword(std::string_view kw) const {
    return lex_.peek().kind == Tok::kIdent && IsWord(lex_.peek().text, kw);
  }

  void ExpectKeyword(std::string_view kw) {
    Token t = Take();
    if (t.kind != Tok::kIdent || !IsWord(t.text, kw)) {
      Fail(t, "expected keyword '" + std::string(kw) + "'");
    }
  }

  void Expect(Tok kind, const char* what) {
    Token t = Take();
    if (t.kind != kind) Fail(t, std::string("expected ") + what);
  }

  // A VALUES item: a number, a string or NULL.
  Value ParseLiteral() {
    Token t = Take();
    if (t.kind == Tok::kNumber || t.kind == Tok::kString) return t.value;
    if (t.kind != Tok::kIdent || !IsWord(t.text, "null")) {
      Fail(t, "expected a number, a string or NULL");
    }
    return Value();
  }

  std::string ExpectIdent() {
    Token t = Take();
    if (t.kind != Tok::kIdent) Fail(t, "expected identifier");
    return std::string(t.text);
  }

  static std::optional<ParseAggFn> AggFromName(std::string_view name) {
    if (IsWord(name, "count")) return ParseAggFn::kCount;
    if (IsWord(name, "sum")) return ParseAggFn::kSum;
    if (IsWord(name, "min")) return ParseAggFn::kMin;
    if (IsWord(name, "max")) return ParseAggFn::kMax;
    if (IsWord(name, "avg")) return ParseAggFn::kAvg;
    return std::nullopt;
  }

  SelectItem ParseSelectItem() {
    SelectItem item;
    Token t = Take();
    if (t.kind != Tok::kIdent) Fail(t, "expected column or aggregate");
    auto agg = AggFromName(t.text);
    if (agg.has_value() && lex_.peek().kind == Tok::kLParen) {
      Take();  // (
      item.agg = agg;
      if (lex_.peek().kind == Tok::kStar) {
        Take();
        if (*agg != ParseAggFn::kCount) {
          Fail(t, "'*' argument is only valid for count");
        }
      } else {
        item.column = ExpectIdent();
      }
      Expect(Tok::kRParen, "')'");
    } else {
      item.column = t.text;
    }
    if (PeekKeyword("as")) {
      Take();
      item.alias = ExpectIdent();
    }
    return item;
  }

  WherePred ParseWherePred() {
    WherePred p;
    p.lhs = ExpectIdent();
    Token op = Take();
    if (op.kind != Tok::kOp) Fail(op, "expected comparison operator");
    p.op = op.op;
    Token rhs = Take();
    if (rhs.kind == Tok::kIdent) {
      p.rhs_is_attr = true;
      p.rhs_attr = rhs.text;
    } else if (rhs.kind == Tok::kNumber || rhs.kind == Tok::kString) {
      p.rhs_const = rhs.value;
    } else {
      Fail(rhs, "expected attribute or constant");
    }
    return p;
  }

  HavingPred ParseHavingPred() {
    HavingPred h;
    Token t = Take();
    if (t.kind != Tok::kIdent) Fail(t, "expected aggregate or column");
    auto agg = AggFromName(t.text);
    if (agg.has_value() && lex_.peek().kind == Tok::kLParen) {
      Take();
      h.agg = agg;
      if (lex_.peek().kind == Tok::kStar) {
        Take();
        if (*agg != ParseAggFn::kCount) {
          Fail(t, "'*' argument is only valid for count");
        }
      } else {
        h.column = ExpectIdent();
      }
      Expect(Tok::kRParen, "')'");
    } else {
      h.column = t.text;
    }
    Token op = Take();
    if (op.kind != Tok::kOp) Fail(op, "expected comparison operator");
    h.op = op.op;
    Token rhs = Take();
    if (rhs.kind != Tok::kNumber && rhs.kind != Tok::kString) {
      Fail(rhs, "HAVING compares against a constant");
    }
    h.rhs = rhs.value;
    return h;
  }

  OrderItem ParseOrderItem() {
    OrderItem o;
    o.column = ExpectIdent();
    if (PeekKeyword("asc")) {
      Take();
    } else if (PeekKeyword("desc")) {
      Take();
      o.dir = SortDir::kDesc;
    }
    return o;
  }

  Lexer lex_;
};

}  // namespace

ParsedQuery ParseSql(const std::string& sql) { return Parser(sql).Parse(); }

}  // namespace fdb
