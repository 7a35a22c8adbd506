#include "core/query_parser.h"

#include <cctype>
#include <cstdlib>

namespace mmdb {

namespace {

/// Basic CSS color keywords the grammar accepts as a colorref.
struct NamedColor {
  const char* name;
  uint32_t packed;  ///< 0xrrggbb.
};
constexpr NamedColor kNamedColors[] = {
    {"black", 0x000000},  {"white", 0xffffff},   {"red", 0xff0000},
    {"green", 0x008000},  {"blue", 0x0000ff},    {"yellow", 0xffff00},
    {"cyan", 0x00ffff},   {"magenta", 0xff00ff}, {"gray", 0x808080},
    {"orange", 0xffa500}, {"purple", 0x800080},  {"brown", 0xa52a2a},
    {"pink", 0xffc0cb},   {"navy", 0x000080},    {"teal", 0x008080},
    {"olive", 0x808000},  {"maroon", 0x800000},  {"lime", 0x00ff00},
    {"silver", 0xc0c0c0}, {"aqua", 0x00ffff},    {"fuchsia", 0xff00ff},
};

/// Hand-rolled tokenizer/recursive-descent parser for the predicate
/// grammar in the header.
class Parser {
 public:
  Parser(const std::string& text, const ColorQuantizer& quantizer)
      : text_(text), quantizer_(quantizer) {}

  Result<ConjunctiveQuery> Parse() {
    ConjunctiveQuery query;
    MMDB_ASSIGN_OR_RETURN(RangeQuery first, ParsePredicate());
    query.conjuncts.push_back(first);
    SkipSpace();
    while (!AtEnd()) {
      MMDB_RETURN_IF_ERROR(ExpectKeyword("and"));
      MMDB_ASSIGN_OR_RETURN(RangeQuery next, ParsePredicate());
      query.conjuncts.push_back(next);
      SkipSpace();
    }
    return query;
  }

  Result<ParsedQuery> ParseExpression() {
    if (PeekKeyword("nearest")) {
      MMDB_ASSIGN_OR_RETURN(SimilarityQuery nearest, ParseNearest());
      if (!AtEnd()) return Error("trailing input after nearest(...)");
      return ParsedQuery(std::move(nearest));
    }
    MMDB_ASSIGN_OR_RETURN(ConjunctiveQuery query, Parse());
    return ParsedQuery(std::move(query));
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }
  Status Error(const std::string& why) {
    return Status::InvalidArgument("query parse error at offset " +
                                   std::to_string(pos_) + ": " + why);
  }

  /// Consumes `keyword` case-insensitively.
  Status ExpectKeyword(const std::string& keyword) {
    SkipSpace();
    if (pos_ + keyword.size() > text_.size()) {
      return Error("expected '" + keyword + "'");
    }
    for (size_t i = 0; i < keyword.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          keyword[i]) {
        return Error("expected '" + keyword + "'");
      }
    }
    pos_ += keyword.size();
    return Status::OK();
  }

  /// True when `keyword` is next (case-insensitive), without consuming.
  bool PeekKeyword(const std::string& keyword) {
    SkipSpace();
    if (pos_ + keyword.size() > text_.size()) return false;
    for (size_t i = 0; i < keyword.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          keyword[i]) {
        return false;
      }
    }
    return true;
  }

  Status ExpectChar(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  bool TryChar(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// A decimal fraction (0.25) or percentage (25%).
  Result<double> ParseFraction() {
    SkipSpace();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) return Error("expected a number");
    pos_ += static_cast<size_t>(end - start);
    if (TryChar('%')) return value / 100.0;
    return value;
  }

  /// '#rrggbb' (optionally quoted) or a decimal bin index.
  Result<BinIndex> ParseColorRef() {
    SkipSpace();
    const bool quoted = TryChar('\'') || TryChar('"');
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '#') {
      if (pos_ + 7 > text_.size()) return Error("truncated #rrggbb color");
      char* end = nullptr;
      const long packed =
          std::strtol(text_.c_str() + pos_ + 1, &end, 16);
      if (end != text_.c_str() + pos_ + 7) {
        return Error("malformed #rrggbb color");
      }
      pos_ += 7;
      if (quoted && !TryChar('\'') && !TryChar('"')) {
        return Error("unterminated quoted color");
      }
      return quantizer_.BinOf(Rgb::FromPacked(static_cast<uint32_t>(packed)));
    }
    if (pos_ < text_.size() &&
        std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      // Named CSS color.
      std::string name;
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
        name.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(text_[pos_]))));
        ++pos_;
      }
      if (quoted && !TryChar('\'') && !TryChar('"')) {
        return Error("unterminated quoted color");
      }
      for (const NamedColor& color : kNamedColors) {
        if (name == color.name) {
          return quantizer_.BinOf(Rgb::FromPacked(color.packed));
        }
      }
      return Error("unknown color name '" + name + "'");
    }
    // Bin index.
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const long bin = std::strtol(start, &end, 10);
    if (end == start) return Error("expected a color or bin index");
    pos_ += static_cast<size_t>(end - start);
    if (quoted && !TryChar('\'') && !TryChar('"')) {
      return Error("unterminated quoted color");
    }
    if (bin < 0 || bin >= quantizer_.BinCount()) {
      return Error("bin index out of range");
    }
    return static_cast<BinIndex>(bin);
  }

  /// nearest '(' colorref ',' k ')'
  Result<SimilarityQuery> ParseNearest() {
    MMDB_RETURN_IF_ERROR(ExpectKeyword("nearest"));
    MMDB_RETURN_IF_ERROR(ExpectChar('('));
    MMDB_ASSIGN_OR_RETURN(BinIndex bin, ParseColorRef());
    MMDB_RETURN_IF_ERROR(ExpectChar(','));
    SkipSpace();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const long k = std::strtol(start, &end, 10);
    if (end == start) return Error("expected a result count k");
    pos_ += static_cast<size_t>(end - start);
    if (k <= 0) return Error("k must be positive");
    MMDB_RETURN_IF_ERROR(ExpectChar(')'));

    SimilarityQuery query;
    query.histogram = ColorHistogram(quantizer_.BinCount());
    query.histogram.Add(bin, 1);
    query.k = static_cast<uint32_t>(k);
    return query;
  }

  Result<RangeQuery> ParsePredicate() {
    MMDB_RETURN_IF_ERROR(ExpectKeyword("color"));
    MMDB_RETURN_IF_ERROR(ExpectChar('('));
    MMDB_ASSIGN_OR_RETURN(BinIndex bin, ParseColorRef());
    MMDB_RETURN_IF_ERROR(ExpectChar(')'));

    RangeQuery query;
    query.bin = bin;
    SkipSpace();
    if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=' &&
        (text_[pos_] == '>' || text_[pos_] == '<' || text_[pos_] == '=')) {
      const char op = text_[pos_];
      pos_ += 2;
      MMDB_ASSIGN_OR_RETURN(double value, ParseFraction());
      if (!(value >= 0.0 && value <= 1.0)) {  // Also rejects NaN.
        return Error("fraction must be within [0, 1]");
      }
      if (op == '>') {
        query.min_fraction = value;
        query.max_fraction = 1.0;
      } else if (op == '<') {
        query.min_fraction = 0.0;
        query.max_fraction = value;
      } else {
        query.min_fraction = query.max_fraction = value;
      }
      return query;
    }
    MMDB_RETURN_IF_ERROR(ExpectKeyword("between"));
    MMDB_ASSIGN_OR_RETURN(double lo, ParseFraction());
    MMDB_RETURN_IF_ERROR(ExpectKeyword("and"));
    MMDB_ASSIGN_OR_RETURN(double hi, ParseFraction());
    if (!(lo >= 0.0 && hi <= 1.0 && lo <= hi)) {  // Also rejects NaN.
      return Error("invalid between range");
    }
    query.min_fraction = lo;
    query.max_fraction = hi;
    return query;
  }

  const std::string& text_;
  const ColorQuantizer& quantizer_;
  size_t pos_ = 0;
};

}  // namespace

Result<ConjunctiveQuery> ParseQuery(const std::string& text,
                                    const ColorQuantizer& quantizer) {
  Parser parser(text, quantizer);
  return parser.Parse();
}

Result<ParsedQuery> ParseQueryExpression(const std::string& text,
                                         const ColorQuantizer& quantizer) {
  Parser parser(text, quantizer);
  return parser.ParseExpression();
}

}  // namespace mmdb
