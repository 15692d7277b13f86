#include "minidb/sql.hpp"

#include <algorithm>
#include <cctype>

#include "support/strutil.hpp"

namespace minidb {

namespace {

/// SQL tokens: keywords/identifiers, quoted strings, punctuation.
struct Token {
  enum class Kind { kWord, kString, kPunct, kEnd } kind = Kind::kEnd;
  std::string text;  // keywords uppercased; strings unquoted
};

class SqlLexer {
 public:
  explicit SqlLexer(const std::string& src) : src_(src) {}

  Token next() {
    while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_]))) ++pos_;
    Token t;
    if (pos_ >= src_.size()) return t;
    const char c = src_[pos_];
    if (c == '\'') {
      ++pos_;
      t.kind = Token::Kind::kString;
      while (pos_ < src_.size()) {
        if (src_[pos_] == '\'') {
          // '' escapes a single quote, SQL style.
          if (pos_ + 1 < src_.size() && src_[pos_ + 1] == '\'') {
            t.text.push_back('\'');
            pos_ += 2;
            continue;
          }
          ++pos_;
          return t;
        }
        t.text.push_back(src_[pos_++]);
      }
      t.kind = Token::Kind::kEnd;  // unterminated string
      t.text = "unterminated string literal";
      error_ = true;
      return t;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      t.kind = Token::Kind::kWord;
      while (pos_ < src_.size() && (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                                    src_[pos_] == '_')) {
        t.text.push_back(src_[pos_++]);
      }
      std::transform(t.text.begin(), t.text.end(), t.text.begin(),
                     [](unsigned char ch) { return static_cast<char>(std::toupper(ch)); });
      return t;
    }
    t.kind = Token::Kind::kPunct;
    t.text.push_back(c);
    ++pos_;
    // Treat COUNT(*) as the three tokens '(', '*', ')'.
    return t;
  }

  [[nodiscard]] bool had_error() const noexcept { return error_; }

 private:
  const std::string& src_;
  std::size_t pos_ = 0;
  bool error_ = false;
};

/// Pulls all tokens up front; simpler to parse.
std::vector<Token> tokenize(const std::string& sql, std::string& error) {
  SqlLexer lexer(sql);
  std::vector<Token> tokens;
  for (;;) {
    Token t = lexer.next();
    if (lexer.had_error()) {
      error = t.text;
      return {};
    }
    if (t.kind == Token::Kind::kEnd) break;
    if (t.kind == Token::Kind::kPunct && t.text == ";") continue;  // statement terminator
    tokens.push_back(std::move(t));
  }
  return tokens;
}

/// Identifiers come back uppercased from the lexer; table names are treated
/// case-insensitively (stored uppercase), like unquoted SQL identifiers.
bool is_word(const std::vector<Token>& t, std::size_t i, const char* word) {
  return i < t.size() && t[i].kind == Token::Kind::kWord && t[i].text == word;
}

bool is_punct(const std::vector<Token>& t, std::size_t i, char c) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text.size() == 1 &&
         t[i].text[0] == c;
}

constexpr char kSep = '\x1f';  // table/key separator in the underlying tree

}  // namespace

std::string SqlEngine::catalog_key(const std::string& table) {
  return std::string("\x01" "catalog") + kSep + table;
}

std::string SqlEngine::row_key(const std::string& table, const std::string& key) {
  return table + kSep + key;
}

bool SqlEngine::table_exists(const std::string& name) {
  return db_.get(catalog_key(name)).has_value();
}

SqlResult SqlEngine::exec(const std::string& sql) {
  std::string lex_error;
  const auto t = tokenize(sql, lex_error);
  if (!lex_error.empty()) return SqlResult::failure(lex_error);
  if (t.empty()) return SqlResult::failure("empty statement");

  // --- transactions ---------------------------------------------------------
  if (is_word(t, 0, "BEGIN")) {
    if (in_txn_) return SqlResult::failure("transaction already open");
    db_.begin();
    in_txn_ = true;
    return SqlResult::success();
  }
  if (is_word(t, 0, "COMMIT")) {
    if (!in_txn_) return SqlResult::failure("no open transaction");
    db_.commit();
    in_txn_ = false;
    return SqlResult::success();
  }
  if (is_word(t, 0, "ROLLBACK")) {
    if (!in_txn_) return SqlResult::failure("no open transaction");
    db_.rollback();
    in_txn_ = false;
    return SqlResult::success();
  }

  // Autocommit wrapper for single data statements.
  const auto put = [&](const std::string& key, const std::string& value) {
    if (in_txn_) {
      db_.put_in_txn(key, value);
    } else {
      db_.put(key, value);
    }
  };

  // --- CREATE / DROP TABLE ---------------------------------------------------
  if (is_word(t, 0, "CREATE")) {
    if (!is_word(t, 1, "TABLE") || t.size() < 3 || t[2].kind != Token::Kind::kWord) {
      return SqlResult::failure("expected CREATE TABLE <name>");
    }
    const std::string& name = t[2].text;
    if (table_exists(name)) return SqlResult::failure("table already exists: " + name);
    put(catalog_key(name), "table");
    return SqlResult::success();
  }
  if (is_word(t, 0, "DROP")) {
    if (!is_word(t, 1, "TABLE") || t.size() < 3) return SqlResult::failure("expected DROP TABLE <name>");
    const std::string& name = t[2].text;
    if (!table_exists(name)) return SqlResult::failure("no such table: " + name);
    // Collect the table's rows, then delete them and the catalog entry.
    std::vector<std::string> doomed;
    const std::string prefix = name + kSep;
    db_.scan([&](const std::string& k, const std::string&) {
      if (support::starts_with(k, prefix)) doomed.push_back(k);
      return true;
    });
    for (const auto& k : doomed) db_.erase(k);
    db_.erase(catalog_key(name));
    SqlResult r = SqlResult::success();
    r.affected = doomed.size();
    return r;
  }

  // --- INSERT -----------------------------------------------------------------
  if (is_word(t, 0, "INSERT")) {
    // INSERT INTO <name> VALUES ( 'key' , 'value' )
    if (!is_word(t, 1, "INTO") || t.size() < 3) return SqlResult::failure("expected INSERT INTO");
    const std::string& name = t[2].text;
    if (!table_exists(name)) return SqlResult::failure("no such table: " + name);
    std::size_t i = 3;
    if (!is_word(t, i, "VALUES")) return SqlResult::failure("expected VALUES");
    ++i;
    if (!is_punct(t, i, '(')) return SqlResult::failure("expected (");
    ++i;
    if (i >= t.size() || t[i].kind != Token::Kind::kString) {
      return SqlResult::failure("expected string key");
    }
    const std::string key = t[i++].text;
    if (!is_punct(t, i, ',')) return SqlResult::failure("expected ,");
    ++i;
    if (i >= t.size() || t[i].kind != Token::Kind::kString) {
      return SqlResult::failure("expected string value");
    }
    const std::string value = t[i++].text;
    if (!is_punct(t, i, ')')) return SqlResult::failure("expected )");
    if (key.empty()) return SqlResult::failure("key must not be empty");
    put(row_key(name, key), value);
    SqlResult r = SqlResult::success();
    r.affected = 1;
    return r;
  }

  // --- SELECT -----------------------------------------------------------------
  if (is_word(t, 0, "SELECT")) {
    // Projections: VALUE | KEY, VALUE | COUNT(*)
    std::size_t i = 1;
    bool count = false;
    bool with_key = false;
    if (is_word(t, i, "COUNT")) {
      if (!is_punct(t, i + 1, '(') || !is_punct(t, i + 2, '*') || !is_punct(t, i + 3, ')')) {
        return SqlResult::failure("expected COUNT(*)");
      }
      count = true;
      i += 4;
    } else if (is_word(t, i, "KEY") && is_punct(t, i + 1, ',') && is_word(t, i + 2, "VALUE")) {
      with_key = true;
      i += 3;
    } else if (is_word(t, i, "VALUE")) {
      i += 1;
    } else if (is_punct(t, i, '*')) {
      with_key = true;
      i += 1;
    } else {
      return SqlResult::failure("expected VALUE, KEY, VALUE, * or COUNT(*)");
    }
    if (!is_word(t, i, "FROM") || i + 1 >= t.size()) return SqlResult::failure("expected FROM <name>");
    const std::string name = t[i + 1].text;
    if (!table_exists(name)) return SqlResult::failure("no such table: " + name);
    i += 2;

    // Optional WHERE key = 'k'.
    std::string where_key;
    bool has_where = false;
    if (i < t.size()) {
      if (!is_word(t, i, "WHERE") || !is_word(t, i + 1, "KEY") || !is_punct(t, i + 2, '=') ||
          i + 3 >= t.size() || t[i + 3].kind != Token::Kind::kString) {
        return SqlResult::failure("expected WHERE key = '<k>'");
      }
      has_where = true;
      where_key = t[i + 3].text;
    }

    SqlResult r = SqlResult::success();
    if (has_where) {
      const auto value = db_.get(row_key(name, where_key));
      if (count) {
        r.rows.push_back({value ? "1" : "0"});
      } else if (value) {
        if (with_key) {
          r.rows.push_back({where_key, *value});
        } else {
          r.rows.push_back({*value});
        }
      }
      return r;
    }
    const std::string prefix = name + kSep;
    std::size_t matches = 0;
    db_.scan([&](const std::string& k, const std::string& v) {
      if (!support::starts_with(k, prefix)) return true;
      ++matches;
      if (!count) {
        if (with_key) {
          r.rows.push_back({k.substr(prefix.size()), v});
        } else {
          r.rows.push_back({v});
        }
      }
      return true;
    });
    if (count) r.rows.push_back({std::to_string(matches)});
    return r;
  }

  // --- DELETE -----------------------------------------------------------------
  if (is_word(t, 0, "DELETE")) {
    if (!is_word(t, 1, "FROM") || t.size() < 3) return SqlResult::failure("expected DELETE FROM");
    const std::string& name = t[2].text;
    if (!table_exists(name)) return SqlResult::failure("no such table: " + name);
    if (!is_word(t, 3, "WHERE") || !is_word(t, 4, "KEY") || !is_punct(t, 5, '=') ||
        t.size() < 7 || t[6].kind != Token::Kind::kString) {
      return SqlResult::failure("expected WHERE key = '<k>'");
    }
    SqlResult r = SqlResult::success();
    r.affected = db_.erase(row_key(name, t[6].text)) ? 1 : 0;
    return r;
  }

  return SqlResult::failure("unrecognised statement: " + t[0].text);
}

SqlResult SqlEngine::exec_script(const std::string& script) {
  SqlResult last = SqlResult::success();
  for (const auto& statement : support::split(script, ';')) {
    if (support::trim(statement).empty()) continue;
    last = exec(std::string(support::trim(statement)));
    if (!last.ok) return last;
  }
  return last;
}

}  // namespace minidb
