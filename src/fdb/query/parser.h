#ifndef FDB_QUERY_PARSER_H_
#define FDB_QUERY_PARSER_H_

#include <string>

#include "fdb/query/ast.h"

namespace fdb {

/// Parses one statement. Queries are the SQL subset of paper §2:
///
///   SELECT [DISTINCT] * | item, ...
///   FROM name, ...
///   [WHERE attr (=|<>|!=|<|<=|>|>=) (attr|const) [AND ...]]
///   [GROUP BY attr, ...]
///   [HAVING (alias | agg(attr)) op const [AND ...]]
///   [ORDER BY attr [ASC|DESC], ...]
///   [LIMIT k]
///
/// where item is `attr [AS alias]` or `agg(attr|*) [AS alias]` with agg one
/// of count, sum, min, max, avg; relations in FROM are natural-joined. It
/// also reads the write and transaction statements:
///
///   INSERT INTO view VALUES (literal, ...)
///   DELETE FROM view VALUES (literal, ...)
///   BEGIN | COMMIT | ROLLBACK
///
/// The statement's kind tells them apart. Keywords are case-insensitive;
/// a trailing ';' is allowed. Literals are integers and doubles
/// (optionally signed, with an optional exponent), single-quoted strings
/// ('' escapes a quote) and NULL (in VALUES).
///
/// Throws std::invalid_argument with a position-annotated message on
/// syntax errors, malformed numbers and numbers out of range.
ParsedQuery ParseSql(const std::string& sql);

}  // namespace fdb

#endif  // FDB_QUERY_PARSER_H_
