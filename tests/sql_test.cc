#include "query/sql.h"

#include <gtest/gtest.h>

#include "conjunctive_reference.h"
#include "core/sql_execution.h"
#include "datagen/synthetic.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

// --- Parsing: aggregates ---------------------------------------------------

TEST(SqlParseTest, CountForms) {
  for (const char* sql :
       {"SELECT count(1) FROM r", "SELECT COUNT(*) FROM r",
        "select Count( 1 ) from r"}) {
    ParsedSql p = *ParseSql(sql);
    EXPECT_EQ(p.query.agg, AggregateType::kCount) << sql;
    EXPECT_EQ(p.table_name, "r") << sql;
    EXPECT_FALSE(p.query.predicate.has_value()) << sql;
  }
}

TEST(SqlParseTest, NumericAggregates) {
  EXPECT_EQ(ParseSql("SELECT sum(score) FROM r")->query.agg,
            AggregateType::kSum);
  EXPECT_EQ(ParseSql("SELECT avg(score) FROM r")->query.agg,
            AggregateType::kAvg);
  EXPECT_EQ(ParseSql("SELECT median(score) FROM r")->query.agg,
            AggregateType::kMedian);
  EXPECT_EQ(ParseSql("SELECT var(score) FROM r")->query.agg,
            AggregateType::kVar);
  EXPECT_EQ(ParseSql("SELECT std(score) FROM r")->query.agg,
            AggregateType::kStd);
  EXPECT_EQ(ParseSql("SELECT sum(score) FROM r")->query.numeric_attribute,
            "score");
}

TEST(SqlParseTest, Percentile) {
  ParsedSql p = *ParseSql("SELECT percentile(score, 90) FROM r");
  EXPECT_EQ(p.query.agg, AggregateType::kPercentile);
  EXPECT_EQ(p.query.numeric_attribute, "score");
  EXPECT_DOUBLE_EQ(p.query.percentile, 90.0);
  EXPECT_DOUBLE_EQ(
      ParseSql("SELECT percentile(score, 12.5) FROM r")->query.percentile,
      12.5);
}

TEST(SqlParseTest, PercentileRejectsBadRank) {
  EXPECT_FALSE(ParseSql("SELECT percentile(score) FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT percentile(score, 101) FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT percentile(score, -1) FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT percentile(score, 'x') FROM r").ok());
}

TEST(SqlParseTest, MinMaxParse) {
  EXPECT_EQ(ParseSql("SELECT max(score) FROM r")->query.agg,
            AggregateType::kMax);
  EXPECT_EQ(ParseSql("SELECT min(score) FROM r")->query.agg,
            AggregateType::kMin);
}

TEST(SqlParseTest, RejectsBadAggregates) {
  EXPECT_FALSE(ParseSql("SELECT nope(score) FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT count(score) FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT sum() FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT sum(score FROM r").ok());
}

TEST(SqlParseTest, CountArgumentComparesValueNotTokenText) {
  // Regression: the check used to be token-text-exact on "1", so
  // spellings of the value 1 failed with a misleading error.
  for (const char* sql :
       {"SELECT count(01) FROM r", "SELECT count(+1) FROM r",
        "SELECT count(1.0) FROM r"}) {
    EXPECT_EQ(ParseSql(sql)->query.agg, AggregateType::kCount) << sql;
  }
  auto r = ParseSql("SELECT count(2) FROM r");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("COUNT takes 1 or *"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("position"), std::string::npos);
}

// --- Parsing: conditions -----------------------------------------------------

TEST(SqlParseTest, EqualsString) {
  ParsedSql p =
      *ParseSql("SELECT count(1) FROM r WHERE major = 'Mech. Eng.'");
  ASSERT_TRUE(p.query.predicate.has_value());
  EXPECT_EQ(p.query.predicate->attribute(), "major");
  EXPECT_TRUE(p.query.predicate->Matches(Value("Mech. Eng.")));
  EXPECT_FALSE(p.query.predicate->Matches(Value("Math")));
}

TEST(SqlParseTest, StringEscapes) {
  ParsedSql p =
      *ParseSql("SELECT count(1) FROM r WHERE name = 'O''Brien'");
  EXPECT_TRUE(p.query.predicate->Matches(Value("O'Brien")));
}

TEST(SqlParseTest, NumericLiterals) {
  ParsedSql p = *ParseSql("SELECT count(1) FROM r WHERE section = 3");
  EXPECT_TRUE(p.query.predicate->Matches(Value(3)));
  EXPECT_TRUE(p.query.predicate->Matches(Value(3.0)));  // By value.
  EXPECT_FALSE(p.query.predicate->Matches(Value(3.5)));
  ParsedSql q = *ParseSql("SELECT count(1) FROM r WHERE x = 2.5");
  EXPECT_TRUE(q.query.predicate->Matches(Value(2.5)));
  ParsedSql neg = *ParseSql("SELECT count(1) FROM r WHERE x = -7");
  EXPECT_TRUE(neg.query.predicate->Matches(Value(-7)));
}

TEST(SqlParseTest, NotEquals) {
  for (const char* sql :
       {"SELECT count(1) FROM r WHERE major != 'EECS'",
        "SELECT count(1) FROM r WHERE major <> 'EECS'"}) {
    ParsedSql p = *ParseSql(sql);
    EXPECT_FALSE(p.query.predicate->Matches(Value("EECS"))) << sql;
    EXPECT_TRUE(p.query.predicate->Matches(Value("Math"))) << sql;
    EXPECT_TRUE(p.query.predicate->Matches(Value::Null())) << sql;
  }
}

TEST(SqlParseTest, InList) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE country IN ('FR', 'DE', 'IT')");
  EXPECT_TRUE(p.query.predicate->Matches(Value("DE")));
  EXPECT_FALSE(p.query.predicate->Matches(Value("US")));
}

TEST(SqlParseTest, InListWithNullAndNumbers) {
  ParsedSql p =
      *ParseSql("SELECT count(1) FROM r WHERE x IN (1, 2, NULL)");
  EXPECT_TRUE(p.query.predicate->Matches(Value(1)));
  EXPECT_TRUE(p.query.predicate->Matches(Value::Null()));
  EXPECT_FALSE(p.query.predicate->Matches(Value(3)));
}

TEST(SqlParseTest, IsNullForms) {
  ParsedSql is_null =
      *ParseSql("SELECT count(1) FROM r WHERE id IS NULL");
  EXPECT_TRUE(is_null.query.predicate->Matches(Value::Null()));
  EXPECT_FALSE(is_null.query.predicate->Matches(Value("x")));
  ParsedSql not_null =
      *ParseSql("SELECT count(1) FROM r WHERE id is not null");
  EXPECT_FALSE(not_null.query.predicate->Matches(Value::Null()));
  EXPECT_TRUE(not_null.query.predicate->Matches(Value("x")));
}

TEST(SqlParseTest, EqualsNullLiteral) {
  ParsedSql p = *ParseSql("SELECT count(1) FROM r WHERE id = NULL");
  EXPECT_TRUE(p.query.predicate->Matches(Value::Null()));
}

TEST(SqlParseTest, QuotedIdentifier) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE \"country code\" = 'US'");
  EXPECT_EQ(p.query.predicate->attribute(), "country code");
}

// --- Parsing: conjunctions -----------------------------------------------------

TEST(SqlParseTest, CountWithAnd) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE dept = 'EECS' AND campus = 'North'");
  ASSERT_TRUE(p.conjunct.has_value());
  EXPECT_EQ(p.query.predicate->attribute(), "dept");
  EXPECT_EQ(p.conjunct->attribute(), "campus");
}

TEST(SqlParseTest, AndForSumParsesButHasNoPlan) {
  // Pure syntax accepts the tree; PlanWhere rejects it (the conjunctive
  // estimator is derived for COUNT only) and execution surfaces that.
  ParsedSql p = *ParseSql("SELECT sum(x) FROM r WHERE a = '1' AND b = '2'");
  ASSERT_TRUE(p.where.has_value());
  EXPECT_FALSE(p.query.predicate.has_value());
  EXPECT_FALSE(p.conjunct.has_value());
  auto plan = PlanWhere(*p.where, p.query.agg);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find("not privately answerable"),
            std::string::npos);
}

TEST(SqlParseTest, AndOnSameAttributeCollapsesToOnePredicate) {
  // Same-attribute conjunctions are single-attribute trees: they
  // collapse to one predicate (here unsatisfiable) instead of erroring.
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE a = '1' AND a = '2'");
  ASSERT_TRUE(p.query.predicate.has_value());
  EXPECT_FALSE(p.conjunct.has_value());
  EXPECT_FALSE(p.query.predicate->Matches(Value("1")));
  EXPECT_FALSE(p.query.predicate->Matches(Value("2")));
  ParsedSql range = *ParseSql(
      "SELECT count(1) FROM r WHERE a >= 2 AND a < 5");
  ASSERT_TRUE(range.query.predicate.has_value());
  EXPECT_TRUE(range.query.predicate->Matches(Value(2)));
  EXPECT_TRUE(range.query.predicate->Matches(Value(4)));
  EXPECT_FALSE(range.query.predicate->Matches(Value(5)));
  EXPECT_FALSE(range.query.predicate->Matches(Value(1)));
  EXPECT_FALSE(range.query.predicate->Matches(Value::Null()));
}

// --- Parsing: errors -----------------------------------------------------------

TEST(SqlParseTest, SyntaxErrors) {
  const char* bad[] = {
      "",
      "SELECT",
      "count(1) FROM r",
      "SELECT count(1)",
      "SELECT count(1) FROM",
      "SELECT count(1) FROM r WHERE",
      "SELECT count(1) FROM r WHERE major",
      "SELECT count(1) FROM r WHERE major = ",
      "SELECT count(1) FROM r WHERE major = 'unterminated",
      "SELECT count(1) FROM r WHERE major IN ()",
      "SELECT count(1) FROM r WHERE major IN ('a',)",
      "SELECT count(1) FROM r WHERE major IS",
      "SELECT count(1) FROM r trailing",
      "SELECT count(1) FROM r WHERE a = 'x' AND",
      "SELECT count(1) FROM r WHERE a = bareword",
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(ParseSql(sql).ok()) << "should reject: " << sql;
  }
}

TEST(SqlParseTest, ErrorsCarryPosition) {
  auto r = ParseSql("SELECT count(1) FROM r WHERE major @@ 'x'");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position"), std::string::npos);
}

// --- Parsing: literal regression suite ------------------------------------------

TEST(SqlParseTest, DoubledQuoteEscapesInsideInList) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE name IN ('O''Brien', '', '''')");
  EXPECT_TRUE(p.query.predicate->Matches(Value("O'Brien")));
  EXPECT_TRUE(p.query.predicate->Matches(Value("")));   // Empty literal.
  EXPECT_TRUE(p.query.predicate->Matches(Value("'")));  // Just a quote.
  EXPECT_FALSE(p.query.predicate->Matches(Value("OBrien")));
  EXPECT_FALSE(p.query.predicate->Matches(Value::Null()));
}

TEST(SqlParseTest, SignedAndExponentNumericLiterals) {
  // Leading '+' is grammar-visible but must parse as the unsigned value
  // (std::from_chars would otherwise reject the token text).
  EXPECT_TRUE(ParseSql("SELECT count(1) FROM r WHERE x = +5")
                  ->query.predicate->Matches(Value(5)));
  EXPECT_TRUE(ParseSql("SELECT count(1) FROM r WHERE x = +2.5")
                  ->query.predicate->Matches(Value(2.5)));
  EXPECT_TRUE(ParseSql("SELECT count(1) FROM r WHERE x = -1e3")
                  ->query.predicate->Matches(Value(-1000.0)));
  EXPECT_TRUE(ParseSql("SELECT count(1) FROM r WHERE x = 2E-2")
                  ->query.predicate->Matches(Value(0.02)));
  EXPECT_TRUE(ParseSql("SELECT count(1) FROM r WHERE x = +1e+2")
                  ->query.predicate->Matches(Value(100.0)));
  ParsedSql in = *ParseSql(
      "SELECT count(1) FROM r WHERE x IN (-3, +4, 1.5e1)");
  EXPECT_TRUE(in.query.predicate->Matches(Value(-3)));
  EXPECT_TRUE(in.query.predicate->Matches(Value(4)));
  EXPECT_TRUE(in.query.predicate->Matches(Value(15.0)));
}

TEST(SqlParseTest, MalformedNumericLiteralsArePositionedErrors) {
  for (const char* sql : {
           "SELECT count(1) FROM r WHERE x = 1.2.3",
           "SELECT count(1) FROM r WHERE x = 1e",
           "SELECT count(1) FROM r WHERE x = 1e+",
           "SELECT count(1) FROM r WHERE x = 99999999999999999999",
           "SELECT percentile(score, 1.2.3) FROM r",
       }) {
    auto r = ParseSql(sql);
    ASSERT_FALSE(r.ok()) << "should reject: " << sql;
    EXPECT_NE(r.status().message().find("position"), std::string::npos)
        << sql << " -> " << r.status().message();
  }
}

TEST(SqlParseTest, NotEqualsSpellingsAreEquivalent) {
  ParsedSql bang = *ParseSql("SELECT count(1) FROM r WHERE x != 3");
  ParsedSql diamond = *ParseSql("SELECT count(1) FROM r WHERE x <> 3");
  for (const Value& v : {Value(3), Value(4), Value(3.0), Value::Null()}) {
    EXPECT_EQ(bang.query.predicate->Matches(v),
              diamond.query.predicate->Matches(v));
  }
  // A bare '!' is not an operator ('<' now is — ordering comparison).
  EXPECT_TRUE(ParseSql("SELECT count(1) FROM r WHERE x < 3").ok());
  EXPECT_FALSE(ParseSql("SELECT count(1) FROM r WHERE x ! 3").ok());
}

// --- Parsing: comparison operators ------------------------------------------

TEST(SqlParseTest, OrderingComparisons) {
  ParsedSql le = *ParseSql("SELECT count(1) FROM r WHERE x <= 3");
  EXPECT_TRUE(le.query.predicate->Matches(Value(3)));
  EXPECT_TRUE(le.query.predicate->Matches(Value(2.5)));  // Promotion.
  EXPECT_FALSE(le.query.predicate->Matches(Value(4)));
  EXPECT_FALSE(le.query.predicate->Matches(Value::Null()));

  ParsedSql gt = *ParseSql("SELECT count(1) FROM r WHERE x > 3");
  EXPECT_FALSE(gt.query.predicate->Matches(Value(3)));
  EXPECT_TRUE(gt.query.predicate->Matches(Value(3.5)));
  EXPECT_FALSE(gt.query.predicate->Matches(Value("zzz")));  // Mixed types.

  ParsedSql ge = *ParseSql("SELECT count(1) FROM r WHERE s >= 'M'");
  EXPECT_TRUE(ge.query.predicate->Matches(Value("Math")));
  EXPECT_FALSE(ge.query.predicate->Matches(Value("EECS")));
}

TEST(SqlParseTest, BooleanTreesOnOneAttributeCollapse) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE NOT (x < 2 OR x > 8)");
  ASSERT_TRUE(p.query.predicate.has_value());
  EXPECT_TRUE(p.query.predicate->Matches(Value(5)));
  EXPECT_TRUE(p.query.predicate->Matches(Value(2)));
  EXPECT_FALSE(p.query.predicate->Matches(Value(1)));
  EXPECT_FALSE(p.query.predicate->Matches(Value(9)));
  // NULL satisfies neither x < 2 nor x > 8, so NOT(...) matches it.
  EXPECT_TRUE(p.query.predicate->Matches(Value::Null()));
}

TEST(SqlParseTest, ParenthesizedConjunctionGroupsPlanConjunctive) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM r WHERE (a >= 2 AND a < 5) AND (b = 'x' OR "
      "b = 'y')");
  ASSERT_TRUE(p.query.predicate.has_value());
  ASSERT_TRUE(p.conjunct.has_value());
  EXPECT_EQ(p.query.predicate->attribute(), "a");
  EXPECT_EQ(p.conjunct->attribute(), "b");
  EXPECT_TRUE(p.query.predicate->Matches(Value(3)));
  EXPECT_FALSE(p.query.predicate->Matches(Value(5)));
  EXPECT_TRUE(p.conjunct->Matches(Value("y")));
  EXPECT_FALSE(p.conjunct->Matches(Value("z")));
}

// --- Parsing: quoted identifiers (satellite regressions) --------------------

TEST(SqlParseTest, QuotedNameIsNeverAKeywordOrLiteral) {
  // Regression: quoted tokens used to be indistinguishable from bare
  // ones, so "null" parsed as the NULL literal and "where" as WHERE.
  auto r = ParseSql("SELECT count(1) FROM r WHERE a = \"null\"");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position 33"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("identifier, not a literal"),
            std::string::npos);

  ParsedSql kw = *ParseSql(
      "SELECT count(1) FROM r WHERE \"where\" = 'x'");
  EXPECT_EQ(kw.query.predicate->attribute(), "where");
  ParsedSql null_attr = *ParseSql(
      "SELECT count(1) FROM r WHERE \"null\" IS NULL");
  EXPECT_EQ(null_attr.query.predicate->attribute(), "null");
}

TEST(SqlParseTest, EmptyQuotedIdentifierRejected) {
  auto r = ParseSql("SELECT count(1) FROM r WHERE \"\" = 'x'");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("empty quoted identifier"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("position"), std::string::npos);
}

TEST(SqlParseTest, QuotedAggregateNameRejected) {
  auto r = ParseSql("SELECT \"sum\"(x) FROM r");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cannot name an aggregate"),
            std::string::npos);
}

TEST(SqlParseTest, QuotedTableAndGroupingNames) {
  ParsedSql p = *ParseSql(
      "SELECT count(1) FROM \"my table\" GROUP BY \"group\"");
  EXPECT_EQ(p.table_name, "my table");
  EXPECT_EQ(p.group_by, "group");
}

// --- Parsing: GROUP BY / ORDER BY / LIMIT / DISTINCT ------------------------

TEST(SqlParseTest, GroupByParses) {
  ParsedSql p = *ParseSql("SELECT count(1) FROM t GROUP BY dept");
  EXPECT_EQ(p.group_by, "dept");
  EXPECT_FALSE(p.order_by.has_value());
  EXPECT_FALSE(p.limit.has_value());
}

TEST(SqlParseTest, OrderByAndLimitForms) {
  ParsedSql by_key = *ParseSql(
      "SELECT count(1) FROM t GROUP BY dept ORDER BY dept ASC");
  ASSERT_TRUE(by_key.order_by.has_value());
  EXPECT_FALSE(by_key.order_by->by_estimate);
  EXPECT_FALSE(by_key.order_by->descending);

  ParsedSql by_count = *ParseSql(
      "SELECT count(1) FROM t GROUP BY dept ORDER BY count(*) DESC LIMIT 3");
  ASSERT_TRUE(by_count.order_by.has_value());
  EXPECT_TRUE(by_count.order_by->by_estimate);
  EXPECT_TRUE(by_count.order_by->descending);
  EXPECT_EQ(by_count.limit, 3u);

  ParsedSql distinct = *ParseSql(
      "SELECT DISTINCT dept FROM t ORDER BY dept LIMIT 2");
  EXPECT_TRUE(distinct.select_distinct);
  EXPECT_EQ(distinct.distinct_attribute, "dept");
  EXPECT_EQ(distinct.limit, 2u);
}

TEST(SqlParseTest, CountDistinctParses) {
  ParsedSql p = *ParseSql("SELECT COUNT(DISTINCT dept) FROM r");
  EXPECT_TRUE(p.count_distinct);
  EXPECT_EQ(p.distinct_attribute, "dept");
}

TEST(SqlParseTest, ResultShapingErrorsArePositioned) {
  struct Case {
    const char* sql;
    const char* needle;
  } cases[] = {
      {"SELECT count(1) FROM r ORDER BY g",
       "ORDER BY requires GROUP BY or SELECT DISTINCT"},
      {"SELECT count(1) FROM r LIMIT 5",
       "LIMIT requires GROUP BY or SELECT DISTINCT"},
      {"SELECT count(1) FROM t GROUP BY g ORDER BY other",
       "must be the grouping attribute"},
      {"SELECT count(1) FROM t GROUP BY g LIMIT -1",
       "LIMIT must be non-negative"},
      {"SELECT count(1) FROM t GROUP BY g LIMIT 1.5",
       "LIMIT expects an integer"},
      {"SELECT DISTINCT d FROM t GROUP BY g",
       "SELECT DISTINCT does not take GROUP BY"},
      {"SELECT DISTINCT d FROM t ORDER BY count(1)",
       "ORDER BY COUNT(1) requires GROUP BY"},
  };
  for (const Case& c : cases) {
    auto r = ParseSql(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_NE(r.status().message().find("position"), std::string::npos)
        << c.sql << " -> " << r.status().message();
    EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
        << c.sql << " -> " << r.status().message();
  }
}

TEST(SqlParseTest, EveryRejectionCarriesAPosition) {
  const char* bad[] = {
      "",
      "SELECT count(2) FROM r",
      "SELECT count(1) FROM r WHERE a = \"null\"",
      "SELECT count(1) FROM r WHERE \"\" = 'x'",
      "SELECT \"sum\"(x) FROM r",
      "SELECT count(1) FROM r WHERE NOT",
      "SELECT count(1) FROM r WHERE (a = 1",
      "SELECT count(1) FROM r WHERE a = 1 OR",
      "SELECT count(1) FROM r WHERE a >",
      "SELECT count(1) FROM r WHERE a >= ",
      "SELECT count(1) FROM t GROUP BY",
      "SELECT count(1) FROM t GROUP BY g ORDER",
      "SELECT count(1) FROM t GROUP BY g ORDER BY",
      "SELECT count(1) FROM t GROUP BY g LIMIT",
      "SELECT COUNT(DISTINCT) FROM r",
      "SELECT DISTINCT FROM r",
  };
  for (const char* sql : bad) {
    auto r = ParseSql(sql);
    ASSERT_FALSE(r.ok()) << "should reject: " << sql;
    EXPECT_NE(r.status().message().find("position"), std::string::npos)
        << sql << " -> " << r.status().message();
  }
}

TEST(SqlParseTest, CountArgumentErrorIsPositionedAtTheArgument) {
  auto r = ParseSql("SELECT count(2) FROM r");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position 13"), std::string::npos)
      << r.status().message();
}

// --- Rendering ---------------------------------------------------------------

TEST(SqlRenderTest, LiteralsAreUnambiguous) {
  EXPECT_EQ(RenderSqlLiteral(Value::Null()), "NULL");
  EXPECT_EQ(RenderSqlLiteral(Value("")), "''");
  EXPECT_EQ(RenderSqlLiteral(Value("O'Brien")), "'O''Brien'");
  EXPECT_EQ(RenderSqlLiteral(Value(3)), "3");
  EXPECT_EQ(RenderSqlLiteral(Value(3.0)), "3.0");  // Type round-trips.
  EXPECT_EQ(RenderSqlLiteral(Value(-2.5)), "-2.5");
}

// Every grammar production round-trips: parse -> render re-parses, and
// rendering is a fixed point (render(parse(render(q))) == render(parse(q))).
TEST(SqlRenderTest, RoundTripIsAFixedPointForEveryProduction) {
  const char* queries[] = {
      "SELECT count(1) FROM r",
      "SELECT COUNT(*) FROM r",
      "SELECT sum(score) FROM r WHERE dept = 'EECS'",
      "SELECT avg(score) FROM r WHERE score >= 2.5",
      "SELECT min(score) FROM r",
      "SELECT max(score) FROM r",
      "SELECT median(score) FROM r",
      "SELECT var(score) FROM r",
      "SELECT std(score) FROM r",
      "SELECT percentile(score, 90) FROM r",
      "SELECT percentile(score, 12.5) FROM r WHERE x != 3",
      "SELECT count(1) FROM r WHERE x < 3",
      "SELECT count(1) FROM r WHERE x <= 3",
      "SELECT count(1) FROM r WHERE x > 3",
      "SELECT count(1) FROM r WHERE x >= 3",
      "SELECT count(1) FROM r WHERE x <> 3",
      "SELECT count(1) FROM r WHERE x = -1.5e3",
      "SELECT count(1) FROM r WHERE x = +7",
      "SELECT count(1) FROM r WHERE name = 'O''Brien'",
      "SELECT count(1) FROM r WHERE x IN (1, 2.5, 'x', NULL)",
      "SELECT count(1) FROM r WHERE x IS NULL",
      "SELECT count(1) FROM r WHERE x IS NOT NULL",
      "SELECT count(1) FROM r WHERE NOT x = 3",
      "SELECT count(1) FROM r WHERE NOT (x < 2 OR x > 8)",
      "SELECT count(1) FROM r WHERE a = 1 AND b = 2 AND c = 3",
      "SELECT count(1) FROM r WHERE a = 1 OR b = 2",
      "SELECT count(1) FROM r WHERE (a = 1 OR b = 2) AND c = 3",
      "SELECT count(1) FROM r WHERE \"country code\" = 'US'",
      "SELECT count(1) FROM r WHERE \"where\" = 'x'",
      "SELECT count(1) FROM \"my table\"",
      "SELECT count(1) FROM t GROUP BY dept",
      "SELECT count(1) FROM t GROUP BY dept ORDER BY dept",
      "SELECT count(1) FROM t GROUP BY dept ORDER BY dept DESC",
      "SELECT count(1) FROM t GROUP BY dept ORDER BY count(1) DESC LIMIT 3",
      "SELECT count(1) FROM t GROUP BY \"count\" ORDER BY \"count\"",
      "SELECT DISTINCT dept FROM t",
      "SELECT DISTINCT dept FROM t ORDER BY dept LIMIT 2",
      "SELECT COUNT(DISTINCT dept) FROM r",
  };
  for (const char* sql : queries) {
    auto p1 = ParseSql(sql);
    ASSERT_TRUE(p1.ok()) << sql << " -> " << p1.status().message();
    std::string rendered = RenderSql(*p1);
    auto p2 = ParseSql(rendered);
    ASSERT_TRUE(p2.ok()) << sql << " rendered to unparseable: " << rendered
                         << " -> " << p2.status().message();
    EXPECT_EQ(RenderSql(*p2), rendered) << "not a fixed point for: " << sql;
  }
}

TEST(SqlRenderTest, CanonicalFormNormalizes) {
  EXPECT_EQ(RenderSql(*ParseSql("select Count( * ) from r")),
            "SELECT COUNT(1) FROM r");
  EXPECT_EQ(RenderSql(*ParseSql("SELECT count(1) FROM r WHERE x <> 3")),
            "SELECT COUNT(1) FROM r WHERE x != 3");
  EXPECT_EQ(
      RenderSql(*ParseSql(
          "SELECT count(1) FROM t GROUP BY g ORDER BY count(*) ASC")),
      "SELECT COUNT(1) FROM t GROUP BY g ORDER BY COUNT(1)");
}

// --- Execution ------------------------------------------------------------------

class SqlExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema = *Schema::Make(
        {Field::Discrete("dept"), Field::Discrete("campus"),
         Field::Numerical("score", ValueType::kDouble)});
    TableBuilder b(schema);
    Rng data_rng(1);
    const char* depts[] = {"EECS", "Math", "Bio", "Physics"};
    const char* campuses[] = {"North", "South"};
    for (int i = 0; i < 400; ++i) {
      b.Row({Value(depts[i % 4]), Value(campuses[i % 2]),
             Value(static_cast<double>(i % 10))});
    }
    data_ = *b.Finish();
    Rng rng(2);
    pt_.emplace(*PrivateTable::Create(
        *data_, GrrParams::Uniform(0.1, 1.0), GrrOptions{}, rng));
  }

  std::optional<Table> data_;
  std::optional<PrivateTable> pt_;
};

TEST_F(SqlExecutionTest, CountMatchesProgrammaticApi) {
  QueryResult via_sql =
      *ExecuteSql(*pt_, "SELECT count(1) FROM r WHERE dept = 'EECS'");
  QueryResult via_api = *pt_->Count(Predicate::Equals("dept", "EECS"));
  EXPECT_DOUBLE_EQ(via_sql.estimate, via_api.estimate);
  EXPECT_DOUBLE_EQ(via_sql.ci.lo, via_api.ci.lo);
}

TEST_F(SqlExecutionTest, AvgMatchesProgrammaticApi) {
  QueryResult via_sql = *ExecuteSql(
      *pt_, "SELECT avg(score) FROM r WHERE dept IN ('EECS', 'Math')");
  QueryResult via_api = *pt_->Avg(
      "score", Predicate::In("dept", {Value("EECS"), Value("Math")}));
  EXPECT_DOUBLE_EQ(via_sql.estimate, via_api.estimate);
}

TEST_F(SqlExecutionTest, ConjunctiveCountDispatch) {
  QueryResult via_sql = *ExecuteSql(
      *pt_,
      "SELECT count(1) FROM r WHERE dept = 'EECS' AND campus = 'North'");
  QueryResult via_api = *pt_->CountConjunctive(
      Predicate::Equals("dept", "EECS"),
      Predicate::Equals("campus", "North"));
  EXPECT_DOUBLE_EQ(via_sql.estimate, via_api.estimate);
}

TEST_F(SqlExecutionTest, ExtensionAggregateDispatch) {
  QueryResult median = *ExecuteSql(*pt_, "SELECT median(score) FROM r");
  EXPECT_GE(median.estimate, -5.0);
  EXPECT_LE(median.estimate, 15.0);
  EXPECT_DOUBLE_EQ(median.ci.Width(), 0.0);  // Point estimate.
}

TEST_F(SqlExecutionTest, PercentileDispatch) {
  QueryResult p90 =
      *ExecuteSql(*pt_, "SELECT percentile(score, 90) FROM r");
  QueryResult p10 =
      *ExecuteSql(*pt_, "SELECT percentile(score, 10) FROM r");
  EXPECT_GT(p90.estimate, p10.estimate);
}

TEST_F(SqlExecutionTest, DirectBaseline) {
  QueryResult direct = *ExecuteSqlDirect(
      *pt_, "SELECT count(1) FROM r WHERE dept = 'EECS'");
  EXPECT_EQ(direct.estimator, EstimatorKind::kDirect);
  QueryResult api = *pt_->ExecuteDirect(
      AggregateQuery::Count(Predicate::Equals("dept", "EECS")));
  EXPECT_DOUBLE_EQ(direct.estimate, api.estimate);
}

TEST_F(SqlExecutionTest, DirectConjunctiveIsNominal) {
  QueryResult direct = *ExecuteSqlDirect(
      *pt_,
      "SELECT count(1) FROM r WHERE dept = 'EECS' AND campus = 'North'");
  ConjunctiveScanStats stats = testing_reference::ReferenceQuadrants(
      pt_->relation(), Predicate::Equals("dept", "EECS"),
      Predicate::Equals("campus", "North"));
  EXPECT_DOUBLE_EQ(direct.estimate,
                   static_cast<double>(stats.count_tt));
}

TEST_F(SqlExecutionTest, ParseErrorsPropagate) {
  EXPECT_FALSE(ExecuteSql(*pt_, "SELECT nope(1) FROM r").ok());
  EXPECT_FALSE(ExecuteSqlDirect(*pt_, "garbage").ok());
}

TEST_F(SqlExecutionTest, UnknownAttributeFailsAtExecution) {
  auto r = ExecuteSql(*pt_, "SELECT count(1) FROM r WHERE nope = 'x'");
  EXPECT_FALSE(r.ok());
}

// --- Execution: new grammar forms ------------------------------------------

TEST_F(SqlExecutionTest, RangePredicateRoutesThroughCorrectedCount) {
  QueryResult via_sql =
      *ExecuteSql(*pt_, "SELECT count(1) FROM r WHERE dept >= 'M'");
  QueryResult via_api = *pt_->Count(
      Predicate::Compare("dept", CompareOp::kGe, Value("M")));
  EXPECT_DOUBLE_EQ(via_sql.estimate, via_api.estimate);
  EXPECT_DOUBLE_EQ(via_sql.ci.lo, via_api.ci.lo);
  EXPECT_EQ(via_sql.estimator, EstimatorKind::kPrivateClean);
}

TEST_F(SqlExecutionTest, SameAttributeOrTreeEqualsInPredicate) {
  // dept = 'EECS' OR dept = 'Math' collapses to the same M_pred as
  // dept IN ('EECS', 'Math'), so the corrected estimates are identical.
  QueryResult via_or = *ExecuteSql(
      *pt_, "SELECT count(1) FROM r WHERE dept = 'EECS' OR dept = 'Math'");
  QueryResult via_in = *ExecuteSql(
      *pt_, "SELECT count(1) FROM r WHERE dept IN ('EECS', 'Math')");
  EXPECT_DOUBLE_EQ(via_or.estimate, via_in.estimate);
  EXPECT_DOUBLE_EQ(via_or.ci.lo, via_in.ci.lo);
}

TEST_F(SqlExecutionTest, NotPrivatelyAnswerableFormsNameTheForm) {
  struct Case {
    const char* sql;
    const char* needle;
  } cases[] = {
      {"SELECT max(score) FROM r", "MAX(score)"},
      {"SELECT min(score) FROM r", "MIN(score)"},
      {"SELECT DISTINCT dept FROM r", "SELECT DISTINCT dept"},
      {"SELECT COUNT(DISTINCT dept) FROM r", "COUNT(DISTINCT dept)"},
      {"SELECT count(1) FROM r GROUP BY dept ORDER BY dept LIMIT 1",
       nullptr},  // Answerable; sanity-checked below.
  };
  for (const Case& c : cases) {
    if (c.needle == nullptr) continue;
    auto r = ExecuteSqlQuery(*pt_, c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << c.sql;
    EXPECT_NE(r.status().message().find("not privately answerable"),
              std::string::npos)
        << c.sql << " -> " << r.status().message();
    EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
        << c.sql << " -> " << r.status().message();
  }
}

TEST_F(SqlExecutionTest, UnplannableWhereTreesFailTyped) {
  for (const char* sql :
       {"SELECT count(1) FROM r WHERE dept = 'EECS' OR campus = 'North'",
        "SELECT sum(score) FROM r WHERE dept = 'EECS' AND campus = 'North'",
        "SELECT count(1) FROM r WHERE dept = 'EECS' AND campus = 'North' "
        "AND score > 1"}) {
    auto r = ExecuteSql(*pt_, sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << sql;
    EXPECT_NE(r.status().message().find("not privately answerable"),
              std::string::npos)
        << sql << " -> " << r.status().message();
  }
}

TEST_F(SqlExecutionTest, NumericAttributePredicateFailsTypedNotNotFound) {
  // A WHERE tree on the Laplace-noised numeric attribute collapses to a
  // Predicate fine, but no transition matrix exists for it, so the
  // corrected estimators must reject it as "not privately answerable" —
  // not leak provenance_manager's NotFound ("no provenance snapshot").
  for (const char* sql :
       {"SELECT count(1) FROM r WHERE score >= 2.0",
        "SELECT count(1) FROM r WHERE score >= 2.0 AND score < 8.0",
        "SELECT sum(score) FROM r WHERE score > 5",
        "SELECT count(1) FROM r GROUP BY score"}) {
    auto r = ExecuteSqlQuery(*pt_, sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << sql;
    EXPECT_NE(r.status().message().find("not privately answerable"),
              std::string::npos)
        << sql << " -> " << r.status().message();
    EXPECT_NE(r.status().message().find("score"), std::string::npos)
        << sql << " -> " << r.status().message();
  }
  // The same queries are nominally answerable under the Direct baseline.
  EXPECT_TRUE(
      ExecuteSqlDirect(*pt_, "SELECT count(1) FROM r WHERE score >= 2.0")
          .ok());
}

TEST_F(SqlExecutionTest, GroupByRunsCorrectedPerGroupCounts) {
  SqlResultSet rs =
      *ExecuteSqlQuery(*pt_, "SELECT count(1) FROM r GROUP BY dept");
  EXPECT_TRUE(rs.grouped);
  ASSERT_EQ(rs.rows.size(), 4u);
  double total = 0.0;
  for (const SqlRow& row : rs.rows) {
    ASSERT_TRUE(row.group.has_value());
    total += row.result.estimate;
  }
  // Corrected group counts are consistent: they sum to ~S (each true
  // group is 100 of 400 rows).
  EXPECT_NEAR(total, 400.0, 40.0);
  auto grouped_via_api = *pt_->GroupByCountEstimate("dept");
  ASSERT_EQ(grouped_via_api.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rs.rows[i].group, grouped_via_api[i].first);
    EXPECT_DOUBLE_EQ(rs.rows[i].result.estimate,
                     grouped_via_api[i].second.estimate);
  }
}

TEST_F(SqlExecutionTest, OrderByAndLimitShapeGroupedRows) {
  SqlResultSet by_count = *ExecuteSqlQuery(
      *pt_,
      "SELECT count(1) FROM r GROUP BY dept ORDER BY count(1) DESC LIMIT 2");
  ASSERT_EQ(by_count.rows.size(), 2u);
  EXPECT_GE(by_count.rows[0].result.estimate,
            by_count.rows[1].result.estimate);

  SqlResultSet by_key = *ExecuteSqlQuery(
      *pt_, "SELECT count(1) FROM r GROUP BY dept ORDER BY dept");
  ASSERT_EQ(by_key.rows.size(), 4u);
  for (size_t i = 1; i < by_key.rows.size(); ++i) {
    EXPECT_TRUE(*by_key.rows[i - 1].group < *by_key.rows[i].group);
  }
}

TEST_F(SqlExecutionTest, ScalarWrapperRejectsGroupedResults) {
  auto r = ExecuteSql(*pt_, "SELECT count(1) FROM r GROUP BY dept");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("ExecuteSqlQuery"), std::string::npos);
}

// --- Execution: Direct baseline on the new forms ----------------------------

TEST_F(SqlExecutionTest, DirectAnswersMinMaxNominally) {
  QueryResult max = *ExecuteSqlDirect(*pt_, "SELECT max(score) FROM r");
  QueryResult min = *ExecuteSqlDirect(*pt_, "SELECT min(score) FROM r");
  EXPECT_EQ(max.estimator, EstimatorKind::kDirect);
  EXPECT_GT(max.estimate, min.estimate);
  AggregateQuery q;
  q.agg = AggregateType::kMax;
  q.numeric_attribute = "score";
  EXPECT_DOUBLE_EQ(max.estimate, *ExecuteAggregate(pt_->relation(), q));
}

TEST_F(SqlExecutionTest, DirectAnswersMultiAttributeTreesNominally) {
  QueryResult direct = *ExecuteSqlDirect(
      *pt_,
      "SELECT count(1) FROM r WHERE dept = 'EECS' OR campus = 'North'");
  // Independent reference: a straight row loop over the relation.
  const Table& rel = pt_->relation();
  const Column* dept = *rel.ColumnByName("dept");
  const Column* campus = *rel.ColumnByName("campus");
  size_t expected = 0;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    if (dept->ValueAt(r) == Value("EECS") ||
        campus->ValueAt(r) == Value("North")) {
      ++expected;
    }
  }
  EXPECT_DOUBLE_EQ(direct.estimate, static_cast<double>(expected));
}

TEST_F(SqlExecutionTest, DirectAnswersDistinctForms) {
  SqlResultSet distinct =
      *ExecuteSqlQueryDirect(*pt_, "SELECT DISTINCT dept FROM r");
  EXPECT_TRUE(distinct.grouped);
  QueryResult count = *ExecuteSqlDirect(
      *pt_, "SELECT COUNT(DISTINCT dept) FROM r");
  EXPECT_DOUBLE_EQ(count.estimate,
                   static_cast<double>(distinct.rows.size()));
  QueryResult grouped_limit = ExecuteSqlQueryDirect(
      *pt_,
      "SELECT count(1) FROM r WHERE campus = 'North' GROUP BY dept "
      "ORDER BY count(1) DESC LIMIT 1")->rows.front().result;
  EXPECT_GT(grouped_limit.estimate, 0.0);
}

}  // namespace
}  // namespace privateclean
