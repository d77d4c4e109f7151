#include <gtest/gtest.h>

#include "compiler/dsl_parser.hpp"
#include "compiler/lexer.hpp"

namespace menshen {
namespace {

TEST(Lexer, TokenizesAllKinds) {
  const auto toks = Lex("module m { field f : 2 @ 46; } # comment");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "module");
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(Lexer, HexAndDecimalLiterals) {
  const auto toks = Lex("255 0xff 0xF1F2");
  EXPECT_EQ(toks[0].value, 255u);
  EXPECT_EQ(toks[1].value, 255u);
  EXPECT_EQ(toks[2].value, 0xF1F2u);
}

TEST(Lexer, TwoCharOperators) {
  const auto toks = Lex("== != >= <= > <");
  EXPECT_EQ(toks[0].kind, TokenKind::kEq);
  EXPECT_EQ(toks[1].kind, TokenKind::kNeq);
  EXPECT_EQ(toks[2].kind, TokenKind::kGe);
  EXPECT_EQ(toks[3].kind, TokenKind::kLe);
  EXPECT_EQ(toks[4].kind, TokenKind::kGt);
  EXPECT_EQ(toks[5].kind, TokenKind::kLt);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = Lex("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, CommentsBothStyles) {
  const auto toks = Lex("a # x y z\nb // more\nc");
  ASSERT_EQ(toks.size(), 4u);  // a b c END
}

TEST(Lexer, RejectsGarbage) {
  EXPECT_THROW(Lex("a $ b"), std::invalid_argument);
  EXPECT_THROW(Lex("0x"), std::invalid_argument);
  EXPECT_THROW(Lex("12abc"), std::invalid_argument);
}

// --- Parser --------------------------------------------------------------------

ModuleSpec Parse(std::string_view src, bool expect_ok = true) {
  Diagnostics diags;
  ModuleSpec spec = ParseModuleDsl(src, diags);
  EXPECT_EQ(diags.ok(), expect_ok) << diags.ToString();
  return spec;
}

TEST(DslParser, MinimalModule) {
  const ModuleSpec spec = Parse(R"(
module m {
  field f : 2 @ 46;
  action a(p) { f = p; }
  table t { key = { f }; actions = { a }; size = 4; }
}
)");
  EXPECT_EQ(spec.name, "m");
  ASSERT_EQ(spec.fields.size(), 1u);
  EXPECT_EQ(spec.fields[0].width, 2);
  EXPECT_EQ(spec.fields[0].offset, 46);
  ASSERT_EQ(spec.tables.size(), 1u);
  EXPECT_EQ(spec.tables[0].size, 4u);
}

TEST(DslParser, AllStatementForms) {
  const ModuleSpec spec = Parse(R"(
module m {
  field a : 4 @ 48;
  field b : 4 @ 52;
  scratch t : 4;
  state s[8];
  action everything(p) {
    a = a + b;
    b = a - 1;
    t = 5;
    t = s[0];
    s[1] = a;
    t = incr(s[2]);
    port(p);
  }
  table tab { key = { a }; actions = { everything }; size = 1; }
}
)");
  const ActionDef* act = spec.FindAction("everything");
  ASSERT_NE(act, nullptr);
  ASSERT_EQ(act->statements.size(), 7u);
  EXPECT_EQ(act->statements[0].kind, Statement::Kind::kAddAssign);
  EXPECT_EQ(act->statements[1].kind, Statement::Kind::kSubAssign);
  EXPECT_EQ(act->statements[2].kind, Statement::Kind::kSetAssign);
  EXPECT_EQ(act->statements[3].kind, Statement::Kind::kLoad);
  EXPECT_EQ(act->statements[4].kind, Statement::Kind::kStore);
  EXPECT_EQ(act->statements[5].kind, Statement::Kind::kLoadIncr);
  EXPECT_EQ(act->statements[6].kind, Statement::Kind::kSetPort);
  // Parameter references resolve to params, fields to fields.
  EXPECT_EQ(act->statements[6].a.kind, Value::Kind::kParam);
  EXPECT_EQ(act->statements[0].a.kind, Value::Kind::kField);
}

TEST(DslParser, PredicateTable) {
  const ModuleSpec spec = Parse(R"(
module m {
  field f : 2 @ 46;
  action a { drop(); }
  table t {
    key = { f };
    predicate = f > 100;
    actions = { a };
    size = 2;
  }
}
)");
  ASSERT_TRUE(spec.tables[0].predicate.has_value());
  EXPECT_EQ(spec.tables[0].predicate->op, CmpOp::kGt);
  EXPECT_EQ(spec.tables[0].predicate->b.constant, 100u);
}

TEST(DslParser, ScratchFieldsHaveNoOffset) {
  const ModuleSpec spec = Parse(R"(
module m {
  scratch tmp : 4;
  field f : 2 @ 46;
  action a { tmp = 1; }
  table t { key = { f }; actions = { a }; size = 1; }
}
)");
  EXPECT_TRUE(spec.fields[0].scratch);
  EXPECT_FALSE(spec.fields[1].scratch);
}

TEST(DslParser, ForbiddenStatementsStillParse) {
  // recirculate() and meta writes parse fine — rejection is the static
  // checker's job, so the author gets a semantic error, not a syntax one.
  const ModuleSpec spec = Parse(R"(
module m {
  field f : 2 @ 46;
  action bad { recirculate(); meta.link_util = 5; }
  table t { key = { f }; actions = { bad }; size = 1; }
}
)");
  EXPECT_EQ(spec.FindAction("bad")->statements[0].kind,
            Statement::Kind::kRecirculate);
  EXPECT_EQ(spec.FindAction("bad")->statements[1].kind,
            Statement::Kind::kMetaStatWrite);
}

struct BadCase {
  const char* name;
  const char* source;
  const char* code;
};

// Print the expected diagnostic code. gtest's default byte dump of the three
// pointers changes with every load address, and CTest bakes the printed
// parameter into each discovered test name.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.code; }

class DslErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(DslErrorTest, ReportsDiagnostic) {
  Diagnostics diags;
  (void)ParseModuleDsl(GetParam().source, diags);
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(diags.HasCode(GetParam().code)) << diags.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DslErrorTest,
    ::testing::Values(
        BadCase{"missing_module", "field f : 2 @ 46;", "parse"},
        BadCase{"bad_width", "module m { field f : 3 @ 46; }", "field.width"},
        BadCase{"bad_offset", "module m { field f : 2 @ 130; }",
                "field.offset"},
        BadCase{"dup_field",
                "module m { field f : 2 @ 0; field f : 2 @ 2; }",
                "field.duplicate"},
        BadCase{"zero_state", "module m { state s[0]; }", "state.size"},
        BadCase{"dup_table",
                "module m { field f : 2 @ 0; action a { drop(); } "
                "table t { key = { f }; actions = { a }; size = 1; } "
                "table t { key = { f }; actions = { a }; size = 1; } }",
                "table.duplicate"},
        BadCase{"trailing", "module m { } extra", "parse"},
        BadCase{"bad_table_prop", "module m { table t { bogus = 1; } }",
                "parse"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace menshen
