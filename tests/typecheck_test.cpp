// Unit tests for the Indus type checker: the non-interference rules
// (read-only header/control state), block placement of reject, typing of
// operators, and termination-friendly loop typing.
#include <gtest/gtest.h>

#include "checkers/library.hpp"
#include "indus/parser.hpp"
#include "indus/typecheck.hpp"

namespace hydra::indus {
namespace {

Diagnostics check(const std::string& src) {
  Diagnostics diags;
  Program p = parse_indus(src, diags);
  EXPECT_FALSE(diags.has_errors()) << "parse failed: " << diags.to_string();
  typecheck(p, diags);
  return diags;
}

void expect_ok(const std::string& src) {
  const Diagnostics d = check(src);
  EXPECT_FALSE(d.has_errors()) << d.to_string();
}

void expect_error(const std::string& src, const std::string& needle) {
  const Diagnostics d = check(src);
  ASSERT_TRUE(d.has_errors()) << "expected error containing '" << needle
                              << "'";
  EXPECT_NE(d.to_string().find(needle), std::string::npos)
      << "diagnostics were:\n" << d.to_string();
}

TEST(Typecheck, MinimalProgramOk) { expect_ok("{ } { } { }"); }

TEST(Typecheck, HeaderVariablesAreReadOnly) {
  expect_error("header bit<8> p;\n{ p = 1; } { } { }", "read-only");
}

TEST(Typecheck, ControlVariablesAreReadOnly) {
  expect_error("control bit<8> c;\n{ c = 1; } { } { }", "read-only");
}

TEST(Typecheck, HeaderCannotBeInitialized) {
  expect_error("header bit<8> p = 3;\n{ } { } { }", "read-only");
}

TEST(Typecheck, TeleAndSensorAreWritable) {
  expect_ok(R"(
    tele bit<8> t;
    sensor bit<32> s = 0;
    { t = 1; } { s += 2; } { }
  )");
}

TEST(Typecheck, RejectOnlyInCheckerBlock) {
  expect_error("{ reject; } { } { }", "reject");
  expect_error("{ } { reject; } { }", "reject");
  expect_ok("{ } { } { reject; }");
}

TEST(Typecheck, ReportAllowedEverywhere) {
  expect_ok("{ report; } { report; } { report; }");
}

TEST(Typecheck, UndeclaredVariable) {
  expect_error("{ x = 1; } { } { }", "undeclared");
}

TEST(Typecheck, DuplicateDeclaration) {
  expect_error("tele bit<8> x;\ntele bit<8> x;\n{ } { } { }", "duplicate");
}

TEST(Typecheck, BuiltinsAvailable) {
  expect_ok(R"(
    tele bool b;
    tele bit<32> n;
    { b = last_hop && first_hop; n = packet_length; } { } { }
  )");
}

TEST(Typecheck, BuiltinsAreReadOnly) {
  expect_error("{ last_hop = true; } { } { }", "read-only");
}

TEST(Typecheck, IfConditionMustBeBool) {
  expect_error("tele bit<8> x;\n{ if (x) { pass; } } { } { }", "bool");
}

TEST(Typecheck, ArithRequiresBits) {
  expect_error("tele bool b;\n{ b = b + b; } { } { }", "bit<n>");
}

TEST(Typecheck, LogicRequiresBool) {
  expect_error("tele bit<8> x;\ntele bool b;\n{ b = x && x; } { } { }",
               "bool");
}

TEST(Typecheck, MixedWidthBitsAreCompatible) {
  expect_ok("tele bit<8> a;\ntele bit<32> b;\n{ a = b; b = a + 1; } { } { }");
}

TEST(Typecheck, CannotCompareBoolWithBits) {
  expect_error("tele bool b;\ntele bit<8> x;\n{ b = b == x; } { } { }",
               "compare");
}

TEST(Typecheck, DictKeyTypeMismatch) {
  expect_error(R"(
    control dict<(bit<32>,bit<32>),bool> allowed;
    tele bool r;
    header bit<32> s;
    { r = allowed[s]; } { } { }
  )", "key type mismatch");
}

TEST(Typecheck, DictTupleKeyOk) {
  expect_ok(R"(
    control dict<(bit<32>,bit<32>),bool> allowed;
    tele bool r;
    header bit<32> s;
    header bit<32> d;
    { r = allowed[(s, d)]; } { } { }
  )");
}

TEST(Typecheck, ForRequiresArrays) {
  expect_error("tele bit<8> x;\n{ } { } { for (v in x) { pass; } }",
               "fixed-size arrays");
}

TEST(Typecheck, ParallelForRequiresEqualSizes) {
  expect_error(R"(
    tele bit<8>[4] a;
    tele bit<8>[5] b;
    { } { } { for (x, y in a, b) { pass; } }
  )", "equal array sizes");
}

TEST(Typecheck, LoopVariableIsReadOnly) {
  expect_error(R"(
    tele bit<8>[4] a;
    { } { } { for (x in a) { x = 1; } }
  )", "read-only");
}

TEST(Typecheck, PushInsideLoopOverSameArrayIsRejected) {
  expect_error(R"(
    tele bit<8>[4] a;
    tele bit<8>[4] b;
    { } { for (x, y in b, a) { if (x > 0) { a.push(y); } } } { }
  )", "cannot push to 'a' inside a for loop over it");
  // Pushing to an array the loop does not iterate stays legal.
  expect_ok(R"(
    tele bit<8>[4] a;
    tele bit<8>[4] b;
    { } { for (x in a) { b.push(x); } a.push(1); } { }
  )");
}

TEST(Typecheck, LoopVariableShadowingIsAllowedWithWarning) {
  const Diagnostics d = check(R"(
    sensor bit<32> load = 0;
    tele bit<32>[4] loads;
    { } { } { for (load in loads) { report; } }
  )");
  EXPECT_FALSE(d.has_errors()) << d.to_string();
  EXPECT_FALSE(d.all().empty());  // the shadowing warning
}

TEST(Typecheck, PushOnlyOnTeleArrays) {
  expect_error(R"(
    tele bit<8>[4] a;
    tele bit<8> x;
    { x.push(1); } { } { }
  )", "array");
}

TEST(Typecheck, PushElementTypeChecked) {
  expect_error(R"(
    tele bool[4] flags;
    tele bit<8> x;
    { flags.push(x); } { } { }
  )", "push");
}

TEST(Typecheck, SensorMustBeScalar) {
  expect_error("sensor bit<8>[4] s;\n{ } { } { }", "scalar");
}

TEST(Typecheck, TeleCannotBeDict) {
  expect_error("tele dict<bit<8>,bit<8>> d;\n{ } { } { }", "tele");
}

TEST(Typecheck, InitializerMustBeConstant) {
  expect_error("header bit<8> p;\ntele bit<8> x = p;\n{ } { } { }",
               "constant");
}

TEST(Typecheck, ConstantFoldedInitializerOk) {
  expect_ok("tele bit<8> x = 2 + 3 * 4;\n{ } { } { }");
}

TEST(Typecheck, AbsRequiresBits) {
  expect_error("tele bool b;\n{ b = abs(b) == b; } { } { }", "abs");
}

TEST(Typecheck, LengthRequiresArray) {
  expect_error("tele bit<8> x;\n{ x = length(x); } { } { }", "length");
}

TEST(Typecheck, UnknownFunction) {
  expect_error("tele bit<8> x;\n{ x = foo(x); } { } { }", "unknown function");
}

TEST(Typecheck, InElementTypeChecked) {
  expect_error(R"(
    tele bool[4] flags;
    tele bit<8> x;
    tele bool r;
    { r = x in flags; } { } { }
  )", "element type mismatch");
}

TEST(Typecheck, CompoundAssignRequiresBits) {
  expect_error("tele bool b;\n{ b += true; } { } { }", "bit<n>");
}

// All library checkers must typecheck cleanly.
class LibraryTypecheck : public ::testing::TestWithParam<int> {};

TEST_P(LibraryTypecheck, Clean) {
  const auto& spec =
      checkers::all_checkers()[static_cast<std::size_t>(GetParam())];
  Diagnostics diags;
  Program p = parse_indus(spec.source, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  typecheck(p, diags);
  EXPECT_FALSE(diags.has_errors()) << spec.name << ":\n" << diags.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllCheckers, LibraryTypecheck,
                         ::testing::Range(0, static_cast<int>(checkers::all_checkers().size())),
                         [](const auto& info) {
                           return checkers::all_checkers()
                               [static_cast<std::size_t>(info.param)].name;
                         });

}  // namespace
}  // namespace hydra::indus
