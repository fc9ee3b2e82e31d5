//===- RequestIoTests.cpp - JSONL request/response protocol tests -------------===//

#include "service/RequestIo.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace charon;

namespace {

ServiceRequest sampleBallRequest() {
  ServiceRequest Req;
  Req.Network = "networks/acas.net";
  Req.Name = "p3";
  Req.Label = 2;
  Req.Epsilon = 0.05;
  Req.Center = Vector{0.5, 0.25, 0.75, 0.5, 0.5};
  Req.BudgetSeconds = 7.5;
  Req.Delta = 1e-7;
  Req.Priority = 3;
  return Req;
}

} // namespace

TEST(RequestIoTest, ParsesBallRequest) {
  auto Req = parseRequestLine(
      R"({"network":"acas.net","name":"p1","label":1,"epsilon":0.1,)"
      R"("center":[0.5,0.5],"budget":3,"delta":1e-5,"priority":2})");
  ASSERT_TRUE(Req.has_value());
  EXPECT_EQ(Req->Network, "acas.net");
  EXPECT_EQ(Req->Name, "p1");
  EXPECT_EQ(Req->Label, 1u);
  EXPECT_DOUBLE_EQ(Req->Epsilon, 0.1);
  ASSERT_EQ(Req->Center.size(), 2u);
  EXPECT_DOUBLE_EQ(Req->BudgetSeconds, 3.0);
  EXPECT_DOUBLE_EQ(Req->Delta, 1e-5);
  EXPECT_EQ(Req->Priority, 2);
}

TEST(RequestIoTest, ParsesBoxRequestAndBuildsProperty) {
  auto Req = parseRequestLine(
      R"({"network":"n.net","label":0,"lower":[0,0.25],"upper":[1,0.75]})");
  ASSERT_TRUE(Req.has_value());
  auto Prop = requestProperty(*Req);
  ASSERT_TRUE(Prop.has_value());
  EXPECT_EQ(Prop->Region.dim(), 2u);
  EXPECT_DOUBLE_EQ(Prop->Region.lower()[1], 0.25);
  EXPECT_DOUBLE_EQ(Prop->Region.upper()[1], 0.75);
  EXPECT_EQ(Prop->TargetClass, 0u);
}

TEST(RequestIoTest, BallPropertyClipsToUnitBox) {
  ServiceRequest Req;
  Req.Network = "n.net";
  Req.Label = 0;
  Req.Epsilon = 0.3;
  Req.Center = Vector{0.1, 0.9};
  auto Prop = requestProperty(Req);
  ASSERT_TRUE(Prop.has_value());
  EXPECT_DOUBLE_EQ(Prop->Region.lower()[0], 0.0);
  EXPECT_DOUBLE_EQ(Prop->Region.upper()[0], 0.4);
  EXPECT_DOUBLE_EQ(Prop->Region.lower()[1], 0.6);
  EXPECT_DOUBLE_EQ(Prop->Region.upper()[1], 1.0);
}

TEST(RequestIoTest, RequestRoundTripsThroughFormat) {
  ServiceRequest Req = sampleBallRequest();
  auto Parsed = parseRequestLine(formatRequestLine(Req));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->Network, Req.Network);
  EXPECT_EQ(Parsed->Name, Req.Name);
  EXPECT_EQ(Parsed->Label, Req.Label);
  EXPECT_EQ(Parsed->Epsilon, Req.Epsilon);
  ASSERT_EQ(Parsed->Center.size(), Req.Center.size());
  for (size_t I = 0; I < Req.Center.size(); ++I)
    EXPECT_EQ(Parsed->Center[I], Req.Center[I]);
  EXPECT_EQ(Parsed->BudgetSeconds, Req.BudgetSeconds);
  EXPECT_EQ(Parsed->Delta, Req.Delta);
  EXPECT_EQ(Parsed->Priority, Req.Priority);
}

TEST(RequestIoTest, BoxRequestRoundTrips) {
  ServiceRequest Req;
  Req.Network = "a b\\c.net"; // exercises string escaping
  Req.Label = 4;
  Req.Lower = Vector{0.0, 0.125};
  Req.Upper = Vector{1.0, 0.875};
  auto Parsed = parseRequestLine(formatRequestLine(Req));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->Network, Req.Network);
  ASSERT_EQ(Parsed->Lower.size(), 2u);
  EXPECT_EQ(Parsed->Lower[1], 0.125);
  EXPECT_EQ(Parsed->Upper[1], 0.875);
}

TEST(RequestIoTest, RejectsMalformedLines) {
  std::string Error;
  // Not an object.
  EXPECT_FALSE(parseRequestLine("[1,2]", &Error).has_value());
  // Missing network.
  EXPECT_FALSE(parseRequestLine(
                   R"({"label":1,"epsilon":0.1,"center":[0.5]})")
                   .has_value());
  // Unknown key fails loudly.
  EXPECT_FALSE(parseRequestLine(
                   R"({"network":"n","labell":1,"epsilon":0.1,"center":[0]})")
                   .has_value());
  // Both region forms at once.
  EXPECT_FALSE(
      parseRequestLine(
          R"({"network":"n","epsilon":0.1,"center":[0],"lower":[0],"upper":[1]})")
          .has_value());
  // Neither region form.
  EXPECT_FALSE(parseRequestLine(R"({"network":"n","label":1})").has_value());
  // Mismatched box bounds.
  EXPECT_FALSE(
      parseRequestLine(R"({"network":"n","lower":[0,0],"upper":[1]})")
          .has_value());
  // Trailing garbage.
  EXPECT_FALSE(
      parseRequestLine(R"({"network":"n","label":0,"lower":[0],"upper":[1]}x)")
          .has_value());
  // Duplicate key.
  EXPECT_FALSE(
      parseRequestLine(
          R"({"network":"n","network":"m","lower":[0],"upper":[1]})")
          .has_value());
  // A label or priority that is not a whole number in range: casting it to
  // the integer field would be undefined or would silently round.
  for (const char *Line :
       {R"({"network":"n","label":1e300,"lower":[0],"upper":[1]})",
        R"({"network":"n","priority":1e300,"lower":[0],"upper":[1]})",
        R"({"network":"n","label":1.5,"lower":[0],"upper":[1]})"}) {
    Error.clear();
    EXPECT_FALSE(parseRequestLine(Line, &Error).has_value()) << Line;
    EXPECT_FALSE(Error.empty()) << Line;
  }
  // A number that is not a finite decimal, in a value or in an array.
  for (const char *Line :
       {R"({"network":"n","lower":[nan],"upper":[1]})",
        R"({"network":"n","lower":[-inf],"upper":[1]})",
        R"({"network":"n","lower":[0x1],"upper":[2]})",
        R"({"network":"n","epsilon":1e999,"center":[0]})",
        R"({"network":"n","epsilon":inf,"center":[0]})"}) {
    Error.clear();
    EXPECT_FALSE(parseRequestLine(Line, &Error).has_value()) << Line;
    EXPECT_FALSE(Error.empty()) << Line;
  }
  // A delta or budget that cannot run: delta > 0 is what makes the search
  // terminate, and a job needs time. The diagnostic names the key.
  for (const char *Key : {"delta", "budget"})
    for (const char *Value : {"0", "-1", "-0"}) {
      std::string Line = R"({"network":"n","lower":[0],"upper":[1],")" +
                         std::string(Key) + "\":" + Value + "}";
      Error.clear();
      EXPECT_FALSE(parseRequestLine(Line, &Error).has_value()) << Line;
      EXPECT_NE(Error.find(std::string("\"") + Key + "\""),
                std::string::npos)
          << Line << ": " << Error;
    }
}

TEST(RequestIoTest, ResponseRoundTripsBitExactly) {
  ServiceResponse Resp;
  Resp.Name = "p7";
  Resp.Network = "networks/mnist.net";
  Resp.Result = Outcome::Falsified;
  Resp.CacheHit = true;
  Resp.Cancelled = false;
  Resp.Seconds = 0.123456789012345678;
  Resp.Counterexample = Vector{0.1 + 0.2, 1.0 / 3.0, 1e-300};

  auto Parsed = parseResponseLine(formatResponseLine(Resp));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->Name, Resp.Name);
  EXPECT_EQ(Parsed->Network, Resp.Network);
  EXPECT_EQ(Parsed->Result, Resp.Result);
  EXPECT_EQ(Parsed->CacheHit, Resp.CacheHit);
  EXPECT_EQ(Parsed->Cancelled, Resp.Cancelled);
  // %.17g guarantees exact double round-trips.
  EXPECT_EQ(Parsed->Seconds, Resp.Seconds);
  ASSERT_EQ(Parsed->Counterexample.size(), Resp.Counterexample.size());
  for (size_t I = 0; I < Resp.Counterexample.size(); ++I)
    EXPECT_EQ(Parsed->Counterexample[I], Resp.Counterexample[I]);
}

TEST(RequestIoTest, BatchSurvivesMalformedLines) {
  std::istringstream In(
      R"({"network":"a.net","label":0,"lower":[0],"upper":[1]})"
      "\n"
      "this line is garbage\n"
      "\n" // blank: skipped entirely, but still counted for numbering
      R"({"network":"b.net","label":1,"epsilon":0.1,"center":[0.5]})"
      "\n");
  std::vector<BatchLine> Lines = parseRequestBatch(In);
  ASSERT_EQ(Lines.size(), 3u);

  EXPECT_EQ(Lines[0].LineNo, 1);
  ASSERT_TRUE(Lines[0].Request.has_value());
  EXPECT_EQ(Lines[0].Request->Network, "a.net");
  EXPECT_TRUE(Lines[0].Error.empty());

  // The bad line is reported in place — with its reason and line number —
  // and parsing continues.
  EXPECT_EQ(Lines[1].LineNo, 2);
  EXPECT_FALSE(Lines[1].Request.has_value());
  EXPECT_FALSE(Lines[1].Error.empty());

  // The blank line produced no entry but the numbering still counts it.
  EXPECT_EQ(Lines[2].LineNo, 4);
  ASSERT_TRUE(Lines[2].Request.has_value());
  EXPECT_EQ(Lines[2].Request->Network, "b.net");
}

TEST(RequestIoTest, ErrorResponseRoundTrips) {
  ServiceResponse Resp;
  Resp.Error = "line 7: cannot load network \"x\\y\".net";
  auto Parsed = parseResponseLine(formatResponseLine(Resp));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->Error, Resp.Error);
}

TEST(RequestIoTest, ResponseVocabularyCoversAllOutcomes) {
  for (Outcome O :
       {Outcome::Verified, Outcome::Falsified, Outcome::Timeout}) {
    ServiceResponse Resp;
    Resp.Result = O;
    auto Parsed = parseResponseLine(formatResponseLine(Resp));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(Parsed->Result, O);
  }
  EXPECT_FALSE(parseResponseLine(
                   R"({"name":"x","network":"n","outcome":"maybe",)"
                   R"("seconds":0,"cache_hit":false,"cancelled":false,)"
                   R"("counterexample":[]})")
                   .has_value());
}
