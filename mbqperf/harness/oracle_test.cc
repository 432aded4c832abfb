// Tests of the benchmark's Table 2 oracle: answers on a hand-built
// dataset worked out by hand, write replay, agreement with both engines,
// and a planted fault (a dropped follows edge) that the check must catch.
#include <cstdio>
#include <string>
#include <vector>

#include "calls.h"
#include "core/engine.h"
#include "invoke.h"
#include "oracle.h"
#include "twitter/loaders.h"

namespace mbqperf {
namespace {

using namespace mbq;  // NOLINT(build/namespaces)

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

Cell I(int64_t v) {
  Cell c;
  c.i = v;
  return c;
}

Cell S(const std::string& s) {
  Cell c;
  c.is_str = true;
  c.s = s;
  return c;
}

Call Make(Q q, int64_t a, int64_t b = 0, int64_t n = 10, uint32_t hops = 3,
          std::string tag = std::string()) {
  Call c;
  c.q = q;
  c.a = a;
  c.b = b;
  c.n = n;
  c.hops = hops;
  c.tag = std::move(tag);
  return c;
}

/// Six users, six tweets, three hashtags:
///   follows  0->1 0->2 1->2 1->3 2->3 2->4 3->0 4->1 5->2
///   posts    t0,t1 by 1; t2 by 2; t3 by 3; t4 by 4; t5 by 5
///   tags     t0:a,b  t2:b,c  t3:a  t4:a,b
///   mentions t0:3,4  t1:3  t2:3,0  t3:2  t4:3,0  t5:3,4
twitter::Dataset Tiny() {
  twitter::Dataset d;
  const int64_t followers[] = {1, 2, 3, 2, 1, 0};
  for (int64_t u = 0; u < 6; ++u) {
    d.users.push_back({u, "user" + std::to_string(u), followers[u]});
  }
  const int64_t posters[] = {1, 1, 2, 3, 4, 5};
  for (int64_t t = 0; t < 6; ++t) {
    d.tweets.push_back({t, posters[t], "tweet " + std::to_string(t)});
  }
  d.hashtags = {{0, "a"}, {1, "b"}, {2, "c"}};
  d.follows = {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3},
               {2, 4}, {3, 0}, {4, 1}, {5, 2}};
  d.tags = {{0, 0}, {0, 1}, {2, 1}, {2, 2}, {3, 0}, {4, 0}, {4, 1}};
  d.mentions = {{0, 3}, {0, 4}, {1, 3}, {2, 0}, {2, 3},
                {3, 2}, {4, 0}, {4, 3}, {5, 3}, {5, 4}};
  return d;
}

/// Multiset / ordered comparison through the same fingerprint the
/// benchmark uses.
bool Same(const Answer& got, std::vector<Row> want, bool ordered) {
  Answer w;
  w.rows = std::move(want);
  w.ordered = ordered;
  return got.ordered == ordered && Fingerprint(got) == Fingerprint(w);
}

void TestHandWorkedAnswers() {
  Oracle o(Tiny());
  // Strict >: users 0 and 4 have exactly one follower.
  Expect(Same(o.Read(Make(Q::kQ1_1, 1)), {{I(1)}, {I(2)}, {I(3)}}, false), "Q1.1 strict");
  Expect(Same(o.Read(Make(Q::kQ2_1, 0)), {{I(1)}, {I(2)}}, false), "Q2.1");
  Expect(Same(o.Read(Make(Q::kQ2_2, 0)), {{I(0)}, {I(1)}, {I(2)}}, false), "Q2.2");
  // t0 and t2 both carry b: listed once.
  Expect(Same(o.Read(Make(Q::kQ2_3, 0)), {{S("a")}, {S("b")}, {S("c")}}, false),
         "Q2.3 distinct");
  // 0 and 4 are each co-mentioned twice with 3; tie broken by uid.
  Expect(Same(o.Read(Make(Q::kQ3_1, 3)), {{I(0), I(2)}, {I(4), I(2)}}, true), "Q3.1");
  Expect(Same(o.Read(Make(Q::kQ3_2, 0, 0, 10, 3, "b")), {{S("a"), I(2)}, {S("c"), I(1)}},
              true),
         "Q3.2");
  // 1 and 2 are already followed; 0 is the anchor.
  Expect(Same(o.Read(Make(Q::kQ4_1, 0)), {{I(3), I(2)}, {I(4), I(1)}}, true), "Q4.1");
  Expect(Same(o.Read(Make(Q::kQ4_2, 0)), {{I(4), I(1)}, {I(5), I(1)}}, true), "Q4.2");
  Expect(Same(o.Read(Make(Q::kQ4_2, 0, 0, 1)), {{I(4), I(1)}}, true), "Q4.2 top-1");
  Expect(Same(o.Read(Make(Q::kQ5_1, 3)), {{I(1), I(2)}, {I(2), I(1)}}, true), "Q5.1");
  Expect(Same(o.Read(Make(Q::kQ5_2, 3)), {{I(4), I(1)}, {I(5), I(1)}}, true), "Q5.2");
  Expect(Same(o.Read(Make(Q::kQ6_1, 0, 4)), {{I(2)}}, false), "Q6.1 two hops");
  Expect(Same(o.Read(Make(Q::kQ6_1, 3, 4)), {{I(3)}}, false), "Q6.1 three hops");
  Expect(Same(o.Read(Make(Q::kQ6_1, 3, 4, 10, 2)), {{I(-1)}}, false), "Q6.1 bound");
  Expect(Same(o.Read(Make(Q::kQ6_1, 0, 5)), {{I(-1)}}, false), "Q6.1 no path");
}

void TestReplay() {
  Oracle o(Tiny());
  o.Apply(Make(Q::kFollow, 5, 3));
  o.Apply(Make(Q::kUnfollow, 0, 1));
  o.Apply(Make(Q::kPost, 2));
  o.Apply(Make(Q::kMention, 1, 4));
  Expect(Same(o.Read(Make(Q::kQ2_1, 5)), {{I(2)}, {I(3)}}, false), "follow replay");
  Expect(Same(o.Read(Make(Q::kQ2_1, 0)), {{I(2)}}, false), "unfollow replay");
  Expect(Same(o.Read(Make(Q::kQ2_2, 0)), {{I(2)}, {I(kFresh)}}, false), "post replay");
  Expect(Same(o.Read(Make(Q::kQ3_1, 3)), {{I(4), I(3)}, {I(0), I(2)}}, true),
         "mention replay");
  // Follows do not move the bulk followers_count Q1.1 filters on.
  Expect(Same(o.Read(Make(Q::kQ1_1, 1)), {{I(1)}, {I(2)}, {I(3)}}, false),
         "Q1.1 after writes");
}

std::vector<Call> EveryRead() {
  std::vector<Call> calls;
  for (int64_t u = 0; u < 6; ++u) {
    for (Q q : {Q::kQ2_1, Q::kQ2_2, Q::kQ2_3, Q::kQ3_1, Q::kQ4_1, Q::kQ4_2, Q::kQ5_1,
                Q::kQ5_2}) {
      calls.push_back(Make(q, u));
    }
    calls.push_back(Make(Q::kQ6_1, u, (u + 4) % 6));
  }
  calls.push_back(Make(Q::kQ1_1, 0));
  calls.push_back(Make(Q::kQ1_1, 1));
  for (const char* tag : {"a", "b", "c"}) {
    calls.push_back(Make(Q::kQ3_2, 0, 0, 10, 3, tag));
  }
  return calls;
}

/// Loads `data` into both engines and checks every read against
/// `oracle`; returns the mismatch messages.
std::vector<std::string> CheckEngines(const twitter::Dataset& data, const Oracle& oracle) {
  std::vector<std::string> mismatches;
  nodestore::GraphDbOptions no;
  no.wal_enabled = false;
  nodestore::GraphDb db(no);
  bitmapstore::Graph graph;
  auto nh = twitter::LoadIntoNodestore(data, &db);
  auto bh = twitter::LoadIntoBitmapstore(data, &graph);
  Expect(nh.ok() && bh.ok(), "tiny dataset loads");
  if (!nh.ok() || !bh.ok()) return mismatches;
  core::EngineOptions ns_options;
  ns_options.db = &db;
  core::EngineOptions bm_options;
  bm_options.graph = &graph;
  bm_options.handles = &*bh;
  auto ns = core::OpenEngine(core::EngineKind::kNodestore, ns_options);
  auto bm = core::OpenEngine(core::EngineKind::kBitmap, bm_options);
  Expect(ns.ok() && bm.ok(), "engines open");
  if (!ns.ok() || !bm.ok()) return mismatches;
  for (core::MicroblogEngine* engine : {ns->get(), bm->get()}) {
    for (const Call& call : EveryRead()) {
      Timed t = InvokeRead(*engine, call, "test");
      Expect(t.status.ok(), DescribeCall(call) + " runs");
      Answer want = oracle.Read(call);
      std::string diff = CheckAnswer(call, want, Fingerprint(want), t.rows, INT64_MAX);
      if (!diff.empty()) mismatches.push_back(diff);
    }
  }
  return mismatches;
}

void TestEnginesAgree() {
  twitter::Dataset data = Tiny();
  std::vector<std::string> mismatches = CheckEngines(data, Oracle(data));
  for (const auto& m : mismatches) Expect(false, "engine disagrees: " + m);
}

void TestPlantedFault() {
  twitter::Dataset truth = Tiny();
  twitter::Dataset broken = truth;
  broken.follows.erase(broken.follows.begin() + 1);  // drop 0->2
  std::vector<std::string> mismatches = CheckEngines(broken, Oracle(truth));
  Expect(!mismatches.empty(), "a dropped follows edge is caught");
  bool named = false;
  for (const auto& m : mismatches) {
    if (m.rfind("q2_1(a=0)", 0) == 0) named = true;
  }
  Expect(named, "the mismatch names the call q2_1(a=0)");
}

}  // namespace
}  // namespace mbqperf

int main() {
  mbqperf::TestHandWorkedAnswers();
  mbqperf::TestReplay();
  mbqperf::TestEnginesAgree();
  mbqperf::TestPlantedFault();
  if (mbqperf::g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", mbqperf::g_failures);
    return 1;
  }
  std::printf("mbqperf_oracle_test: all checks passed\n");
  return 0;
}
