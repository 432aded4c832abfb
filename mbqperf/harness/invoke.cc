#include "invoke.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>

#include "common.h"
#include "trace.h"

namespace mbqperf {

using mbq::common::Value;
using mbq::common::ValueType;
using mbq::core::ValueRows;

namespace {

template <typename R>
void Take(R&& result, Timed* out) {
  if (!result.ok()) {
    out->status = result.status();
    return;
  }
  out->rows = std::move(*result);
}

}  // namespace

Timed InvokeRead(mbq::core::MicroblogEngine& e, const Call& c,
                 const char* label) {
  std::optional<Span> span;
  if (TracingEnabled()) span.emplace(std::string(label) + "." + QName(c.q));
  Timed out;
  uint64_t t0 = NowNs();
  switch (c.q) {
    case Q::kQ1_1: {
      auto r = e.SelectUsersByFollowerCount(c.a);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ2_1: {
      auto r = e.FolloweesOf(c.a);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ2_2: {
      auto r = e.TweetsOfFollowees(c.a);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ2_3: {
      auto r = e.HashtagsUsedByFollowees(c.a);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ3_1: {
      auto r = e.TopCoMentionedUsers(c.a, c.n);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ3_2: {
      auto r = e.TopCoOccurringHashtags(c.tag, c.n);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ4_1: {
      auto r = e.RecommendFolloweesOfFollowees(c.a, c.n);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ4_2: {
      auto r = e.RecommendFollowersOfFollowees(c.a, c.n);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ5_1: {
      auto r = e.CurrentInfluence(c.a, c.n);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ5_2: {
      auto r = e.PotentialInfluence(c.a, c.n);
      out.nanos = NowNs() - t0;
      Take(std::move(r), &out);
      break;
    }
    case Q::kQ6_1: {
      auto r = e.ShortestPathLength(c.a, c.b, c.hops);
      out.nanos = NowNs() - t0;
      if (r.ok()) {
        out.rows.push_back({Value::Int(*r)});
      } else {
        out.status = r.status();
      }
      break;
    }
    default:
      out.status = mbq::Status::InvalidArgument("not a read: " + DescribeCall(c));
  }
  return out;
}

Timed InvokeWrite(mbq::core::WritableEngine& w, const Call& c) {
  std::optional<Span> span;
  if (TracingEnabled()) span.emplace(std::string("write.") + QName(c.q));
  Timed out;
  uint64_t t0 = NowNs();
  switch (c.q) {
    case Q::kPost:
      out.status = w.PostTweet(c.a);
      break;
    case Q::kFollow:
      out.status = w.Follow(c.a, c.b);
      break;
    case Q::kUnfollow:
      out.status = w.Unfollow(c.a, c.b);
      break;
    case Q::kMention:
      out.status = w.AddMention(c.a, c.b);
      break;
    default:
      out.status = mbq::Status::InvalidArgument("not a write: " + DescribeCall(c));
  }
  out.nanos = NowNs() - t0;
  return out;
}

uint64_t FingerprintRows(const ValueRows& rows, bool ordered,
                         int64_t fresh_from) {
  uint64_t acc = rows.size();
  for (const auto& row : rows) {
    uint64_t h = 17;
    for (const Value& v : row) {
      uint64_t cell;
      if (v.type() == ValueType::kInt) {
        int64_t i = v.AsInt();
        cell = HashIntCell(i >= fresh_from ? kFresh : i);
      } else if (v.type() == ValueType::kString) {
        cell = HashStrCell(v.AsString());
      } else {
        return 0;  // no oracle answer holds such a value
      }
      h = CombineRow(h, cell);
    }
    acc = FoldRows(acc, h, ordered);
  }
  return acc;
}

namespace {

/// Up to six rows of `rows` absent from `other` (as multisets).
std::string Missing(std::vector<std::string> rows, std::vector<std::string> other) {
  std::sort(rows.begin(), rows.end());
  std::sort(other.begin(), other.end());
  std::vector<std::string> diff;
  std::set_difference(rows.begin(), rows.end(), other.begin(), other.end(),
                      std::back_inserter(diff));
  std::string out = "[";
  for (size_t i = 0; i < diff.size() && i < 6; ++i) out += (i ? " " : "") + diff[i];
  return out + (diff.size() > 6 ? " ...]" : "]");
}

}  // namespace

std::string CheckAnswer(const Call& call, const Answer& want,
                        uint64_t want_fingerprint, const ValueRows& got,
                        int64_t fresh_from) {
  if (FingerprintRows(got, want.ordered, fresh_from) == want_fingerprint) {
    return std::string();
  }
  std::vector<std::string> want_rows, got_rows;
  for (const Row& row : want.rows) {
    std::string r;
    for (const Cell& c : row) r += (r.empty() ? "" : ",") + (c.is_str ? c.s : std::to_string(c.i));
    want_rows.push_back(r);
  }
  for (const auto& row : got) {
    std::string r;
    for (const Value& v : row) {
      std::string cell = v.type() == ValueType::kInt && v.AsInt() >= fresh_from
                             ? std::to_string(kFresh)
                             : v.ToString();
      r += (r.empty() ? "" : ",") + cell;
    }
    got_rows.push_back(r);
  }
  return DescribeCall(call) + ": expected " + std::to_string(want_rows.size()) +
         " rows, engine returned " + std::to_string(got_rows.size()) +
         "; missing " + Missing(want_rows, got_rows) + ", unexpected " +
         Missing(got_rows, want_rows) +
         (want.ordered ? " (top-n rows compare in order)" : "");
}

}  // namespace mbqperf
