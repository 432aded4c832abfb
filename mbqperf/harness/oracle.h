// An independent plain-C++ implementation of the eleven Table 2 queries
// over twitter::Dataset's vectors, plus replay of the four live writes.
// It shares no code with either engine; the benchmark checks every
// timed answer against it.
//
// The rules it encodes (the engines' documented semantics):
//  - Q1.1 keeps users whose bulk followers_count is strictly greater than
//    the threshold (live follows do not update that attribute);
//  - Q3.x, Q4.x and Q5.x exclude the anchor itself;
//  - Q4.x drop candidates the anchor already follows;
//  - Q2.3 returns each hashtag once;
//  - every top-n orders by count descending, then key ascending;
//  - Q6.1 is a breadth-first search bounded by `hops` that returns -1
//    when no path exists within the bound;
//  - tweets posted live carry no tags or mentions, and get ids the
//    engine assigns in commit order, so answers list them as kFresh.
#ifndef MBQPERF_ORACLE_H_
#define MBQPERF_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "calls.h"
#include "twitter/dataset.h"

namespace mbqperf {

/// One result cell: an integer or a string.
struct Cell {
  bool is_str = false;
  int64_t i = 0;
  std::string s;
  bool operator==(const Cell& o) const {
    return is_str == o.is_str && i == o.i && s == o.s;
  }
  bool operator<(const Cell& o) const {
    if (is_str != o.is_str) return is_str < o.is_str;
    return is_str ? s < o.s : i < o.i;
  }
};
using Row = std::vector<Cell>;

/// Stands in for a tweet id assigned by a live post (see file comment).
inline constexpr int64_t kFresh = -1;

/// A canonical answer. Set-valued queries compare as multisets; top-n
/// answers compare in order; Q6.1 is a single row holding the length.
struct Answer {
  std::vector<Row> rows;
  bool ordered = false;
};

/// Order-insensitive (multiset) or order-sensitive digest of rows.
uint64_t HashIntCell(int64_t v);
uint64_t HashStrCell(const std::string& s);
uint64_t CombineRow(uint64_t row_hash, uint64_t cell_hash);
uint64_t FoldRows(uint64_t acc, uint64_t row_hash, bool ordered);
uint64_t Fingerprint(const Answer& answer);

class Oracle {
 public:
  explicit Oracle(const mbq::twitter::Dataset& dataset);

  /// The expected answer of a read call on the current state.
  Answer Read(const Call& call) const;
  /// Replays an acknowledged write.
  void Apply(const Call& call);

  /// Write-generation helpers (the benchmark only issues writes whose
  /// effect is unambiguous: no duplicate edges, no missing unfollows).
  bool Follows(int64_t a, int64_t b) const;
  bool Mentions(int64_t tid, int64_t uid) const;
  /// The i-th current followee of `uid` (i < out-degree).
  int64_t FolloweeAt(int64_t uid, size_t i) const;
  size_t OutDegree(int64_t uid) const;
  size_t num_tweets() const { return tweet_poster_.size(); }

  /// Users ordered by the work query `q` does for them as anchor (edges
  /// it must walk), lightest first, ties by uid; for Q3.2 use
  /// TagsByWork. The Table 2 anchors are drawn by quantile of this order.
  std::vector<int64_t> UsersByWork(Q q) const;
  std::vector<std::string> TagsByWork() const;
  int64_t TidAt(size_t index) const { return tids_[index]; }

 private:
  int32_t U(int64_t uid) const;  // -1 when unknown
  int32_t T(int64_t tid) const;

  std::unordered_map<int64_t, int32_t> user_index_;
  std::vector<int64_t> uids_;
  std::vector<int64_t> followers_count_;
  std::vector<std::vector<int32_t>> out_, in_;  // follows, by user index
  std::vector<int64_t> fresh_posts_;            // live posts per user

  std::unordered_map<int64_t, int32_t> tweet_index_;
  std::vector<int64_t> tids_;
  std::vector<int32_t> tweet_poster_;
  std::vector<std::vector<int32_t>> posts_;          // user -> tweets
  std::vector<std::vector<int32_t>> mentions_;       // tweet -> users
  std::vector<std::vector<int32_t>> mentioned_in_;   // user -> tweets
  std::vector<std::vector<int32_t>> tweet_tags_;     // tweet -> hashtags
  std::vector<std::vector<int32_t>> tagged_;         // hashtag -> tweets
  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, int32_t> tag_index_;
};

}  // namespace mbqperf

#endif  // MBQPERF_ORACLE_H_
