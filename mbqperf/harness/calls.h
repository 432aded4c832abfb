// The benchmark's own call model and seeded call-list generator. The
// lists are built here from --seed and the generated dataset alone, so
// a change to the program's load drivers (src/bench) cannot change what
// the benchmark asks; a change to the dataset generator shows up as a
// changed dataset digest, printed with every run.
#ifndef MBQPERF_CALLS_H_
#define MBQPERF_CALLS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "twitter/dataset.h"

namespace mbqperf {

/// The eleven Table 2 queries followed by the four live writes.
enum class Q : uint8_t {
  kQ1_1, kQ2_1, kQ2_2, kQ2_3, kQ3_1, kQ3_2, kQ4_1, kQ4_2, kQ5_1, kQ5_2,
  kQ6_1, kPost, kFollow, kUnfollow, kMention,
};
inline constexpr int kNumQueries = 11;

/// "q1_1" .. "q6_1", "post_tweet", "follow", "unfollow", "add_mention".
const char* QName(Q q);
inline bool IsWrite(Q q) { return q >= Q::kPost; }

/// One fully parameterised call. Field use: a = anchor uid (Q1.1: the
/// threshold; add_mention: the tweet), b = second uid (Q6.1, follow,
/// unfollow, add_mention), n = top-n limit, hops = Q6.1 bound.
struct Call {
  Q q = Q::kQ2_1;
  int64_t a = 0;
  int64_t b = 0;
  int64_t n = 10;
  uint32_t hops = 3;
  std::string tag;
  uint16_t tmpl = 0;  ///< index into the workload's template table
};

/// splitmix64: the benchmark's own generator, independent of util::Rng.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Users ranked by follower count (rank 0 = most followed, ties by uid)
/// and hashtags ranked by use, with Zipf(0.99) draws over those ranks —
/// the skew the program's own suites use.
class Universe {
 public:
  explicit Universe(const mbq::twitter::Dataset& dataset);

  int64_t UserAtRank(size_t rank) const { return users_by_rank_[rank]; }
  size_t num_users() const { return users_by_rank_.size(); }
  int64_t FollowersAtRank(size_t rank) const { return followers_by_rank_[rank]; }

  /// Rank at quantile u in [0,1): uniform or Zipf-skewed.
  size_t RankAt(double u, bool zipf) const;
  size_t TagRankAt(double u, bool zipf) const;
  const std::string& TagAtRank(size_t rank) const { return tags_by_rank_[rank]; }

  int64_t User(SplitMix& rng, bool zipf) const {
    return users_by_rank_[RankAt(rng.Uniform(), zipf)];
  }

 private:
  std::vector<int64_t> users_by_rank_;
  std::vector<int64_t> followers_by_rank_;
  std::vector<double> user_cdf_;  // Zipf CDF over user ranks
  std::vector<std::string> tags_by_rank_;
  std::vector<double> tag_cdf_;
};

/// One template of a read/write mix: weight, the query it issues and how
/// its parameters are drawn.
struct Template {
  const char* name;
  Q q;
  double weight;
  bool zipf;
  uint32_t hops = 3;
};

/// The mixes, with the weights of the program's ldbc / tao / churn suites.
const std::vector<Template>& LdbcMix();
const std::vector<Template>& TaoMix();
const std::vector<Template>& ChurnMix();

/// Q1.1 threshold: the follower count at quantile u of the top decile
/// of users by followers, so results stay at most a tenth of the users.
int64_t Threshold(const Universe& universe, double u);

/// Picks a template index with probability proportional to weight,
/// over every template or over the reads only.
size_t PickTemplate(const std::vector<Template>& mix, SplitMix& rng,
                    bool reads_only);
/// Draws the parameters of read template `index`.
Call DrawRead(const std::vector<Template>& mix, size_t index,
              const Universe& universe, SplitMix& rng);
/// `count` reads drawn from the read templates of `mix`.
std::vector<Call> DrawReads(const std::vector<Template>& mix,
                            const Universe& universe, uint64_t seed,
                            size_t count);

/// Order-sensitive 64-bit digest of a call list (FNV-1a over fields).
uint64_t DigestCalls(const std::vector<Call>& calls, uint64_t seed = 0);
/// Digest of every vector of the dataset.
uint64_t DigestDataset(const mbq::twitter::Dataset& dataset);

std::string DescribeCall(const Call& call);

}  // namespace mbqperf

#endif  // MBQPERF_CALLS_H_
