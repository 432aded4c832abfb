#include "calls.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace mbqperf {

const char* QName(Q q) {
  static const char* kNames[] = {
      "q1_1", "q2_1", "q2_2", "q2_3", "q3_1",       "q3_2",   "q4_1",
      "q4_2", "q5_1", "q5_2", "q6_1", "post_tweet", "follow", "unfollow",
      "add_mention"};
  return kNames[static_cast<int>(q)];
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

constexpr double kZipfExponent = 0.99;

std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t Invert(const std::vector<double>& cdf, double u) {
  size_t r = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(r, cdf.size() - 1);
}

}  // namespace

Universe::Universe(const mbq::twitter::Dataset& dataset) {
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (-followers, uid)
  ranked.reserve(dataset.users.size());
  for (const auto& u : dataset.users) ranked.emplace_back(-u.followers_count, u.uid);
  std::sort(ranked.begin(), ranked.end());
  for (const auto& [neg, uid] : ranked) {
    users_by_rank_.push_back(uid);
    followers_by_rank_.push_back(-neg);
  }
  user_cdf_ = ZipfCdf(users_by_rank_.size());

  std::unordered_map<int64_t, int64_t> uses;
  for (const auto& [tid, hid] : dataset.tags) ++uses[hid];
  std::vector<std::pair<int64_t, std::string>> tags;
  for (const auto& h : dataset.hashtags) {
    auto it = uses.find(h.hid);
    if (it != uses.end()) tags.emplace_back(-it->second, h.tag);
  }
  std::sort(tags.begin(), tags.end());
  for (auto& [neg, tag] : tags) tags_by_rank_.push_back(std::move(tag));
  tag_cdf_ = ZipfCdf(tags_by_rank_.size());
}

size_t Universe::RankAt(double u, bool zipf) const {
  if (zipf) return Invert(user_cdf_, u);
  return std::min(static_cast<size_t>(u * users_by_rank_.size()),
                  users_by_rank_.size() - 1);
}

size_t Universe::TagRankAt(double u, bool zipf) const {
  if (zipf) return Invert(tag_cdf_, u);
  return std::min(static_cast<size_t>(u * tags_by_rank_.size()),
                  tags_by_rank_.size() - 1);
}

const std::vector<Template>& LdbcMix() {
  static const std::vector<Template> kMix = {
      {"followees", Q::kQ2_1, 25, false},
      {"tweets_of_followees", Q::kQ2_2, 20, false},
      {"hashtags_of_followees", Q::kQ2_3, 8, false},
      {"obj_get", Q::kQ2_1, 15, false},
      {"co_mentioned", Q::kQ3_1, 6, true},
      {"co_tags", Q::kQ3_2, 5, true},
      {"rec_followees", Q::kQ4_1, 8, false},
      {"rec_followers", Q::kQ4_2, 4, false},
      {"influence_current", Q::kQ5_1, 3, true},
      {"influence_potential", Q::kQ5_2, 2, true},
      {"shortest_path", Q::kQ6_1, 3, false, 3},
      {"select_users", Q::kQ1_1, 1, false},
  };
  return kMix;
}

const std::vector<Template>& TaoMix() {
  // TAO's published read mix over its four read shapes; assoc_get is an
  // edge-existence check, i.e. a one-hop path query.
  static const std::vector<Template> kMix = {
      {"assoc_range", Q::kQ2_1, 42, true},
      {"obj_get", Q::kQ2_1, 30, false},
      {"assoc_get", Q::kQ6_1, 16, true, 1},
      {"assoc_count", Q::kQ2_1, 12, true},
  };
  return kMix;
}

const std::vector<Template>& ChurnMix() {
  static const std::vector<Template> kMix = {
      {"followees", Q::kQ2_1, 28, false},
      {"tweets_of_followees", Q::kQ2_2, 20, false},
      {"hashtags_of_followees", Q::kQ2_3, 8, false},
      {"co_mentioned", Q::kQ3_1, 8, true},
      {"rec_followees", Q::kQ4_1, 8, false},
      {"influence_current", Q::kQ5_1, 6, true},
      {"shortest_path", Q::kQ6_1, 6, false, 3},
      {"select_users", Q::kQ1_1, 6, false},
      {"post_tweet", Q::kPost, 4, true},
      {"follow", Q::kFollow, 3, false},
      {"add_mention", Q::kMention, 2, true},
      {"unfollow", Q::kUnfollow, 1, false},
  };
  return kMix;
}

int64_t Threshold(const Universe& universe, double u) {
  size_t top = std::max<size_t>(1, universe.num_users() / 10);
  return universe.FollowersAtRank(std::min(top - 1, static_cast<size_t>(u * top)));
}

namespace {

/// Fills the read parameters of `call` from quantiles (ua, ub).
void FillRead(const Universe& universe, double ua, double ub, bool zipf,
              Call* call) {
  switch (call->q) {
    case Q::kQ1_1:
      call->a = Threshold(universe, ua);
      break;
    case Q::kQ3_2:
      call->tag = universe.TagAtRank(universe.TagRankAt(ua, zipf));
      break;
    case Q::kQ6_1: {
      call->a = universe.UserAtRank(universe.RankAt(ua, zipf));
      call->b = universe.UserAtRank(universe.RankAt(ub, zipf));
      if (call->b == call->a) {
        call->b = universe.UserAtRank(
            (universe.RankAt(ub, zipf) + 1) % universe.num_users());
      }
      break;
    }
    default:
      call->a = universe.UserAtRank(universe.RankAt(ua, zipf));
  }
}

}  // namespace

size_t PickTemplate(const std::vector<Template>& mix, SplitMix& rng,
                    bool reads_only) {
  double total = 0;
  for (const Template& t : mix) {
    if (!reads_only || !IsWrite(t.q)) total += t.weight;
  }
  double pick = rng.Uniform() * total;
  size_t last = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (reads_only && IsWrite(mix[i].q)) continue;
    last = i;
    if (pick < mix[i].weight) return i;
    pick -= mix[i].weight;
  }
  return last;
}

Call DrawRead(const std::vector<Template>& mix, size_t index,
              const Universe& universe, SplitMix& rng) {
  Call call;
  call.q = mix[index].q;
  call.tmpl = static_cast<uint16_t>(index);
  call.hops = mix[index].hops;
  double ua = rng.Uniform();
  double ub = rng.Uniform();
  FillRead(universe, ua, ub, mix[index].zipf, &call);
  return call;
}

std::vector<Call> DrawReads(const std::vector<Template>& mix,
                            const Universe& universe, uint64_t seed,
                            size_t count) {
  SplitMix rng(seed);
  std::vector<Call> calls;
  calls.reserve(count);
  while (calls.size() < count) {
    calls.push_back(DrawRead(mix, PickTemplate(mix, rng, true), universe, rng));
  }
  return calls;
}

namespace {

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
};

}  // namespace

uint64_t DigestCalls(const std::vector<Call>& calls, uint64_t seed) {
  Fnv f;
  f.Int(static_cast<int64_t>(seed));
  for (const Call& c : calls) {
    f.Int(static_cast<int64_t>(c.q));
    f.Int(c.a);
    f.Int(c.b);
    f.Int(c.n);
    f.Int(c.hops);
    f.Str(c.tag);
  }
  return f.h;
}

uint64_t DigestDataset(const mbq::twitter::Dataset& d) {
  Fnv f;
  for (const auto& u : d.users) {
    f.Int(u.uid);
    f.Str(u.screen_name);
    f.Int(u.followers_count);
  }
  for (const auto& t : d.tweets) {
    f.Int(t.tid);
    f.Int(t.poster_uid);
    f.Str(t.text);
  }
  for (const auto& h : d.hashtags) {
    f.Int(h.hid);
    f.Str(h.tag);
  }
  for (const auto* edges : {&d.follows, &d.mentions, &d.tags, &d.retweets}) {
    f.Int(static_cast<int64_t>(edges->size()));
    for (const auto& [x, y] : *edges) {
      f.Int(x);
      f.Int(y);
    }
  }
  return f.h;
}

std::string DescribeCall(const Call& c) {
  std::string s = QName(c.q);
  s += "(a=" + std::to_string(c.a);
  if (c.q == Q::kQ6_1 || c.q == Q::kFollow || c.q == Q::kUnfollow ||
      c.q == Q::kMention) {
    s += ", b=" + std::to_string(c.b);
  }
  if (c.q == Q::kQ6_1) s += ", hops=" + std::to_string(c.hops);
  if (c.q == Q::kQ3_2) s += ", tag=" + c.tag;
  return s + ")";
}

}  // namespace mbqperf
