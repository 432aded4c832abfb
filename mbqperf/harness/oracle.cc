#include "oracle.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_set>

namespace mbqperf {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Cell IntCell(int64_t v) {
  Cell c;
  c.i = v;
  return c;
}

Cell StrCell(const std::string& s) {
  Cell c;
  c.is_str = true;
  c.s = s;
  return c;
}

/// Top-n by count descending, then key ascending.
template <typename Key, typename MakeCell>
Answer TopN(const std::map<Key, int64_t>& counts, int64_t n, MakeCell make) {
  std::vector<std::pair<int64_t, Key>> order;
  order.reserve(counts.size());
  for (const auto& [key, count] : counts) order.emplace_back(-count, key);
  std::sort(order.begin(), order.end());
  Answer out;
  out.ordered = true;
  for (const auto& [neg, key] : order) {
    if (static_cast<int64_t>(out.rows.size()) >= n) break;
    out.rows.push_back({make(key), IntCell(-neg)});
  }
  return out;
}

}  // namespace

uint64_t HashIntCell(int64_t v) {
  return Mix(static_cast<uint64_t>(v) ^ 0x1D872B41ull);
}

uint64_t HashStrCell(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return Mix(h ^ 0x5f3759dfull);
}

uint64_t CombineRow(uint64_t row_hash, uint64_t cell_hash) {
  return Mix(row_hash * 31 + cell_hash);
}

uint64_t FoldRows(uint64_t acc, uint64_t row_hash, bool ordered) {
  return ordered ? Mix(acc * 1000003 + row_hash) : acc + Mix(row_hash);
}

uint64_t Fingerprint(const Answer& answer) {
  uint64_t acc = answer.rows.size();
  for (const Row& row : answer.rows) {
    uint64_t h = 17;
    for (const Cell& c : row) {
      h = CombineRow(h, c.is_str ? HashStrCell(c.s) : HashIntCell(c.i));
    }
    acc = FoldRows(acc, h, answer.ordered);
  }
  return acc;
}

Oracle::Oracle(const mbq::twitter::Dataset& d) {
  for (const auto& u : d.users) {
    if (!user_index_.emplace(u.uid, static_cast<int32_t>(uids_.size())).second) {
      throw std::runtime_error("oracle: duplicate uid " + std::to_string(u.uid));
    }
    uids_.push_back(u.uid);
    followers_count_.push_back(u.followers_count);
  }
  size_t nu = uids_.size();
  out_.resize(nu);
  in_.resize(nu);
  posts_.resize(nu);
  mentioned_in_.resize(nu);
  fresh_posts_.assign(nu, 0);
  for (const auto& [src, dst] : d.follows) {
    int32_t s = U(src), t = U(dst);
    if (s < 0 || t < 0) throw std::runtime_error("oracle: dangling follow");
    out_[s].push_back(t);
    in_[t].push_back(s);
  }
  for (const auto& t : d.tweets) {
    int32_t poster = U(t.poster_uid);
    if (poster < 0) throw std::runtime_error("oracle: dangling poster");
    int32_t ti = static_cast<int32_t>(tids_.size());
    tweet_index_.emplace(t.tid, ti);
    tids_.push_back(t.tid);
    tweet_poster_.push_back(poster);
    posts_[poster].push_back(ti);
  }
  mentions_.resize(tids_.size());
  tweet_tags_.resize(tids_.size());
  for (const auto& [tid, uid] : d.mentions) {
    int32_t ti = T(tid), ui = U(uid);
    if (ti < 0 || ui < 0) throw std::runtime_error("oracle: dangling mention");
    mentions_[ti].push_back(ui);
    mentioned_in_[ui].push_back(ti);
  }
  for (const auto& h : d.hashtags) {
    tag_index_.emplace(h.tag, static_cast<int32_t>(tag_names_.size()));
    tag_names_.push_back(h.tag);
  }
  std::unordered_map<int64_t, int32_t> hid_index;
  for (size_t i = 0; i < d.hashtags.size(); ++i) {
    hid_index.emplace(d.hashtags[i].hid, static_cast<int32_t>(i));
  }
  tagged_.resize(tag_names_.size());
  for (const auto& [tid, hid] : d.tags) {
    int32_t ti = T(tid);
    auto h = hid_index.find(hid);
    if (ti < 0 || h == hid_index.end()) {
      throw std::runtime_error("oracle: dangling tag");
    }
    tweet_tags_[ti].push_back(h->second);
    tagged_[h->second].push_back(ti);
  }
}

int32_t Oracle::U(int64_t uid) const {
  auto it = user_index_.find(uid);
  return it == user_index_.end() ? -1 : it->second;
}

int32_t Oracle::T(int64_t tid) const {
  auto it = tweet_index_.find(tid);
  return it == tweet_index_.end() ? -1 : it->second;
}

bool Oracle::Follows(int64_t a, int64_t b) const {
  int32_t s = U(a), t = U(b);
  if (s < 0 || t < 0) return false;
  return std::find(out_[s].begin(), out_[s].end(), t) != out_[s].end();
}

bool Oracle::Mentions(int64_t tid, int64_t uid) const {
  int32_t ti = T(tid), ui = U(uid);
  if (ti < 0 || ui < 0) return false;
  const auto& m = mentions_[ti];
  return std::find(m.begin(), m.end(), ui) != m.end();
}

int64_t Oracle::FolloweeAt(int64_t uid, size_t i) const {
  return uids_[out_[U(uid)][i]];
}

size_t Oracle::OutDegree(int64_t uid) const {
  int32_t u = U(uid);
  return u < 0 ? 0 : out_[u].size();
}

std::vector<int64_t> Oracle::UsersByWork(Q q) const {
  std::vector<std::pair<int64_t, int64_t>> work;  // (work, uid)
  work.reserve(uids_.size());
  for (size_t u = 0; u < uids_.size(); ++u) {
    int64_t w = 0;
    switch (q) {
      case Q::kQ2_1:
        w = static_cast<int64_t>(out_[u].size());
        break;
      case Q::kQ2_2:
      case Q::kQ2_3:
        for (int32_t f : out_[u]) {
          for (int32_t t : posts_[f]) w += 1 + (q == Q::kQ2_3 ? tweet_tags_[t].size() : 0);
        }
        break;
      case Q::kQ3_1:
        for (int32_t t : mentioned_in_[u]) w += static_cast<int64_t>(mentions_[t].size());
        break;
      case Q::kQ4_1:
      case Q::kQ6_1:
        for (int32_t f : out_[u]) w += static_cast<int64_t>(out_[f].size());
        break;
      case Q::kQ4_2:
        for (int32_t f : out_[u]) w += static_cast<int64_t>(in_[f].size());
        break;
      case Q::kQ5_1:
      case Q::kQ5_2:
        w = static_cast<int64_t>(mentioned_in_[u].size());
        break;
      default:
        w = static_cast<int64_t>(in_[u].size());
    }
    work.emplace_back(w, uids_[u]);
  }
  std::sort(work.begin(), work.end());
  std::vector<int64_t> out;
  out.reserve(work.size());
  for (const auto& [w, uid] : work) out.push_back(uid);
  return out;
}

std::vector<std::string> Oracle::TagsByWork() const {
  std::vector<std::pair<int64_t, std::string>> work;
  for (size_t h = 0; h < tag_names_.size(); ++h) {
    int64_t w = 0;
    for (int32_t t : tagged_[h]) w += static_cast<int64_t>(tweet_tags_[t].size());
    if (w > 0) work.emplace_back(w, tag_names_[h]);
  }
  std::sort(work.begin(), work.end());
  std::vector<std::string> out;
  for (auto& [w, tag] : work) out.push_back(std::move(tag));
  return out;
}

void Oracle::Apply(const Call& c) {
  switch (c.q) {
    case Q::kPost:
      ++fresh_posts_[U(c.a)];
      break;
    case Q::kFollow:
      out_[U(c.a)].push_back(U(c.b));
      in_[U(c.b)].push_back(U(c.a));
      break;
    case Q::kUnfollow: {
      int32_t s = U(c.a), t = U(c.b);
      auto drop = [](std::vector<int32_t>& v, int32_t x) {
        auto it = std::find(v.begin(), v.end(), x);
        if (it != v.end()) v.erase(it);
      };
      drop(out_[s], t);
      drop(in_[t], s);
      break;
    }
    case Q::kMention:
      mentions_[T(c.a)].push_back(U(c.b));
      mentioned_in_[U(c.b)].push_back(T(c.a));
      break;
    default:
      break;
  }
}

Answer Oracle::Read(const Call& c) const {
  Answer out;
  auto uid_cell = [this](int32_t u) { return IntCell(uids_[u]); };
  switch (c.q) {
    case Q::kQ1_1:
      for (size_t u = 0; u < uids_.size(); ++u) {
        if (followers_count_[u] > c.a) out.rows.push_back({IntCell(uids_[u])});
      }
      return out;
    case Q::kQ2_1:
    case Q::kQ2_2:
    case Q::kQ2_3: {
      int32_t a = U(c.a);
      if (a < 0) return out;
      std::unordered_set<int32_t> seen_tags;
      for (int32_t f : out_[a]) {
        if (c.q == Q::kQ2_1) {
          out.rows.push_back({uid_cell(f)});
          continue;
        }
        for (int32_t t : posts_[f]) {
          if (c.q == Q::kQ2_2) {
            out.rows.push_back({IntCell(tids_[t])});
            continue;
          }
          for (int32_t h : tweet_tags_[t]) {
            if (seen_tags.insert(h).second) {
              out.rows.push_back({StrCell(tag_names_[h])});
            }
          }
        }
        if (c.q == Q::kQ2_2) {
          for (int64_t i = 0; i < fresh_posts_[f]; ++i) {
            out.rows.push_back({IntCell(kFresh)});
          }
        }
      }
      return out;
    }
    case Q::kQ3_1: {
      int32_t a = U(c.a);
      std::map<int64_t, int64_t> counts;
      if (a >= 0) {
        for (int32_t t : mentioned_in_[a]) {
          for (int32_t b : mentions_[t]) {
            if (b != a) ++counts[uids_[b]];
          }
        }
      }
      return TopN(counts, c.n, IntCell);
    }
    case Q::kQ3_2: {
      std::map<std::string, int64_t> counts;
      auto h = tag_index_.find(c.tag);
      if (h != tag_index_.end()) {
        for (int32_t t : tagged_[h->second]) {
          for (int32_t g : tweet_tags_[t]) {
            if (tag_names_[g] != c.tag) ++counts[tag_names_[g]];
          }
        }
      }
      return TopN(counts, c.n, StrCell);
    }
    case Q::kQ4_1:
    case Q::kQ4_2: {
      int32_t a = U(c.a);
      std::map<int64_t, int64_t> counts;
      if (a >= 0) {
        std::unordered_set<int32_t> followed(out_[a].begin(), out_[a].end());
        for (int32_t f : out_[a]) {
          const auto& second = c.q == Q::kQ4_1 ? out_[f] : in_[f];
          for (int32_t x : second) {
            if (x != a && followed.count(x) == 0) ++counts[uids_[x]];
          }
        }
      }
      return TopN(counts, c.n, IntCell);
    }
    case Q::kQ5_1:
    case Q::kQ5_2: {
      int32_t a = U(c.a);
      std::map<int64_t, int64_t> counts;
      if (a >= 0) {
        std::unordered_set<int32_t> followers(in_[a].begin(), in_[a].end());
        bool want = c.q == Q::kQ5_1;
        for (int32_t t : mentioned_in_[a]) {
          int32_t u = tweet_poster_[t];
          if (u != a && (followers.count(u) != 0) == want) ++counts[uids_[u]];
        }
      }
      return TopN(counts, c.n, IntCell);
    }
    case Q::kQ6_1: {
      int32_t a = U(c.a), b = U(c.b);
      int64_t length = -1;
      if (a >= 0 && b >= 0) {
        std::vector<int32_t> dist(uids_.size(), -1);
        std::vector<int32_t> frontier = {a};
        dist[a] = 0;
        for (uint32_t hop = 1; hop <= c.hops && length < 0 && !frontier.empty();
             ++hop) {
          std::vector<int32_t> next;
          for (int32_t u : frontier) {
            for (int32_t v : out_[u]) {
              if (dist[v] >= 0) continue;
              dist[v] = static_cast<int32_t>(hop);
              if (v == b) length = hop;
              next.push_back(v);
            }
          }
          frontier.swap(next);
        }
      }
      out.rows.push_back({IntCell(length)});
      return out;
    }
    default:
      return out;
  }
}

}  // namespace mbqperf
