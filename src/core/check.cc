#include "core/check.h"

#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "store/delta/delta_store.h"
#include "store/delta/wal.h"
#include "store/delta/write_batch.h"

namespace mbq::core {

namespace {

using bitmapstore::AttrId;
using bitmapstore::AttributeKind;
using bitmapstore::EdgesDirection;
using bitmapstore::Graph;
using bitmapstore::ObjectKind;
using bitmapstore::Objects;
using bitmapstore::Oid;
using bitmapstore::TypeId;
using common::Value;
using nodestore::Direction;
using nodestore::GraphDb;
using nodestore::kChainDirections;
using nodestore::kNullRecord;
using nodestore::LabelId;
using nodestore::NodeId;
using nodestore::NodeRecord;
using nodestore::PropKeyId;
using nodestore::RecordId;
using nodestore::RelId;
using nodestore::RelRecord;

/// `check.*` metrics, shared process-wide.
struct CheckMetrics {
  obs::Counter* runs;
  obs::Counter* issues;

  static CheckMetrics& Get() {
    static CheckMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      CheckMetrics m;
      m.runs = r.GetCounter("check.runs", "runs", "storage checker passes");
      m.issues = r.GetCounter("check.issues", "issues",
                              "invariant violations found by the checker");
      return m;
    }();
    return m;
  }
};

/// Issue collector honoring CheckOptions::max_issues.
class Collector {
 public:
  Collector(CheckReport* report, const CheckOptions& options)
      : report_(report), options_(options) {}

  void Add(const char* component, std::string message) {
    if (report_->issues.size() >= options_.max_issues) {
      ++report_->suppressed;
      return;
    }
    report_->issues.push_back({component, std::move(message)});
  }

  void Finish() {
    CheckMetrics::Get().runs->Inc();
    CheckMetrics::Get().issues->Inc(report_->issues.size() +
                                    report_->suppressed);
  }

 private:
  CheckReport* report_;
  const CheckOptions& options_;
};

std::string IdStr(uint64_t id) { return std::to_string(id); }

// Partitioned rel ids carry partition+1 in the top 16 bits (see
// nodestore/graph_db.cc); the checker validates bounds per store.
constexpr uint64_t kRelLocalMask = (uint64_t{1} << 48) - 1;

const char* ChainName(Direction dir) {
  return dir == Direction::kOutgoing ? "outgoing" : "incoming";
}

bool RelIdInBounds(RelId id, bool partitioned,
                   const std::vector<RecordId>& rel_high) {
  if (!partitioned) return id < rel_high[0];
  uint64_t partition = id >> 48;
  return partition > 0 && partition - 1 < rel_high.size() &&
         (id & kRelLocalMask) < rel_high[partition - 1];
}

}  // namespace

std::string CheckReport::ToText() const {
  std::string out;
  for (const CheckIssue& issue : issues) {
    out += "[" + issue.component + "] " + issue.message + "\n";
  }
  if (suppressed > 0) {
    out += "... " + std::to_string(suppressed) + " further issue(s) " +
           "suppressed\n";
  }
  out += (ok() ? "OK" : "CORRUPT") + std::string(": ") +
         std::to_string(issues.size() + suppressed) + " issue(s); checked " +
         std::to_string(nodes_checked) + " nodes, " +
         std::to_string(rels_checked) + " rels, " +
         std::to_string(labels_checked) + " labels, " +
         std::to_string(indexes_checked) + " indexes, " +
         std::to_string(objects_checked) + " objects, " +
         std::to_string(attrs_checked) + " attrs";
  if (delta_ops_checked > 0 || wal_records_checked > 0) {
    out += ", " + std::to_string(delta_ops_checked) + " delta ops, " +
           std::to_string(wal_records_checked) + " wal records";
  }
  out += "\n";
  return out;
}

Result<CheckReport> CheckNodestore(GraphDb* db, const CheckOptions& options) {
  CheckReport report;
  Collector issues(&report, options);
  const bool partitioned = db->options().semantic_partitioning;
  const NodeId node_high = db->NodeHighId();
  const std::vector<RecordId> rel_high = db->RelHighIds();
  const size_t num_labels = db->LabelNames().size();
  const size_t num_rel_types = db->RelTypeNames().size();

  // Pass 1 — node records: bounds of the label and (unpartitioned) the
  // two chain heads. Remembers liveness for the relationship passes.
  std::vector<bool> node_in_use(node_high, false);
  for (NodeId id = 0; id < node_high; ++id) {
    MBQ_ASSIGN_OR_RETURN(NodeRecord rec, db->RawNodeRecord(id));
    if (!rec.in_use) continue;
    ++report.nodes_checked;
    node_in_use[id] = true;
    if (rec.label != nodestore::kInvalidLabel && rec.label >= num_labels) {
      issues.Add("node-record", "node " + IdStr(id) + " has label id " +
                                    IdStr(rec.label) +
                                    " beyond the label registry");
    }
    if (partitioned) continue;
    for (Direction dir : kChainDirections) {
      const RecordId head = rec.head(dir);
      if (head != kNullRecord && !RelIdInBounds(head, partitioned, rel_high)) {
        issues.Add("node-record", "node " + IdStr(id) + " " +
                                      ChainName(dir) +
                                      " chain head points past the "
                                      "relationship store (rel " +
                                      IdStr(head) + ")");
      }
    }
  }

  // Pass 2 — raw relationship records: endpoint and chain-pointer
  // bounds, then doubly-linked mutual consistency of both chains.
  struct RelState {
    RelRecord rec;
    bool seen[2] = {false, false};  // reached from src's / dst's chain
    bool dup_reported = false;
  };
  std::unordered_map<RelId, RelState> live;
  MBQ_RETURN_IF_ERROR(db->ForEachRawRel([&](RelId id, const RelRecord& rec) {
    if (!rec.in_use) return true;
    ++report.rels_checked;
    live.emplace(id, RelState{rec});
    if (rec.type >= num_rel_types) {
      issues.Add("rel-record", "rel " + IdStr(id) + " has type id " +
                                   IdStr(rec.type) +
                                   " beyond the type registry");
    }
    for (auto [endpoint, name] : {std::pair{rec.src, "src"},
                                  std::pair{rec.dst, "dst"}}) {
      if (endpoint >= node_high) {
        issues.Add("rel-record", "rel " + IdStr(id) + " " + name +
                                     " node " + IdStr(endpoint) +
                                     " is out of bounds");
      } else if (!node_in_use[endpoint]) {
        issues.Add("rel-record", "rel " + IdStr(id) + " " + name +
                                     " node " + IdStr(endpoint) +
                                     " is not in use");
      }
    }
    for (auto [ptr, name] :
         {std::pair{rec.src_prev, "src_prev"},
          std::pair{rec.src_next, "src_next"},
          std::pair{rec.dst_prev, "dst_prev"},
          std::pair{rec.dst_next, "dst_next"}}) {
      if (ptr != kNullRecord && !RelIdInBounds(ptr, partitioned, rel_high)) {
        issues.Add("rel-record", "rel " + IdStr(id) + " " + name +
                                     " points past the relationship store "
                                     "(rel " +
                                     IdStr(ptr) + ")");
      }
    }
    return true;
  }));

  // Each relationship sits in its src node's outgoing chain and its dst
  // node's incoming chain. In each, a null prev means the node (its node
  // record, when unpartitioned) heads the chain here; a non-null prev or
  // next must be an in-use record that links straight back.
  for (const auto& [id, state] : live) {
    const RelRecord& rec = state.rec;
    for (Direction dir : kChainDirections) {
      const NodeId node = rec.owner(dir);
      if (node >= node_high || !node_in_use[node]) continue;
      const std::string chain =
          "node " + IdStr(node) + "'s " + ChainName(dir) + " chain";
      const RecordId prev = rec.prev(dir);
      const RecordId next = rec.next(dir);
      if (prev == kNullRecord) {
        if (!partitioned) {
          MBQ_ASSIGN_OR_RETURN(NodeRecord owner, db->RawNodeRecord(node));
          if (owner.head(dir) != id) {
            issues.Add("rel-chain",
                       "rel " + IdStr(id) + " claims to head " + chain +
                           " but the node points at " +
                           (owner.head(dir) == kNullRecord
                                ? std::string("nothing")
                                : "rel " + IdStr(owner.head(dir))));
          }
        }
      } else {
        auto it = live.find(prev);
        if (it == live.end()) {
          issues.Add("rel-chain", "rel " + IdStr(id) + " " +
                                      ChainName(dir) +
                                      " prev pointer names freed rel " +
                                      IdStr(prev));
        } else if (it->second.rec.next(dir) != id) {
          issues.Add("rel-chain", "rel " + IdStr(prev) +
                                      " does not link forward to rel " +
                                      IdStr(id) + " on " + chain);
        }
      }
      if (next != kNullRecord) {
        auto it = live.find(next);
        if (it == live.end()) {
          issues.Add("rel-chain", "rel " + IdStr(id) + " " +
                                      ChainName(dir) +
                                      " next pointer names freed rel " +
                                      IdStr(next));
        } else if (it->second.rec.prev(dir) != id) {
          issues.Add("rel-chain", "rel " + IdStr(next) +
                                      " does not link back to rel " +
                                      IdStr(id) + " on " + chain);
        }
      }
    }
  }

  // Pass 3 — chain reachability via the public walk (works in both
  // layouts): every in-use relationship must be reached exactly once
  // from its src node's outgoing chain and once from its dst node's
  // incoming chain. A cycle-guard caps each walk.
  const uint64_t walk_cap = report.rels_checked + 16;
  for (NodeId node = 0; node < node_high; ++node) {
    if (!node_in_use[node]) continue;
    for (Direction dir : kChainDirections) {
      const size_t side = dir == Direction::kOutgoing ? 0 : 1;
      const std::string chain =
          "node " + IdStr(node) + "'s " + ChainName(dir) + " chain";
      uint64_t visited = 0;
      bool truncated = false;
      Status walk = db->ForEachRelationship(
          node, dir, std::nullopt, [&](const GraphDb::RelInfo& info) {
            if (++visited > walk_cap) {
              truncated = true;
              return false;
            }
            auto it = live.find(info.id);
            if (it == live.end()) {
              issues.Add("rel-chain",
                         chain + " yields freed rel " + IdStr(info.id));
              return true;
            }
            const NodeId owner = dir == Direction::kOutgoing ? info.src
                                                             : info.dst;
            if (owner != node) {
              issues.Add("rel-chain", chain + " contains rel " +
                                          IdStr(info.id) +
                                          " which does not belong to it");
              return true;
            }
            if (it->second.seen[side] && !it->second.dup_reported) {
              it->second.dup_reported = true;
              issues.Add("rel-chain", "rel " + IdStr(info.id) +
                                          " reached twice from " + chain);
            }
            it->second.seen[side] = true;
            return true;
          });
      if (!walk.ok()) {
        issues.Add("rel-chain",
                   "walking " + chain + " failed: " + walk.ToString());
      }
      if (truncated) {
        issues.Add("rel-chain", chain +
                                    " exceeds the record count "
                                    "(pointer cycle?)");
      }
    }
  }
  for (const auto& [id, state] : live) {
    if (!state.seen[0]) {
      issues.Add("rel-chain", "rel " + IdStr(id) +
                                  " unreachable from its src node " +
                                  IdStr(state.rec.src) + "'s outgoing chain");
    }
    if (!state.seen[1]) {
      issues.Add("rel-chain", "rel " + IdStr(id) +
                                  " unreachable from its dst node " +
                                  IdStr(state.rec.dst) + "'s incoming chain");
    }
  }

  // Pass 4 — label scan store completeness vs. a full node scan.
  for (LabelId label = 0; label < num_labels; ++label) {
    ++report.labels_checked;
    std::unordered_set<NodeId> scanned;
    MBQ_RETURN_IF_ERROR(db->ForEachNodeWithLabel(label, [&](NodeId id) {
      scanned.insert(id);
      return true;
    }));
    for (NodeId scanned_id : scanned) {
      if (scanned_id >= node_high || !node_in_use[scanned_id]) {
        issues.Add("label-scan", "label scan of '" + db->LabelName(label) +
                                     "' returned dead node " +
                                     IdStr(scanned_id));
      }
    }
    for (NodeId id = 0; id < node_high; ++id) {
      if (!node_in_use[id]) continue;
      MBQ_ASSIGN_OR_RETURN(NodeRecord rec, db->RawNodeRecord(id));
      if (rec.label == label && scanned.count(id) == 0) {
        issues.Add("label-scan", "node " + IdStr(id) + " has label '" +
                                     db->LabelName(label) +
                                     "' but the label scan misses it");
      }
    }
  }

  // Pass 5 — property-index completeness: every entry matches the stored
  // property, every stored property of an indexed (label, key) pair has
  // an entry.
  for (const GraphDb::IndexInfo& index : db->IndexCatalog()) {
    ++report.indexes_checked;
    std::unordered_map<NodeId, Value> entries;
    MBQ_RETURN_IF_ERROR(db->ForEachIndexEntry(
        index.label, index.key, [&](const Value& value, NodeId id) {
          auto [it, inserted] = entries.emplace(id, value);
          if (!inserted) {
            issues.Add("prop-index", "index :" + db->LabelName(index.label) +
                                         "(" + db->PropKeyName(index.key) +
                                         ") lists node " + IdStr(id) +
                                         " under two values");
          }
          return true;
        }));
    for (const auto& [id, value] : entries) {
      if (id >= node_high || !node_in_use[id]) {
        issues.Add("prop-index", "index :" + db->LabelName(index.label) +
                                     "(" + db->PropKeyName(index.key) +
                                     ") lists dead node " + IdStr(id));
        continue;
      }
      MBQ_ASSIGN_OR_RETURN(Value stored,
                           db->GetNodeProperty(id, index.key));
      if (!(stored == value)) {
        issues.Add("prop-index",
                   "index :" + db->LabelName(index.label) + "(" +
                       db->PropKeyName(index.key) + ") maps node " +
                       IdStr(id) + " to " + value.ToString() +
                       " but the store holds " + stored.ToString());
      }
    }
    for (NodeId id = 0; id < node_high; ++id) {
      if (!node_in_use[id]) continue;
      MBQ_ASSIGN_OR_RETURN(NodeRecord rec, db->RawNodeRecord(id));
      if (rec.label != index.label) continue;
      MBQ_ASSIGN_OR_RETURN(Value stored,
                           db->GetNodeProperty(id, index.key));
      if (stored.is_null()) continue;
      auto it = entries.find(id);
      if (it == entries.end()) {
        issues.Add("prop-index", "node " + IdStr(id) + " holds :" +
                                     db->LabelName(index.label) + "(" +
                                     db->PropKeyName(index.key) + ") = " +
                                     stored.ToString() +
                                     " but the index misses it");
      }
    }
  }

  issues.Finish();
  return report;
}

Result<CheckReport> CheckBitmapstore(Graph* graph,
                                     const CheckOptions& options) {
  CheckReport report;
  Collector issues(&report, options);

  // Pass 1 — per-type bitmap cardinality vs. the cached count, and
  // object-table agreement for every member.
  for (TypeId type = 0;
       type < static_cast<TypeId>(graph->NumTypes()); ++type) {
    MBQ_ASSIGN_OR_RETURN(Objects members, graph->Select(type));
    uint64_t cardinality = members.Count();
    uint64_t counted = graph->CountObjects(type);
    if (cardinality != counted) {
      issues.Add("type-count", "type '" + graph->TypeName(type) +
                                   "' bitmap holds " + IdStr(cardinality) +
                                   " objects but the count says " +
                                   IdStr(counted));
    }
    members.ForEach([&](Oid oid) {
      ++report.objects_checked;
      TypeId actual = graph->RawObjectType(oid);
      if (actual != type) {
        issues.Add("type-count", "oid " + IdStr(oid) + " sits in type '" +
                                     graph->TypeName(type) +
                                     "' bitmap but the object table says " +
                                     (actual == bitmapstore::kInvalidType
                                          ? std::string("freed")
                                          : "'" + graph->TypeName(actual) +
                                                "'"));
      }
    });
  }

  // Pass 2 — mutual src/dst adjacency agreement: walk every node's
  // per-edge-type bitmaps and tally which edges were seen from their
  // tail (outgoing) and head (ingoing); then require both for every
  // edge. Phantom oids and wrong-endpoint entries are caught inline.
  std::vector<TypeId> node_types = graph->NodeTypes();
  std::vector<TypeId> edge_types = graph->EdgeTypes();
  std::unordered_map<Oid, std::pair<bool, bool>> edge_seen;  // out, in
  for (TypeId etype : edge_types) {
    MBQ_ASSIGN_OR_RETURN(Objects edges, graph->Select(etype));
    edges.ForEach([&](Oid edge) { edge_seen.emplace(edge, std::pair{false,
                                                                    false}); });
    for (TypeId ntype : node_types) {
      MBQ_ASSIGN_OR_RETURN(Objects nodes, graph->Select(ntype));
      for (Oid node : nodes.ToVector()) {
        for (bool outgoing : {true, false}) {
          MBQ_ASSIGN_OR_RETURN(
              Objects incident,
              graph->Explode(node, etype,
                             outgoing ? EdgesDirection::kOutgoing
                                      : EdgesDirection::kIngoing));
          incident.ForEach([&](Oid edge) {
            if (graph->RawObjectType(edge) != etype) {
              issues.Add("adjacency",
                         "node " + IdStr(node) + " adjacency of '" +
                             graph->TypeName(etype) +
                             "' holds phantom oid " + IdStr(edge));
              return;
            }
            Oid tail = bitmapstore::kInvalidOid;
            Oid head = bitmapstore::kInvalidOid;
            graph->RawEdgeEndpoints(edge, &tail, &head);
            Oid expected = outgoing ? tail : head;
            if (expected != node) {
              issues.Add("adjacency",
                         "edge " + IdStr(edge) + " sits in node " +
                             IdStr(node) + "'s " +
                             (outgoing ? "outgoing" : "ingoing") +
                             " adjacency but its " +
                             (outgoing ? "tail" : "head") + " is node " +
                             IdStr(expected));
              return;
            }
            auto it = edge_seen.find(edge);
            if (it != edge_seen.end()) {
              (outgoing ? it->second.first : it->second.second) = true;
            }
          });
        }
      }
    }
    for (const auto& [edge, seen] : edge_seen) {
      if (graph->RawObjectType(edge) != etype) continue;
      if (!seen.first) {
        issues.Add("adjacency", "edge " + IdStr(edge) +
                                    " missing from its tail's outgoing "
                                    "adjacency");
      }
      if (!seen.second) {
        issues.Add("adjacency", "edge " + IdStr(edge) +
                                    " missing from its head's ingoing "
                                    "adjacency");
      }
    }
    edge_seen.clear();
  }

  // Pass 3 — indexed attributes: the value->objects bitmaps must agree
  // with the stored value set, and unique attributes must be unique.
  for (AttrId attr = 0;
       attr < static_cast<AttrId>(graph->NumAttributes()); ++attr) {
    AttributeKind kind = graph->GetAttributeKind(attr);
    if (kind == AttributeKind::kBasic) continue;
    ++report.attrs_checked;
    std::unordered_map<std::string, uint64_t> value_counts;
    std::vector<std::pair<Oid, Value>> stored;
    graph->ForEachAttributeValue(attr, [&](Oid oid, const Value& value) {
      stored.emplace_back(oid, value);
      ++value_counts[value.ToString()];
    });
    for (const auto& [oid, value] : stored) {
      MBQ_ASSIGN_OR_RETURN(
          Objects match,
          graph->Select(attr, bitmapstore::Condition::kEqual, value));
      if (!match.Contains(oid)) {
        issues.Add("attr-index", "attribute '" + graph->AttributeName(attr) +
                                     "' index misses oid " + IdStr(oid) +
                                     " for value " + value.ToString());
      }
      uint64_t count = value_counts[value.ToString()];
      if (match.Count() != count) {
        issues.Add("attr-index",
                   "attribute '" + graph->AttributeName(attr) +
                       "' value " + value.ToString() + " indexes " +
                       IdStr(match.Count()) + " objects but " +
                       IdStr(count) + " hold it");
      }
      if (kind == AttributeKind::kUnique && count > 1) {
        issues.Add("attr-index", "unique attribute '" +
                                     graph->AttributeName(attr) +
                                     "' holds value " + value.ToString() +
                                     " " + IdStr(count) + " times");
      }
    }
  }

  issues.Finish();
  return report;
}

namespace {

// WAL record framing, kept in sync with store/delta/wal.cc — the checker
// decodes the file independently so a Wal bug cannot vouch for itself.
constexpr uint32_t kWalMagic = 0x4C57424Du;  // "MBWL" little-endian
constexpr size_t kWalHeaderBytes = 4 + 8 + 4 + 4;

uint32_t ReadLeU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t ReadLeU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Result<CheckReport> CheckWritePath(MicroblogEngine& engine,
                                   const twitter::Dataset& base,
                                   const std::string& wal_path,
                                   const CheckOptions& options) {
  WritableEngine* writer = engine.AsWritable();
  if (writer == nullptr) {
    return Status::InvalidArgument("engine " + engine.name() +
                                   " is read-only: no write path to check");
  }
  CheckReport report;
  Collector issues(&report, options);
  const store::DeltaStore& delta = writer->delta();
  const std::vector<store::DeltaRecord> journal = delta.SnapshotRecords();

  // Pass 1 — journal internal invariants. Replays the journal over the
  // base crawl's follows set to predict which pairs should be visible.
  const int64_t tid_floor = static_cast<int64_t>(base.tweets.size());
  std::set<std::pair<int64_t, int64_t>> live(base.follows.begin(),
                                             base.follows.end());
  std::map<int64_t, std::set<int64_t>> touched;  // src -> dsts journaled
  std::set<int64_t> fresh_tids;
  uint64_t unfollows = 0;
  uint64_t prev_seq = 0;
  uint64_t prev_epoch = 0;
  for (const store::DeltaRecord& rec : journal) {
    ++report.delta_ops_checked;
    if (rec.epoch == 0 || rec.epoch < prev_epoch) {
      issues.Add("delta-epoch", "journal op at seq " + IdStr(rec.seq) +
                                    " carries commit epoch " +
                                    IdStr(rec.epoch) + " after epoch " +
                                    IdStr(prev_epoch));
    }
    if (rec.seq < prev_seq) {
      issues.Add("delta-seq", "journal op order violates WAL order: seq " +
                                  IdStr(rec.seq) + " after seq " +
                                  IdStr(prev_seq));
    }
    prev_epoch = rec.epoch > prev_epoch ? rec.epoch : prev_epoch;
    prev_seq = rec.seq > prev_seq ? rec.seq : prev_seq;
    switch (rec.op.kind) {
      case store::WriteOpKind::kPostTweet:
        if (rec.op.b < tid_floor) {
          issues.Add("delta-tid",
                     "post_tweet assigned tid " + std::to_string(rec.op.b) +
                         " inside the bulk-loaded id space [0, " +
                         std::to_string(tid_floor) + ")");
        }
        if (!fresh_tids.insert(rec.op.b).second) {
          issues.Add("delta-tid", "tid " + std::to_string(rec.op.b) +
                                      " assigned to two post_tweet ops");
        }
        break;
      case store::WriteOpKind::kFollow:
        live.insert({rec.op.a, rec.op.b});
        touched[rec.op.a].insert(rec.op.b);
        break;
      case store::WriteOpKind::kUnfollow:
        // Deletes are idempotent (an unfollow of a never-followed pair
        // is a legal no-op); only the tombstone bookkeeping is checked.
        ++unfollows;
        live.erase({rec.op.a, rec.op.b});
        touched[rec.op.a].insert(rec.op.b);
        break;
      case store::WriteOpKind::kAddMention:
        break;
    }
  }
  if (delta.tombstones() != unfollows) {
    issues.Add("tombstone", "journal counts " + IdStr(delta.tombstones()) +
                                " tombstone(s) but holds " +
                                IdStr(unfollows) + " unfollow op(s)");
  }
  if (delta.last_seq() != prev_seq) {
    issues.Add("delta-seq", "journal reports last_seq " +
                                IdStr(delta.last_seq()) +
                                " but its highest record is seq " +
                                IdStr(prev_seq));
  }
  if (delta.last_epoch() != prev_epoch) {
    issues.Add("delta-epoch", "journal reports last_epoch " +
                                  IdStr(delta.last_epoch()) +
                                  " but its highest record is epoch " +
                                  IdStr(prev_epoch));
  }

  // Pass 2 — delta-over-base visibility: every journal-touched follows
  // pair must read back exactly as the replay predicts.
  for (const auto& [src, dsts] : touched) {
    MBQ_ASSIGN_OR_RETURN(ValueRows rows, engine.FolloweesOf(src));
    std::set<int64_t> followees;
    for (const ValueRow& row : rows) {
      if (!row.empty()) followees.insert(row[0].AsInt());
    }
    for (int64_t dst : dsts) {
      ++report.rels_checked;
      const bool want = live.count({src, dst}) > 0;
      const bool got = followees.count(dst) > 0;
      if (want != got) {
        issues.Add("delta-visibility",
                   "follows " + std::to_string(src) + " -> " +
                       std::to_string(dst) + " should be " +
                       (want ? "visible" : "tombstoned") + " but the engine " +
                       (got ? "returns" : "omits") + " it");
      }
    }
  }

  // Pass 3 — WAL/delta agreement: decode the log independently (never
  // truncating — a torn tail is evidence here, not something to repair)
  // and prove its ops equal the journal's logged ops in sequence order.
  if (!wal_path.empty()) {
    std::ifstream in(wal_path, std::ios::binary);
    if (!in) {
      issues.Add("wal-record", "cannot read WAL at " + wal_path);
    } else {
      std::string data((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      std::vector<store::WriteOp> wal_ops;
      size_t off = 0;
      uint64_t last_seq = 0;
      while (data.size() - off >= kWalHeaderBytes) {
        const char* p = data.data() + off;
        if (ReadLeU32(p) != kWalMagic) break;
        const uint64_t seq = ReadLeU64(p + 4);
        const uint32_t len = ReadLeU32(p + 12);
        const uint32_t crc = ReadLeU32(p + 16);
        if (data.size() - off - kWalHeaderBytes < len) break;  // torn
        std::string_view payload(p + kWalHeaderBytes, len);
        if (store::WalCrc32(payload) != crc) {
          issues.Add("wal-record", "record at offset " + IdStr(off) +
                                       " (seq " + IdStr(seq) +
                                       ") fails its CRC");
          break;
        }
        if (seq != last_seq + 1) {
          issues.Add("wal-record", "sequence jumps from " + IdStr(last_seq) +
                                       " to " + IdStr(seq) + " at offset " +
                                       IdStr(off));
          break;
        }
        Result<store::WriteBatch> batch = store::DecodeWriteBatch(payload);
        if (!batch.ok()) {
          issues.Add("wal-record", "record seq " + IdStr(seq) +
                                       " does not decode: " +
                                       batch.status().message());
          break;
        }
        for (const store::WriteOp& op : batch->ops()) wal_ops.push_back(op);
        ++report.wal_records_checked;
        last_seq = seq;
        off += kWalHeaderBytes + len;
      }
      if (off < data.size()) {
        issues.Add("wal-tail",
                   IdStr(data.size() - off) +
                       " byte(s) of torn or garbage tail at offset " +
                       IdStr(off) + " (replay-on-open would truncate them)");
      }
      size_t next = 0;
      for (const store::DeltaRecord& rec : journal) {
        if (rec.seq == 0) continue;  // committed without the WAL
        if (next >= wal_ops.size()) {
          issues.Add("wal-delta", "journal op at seq " + IdStr(rec.seq) +
                                      " has no WAL record");
          break;
        }
        if (!(rec.op == wal_ops[next])) {
          issues.Add("wal-delta",
                     "op " + IdStr(next) + " diverges: journal holds " +
                         store::WriteOpKindName(rec.op.kind) + "(" +
                         std::to_string(rec.op.a) + ", " +
                         std::to_string(rec.op.b) + "), WAL holds " +
                         store::WriteOpKindName(wal_ops[next].kind) + "(" +
                         std::to_string(wal_ops[next].a) + ", " +
                         std::to_string(wal_ops[next].b) + ")");
        }
        ++next;
      }
      if (next < wal_ops.size()) {
        issues.Add("wal-delta", IdStr(wal_ops.size() - next) +
                                    " WAL op(s) were never journaled");
      }
    }
  }

  issues.Finish();
  return report;
}

}  // namespace mbq::core
