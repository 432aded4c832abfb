#ifndef MBQ_NODESTORE_RECORDS_H_
#define MBQ_NODESTORE_RECORDS_H_

#include <cstdint>
#include <cstring>

namespace mbq::nodestore {

/// Record id within one store file. Ids are dense and recycled through a
/// free list, as in Neo4j's store files.
using RecordId = uint64_t;
inline constexpr RecordId kNullRecord = ~0ULL;

using LabelId = uint16_t;
using RelTypeId = uint16_t;
using PropKeyId = uint32_t;
inline constexpr LabelId kInvalidLabel = 0xFFFF;
inline constexpr RelTypeId kInvalidRelType = 0xFFFF;

/// Which of a node's relationship chains to walk. Every relationship sits
/// in two chains: its src node's outgoing chain and its dst node's
/// incoming chain (a self-loop therefore sits in both of one node's).
enum class Direction : uint8_t { kOutgoing, kIncoming, kBoth };
/// The two chain directions, in the order a kBoth walk visits them.
inline constexpr Direction kChainDirections[] = {Direction::kOutgoing,
                                                 Direction::kIncoming};

/// Fixed-width node record (32 bytes), after Neo4j's node store: a label,
/// the heads of the outgoing and incoming relationship chains and the
/// head of the property chain.
struct NodeRecord {
  static constexpr uint32_t kSize = 32;

  bool in_use = false;
  /// Set by the importer's dense-node pass for high-degree nodes.
  bool dense = false;
  LabelId label = kInvalidLabel;
  /// Head of the outgoing chain; under semantic partitioning, the head of
  /// the node's relationship-group list instead.
  RecordId first_rel = kNullRecord;
  /// Head of the incoming chain (unused under semantic partitioning).
  RecordId first_in_rel = kNullRecord;
  RecordId first_prop = kNullRecord;

  /// Head of the `dir` chain (kOutgoing or kIncoming; unpartitioned).
  RecordId& head(Direction dir) {
    return dir == Direction::kOutgoing ? first_rel : first_in_rel;
  }

  void EncodeTo(uint8_t* out) const {
    out[0] = in_use ? 1 : 0;
    out[1] = dense ? 1 : 0;
    std::memcpy(out + 2, &label, sizeof(label));
    std::memset(out + 4, 0, 4);
    const RecordId fields[] = {first_rel, first_in_rel, first_prop};
    std::memcpy(out + 8, fields, sizeof(fields));
  }
  static NodeRecord DecodeFrom(const uint8_t* in) {
    NodeRecord r;
    r.in_use = in[0] != 0;
    r.dense = in[1] != 0;
    std::memcpy(&r.label, in + 2, sizeof(r.label));
    RecordId fields[3];
    std::memcpy(fields, in + 8, sizeof(fields));
    r.first_rel = fields[0];
    r.first_in_rel = fields[1];
    r.first_prop = fields[2];
    return r;
  }
};

/// Fixed-width relationship record (64 bytes), after Neo4j's relationship
/// store: endpoints plus doubly-linked chain pointers, src_prev/src_next
/// in the src node's outgoing chain and dst_prev/dst_next in the dst
/// node's incoming chain, so a node's relationships in one direction are
/// walked without any index.
struct RelRecord {
  static constexpr uint32_t kSize = 64;

  bool in_use = false;
  RelTypeId type = kInvalidRelType;
  RecordId src = kNullRecord;
  RecordId dst = kNullRecord;
  RecordId src_prev = kNullRecord;
  RecordId src_next = kNullRecord;
  RecordId dst_prev = kNullRecord;
  RecordId dst_next = kNullRecord;
  RecordId first_prop = kNullRecord;

  /// The node whose `dir` chain (kOutgoing or kIncoming) holds this
  /// record, and this record's links in that chain.
  RecordId owner(Direction dir) const {
    return dir == Direction::kOutgoing ? src : dst;
  }
  RecordId& prev(Direction dir) {
    return dir == Direction::kOutgoing ? src_prev : dst_prev;
  }
  RecordId& next(Direction dir) {
    return dir == Direction::kOutgoing ? src_next : dst_next;
  }
  RecordId prev(Direction dir) const {
    return dir == Direction::kOutgoing ? src_prev : dst_prev;
  }
  RecordId next(Direction dir) const {
    return dir == Direction::kOutgoing ? src_next : dst_next;
  }

  void EncodeTo(uint8_t* out) const {
    out[0] = in_use ? 1 : 0;
    out[1] = 0;
    std::memcpy(out + 2, &type, sizeof(type));
    std::memset(out + 4, 0, 4);
    const RecordId fields[] = {src,      dst,      src_prev, src_next,
                               dst_prev, dst_next, first_prop};
    std::memcpy(out + 8, fields, sizeof(fields));
  }
  static RelRecord DecodeFrom(const uint8_t* in) {
    RelRecord r;
    r.in_use = in[0] != 0;
    std::memcpy(&r.type, in + 2, sizeof(r.type));
    RecordId fields[7];
    std::memcpy(fields, in + 8, sizeof(fields));
    r.src = fields[0];
    r.dst = fields[1];
    r.src_prev = fields[2];
    r.src_next = fields[3];
    r.dst_prev = fields[4];
    r.dst_next = fields[5];
    r.first_prop = fields[6];
    return r;
  }
};

/// Property value type tags stored in PropRecord.
enum class PropValueTag : uint8_t {
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kInlineString = 4,  // length + bytes in the payload
  kLongString = 5,    // payload holds {string store record id, length}
};

/// Fixed-width property record (40 bytes), after Neo4j's property store:
/// a key, a tagged 24-byte payload (short strings inline, long strings in
/// the dynamic string store) and a link to the next property.
struct PropRecord {
  static constexpr uint32_t kSize = 40;
  static constexpr uint32_t kPayloadSize = 24;
  static constexpr uint32_t kMaxInlineString = kPayloadSize - 1;

  bool in_use = false;
  PropValueTag tag = PropValueTag::kBool;
  PropKeyId key = 0;
  RecordId next = kNullRecord;
  uint8_t payload[kPayloadSize] = {};

  void EncodeTo(uint8_t* out) const {
    out[0] = in_use ? 1 : 0;
    out[1] = static_cast<uint8_t>(tag);
    std::memset(out + 2, 0, 2);
    std::memcpy(out + 4, &key, sizeof(key));
    std::memcpy(out + 8, &next, sizeof(next));
    std::memcpy(out + 16, payload, kPayloadSize);
  }
  static PropRecord DecodeFrom(const uint8_t* in) {
    PropRecord r;
    r.in_use = in[0] != 0;
    r.tag = static_cast<PropValueTag>(in[1]);
    std::memcpy(&r.key, in + 4, sizeof(r.key));
    std::memcpy(&r.next, in + 8, sizeof(r.next));
    std::memcpy(r.payload, in + 16, kPayloadSize);
    return r;
  }
};

/// Relationship-group record (32 bytes), after Neo4j's relationship
/// groups: under semantic partitioning a node's relationships are
/// chained per type, with one group record per (node, type) holding the
/// heads of that type's outgoing and incoming chains. The node's
/// first_rel then points at the first group instead of the first
/// relationship.
struct GroupRecord {
  static constexpr uint32_t kSize = 32;

  bool in_use = false;
  RelTypeId type = kInvalidRelType;
  RecordId first_rel = kNullRecord;     // outgoing chain head
  RecordId next_group = kNullRecord;
  RecordId first_in_rel = kNullRecord;  // incoming chain head

  RecordId& head(Direction dir) {
    return dir == Direction::kOutgoing ? first_rel : first_in_rel;
  }

  void EncodeTo(uint8_t* out) const {
    out[0] = in_use ? 1 : 0;
    out[1] = 0;
    std::memcpy(out + 2, &type, sizeof(type));
    std::memset(out + 4, 0, 4);
    const RecordId fields[] = {first_rel, next_group, first_in_rel};
    std::memcpy(out + 8, fields, sizeof(fields));
  }
  static GroupRecord DecodeFrom(const uint8_t* in) {
    GroupRecord r;
    r.in_use = in[0] != 0;
    std::memcpy(&r.type, in + 2, sizeof(r.type));
    RecordId fields[3];
    std::memcpy(fields, in + 8, sizeof(fields));
    r.first_rel = fields[0];
    r.next_group = fields[1];
    r.first_in_rel = fields[2];
    return r;
  }
};

/// Dynamic string store block (64 bytes): chained blocks holding long
/// string values, after Neo4j's dynamic string store.
struct StringRecord {
  static constexpr uint32_t kSize = 64;
  static constexpr uint32_t kPayloadSize = 48;

  bool in_use = false;
  uint8_t used_bytes = 0;
  RecordId next = kNullRecord;
  uint8_t payload[kPayloadSize] = {};

  void EncodeTo(uint8_t* out) const {
    out[0] = in_use ? 1 : 0;
    out[1] = used_bytes;
    std::memset(out + 2, 0, 6);
    std::memcpy(out + 8, &next, sizeof(next));
    std::memcpy(out + 16, payload, kPayloadSize);
  }
  static StringRecord DecodeFrom(const uint8_t* in) {
    StringRecord r;
    r.in_use = in[0] != 0;
    r.used_bytes = in[1];
    std::memcpy(&r.next, in + 8, sizeof(r.next));
    std::memcpy(r.payload, in + 16, kPayloadSize);
    return r;
  }
};

}  // namespace mbq::nodestore

#endif  // MBQ_NODESTORE_RECORDS_H_
