#include "kb/io.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/mmap_file.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "kb/alias_dict.h"
#include "kb/kb_view.h"
#include "kb/sharded_kb.h"
#include "obs/metrics.h"

namespace tenet {
namespace kb {
namespace {

constexpr char kKbMagic[8] = {'T', 'E', 'N', 'E', 'T', 'K', 'B', '3'};
constexpr char kEmbMagic[] = "TENETEMB1";
constexpr char kShardManifestMagic[] = "TENETKBSHARDS1";

// ---- TENETKB3 binary layout (DESIGN.md §11) -------------------------------
// All integers are fixed-width little-endian; the endian tag rejects
// cross-endian snapshots.  Every section is length-prefixed in the header
// table and 8-byte aligned, so a mapped file is consumed by pointer
// arithmetic — no tokenizing, no float re-parsing.

constexpr uint32_t kEndianTag = 0x33424B54;  // "TKB3" when little-endian
constexpr size_t kHeaderBytes = 32;          // magic+tag+count+size+checksum
constexpr size_t kSectionEntryBytes = 32;    // id+pad+offset+bytes+items
constexpr size_t kRecordBytes = 24;          // entity/predicate/fact

enum SectionId : uint32_t {
  kSectionStrings = 1,
  kSectionEntities = 2,
  kSectionPredicates = 3,
  // Id 4 was the per-posting `aliases` section of TENETKB2; it stays
  // retired so an old table can never be read as a new one.
  kSectionFacts = 5,
  // Present only in per-shard snapshots of a sharded layout: one 32-byte
  // record {u32 num_shards, u32 shard_index, i64 global_entities,
  // i64 global_predicates, i64 global_facts}.  A flat load rejects it, so
  // one shard is never mistaken for a whole KB.
  kSectionShardInfo = 6,
  // Frozen alias dictionary (kb/alias_dict.h, DESIGN.md §15): front-coded
  // sorted surfaces + posting arena, self-checksummed.
  kSectionAliasDict = 7,
};
constexpr uint32_t kMaxSectionId = kSectionAliasDict;
// Every snapshot carries these; shard snapshots add shard_info.
constexpr SectionId kRequiredSections[] = {kSectionStrings, kSectionEntities,
                                           kSectionPredicates, kSectionFacts,
                                           kSectionAliasDict};
constexpr uint32_t kNumRequiredSections = std::size(kRequiredSections);
constexpr size_t kShardInfoBytes = 32;

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionStrings: return "string_table";
    case kSectionEntities: return "entities";
    case kSectionPredicates: return "predicates";
    case kSectionFacts: return "facts";
    case kSectionShardInfo: return "shard_info";
    case kSectionAliasDict: return "alias_dict";
    default: return "unknown";
  }
}

// Simulated crash mid-write for the corruption matrix: the injected fault
// leaves half-written debris at `<path>.tmp` — exactly what a real crash
// between the temp write and the rename leaves behind — and NEVER touches
// `path` itself.  The previous snapshot (if any) survives intact; loaders
// never look at the temp name.
Status SimulateTornWrite(const std::string& path, const void* data,
                         size_t size, const char* what) {
  std::ofstream debris(path + ".tmp", std::ios::trunc | std::ios::binary);
  if (debris) {
    debris.write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(size / 2));
  }
  return Status::DataLoss(std::string("injected fault: write of ") + path +
                          " crashed mid-" + what +
                          "; previous file left intact");
}

// Append-only little-endian buffer for the writer.
class ByteWriter {
 public:
  template <typename T>
  void Append(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
  }
  void AppendBytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  void PadTo8() { bytes_.resize((bytes_.size() + 7) & ~size_t{7}, 0); }
  size_t size() const { return bytes_.size(); }
  const unsigned char* data() const { return bytes_.data(); }

 private:
  std::vector<unsigned char> bytes_;
};

// Bounds-unchecked typed reads over a section whose length was already
// validated against its record count.
class RecordReader {
 public:
  explicit RecordReader(std::span<const std::byte> bytes)
      : p_(bytes.data()) {}
  template <typename T>
  T Read() {
    T value;
    std::memcpy(&value, p_, sizeof(T));
    p_ += sizeof(T);
    return value;
  }

 private:
  const std::byte* p_;
};

// Interns strings; the blob and end-offset array form the string table
// section.
class StringTableBuilder {
 public:
  uint32_t Intern(std::string_view s) {
    uint32_t next = static_cast<uint32_t>(ordered_.size());
    auto [it, inserted] = index_.emplace(std::string(s), next);
    if (inserted) ordered_.push_back(&it->first);
    return it->second;
  }

  void Serialize(ByteWriter* out) const {
    uint64_t end = 0;
    for (const std::string* s : ordered_) {
      end += s->size();
      out->Append<uint64_t>(end);
    }
    for (const std::string* s : ordered_) {
      out->AppendBytes(s->data(), s->size());
    }
  }

  size_t size() const { return ordered_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<const std::string*> ordered_;
};

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t byte_size = 0;
  uint64_t item_count = 0;
};

// Header + section table of a mapped snapshot, validated: magic, endian
// tag, declared-vs-actual file size, checksum, per-section bounds, every
// section id known and present at most once, every required one present.
struct SnapshotLayout {
  std::array<SectionEntry, kMaxSectionId + 1> by_id;  // id 0 unused
  std::array<bool, kMaxSectionId + 1> present{};
  std::vector<SectionEntry> all;  // file order, for `kb inspect`

  const SectionEntry& section(uint32_t id) const { return by_id[id]; }
};

bool IsShardManifest(std::span<const std::byte> bytes) {
  constexpr size_t n = sizeof(kShardManifestMagic) - 1;
  return bytes.size() >= n &&
         std::memcmp(bytes.data(), kShardManifestMagic, n) == 0;
}

// Anything but a TENETKB3 snapshot is rejected here.  Older TENET KB
// versions are named, so a stale file reads as "rebuild me", not as
// corruption: the format version is bumped on every layout change and old
// layouts are never loaded silently.
Status CheckMagic(std::span<const std::byte> bytes) {
  const std::string_view head(reinterpret_cast<const char*>(bytes.data()),
                              std::min<size_t>(bytes.size(), 16));
  if (head.starts_with(std::string_view(kKbMagic, sizeof(kKbMagic)))) {
    return Status::Ok();
  }
  if (head.starts_with("TENETKB")) {
    // Binary magics are "TENETKB<n>"; version 1 was a text format whose
    // first line spelled the version after a space.
    const std::string_view version =
        head.size() > 7 && head[7] == ' ' ? head.substr(0, head.find('\n'))
                                          : head.substr(0, 8);
    return Status::InvalidArgument(
        std::string(version) +
        " snapshots are no longer supported (this build reads TENETKB3); "
        "rebuild the KB with `tenet_cli kb build`");
  }
  return Status::InvalidArgument("not a TENETKB3 snapshot");
}

Result<SnapshotLayout> ParseSnapshotLayout(std::span<const std::byte> bytes) {
  TENET_RETURN_IF_ERROR(CheckMagic(bytes));
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument("truncated TENETKB3 header");
  }
  const std::byte* p = bytes.data();
  uint32_t endian_tag;
  uint32_t section_count;
  uint64_t file_size;
  uint64_t checksum;
  std::memcpy(&endian_tag, p + 8, sizeof(endian_tag));
  std::memcpy(&section_count, p + 12, sizeof(section_count));
  std::memcpy(&file_size, p + 16, sizeof(file_size));
  std::memcpy(&checksum, p + 24, sizeof(checksum));
  if (endian_tag != kEndianTag) {
    return Status::InvalidArgument(
        "TENETKB3 snapshot written with a different byte order");
  }
  if (file_size != bytes.size()) {
    return Status::InvalidArgument(
        "TENETKB3 size mismatch (truncated or trailing bytes): declared " +
        std::to_string(file_size) + ", actual " +
        std::to_string(bytes.size()));
  }
  if (section_count < kNumRequiredSections ||
      section_count > kNumRequiredSections + 1) {
    return Status::InvalidArgument("implausible TENETKB3 section count");
  }
  size_t table_bytes = kSectionEntryBytes * section_count;
  if (bytes.size() < kHeaderBytes + table_bytes) {
    return Status::InvalidArgument("truncated TENETKB3 section table");
  }
  const unsigned char* table =
      reinterpret_cast<const unsigned char*>(p + kHeaderBytes);
  if (Fnv1a64(table, table_bytes) != checksum) {
    return Status::InvalidArgument("TENETKB3 header checksum mismatch");
  }
  SnapshotLayout layout;
  for (uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* e = table + i * kSectionEntryBytes;
    SectionEntry entry;
    std::memcpy(&entry.id, e, sizeof(entry.id));
    std::memcpy(&entry.offset, e + 8, sizeof(entry.offset));
    std::memcpy(&entry.byte_size, e + 16, sizeof(entry.byte_size));
    std::memcpy(&entry.item_count, e + 24, sizeof(entry.item_count));
    if (std::string_view(SectionName(entry.id)) == "unknown") {
      return Status::InvalidArgument("unknown TENETKB3 section id " +
                                     std::to_string(entry.id));
    }
    if (entry.offset < kHeaderBytes + table_bytes ||
        entry.offset > bytes.size() ||
        entry.byte_size > bytes.size() - entry.offset) {
      return Status::InvalidArgument(
          std::string("TENETKB3 section out of bounds: ") +
          SectionName(entry.id));
    }
    if (layout.present[entry.id]) {
      return Status::InvalidArgument(
          std::string("duplicate TENETKB3 section: ") +
          SectionName(entry.id));
    }
    layout.present[entry.id] = true;
    layout.by_id[entry.id] = entry;
    layout.all.push_back(entry);
  }
  for (SectionId id : kRequiredSections) {
    if (!layout.present[id]) {
      return Status::InvalidArgument(
          std::string("missing TENETKB3 section: ") + SectionName(id));
    }
  }
  return layout;
}

// Resolved string table: views into the mapped blob (zero-copy).
Result<std::vector<std::string_view>> ParseStringTable(
    std::span<const std::byte> bytes, const SectionEntry& entry) {
  if (entry.item_count > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("implausible string table count");
  }
  size_t count = static_cast<size_t>(entry.item_count);
  if (entry.byte_size < count * sizeof(uint64_t)) {
    return Status::InvalidArgument("string table shorter than its offsets");
  }
  const std::byte* base = bytes.data() + entry.offset;
  const char* blob =
      reinterpret_cast<const char*>(base) + count * sizeof(uint64_t);
  size_t blob_size = entry.byte_size - count * sizeof(uint64_t);
  std::vector<std::string_view> strings;
  strings.reserve(count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t end;
    std::memcpy(&end, base + i * sizeof(uint64_t), sizeof(end));
    if (end < prev || end > blob_size) {
      return Status::InvalidArgument("corrupt string table offsets");
    }
    strings.emplace_back(blob + prev, end - prev);
    prev = end;
  }
  if (prev != blob_size) {
    return Status::InvalidArgument(
        "string table blob larger than its offsets declare");
  }
  return strings;
}

// Decoded shard_info section of a per-shard snapshot.
struct ShardInfo {
  uint32_t num_shards = 0;
  uint32_t shard_index = 0;
  int64_t global_entities = 0;
  int64_t global_predicates = 0;
  int64_t global_facts = 0;
};

Result<ShardInfo> ParseShardInfo(std::span<const std::byte> bytes,
                                 const SectionEntry& entry) {
  if (entry.byte_size != kShardInfoBytes || entry.item_count != 1) {
    return Status::InvalidArgument("malformed shard_info section");
  }
  RecordReader reader(bytes.subspan(entry.offset));
  ShardInfo info;
  info.num_shards = reader.Read<uint32_t>();
  info.shard_index = reader.Read<uint32_t>();
  info.global_entities = reader.Read<int64_t>();
  info.global_predicates = reader.Read<int64_t>();
  info.global_facts = reader.Read<int64_t>();
  if (info.num_shards < 1 || info.shard_index >= info.num_shards ||
      info.global_entities < 0 ||
      info.global_entities > std::numeric_limits<int32_t>::max() ||
      info.global_predicates < 0 ||
      info.global_predicates > std::numeric_limits<int32_t>::max() ||
      info.global_facts < 0) {
    return Status::InvalidArgument("implausible shard_info values");
  }
  return info;
}

// The alias_dict payload as the unsigned-char span FrozenAliasDict::Parse
// consumes.
std::span<const unsigned char> AliasDictPayload(
    std::span<const std::byte> bytes, const SectionEntry& entry) {
  return {reinterpret_cast<const unsigned char*>(bytes.data()) +
              entry.offset,
          static_cast<size_t>(entry.byte_size)};
}

/// How many global ids < `global` are homed on shard `s` of `n` (strided
/// layout: id % n == s).
int64_t LocalShardCount(int64_t global, uint32_t n, uint32_t s) {
  if (global <= s) return 0;
  return (global - s + n - 1) / n;
}

// Directory prefix of `path` including the trailing separator ("" when the
// path has no directory component).  Manifest entries are stored relative
// and resolved against this.
std::string DirPrefix(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Status CheckRecordSection(const SectionEntry& entry, const char* what) {
  if (entry.item_count > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(std::string("implausible count in ") +
                                   what);
  }
  if (entry.byte_size != entry.item_count * kRecordBytes) {
    return Status::InvalidArgument(
        std::string("section length disagrees with declared count: ") +
        what);
  }
  return Status::Ok();
}

// ---- manifest (text) helpers ----------------------------------------------

// Reads one line, failing with context when the stream is exhausted.
Result<std::string> ReadLine(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(std::string("unexpected end of file: ") +
                                   what);
  }
  return line;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  return fields;
}

Result<int64_t> ParseInt(const std::string& s, const char* what) {
  Result<int64_t> value = ParseInt64(s);
  if (!value.ok()) {
    return Status::InvalidArgument(std::string("bad integer in ") + what +
                                   ": " + s);
  }
  return value;
}

// ---- load metrics ---------------------------------------------------------

void RecordLoad(const char* store, const char* format, double ms,
                size_t mapped_bytes) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  registry
      ->GetHistogram("tenet_kb_load_ms",
                     "Snapshot load latency by store and format",
                     obs::LabelPair("store", store) + "," +
                         obs::LabelPair("format", format))
      ->Observe(ms);
  if (mapped_bytes > 0) {
    registry
        ->GetCounter("tenet_kb_bytes_mapped_total",
                     "Bytes served zero-copy from mmapped snapshots",
                     obs::LabelPair("store", store))
        ->Increment(static_cast<int64_t>(mapped_bytes));
  }
}

// ---- TENETKB3 writer ------------------------------------------------------

// What one TENETKB3 file holds.  Flat and shard snapshots share every
// section; a shard snapshot adds shard_info and keeps each fact's global
// id in the fact record's trailing word (zero padding in flat snapshots).
// Entity/predicate records are the shard's local subsequence; concept ids
// in postings and facts are global.
struct SnapshotContents {
  // Records in order, as up to two runs (a shard's shared base and its
  // delta-appended tail).
  std::array<std::span<const EntityRecord>, 2> entities;
  std::array<std::span<const PredicateRecord>, 2> predicates;
  const AliasIndex* aliases = nullptr;
  std::span<const Triple> facts;
  const ShardInfo* shard = nullptr;   // shard snapshots only
  std::span<const int64_t> fact_ids;  // parallel to facts, shards only
};

Status WriteSnapshot(const SnapshotContents& contents,
                     const std::string& path) {
  StringTableBuilder strings;

  ByteWriter entities;
  size_t num_entities = 0;
  for (std::span<const EntityRecord> run : contents.entities) {
    for (const EntityRecord& rec : run) {
      entities.Append<uint32_t>(strings.Intern(rec.label));
      entities.Append<int32_t>(static_cast<int32_t>(rec.type));
      entities.Append<int32_t>(rec.domain);
      entities.Append<int32_t>(0);
      entities.Append<double>(rec.popularity);
    }
    num_entities += run.size();
  }

  ByteWriter predicates;
  size_t num_predicates = 0;
  for (std::span<const PredicateRecord> run : contents.predicates) {
    for (const PredicateRecord& rec : run) {
      predicates.Append<uint32_t>(strings.Intern(rec.label));
      predicates.Append<int32_t>(rec.domain);
      predicates.Append<int32_t>(0);
      predicates.Append<int32_t>(0);
      predicates.Append<double>(rec.popularity);
    }
    num_predicates += run.size();
  }

  ByteWriter facts;
  for (size_t pos = 0; pos < contents.facts.size(); ++pos) {
    const Triple& t = contents.facts[pos];
    facts.Append<int32_t>(t.subject);
    facts.Append<int32_t>(t.predicate);
    facts.Append<int32_t>(t.object_is_entity ? 0 : 1);
    facts.Append<int32_t>(t.object_is_entity ? t.object_entity : 0);
    facts.Append<uint32_t>(
        t.object_is_entity ? 0 : strings.Intern(t.object_literal));
    facts.Append<uint32_t>(
        contents.shard != nullptr
            ? static_cast<uint32_t>(contents.fact_ids[pos])
            : 0);
  }

  ByteWriter shard_info;
  if (const ShardInfo* info = contents.shard) {
    shard_info.Append<uint32_t>(info->num_shards);
    shard_info.Append<uint32_t>(info->shard_index);
    shard_info.Append<int64_t>(info->global_entities);
    shard_info.Append<int64_t>(info->global_predicates);
    shard_info.Append<int64_t>(info->global_facts);
  }

  // Postings are persisted as the frozen alias dictionary: finalized priors
  // in their finalized order, surfaces sorted by folded bytes — so two
  // builds of the same KB emit byte-identical snapshots.  Loaders adopt it
  // as is; nothing is renormalized.
  std::shared_ptr<const FrozenAliasDict> dict =
      contents.aliases->SerializableDict();
  const std::vector<unsigned char> alias_dict = dict->Serialize();

  ByteWriter string_table;
  strings.Serialize(&string_table);

  struct Pending {
    uint32_t id;
    const unsigned char* data;
    size_t size;
    uint64_t item_count;
  };
  std::vector<Pending> sections = {
      {kSectionStrings, string_table.data(), string_table.size(),
       strings.size()},
      {kSectionEntities, entities.data(), entities.size(), num_entities},
      {kSectionPredicates, predicates.data(), predicates.size(),
       num_predicates},
      {kSectionFacts, facts.data(), facts.size(), contents.facts.size()},
  };
  if (contents.shard != nullptr) {
    sections.push_back(
        {kSectionShardInfo, shard_info.data(), shard_info.size(), 1});
  }
  sections.push_back({kSectionAliasDict, alias_dict.data(), alias_dict.size(),
                      dict->num_postings()});

  ByteWriter table;
  uint64_t offset = kHeaderBytes + sections.size() * kSectionEntryBytes;
  for (const Pending& s : sections) {
    table.Append<uint32_t>(s.id);
    table.Append<uint32_t>(0);
    table.Append<uint64_t>(offset);
    table.Append<uint64_t>(static_cast<uint64_t>(s.size));
    table.Append<uint64_t>(s.item_count);
    offset += (s.size + 7) & ~uint64_t{7};  // 8-byte aligned
  }
  const uint64_t file_size = offset;

  // The whole snapshot is assembled in memory and lands on disk through
  // AtomicWriteFile (temp + fsync + rename): a crash mid-write can never
  // tear `path` — the previous snapshot stays readable until the rename,
  // and the rename is atomic.
  ByteWriter file;
  file.AppendBytes(kKbMagic, sizeof(kKbMagic));
  file.Append<uint32_t>(kEndianTag);
  file.Append<uint32_t>(static_cast<uint32_t>(sections.size()));
  file.Append<uint64_t>(file_size);
  file.Append<uint64_t>(Fnv1a64(table.data(), table.size()));
  file.AppendBytes(table.data(), table.size());
  for (const Pending& s : sections) {
    file.AppendBytes(s.data, s.size);
    file.PadTo8();
  }
  TENET_CHECK_EQ(file.size(), file_size);

  if (TENET_FAULT_POINT("kb/io/write_truncation")) {
    return SimulateTornWrite(path, file.data(), file.size(), "snapshot");
  }
  return AtomicWriteFile(path, file.data(), file.size());
}

// ---- TENETKB3 decoder -----------------------------------------------------

// Decoder target: a shard of the layout being loaded (a flat snapshot is
// shard 0 of its 1-shard layout).  Receives records the decoder has
// already validated.
struct ShardSink {
  ShardedKb::Shard& shard;
  ShardedKb::FactArena& arena;

  void Reserve(int32_t entities, int32_t predicates, int32_t facts) {
    shard.entities.reserve(entities);
    shard.predicates.reserve(predicates);
    arena.facts.reserve(facts);
    arena.fact_ids.reserve(facts);
  }
  void AddEntity(std::string_view label, EntityType type, int32_t domain,
                 double popularity) {
    shard.entities.push_back(
        EntityRecord{std::string(label), type, domain, popularity});
  }
  void AddPredicate(std::string_view label, int32_t domain,
                    double popularity) {
    shard.predicates.push_back(
        PredicateRecord{std::string(label), domain, popularity});
  }
  void AdoptAliases(std::shared_ptr<const FrozenAliasDict> dict) {
    shard.alias_index.AdoptFrozen(std::move(dict), {});
  }
  Status AddFact(EntityId subject, PredicateId predicate, EntityId object,
                 int64_t fact_id) {
    Triple t;
    t.subject = subject;
    t.predicate = predicate;
    t.object_entity = object;
    t.object_is_entity = true;
    arena.facts.push_back(std::move(t));
    arena.fact_ids.push_back(fact_id);
    return Status::Ok();
  }
  Status AddLiteralFact(EntityId subject, PredicateId predicate,
                        std::string_view literal, int64_t fact_id) {
    Triple t;
    t.subject = subject;
    t.predicate = predicate;
    t.object_literal = std::string(literal);
    t.object_is_entity = false;
    arena.facts.push_back(std::move(t));
    arena.fact_ids.push_back(fact_id);
    return Status::Ok();
  }
};

// Validates every record of a mapped TENETKB3 snapshot and hands it to
// `sink`.  `shard` is null for a flat snapshot, whose fact ids are its
// record indices.  For a shard snapshot it is
// the validated shard_info: concept ids are then checked against its
// global counts, the local record counts against the strided layout, and
// the facts' global ids for being ascending and in range.  Any defect
// yields InvalidArgument; the sink may then hold a partial decode, which
// the callers drop.
Status DecodeSnapshot(std::span<const std::byte> bytes,
                      const SnapshotLayout& layout, const ShardInfo* shard,
                      ShardSink& sink) {
  TENET_ASSIGN_OR_RETURN(
      std::vector<std::string_view> strings,
      ParseStringTable(bytes, layout.section(kSectionStrings)));
  auto string_at = [&strings](uint32_t ref,
                              const char* what) -> Result<std::string_view> {
    if (ref >= strings.size()) {
      return Status::InvalidArgument(
          std::string("string reference out of range in ") + what);
    }
    return strings[ref];
  };

  const SectionEntry& entities = layout.section(kSectionEntities);
  const SectionEntry& predicates = layout.section(kSectionPredicates);
  const SectionEntry& facts = layout.section(kSectionFacts);
  TENET_RETURN_IF_ERROR(CheckRecordSection(entities, "entities"));
  TENET_RETURN_IF_ERROR(CheckRecordSection(predicates, "predicates"));
  TENET_RETURN_IF_ERROR(CheckRecordSection(facts, "facts"));
  // Concept ids in postings and facts are global: the whole KB's for a
  // flat snapshot, shard_info's for a shard.
  int64_t num_entities = static_cast<int64_t>(entities.item_count);
  int64_t num_predicates = static_cast<int64_t>(predicates.item_count);
  if (shard != nullptr) {
    const uint32_t n = shard->num_shards;
    const uint32_t s = shard->shard_index;
    if (num_entities != LocalShardCount(shard->global_entities, n, s)) {
      return Status::InvalidArgument(
          "shard entity count disagrees with the strided layout");
    }
    if (num_predicates != LocalShardCount(shard->global_predicates, n, s)) {
      return Status::InvalidArgument(
          "shard predicate count disagrees with the strided layout");
    }
    num_entities = shard->global_entities;
    num_predicates = shard->global_predicates;
  }
  sink.Reserve(static_cast<int32_t>(entities.item_count),
               static_cast<int32_t>(predicates.item_count),
               static_cast<int32_t>(facts.item_count));

  RecordReader entity_reader(bytes.subspan(entities.offset));
  for (uint64_t i = 0; i < entities.item_count; ++i) {
    uint32_t label_ref = entity_reader.Read<uint32_t>();
    int32_t type = entity_reader.Read<int32_t>();
    int32_t domain = entity_reader.Read<int32_t>();
    entity_reader.Read<int32_t>();  // padding
    double popularity = entity_reader.Read<double>();
    TENET_ASSIGN_OR_RETURN(std::string_view label,
                           string_at(label_ref, "entities"));
    if (type < 0 || type >= kNumEntityTypes) {
      return Status::InvalidArgument("bad entity type in snapshot");
    }
    if (!std::isfinite(popularity) || popularity <= 0.0) {
      return Status::InvalidArgument("non-positive entity popularity");
    }
    sink.AddEntity(label, static_cast<EntityType>(type), domain, popularity);
  }

  RecordReader predicate_reader(bytes.subspan(predicates.offset));
  for (uint64_t i = 0; i < predicates.item_count; ++i) {
    uint32_t label_ref = predicate_reader.Read<uint32_t>();
    int32_t domain = predicate_reader.Read<int32_t>();
    predicate_reader.Read<int32_t>();  // padding
    predicate_reader.Read<int32_t>();  // padding
    double popularity = predicate_reader.Read<double>();
    TENET_ASSIGN_OR_RETURN(std::string_view label,
                           string_at(label_ref, "predicates"));
    if (!std::isfinite(popularity) || popularity <= 0.0) {
      return Status::InvalidArgument("non-positive predicate popularity");
    }
    sink.AddPredicate(label, domain, popularity);
  }

  // Parse checks every posting's id range — and, for a shard, that the
  // concept is homed here.
  const SectionEntry& dict_entry = layout.section(kSectionAliasDict);
  FrozenAliasDict::ParseLimits limits;
  limits.num_entities = num_entities;
  limits.num_predicates = num_predicates;
  if (shard != nullptr) {
    limits.num_shards = shard->num_shards;
    limits.shard_index = shard->shard_index;
  }
  TENET_ASSIGN_OR_RETURN(
      std::shared_ptr<const FrozenAliasDict> dict,
      FrozenAliasDict::Parse(AliasDictPayload(bytes, dict_entry), limits));
  if (dict->num_postings() != dict_entry.item_count) {
    return Status::InvalidArgument(
        "alias_dict item count disagrees with its payload");
  }
  sink.AdoptAliases(std::move(dict));

  RecordReader fact_reader(bytes.subspan(facts.offset));
  int64_t prev_fact_id = -1;
  for (uint64_t i = 0; i < facts.item_count; ++i) {
    int32_t subject = fact_reader.Read<int32_t>();
    int32_t predicate = fact_reader.Read<int32_t>();
    int32_t object_kind = fact_reader.Read<int32_t>();
    int32_t object_entity = fact_reader.Read<int32_t>();
    uint32_t literal_ref = fact_reader.Read<uint32_t>();
    uint32_t trailing = fact_reader.Read<uint32_t>();  // shard: global id
    if (subject < 0 || subject >= num_entities || predicate < 0 ||
        predicate >= num_predicates) {
      return Status::InvalidArgument("fact refers outside the KB");
    }
    int64_t fact_id = static_cast<int64_t>(i);
    if (shard != nullptr) {
      fact_id = static_cast<int64_t>(trailing);
      if (fact_id >= shard->global_facts || fact_id <= prev_fact_id) {
        return Status::InvalidArgument(
            "shard fact ids must be ascending globals");
      }
      prev_fact_id = fact_id;
    }
    if (object_kind == 0) {
      if (object_entity < 0 || object_entity >= num_entities) {
        return Status::InvalidArgument("fact refers outside the KB");
      }
      TENET_RETURN_IF_ERROR(
          sink.AddFact(subject, predicate, object_entity, fact_id));
    } else if (object_kind == 1) {
      TENET_ASSIGN_OR_RETURN(std::string_view literal,
                             string_at(literal_ref, "facts"));
      TENET_RETURN_IF_ERROR(
          sink.AddLiteralFact(subject, predicate, literal, fact_id));
    } else {
      return Status::InvalidArgument("bad fact object kind");
    }
  }
  return Status::Ok();
}

// ---- sharded layout (TENETKB3 shards + TENETKBSHARDS1 manifest) -----------
//
// Each shard is a self-contained TENETKB3 snapshot (see SnapshotContents)
// plus a shard_info section naming the layout.  A text manifest ties the
// shard files together and records the global counts.

// Parsed TENETKBSHARDS1 manifest: global counts + per-shard file names
// (relative to the manifest's directory).
struct ShardManifest {
  int32_t num_shards = 0;
  int64_t entities = 0;
  int64_t predicates = 0;
  int64_t facts = 0;
  std::vector<std::pair<std::string, std::string>> files;  // kb, emb
};

Result<ShardManifest> ParseShardManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  TENET_ASSIGN_OR_RETURN(std::string magic, ReadLine(in, "magic"));
  if (magic != kShardManifestMagic) {
    return Status::InvalidArgument("not a TENETKBSHARDS1 manifest: " + path);
  }
  ShardManifest manifest;
  auto read_field = [&in](const char* tag) -> Result<int64_t> {
    TENET_ASSIGN_OR_RETURN(std::string line, ReadLine(in, tag));
    std::vector<std::string> fields = SplitTabs(line);
    if (fields.size() != 2 || fields[0] != tag) {
      return Status::InvalidArgument(std::string("bad manifest field: ") +
                                     tag);
    }
    TENET_ASSIGN_OR_RETURN(int64_t value, ParseInt(fields[1], tag));
    if (value < 0) {
      return Status::InvalidArgument(std::string("negative count in ") + tag);
    }
    return value;
  };
  TENET_ASSIGN_OR_RETURN(int64_t num_shards, read_field("shards"));
  if (num_shards < 1 || num_shards > 4096) {
    return Status::InvalidArgument("implausible manifest shard count");
  }
  manifest.num_shards = static_cast<int32_t>(num_shards);
  TENET_ASSIGN_OR_RETURN(manifest.entities, read_field("entities"));
  TENET_ASSIGN_OR_RETURN(manifest.predicates, read_field("predicates"));
  TENET_ASSIGN_OR_RETURN(manifest.facts, read_field("facts"));
  for (int32_t i = 0; i < manifest.num_shards; ++i) {
    TENET_ASSIGN_OR_RETURN(std::string line, ReadLine(in, "shard files"));
    std::vector<std::string> fields = SplitTabs(line);
    if (fields.size() != 2 || fields[0].empty() || fields[1].empty()) {
      return Status::InvalidArgument("bad manifest shard line: " + line);
    }
    manifest.files.emplace_back(fields[0], fields[1]);
  }
  std::string extra;
  if (std::getline(in, extra)) {
    return Status::InvalidArgument("trailing garbage after shard list");
  }
  return manifest;
}

// Checks that the shard_info of the snapshot behind `layout` names exactly
// slot `index` of `manifest`'s layout.
Result<ShardInfo> CheckShardInfo(std::span<const std::byte> bytes,
                                 const SnapshotLayout& layout,
                                 const ShardManifest& manifest,
                                 int32_t index) {
  if (!layout.present[kSectionShardInfo]) {
    return Status::InvalidArgument(
        "snapshot named by a shard manifest has no shard_info section");
  }
  TENET_ASSIGN_OR_RETURN(
      ShardInfo info,
      ParseShardInfo(bytes, layout.section(kSectionShardInfo)));
  if (info.num_shards != static_cast<uint32_t>(manifest.num_shards) ||
      info.shard_index != static_cast<uint32_t>(index)) {
    return Status::InvalidArgument(
        "shard_info disagrees with the manifest: file claims shard " +
        std::to_string(info.shard_index) + "/" +
        std::to_string(info.num_shards) + ", manifest expects " +
        std::to_string(index) + "/" + std::to_string(manifest.num_shards));
  }
  if (info.global_entities != manifest.entities ||
      info.global_predicates != manifest.predicates ||
      info.global_facts != manifest.facts) {
    return Status::InvalidArgument(
        "shard_info globals disagree with the manifest: " +
        manifest.files[index].first);
  }
  return info;
}

// Decodes the snapshot mapped in `file` as shard `index` of `num_shards`
// (`info` is null for a flat snapshot: shard 0 of 1) and attaches its
// TENETEMB1 matrix from `embeddings_path`.  `timer` started with the
// shard's load.
Result<ShardedKb::Shard> LoadShard(const MmapFile& file,
                                   const SnapshotLayout& layout,
                                   const ShardInfo* info, int32_t num_shards,
                                   int32_t index,
                                   const std::string& embeddings_path,
                                   const KbLoadOptions& options,
                                   const WallTimer& timer) {
  ShardedKb::Shard shard;
  ShardedKb::FactArena arena;
  ShardSink sink{shard, arena};
  TENET_RETURN_IF_ERROR(DecodeSnapshot(file.bytes(), layout, info, sink));
  ShardedKb::BuildShardIndexes(arena, shard.entities.size(),
                               shard.predicates.size(), num_shards, index);
  shard.facts = std::make_shared<const ShardedKb::FactArena>(std::move(arena));
  TENET_ASSIGN_OR_RETURN(embedding::EmbeddingStore embeddings,
                         LoadEmbeddings(embeddings_path, options));
  if (embeddings.num_entities() !=
          static_cast<int32_t>(shard.entities.size()) ||
      embeddings.num_predicates() !=
          static_cast<int32_t>(shard.predicates.size())) {
    return Status::InvalidArgument(
        "embedding counts disagree with the snapshot: " + embeddings_path);
  }
  shard.embeddings =
      std::make_shared<const embedding::EmbeddingStore>(std::move(embeddings));
  shard.mapped_bytes = file.zero_copy() ? file.size() : 0;
  shard.load_ms = timer.ElapsedMillis();
  RecordLoad(info != nullptr ? "kb_shard" : "kb",
             file.zero_copy() ? "binary_mmap" : "binary", shard.load_ms,
             shard.mapped_bytes);
  return shard;
}

// Writes one TENETKB3 snapshot of `shard` (with shard_info when `info` is
// non-null).
Status WriteShardSnapshot(const ShardedKb::Shard& shard,
                          const ShardInfo* info, const std::string& path) {
  SnapshotContents contents;
  contents.entities = shard.entities.parts();
  contents.predicates = shard.predicates.parts();
  contents.aliases = &shard.alias_index;
  contents.facts = shard.facts->facts;
  contents.shard = info;
  contents.fact_ids = shard.facts->fact_ids;
  return WriteSnapshot(contents, path);
}

}  // namespace

Status SaveKnowledgeBase(const KnowledgeBase& kb, const std::string& path) {
  if (!kb.finalized()) {
    return Status::FailedPrecondition("KB must be finalized before saving");
  }
  SnapshotContents contents;
  contents.entities = {kb.entities(), {}};
  contents.predicates = {kb.predicates(), {}};
  contents.aliases = &kb.alias_index();
  contents.facts = kb.facts();
  return WriteSnapshot(contents, path);
}

Status ShardedKb::Save(const std::string& manifest_path) const {
  const std::string dir = DirPrefix(manifest_path);
  const std::string base = BaseName(manifest_path);
  std::ostringstream manifest;
  manifest << kShardManifestMagic << "\n";
  manifest << "shards\t" << num_shards() << "\n";
  manifest << "entities\t" << num_entities_ << "\n";
  manifest << "predicates\t" << num_predicates_ << "\n";
  manifest << "facts\t" << num_facts_ << "\n";
  for (int s = 0; s < num_shards(); ++s) {
    ShardInfo info;
    info.num_shards = static_cast<uint32_t>(num_shards());
    info.shard_index = static_cast<uint32_t>(s);
    info.global_entities = num_entities_;
    info.global_predicates = num_predicates_;
    info.global_facts = num_facts_;
    const std::string kb_name = base + ".s" + std::to_string(s) + ".tenetkb";
    const std::string emb_name = base + ".s" + std::to_string(s) + ".emb";
    TENET_RETURN_IF_ERROR(WriteShardSnapshot(shard(s), &info, dir + kb_name));
    TENET_RETURN_IF_ERROR(
        SaveEmbeddings(*shard(s).embeddings, dir + emb_name));
    manifest << kb_name << "\t" << emb_name << "\n";
  }
  // The manifest lands last: a crash mid-save leaves at worst orphan shard
  // files, never a manifest naming files that do not exist yet.
  const std::string bytes = manifest.str();
  if (TENET_FAULT_POINT("kb/io/write_truncation")) {
    return SimulateTornWrite(manifest_path, bytes.data(), bytes.size(),
                             "manifest");
  }
  return AtomicWriteFile(manifest_path, bytes.data(), bytes.size());
}

Status ShardedKb::SaveFlat(const std::string& kb_path,
                           const std::string& embeddings_path) const {
  if (num_shards() != 1) {
    return Status::FailedPrecondition(
        "only a 1-shard layout persists as a flat snapshot pair");
  }
  TENET_RETURN_IF_ERROR(WriteShardSnapshot(shard(0), nullptr, kb_path));
  return SaveEmbeddings(*shard(0).embeddings, embeddings_path);
}

Result<ShardedKb> ShardedKb::Load(const std::string& path,
                                  const std::string& embeddings_path,
                                  const KbLoadOptions& options) {
  if (TENET_FAULT_POINT("kb/io/load_kb")) {
    return Status::DataLoss("injected fault: kb load failed: " + path);
  }
  WallTimer timer;
  TENET_ASSIGN_OR_RETURN(MmapFile file,
                         MmapFile::Open(path, options.prefer_mmap));
  std::vector<Shard> shards;
  if (!IsShardManifest(file.bytes())) {
    // A flat snapshot: shard 0 of its 1-shard layout.
    TENET_ASSIGN_OR_RETURN(SnapshotLayout layout,
                           ParseSnapshotLayout(file.bytes()));
    if (layout.present[kSectionShardInfo]) {
      return Status::InvalidArgument(
          "snapshot is one shard of a sharded KB; load the whole layout via "
          "its TENETKBSHARDS1 manifest");
    }
    TENET_ASSIGN_OR_RETURN(Shard shard,
                           LoadShard(file, layout, nullptr, 1, 0,
                                     embeddings_path, options, timer));
    const auto num_entities = static_cast<int32_t>(shard.entities.size());
    const auto num_predicates = static_cast<int32_t>(shard.predicates.size());
    const auto num_facts = static_cast<int64_t>(shard.facts->facts.size());
    shards.push_back(std::move(shard));
    return ShardedKb(std::move(shards), num_entities, num_predicates,
                     num_facts);
  }
  TENET_ASSIGN_OR_RETURN(ShardManifest manifest, ParseShardManifest(path));
  const std::string dir = DirPrefix(path);
  shards.reserve(manifest.files.size());
  for (int32_t s = 0; s < manifest.num_shards; ++s) {
    WallTimer shard_timer;
    TENET_ASSIGN_OR_RETURN(
        MmapFile shard_file,
        MmapFile::Open(dir + manifest.files[s].first, options.prefer_mmap));
    TENET_ASSIGN_OR_RETURN(SnapshotLayout layout,
                           ParseSnapshotLayout(shard_file.bytes()));
    TENET_ASSIGN_OR_RETURN(
        ShardInfo info,
        CheckShardInfo(shard_file.bytes(), layout, manifest, s));
    TENET_ASSIGN_OR_RETURN(
        Shard shard,
        LoadShard(shard_file, layout, &info, manifest.num_shards, s,
                  dir + manifest.files[s].second, options, shard_timer));
    if (!shards.empty() &&
        shard.embeddings->dimension() != shards[0].embeddings->dimension()) {
      return Status::InvalidArgument(
          "shard embedding dimensions disagree across shards");
    }
    shards.push_back(std::move(shard));
  }
  return ShardedKb(std::move(shards),
                   static_cast<int32_t>(manifest.entities),
                   static_cast<int32_t>(manifest.predicates),
                   manifest.facts);
}

Status SaveEmbeddings(const embedding::EmbeddingStore& store,
                      const std::string& path) {
  if (!store.finalized()) {
    return Status::FailedPrecondition(
        "embeddings must be finalized before saving");
  }
  ByteWriter out;
  out.AppendBytes(kEmbMagic, sizeof(kEmbMagic) - 1);
  int32_t header[3] = {store.dimension(), store.num_entities(),
                       store.num_predicates()};
  out.AppendBytes(header, sizeof(header));
  auto dump = [&out, &store](ConceptRef ref) {
    std::span<const float> v = store.Vector(ref);
    out.AppendBytes(v.data(), v.size() * sizeof(float));
  };
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    dump(ConceptRef::Entity(e));
  }
  for (PredicateId p = 0; p < store.num_predicates(); ++p) {
    dump(ConceptRef::Predicate(p));
  }
  if (TENET_FAULT_POINT("kb/io/write_truncation")) {
    return SimulateTornWrite(path, out.data(), out.size(), "matrix");
  }
  return AtomicWriteFile(path, out.data(), out.size());
}

Result<embedding::EmbeddingStore> LoadEmbeddings(
    const std::string& path, const KbLoadOptions& options) {
  if (TENET_FAULT_POINT("kb/io/load_embeddings")) {
    return Status::DataLoss("injected fault: embedding load failed: " + path);
  }
  WallTimer timer;
  TENET_ASSIGN_OR_RETURN(MmapFile file,
                         MmapFile::Open(path, options.prefer_mmap));
  std::span<const std::byte> bytes = file.bytes();
  constexpr size_t kMagicBytes = sizeof(kEmbMagic) - 1;
  constexpr size_t kEmbHeaderBytes = kMagicBytes + 3 * sizeof(int32_t);
  if (bytes.size() < kEmbHeaderBytes ||
      std::memcmp(bytes.data(), kEmbMagic, kMagicBytes) != 0) {
    return Status::InvalidArgument("not a TENETEMB1 file: " + path);
  }
  int32_t header[3];
  std::memcpy(header, bytes.data() + kMagicBytes, sizeof(header));
  if (header[0] <= 0 || header[1] < 0 || header[2] < 0) {
    return Status::InvalidArgument("bad embedding header");
  }
  const uint64_t count = static_cast<uint64_t>(header[0]) *
                         (static_cast<uint64_t>(header[1]) +
                          static_cast<uint64_t>(header[2]));
  const uint64_t expected = kEmbHeaderBytes + count * sizeof(float);
  if (bytes.size() != expected) {
    // Declared counts disagree with the actual payload: a truncated write
    // or trailing bytes.  Either way, nothing is populated.
    return Status::InvalidArgument(
        "truncated embedding file: declared " + std::to_string(expected) +
        " bytes, actual " + std::to_string(bytes.size()));
  }
  embedding::EmbeddingStore store(header[0], header[1], header[2]);
  // Bulk load straight from the mapped payload into the unit-normalized
  // matrix — one copy, one pass, non-finite payloads rejected as DataLoss.
  TENET_RETURN_IF_ERROR(store.LoadMatrix(
      bytes.data() + kEmbHeaderBytes, static_cast<size_t>(count)));
  RecordLoad("embeddings", file.zero_copy() ? "binary_mmap" : "binary",
             timer.ElapsedMillis(), file.zero_copy() ? file.size() : 0);
  return store;
}

Result<KbFileInfo> InspectKnowledgeBaseFile(const std::string& path) {
  TENET_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  KbFileInfo info;
  info.file_bytes = file.size();
  if (IsShardManifest(file.bytes())) {
    TENET_ASSIGN_OR_RETURN(ShardManifest manifest, ParseShardManifest(path));
    info.format = kShardManifestMagic;
    info.num_shards = manifest.num_shards;
    info.entities = manifest.entities;
    info.predicates = manifest.predicates;
    info.facts = manifest.facts;
    const std::string dir = DirPrefix(path);
    for (int32_t s = 0; s < manifest.num_shards; ++s) {
      TENET_ASSIGN_OR_RETURN(
          KbFileInfo shard_info,
          InspectKnowledgeBaseFile(dir + manifest.files[s].first));
      if (shard_info.num_shards != manifest.num_shards ||
          shard_info.shard_index != s) {
        return Status::InvalidArgument(
            "manifest names a file that is not shard " + std::to_string(s) +
            ": " + manifest.files[s].first);
      }
      info.aliases += shard_info.aliases;
      info.shards.push_back(std::move(shard_info));
    }
    return info;
  }
  TENET_ASSIGN_OR_RETURN(SnapshotLayout layout,
                         ParseSnapshotLayout(file.bytes()));
  info.format = std::string(kKbMagic, sizeof(kKbMagic));
  for (const SectionEntry& entry : layout.all) {
    info.sections.push_back(
        KbSectionInfo{SectionName(entry.id), entry.byte_size,
                      entry.item_count});
  }
  info.entities =
      static_cast<int64_t>(layout.section(kSectionEntities).item_count);
  info.predicates =
      static_cast<int64_t>(layout.section(kSectionPredicates).item_count);
  info.facts = static_cast<int64_t>(layout.section(kSectionFacts).item_count);
  TENET_ASSIGN_OR_RETURN(
      FrozenAliasDict::Stats stats,
      FrozenAliasDict::ReadStats(AliasDictPayload(
          file.bytes(), layout.section(kSectionAliasDict))));
  info.has_alias_dict = true;
  info.aliases = static_cast<int64_t>(stats.num_postings);
  info.dict_surfaces = stats.num_surfaces;
  info.dict_key_bytes = stats.key_blob_bytes;
  info.dict_raw_key_bytes = stats.raw_key_bytes;
  if (layout.present[kSectionShardInfo]) {
    TENET_ASSIGN_OR_RETURN(
        ShardInfo shard_info,
        ParseShardInfo(file.bytes(), layout.section(kSectionShardInfo)));
    info.num_shards = static_cast<int32_t>(shard_info.num_shards);
    info.shard_index = static_cast<int32_t>(shard_info.shard_index);
  }
  return info;
}

Result<EmbFileInfo> InspectEmbeddingsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  char magic[sizeof(kEmbMagic) - 1];
  in.read(magic, sizeof(magic));
  if (!in || std::string_view(magic, sizeof(magic)) != kEmbMagic) {
    return Status::InvalidArgument("not a TENETEMB1 file: " + path);
  }
  int32_t header[3];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in || header[0] <= 0 || header[1] < 0 || header[2] < 0) {
    return Status::InvalidArgument("bad embedding header");
  }
  in.seekg(0, std::ios::end);
  EmbFileInfo info;
  info.file_bytes = static_cast<uint64_t>(in.tellg());
  info.dimension = header[0];
  info.entities = header[1];
  info.predicates = header[2];
  const uint64_t expected =
      sizeof(magic) + sizeof(header) +
      static_cast<uint64_t>(header[0]) *
          (static_cast<uint64_t>(header[1]) +
           static_cast<uint64_t>(header[2])) *
          sizeof(float);
  if (info.file_bytes != expected) {
    return Status::InvalidArgument("truncated embedding file");
  }
  return info;
}

namespace {

// DeriveGazetteer's two rules, shared by the full and the layered derive.
// A surface's sense is its highest-prior entity posting, ties broken
// toward the smaller entity id.
using Sense = std::pair<double, EntityId>;
bool BetterSense(const AliasPosting& posting, const Sense& best) {
  return posting.prior > best.first ||
         (posting.prior == best.first && posting.concept_ref.id < best.second);
}
// Whether a (folded) surface is spottable in lowercase text.
bool LowercaseSurface(std::string_view surface) {
  return !surface.empty() &&
         std::islower(static_cast<unsigned char>(surface[0])) != 0;
}

}  // namespace

text::Gazetteer DeriveGazetteer(const KbView& view) {
  text::Gazetteer gazetteer;
  // Collect, per surface, the highest-prior entity posting.  Postings may
  // arrive in any order, one surface split into several runs (one per
  // shard); the tie-break makes the result independent of the visitation
  // order and the shard count.
  std::unordered_map<std::string, Sense> best;
  view.VisitAliasPostings(
      [&best](std::string_view surface, const AliasPosting& posting) {
        if (!posting.concept_ref.is_entity()) return;
        auto [it, inserted] = best.emplace(
            std::string(surface),
            Sense(posting.prior, posting.concept_ref.id));
        if (!inserted && BetterSense(posting, it->second)) {
          it->second = {posting.prior, posting.concept_ref.id};
        }
      });
  for (const auto& [surface, sense] : best) {
    gazetteer.AddSurface(surface, view.entity(sense.second).type,
                         LowercaseSurface(surface));
  }
  return gazetteer;
}

text::Gazetteer DeriveGazetteer(
    const std::shared_ptr<const text::Gazetteer>& parent, const ShardedKb& kb,
    std::span<const std::string> touched_surfaces) {
  text::Gazetteer gazetteer = text::Gazetteer::Extend(parent);
  std::vector<AliasPosting> postings;
  for (const std::string& surface : touched_surfaces) {
    // Straight from each shard's alias index: no lookup fault point and no
    // dependency observation, as in the full derive's posting visit.
    postings.clear();
    for (int s = 0; s < kb.num_shards(); ++s) {
      kb.shard(s).alias_index.GetInterleavedPostings(surface, &postings);
    }
    std::optional<Sense> best;
    for (const AliasPosting& posting : postings) {
      if (!posting.concept_ref.is_entity()) continue;
      if (!best.has_value() || BetterSense(posting, *best)) {
        best = Sense(posting.prior, posting.concept_ref.id);
      }
    }
    if (best.has_value()) {
      gazetteer.SetSurface(surface, kb.entity(best->second).type,
                           LowercaseSurface(surface));
    } else {
      gazetteer.SetSurface(surface, std::nullopt, false);
    }
  }
  return gazetteer;
}

}  // namespace kb
}  // namespace tenet
