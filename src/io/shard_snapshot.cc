#include "io/shard_snapshot.h"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "common/logging.h"
#include "core/dataset.h"
#include "io/serialize.h"
#include "io/wal_segment.h"

namespace cce::io {
namespace {

/// The text layout that preceded `CCESNAP 2`, read only to migrate it.
constexpr char kTextSnapshotMagic[] = "CCESNAP 1";
/// Bytes of one record before its values: u64 seq + u32 label.
constexpr size_t kRecordFixedBytes = 12;
/// Widest instance a record may carry (the WAL frame's bound), so the
/// record width never overflows.
constexpr size_t kMaxFeatures = (kWalMaxPayload - kWalPayloadFixed) / 4;

void StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}

void StoreU64(char* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

Status Corrupt(const std::string& origin, const std::string& what) {
  return Status::IoError("snapshot '" + origin + "' " + what);
}

Result<LoadedShardSnapshot> DecodeTextSnapshot(const std::string& content,
                                               const std::string& origin) {
  std::istringstream in(content);
  std::string line;
  std::getline(in, line);  // magic
  if (!std::getline(in, line) || line.rfind("covers ", 0) != 0) {
    return Corrupt(origin, "has a corrupt covers line");
  }
  const std::string digits = line.substr(7);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return Corrupt(origin, "has a corrupt covers value");
  }
  LoadedShardSnapshot loaded;
  loaded.version = 1;
  loaded.covers = std::strtoull(digits.c_str(), nullptr, 10);
  if (!std::getline(in, line) || line.rfind("seqs", 0) != 0) {
    return Corrupt(origin, "has a corrupt seqs line");
  }
  std::vector<uint64_t> seqs;
  std::istringstream seq_in(line.substr(4));
  std::string token;
  while (seq_in >> token) {
    if (token.find_first_not_of("0123456789") != std::string::npos) {
      return Corrupt(origin, "has a corrupt seqs value");
    }
    const uint64_t seq = std::strtoull(token.c_str(), nullptr, 10);
    if (!seqs.empty() && seq <= seqs.back()) {
      return Corrupt(origin, "has non-increasing seqs");
    }
    seqs.push_back(seq);
  }
  CCE_ASSIGN_OR_RETURN(Dataset rows, LoadDataset(&in));
  if (seqs.size() != rows.size()) {
    return Corrupt(origin, "has " + std::to_string(seqs.size()) +
                               " seqs for " + std::to_string(rows.size()) +
                               " rows");
  }
  loaded.schema = ShardSnapshotSchema::Of(rows.schema());
  loaded.rows.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    loaded.rows.push_back(
        ShardSnapshotRow{seqs[r], rows.instance(r), rows.label(r)});
  }
  return loaded;
}

/// Parses the schema block, which must hold exactly `features` features.
Result<ShardSnapshotSchema> DecodeSchemaBlock(std::string_view block,
                                              size_t features,
                                              const std::string& origin) {
  ShardSnapshotSchema schema;
  size_t pos = 0;
  auto read_u32 = [&](uint32_t* v) {
    if (block.size() - pos < 4) return false;
    *v = GetU32(block.data() + pos);
    pos += 4;
    return true;
  };
  if (!read_u32(&schema.num_labels)) {
    return Corrupt(origin, "has a truncated schema block");
  }
  for (size_t f = 0; f < features; ++f) {
    uint32_t domain = 0;
    uint32_t name_bytes = 0;
    if (!read_u32(&domain) || !read_u32(&name_bytes) ||
        block.size() - pos < name_bytes) {
      return Corrupt(origin, "has a truncated schema block");
    }
    schema.domain_sizes.push_back(domain);
    schema.feature_names.emplace_back(block.substr(pos, name_bytes));
    pos += name_bytes;
  }
  if (pos != block.size()) {
    return Corrupt(origin, "has trailing bytes in its schema block");
  }
  return schema;
}

}  // namespace

ShardSnapshotSchema ShardSnapshotSchema::Of(const Schema& schema) {
  ShardSnapshotSchema out;
  out.num_labels = static_cast<uint32_t>(schema.num_labels());
  for (FeatureId f = 0; f < schema.num_features(); ++f) {
    out.feature_names.push_back(schema.FeatureName(f));
    out.domain_sizes.push_back(static_cast<uint32_t>(schema.DomainSize(f)));
  }
  return out;
}

ShardSnapshotEncoder::ShardSnapshotEncoder(const Schema& schema,
                                           uint64_t covers, size_t rows)
    : features_(schema.num_features()), rows_(rows) {
  std::string block;
  PutU32(&block, static_cast<uint32_t>(schema.num_labels()));
  for (FeatureId f = 0; f < features_; ++f) {
    const std::string& name = schema.FeatureName(f);
    PutU32(&block, static_cast<uint32_t>(schema.DomainSize(f)));
    PutU32(&block, static_cast<uint32_t>(name.size()));
    block += name;
  }
  const size_t record_bytes = kRecordFixedBytes + 4 * features_;
  bytes_.resize(kShardSnapshotHeaderBytes + block.size() +
                rows_ * record_bytes + 4);
  char* header = bytes_.data();
  std::memcpy(header, kShardSnapshotMagic, sizeof(kShardSnapshotMagic));
  StoreU32(header + 8, kShardSnapshotVersion);
  StoreU64(header + 12, covers);
  StoreU64(header + 20, rows_);
  StoreU32(header + 28, static_cast<uint32_t>(features_));
  StoreU32(header + 32, static_cast<uint32_t>(block.size()));
  StoreU32(header + 36, crc32c::Mask(crc32c::Value(header, 36)));
  std::memcpy(header + kShardSnapshotHeaderBytes, block.data(), block.size());
  cursor_ = kShardSnapshotHeaderBytes + block.size();
}

void ShardSnapshotEncoder::Add(uint64_t seq, const Instance& x, Label y) {
  CCE_CHECK(added_ < rows_);
  CCE_CHECK(x.size() == features_);
  char* p = bytes_.data() + cursor_;
  StoreU64(p, seq);
  StoreU32(p + 8, y);
  p += kRecordFixedBytes;
  for (const ValueId v : x) {
    StoreU32(p, v);
    p += 4;
  }
  cursor_ = static_cast<size_t>(p - bytes_.data());
  ++added_;
}

std::string ShardSnapshotEncoder::Finish() && {
  CCE_CHECK(added_ == rows_);
  const char* body = bytes_.data() + kShardSnapshotHeaderBytes;
  StoreU32(bytes_.data() + cursor_,
           crc32c::Mask(crc32c::Value(
               body, cursor_ - kShardSnapshotHeaderBytes)));
  return std::move(bytes_);
}

Result<ShardSnapshotView> ShardSnapshotView::Open(std::string_view bytes,
                                                  const std::string& origin) {
  if (bytes.size() < kShardSnapshotHeaderBytes + 4 ||
      std::memcmp(bytes.data(), kShardSnapshotMagic,
                  sizeof(kShardSnapshotMagic)) != 0) {
    return Corrupt(origin, "is not a CCESNAP 2 file");
  }
  const char* header = bytes.data();
  if (GetU32(header + 8) != kShardSnapshotVersion) {
    return Corrupt(origin, "has an unknown version");
  }
  if (crc32c::Unmask(GetU32(header + 36)) != crc32c::Value(header, 36)) {
    return Corrupt(origin, "has a header checksum mismatch");
  }
  ShardSnapshotView view;
  view.covers_ = GetU64(header + 12);
  const uint64_t rows = GetU64(header + 20);
  const uint32_t features = GetU32(header + 28);
  const uint32_t schema_bytes = GetU32(header + 32);
  if (features > kMaxFeatures) {
    return Corrupt(origin, "declares too many features");
  }
  // Sizes are checked against the byte length before anything is
  // allocated: a hostile row count cannot trigger a huge reserve.
  const size_t body_bytes = bytes.size() - kShardSnapshotHeaderBytes - 4;
  if (schema_bytes > body_bytes) {
    return Corrupt(origin, "has a schema block longer than the file");
  }
  view.record_bytes_ = kRecordFixedBytes + 4 * size_t{features};
  const size_t record_area = body_bytes - schema_bytes;
  if (rows > record_area / view.record_bytes_ ||
      rows * view.record_bytes_ != record_area) {
    return Corrupt(origin, "has " + std::to_string(record_area) +
                               " record bytes for " + std::to_string(rows) +
                               " rows");
  }
  view.rows_ = static_cast<size_t>(rows);
  view.features_ = features;
  view.body_ = bytes.substr(kShardSnapshotHeaderBytes, body_bytes);
  view.schema_block_ = view.body_.substr(0, schema_bytes);
  view.records_ = view.body_.data() + schema_bytes;
  view.body_crc_ = crc32c::Unmask(GetU32(bytes.data() + bytes.size() - 4));
  return view;
}

const char* ShardSnapshotView::Record(size_t row) const {
  return records_ + row * record_bytes_;
}

uint64_t ShardSnapshotView::seq(size_t row) const {
  return GetU64(Record(row));
}

Label ShardSnapshotView::label(size_t row) const {
  return GetU32(Record(row) + 8);
}

void ShardSnapshotView::ReadValues(size_t row, Instance* x) const {
  x->resize(features_);
  const char* p = Record(row) + kRecordFixedBytes;
  for (size_t f = 0; f < features_; ++f, p += 4) (*x)[f] = GetU32(p);
}

Result<LoadedShardSnapshot> DecodeShardSnapshot(std::string_view bytes,
                                                const std::string& origin) {
  if (bytes.substr(0, sizeof(kTextSnapshotMagic) - 1) == kTextSnapshotMagic) {
    return DecodeTextSnapshot(std::string(bytes), origin);
  }
  CCE_ASSIGN_OR_RETURN(ShardSnapshotView view,
                       ShardSnapshotView::Open(bytes, origin));
  if (crc32c::Value(view.body_.data(), view.body_.size()) != view.body_crc_) {
    return Corrupt(origin, "has a body checksum mismatch");
  }
  LoadedShardSnapshot loaded;
  loaded.version = kShardSnapshotVersion;
  loaded.covers = view.covers();
  CCE_ASSIGN_OR_RETURN(
      loaded.schema,
      DecodeSchemaBlock(view.schema_block_, view.features(), origin));
  const ShardSnapshotSchema& schema = loaded.schema;
  loaded.rows.resize(view.rows());
  for (size_t r = 0; r < view.rows(); ++r) {
    ShardSnapshotRow& row = loaded.rows[r];
    row.seq = view.seq(r);
    row.y = view.label(r);
    view.ReadValues(r, &row.x);
    if (r > 0 && row.seq <= loaded.rows[r - 1].seq) {
      return Corrupt(origin, "has non-increasing seqs");
    }
    if (row.y >= schema.num_labels) {
      return Corrupt(origin, "has a label outside its schema");
    }
    for (size_t f = 0; f < row.x.size(); ++f) {
      if (row.x[f] >= schema.domain_sizes[f]) {
        return Corrupt(origin, "has a value outside its schema");
      }
    }
  }
  return loaded;
}

Result<LoadedShardSnapshot> LoadShardSnapshot(Env* env,
                                              const std::string& path) {
  std::string content;
  CCE_RETURN_IF_ERROR(env->ReadFileToString(path, &content));
  return DecodeShardSnapshot(content, path);
}

Status CheckShardSchemaCompatible(const Schema& live,
                                  const ShardSnapshotSchema& stored) {
  const size_t features = stored.feature_names.size();
  if (live.num_features() != features) {
    return Status::InvalidArgument(
        "recovered snapshot has " + std::to_string(features) +
        " features, schema expects " + std::to_string(live.num_features()));
  }
  for (FeatureId f = 0; f < features; ++f) {
    if (live.FeatureName(f) != stored.feature_names[f]) {
      return Status::InvalidArgument("recovered snapshot feature " +
                                     std::to_string(f) + " is '" +
                                     stored.feature_names[f] +
                                     "', expected '" + live.FeatureName(f) +
                                     "'");
    }
    if (live.DomainSize(f) < stored.domain_sizes[f]) {
      return Status::InvalidArgument(
          "recovered snapshot domain of '" + live.FeatureName(f) +
          "' is larger than the live schema's");
    }
  }
  if (live.num_labels() < stored.num_labels) {
    return Status::InvalidArgument(
        "recovered snapshot has more labels than the live schema");
  }
  return Status::Ok();
}

}  // namespace cce::io
