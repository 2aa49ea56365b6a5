// Fuzz-style robustness for the CCESNAP 2 shard snapshot decoder (the same
// spirit as serialize_fuzz_test): every truncation prefix and every
// single-bit flip of a valid file must come back as a clean Status or as a
// snapshot whose rows are valid under its own schema — never a crash, an
// allocation storm or a sanitizer report. Runs under ASan/UBSan via
// SUITE=crash in scripts/check.sh.

#include "io/shard_snapshot.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/dataset.h"
#include "io/wal_segment.h"
#include "tests/test_util.h"

namespace cce::io {
namespace {

/// A small valid file: 24 rows of a 4-feature, 3-value, 2-label context
/// under sparse ascending sequence numbers.
std::string ValidSnapshotBytes() {
  const Dataset data = cce::testing::RandomContext(24, 4, 3, 17, 0.0);
  ShardSnapshotEncoder encoder(data.schema(), /*covers=*/100, data.size());
  for (size_t row = 0; row < data.size(); ++row) {
    encoder.Add(3 * row + 1, data.instance(row), data.label(row));
  }
  return std::move(encoder).Finish();
}

/// A decoded snapshot must be internally consistent whatever bytes
/// produced it: ascending seqs, one value per feature, every value and
/// label inside the stored schema.
void CheckSnapshotInvariants(const LoadedShardSnapshot& snapshot) {
  const ShardSnapshotSchema& schema = snapshot.schema;
  ASSERT_EQ(schema.feature_names.size(), schema.domain_sizes.size());
  for (size_t r = 0; r < snapshot.rows.size(); ++r) {
    const ShardSnapshotRow& row = snapshot.rows[r];
    if (r > 0) {
      ASSERT_GT(row.seq, snapshot.rows[r - 1].seq);
    }
    ASSERT_EQ(row.x.size(), schema.domain_sizes.size());
    for (size_t f = 0; f < row.x.size(); ++f) {
      ASSERT_LT(row.x[f], schema.domain_sizes[f]);
    }
    ASSERT_LT(row.y, schema.num_labels);
  }
}

TEST(ShardSnapshotFuzzTest, RoundTripsRowsSeqsAndSchema) {
  const Dataset data = cce::testing::RandomContext(24, 4, 3, 17, 0.0);
  auto decoded = DecodeShardSnapshot(ValidSnapshotBytes(), "valid");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kShardSnapshotVersion);
  EXPECT_EQ(decoded->covers, 100u);
  ASSERT_EQ(decoded->rows.size(), data.size());
  for (size_t row = 0; row < data.size(); ++row) {
    EXPECT_EQ(decoded->rows[row].seq, 3 * row + 1);
    EXPECT_EQ(decoded->rows[row].x, data.instance(row));
    EXPECT_EQ(decoded->rows[row].y, data.label(row));
  }
  CCE_CHECK_OK(CheckShardSchemaCompatible(data.schema(), decoded->schema));
}

TEST(ShardSnapshotFuzzTest, EmptyWindowRoundTrips) {
  const Dataset data = cce::testing::RandomContext(4, 4, 3, 17, 0.0);
  ShardSnapshotEncoder encoder(data.schema(), /*covers=*/7, 0);
  auto decoded = DecodeShardSnapshot(std::move(encoder).Finish(), "empty");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->covers, 7u);
  EXPECT_TRUE(decoded->rows.empty());
}

TEST(ShardSnapshotFuzzTest, EveryPrefixFailsCleanly) {
  const std::string bytes = ValidSnapshotBytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = DecodeShardSnapshot(bytes.substr(0, cut), "prefix");
    EXPECT_FALSE(decoded.ok()) << "a " << cut << "-byte prefix decoded";
    if (decoded.ok()) CheckSnapshotInvariants(*decoded);
    // The header-only view must never read past the bytes either.
    (void)ShardSnapshotView::Open(bytes.substr(0, cut), "prefix");
  }
}

TEST(ShardSnapshotFuzzTest, EverySingleBitFlipIsRejectedOrValid) {
  const std::string bytes = ValidSnapshotBytes();
  size_t accepted = 0;
  for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    auto decoded = DecodeShardSnapshot(flipped, "flip");
    if (decoded.ok()) {
      ++accepted;
      CheckSnapshotInvariants(*decoded);
    }
    auto view = ShardSnapshotView::Open(flipped, "flip");
    if (view.ok()) {
      // A view that opens may be walked row by row without overrunning.
      Instance x;
      for (size_t r = 0; r < view->rows(); ++r) {
        (void)view->seq(r);
        (void)view->label(r);
        view->ReadValues(r, &x);
      }
    }
  }
  // Both CRCs cover every byte, so no flip survives.
  EXPECT_EQ(accepted, 0u);
}

/// Recomputes both CRCs of a (possibly mutated) file, so a mutation
/// reaches the decoder's structural and per-row checks.
void Reseal(std::string* bytes) {
  if (bytes->size() < kShardSnapshotHeaderBytes + 4) return;
  std::string crc;
  PutU32(&crc, crc32c::Mask(crc32c::Value(bytes->data(), 36)));
  bytes->replace(36, 4, crc);
  const size_t body = bytes->size() - kShardSnapshotHeaderBytes - 4;
  crc.clear();
  PutU32(&crc, crc32c::Mask(crc32c::Value(
                   bytes->data() + kShardSnapshotHeaderBytes, body)));
  bytes->replace(bytes->size() - 4, 4, crc);
}

TEST(ShardSnapshotFuzzTest, EveryResealedBitFlipIsRejectedOrValid) {
  const std::string bytes = ValidSnapshotBytes();
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t bit = 0; bit < 8 * (bytes.size() - 4); ++bit) {
    if (bit / 8 >= 36 && bit / 8 < kShardSnapshotHeaderBytes) continue;
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    Reseal(&flipped);
    auto decoded = DecodeShardSnapshot(flipped, "resealed");
    if (decoded.ok()) {
      ++accepted;
      CheckSnapshotInvariants(*decoded);
    } else {
      ++rejected;
    }
  }
  // Flips in covers, seqs or names still decode; flips in sizes, labels
  // and values mostly do not.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ShardSnapshotFuzzTest, HostileRowCountFailsWithoutHugeAllocation) {
  std::string bytes = ValidSnapshotBytes();
  // Rewrite the row count and re-seal the CRCs, so only the size check
  // stands between the count and an allocation.
  std::string patched;
  PutU64(&patched, uint64_t{1} << 60);
  bytes.replace(20, 8, patched);
  Reseal(&bytes);
  EXPECT_FALSE(ShardSnapshotView::Open(bytes, "hostile").ok());
  EXPECT_FALSE(DecodeShardSnapshot(bytes, "hostile").ok());
}

TEST(ShardSnapshotFuzzTest, RandomGarbageIsRejected) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage(rng.Uniform(512), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.Uniform(256));
    EXPECT_FALSE(DecodeShardSnapshot(garbage, "garbage").ok());
  }
}

}  // namespace
}  // namespace cce::io
