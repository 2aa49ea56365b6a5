#include "serving/live_index.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "core/srk.h"

namespace cce::serving {
namespace {

constexpr uint64_t kWordMask = ~uint64_t{63};

}  // namespace

LiveIndex::LiveIndex(std::shared_ptr<const Schema> schema,
                     obs::Counter* builds)
    : schema_(std::move(schema)), empty_(schema_), builds_(builds) {
  ResetLocked(0);
}

void LiveIndex::ResetLocked(uint64_t base) {
  bits_ = std::make_unique<BitsetConformityChecker>(&empty_);
  base_ = base & kWordMask;
}

void LiveIndex::Rebuild(const std::vector<ContextShard::Row>& rows) {
  std::unique_lock<WriterPriorityMutex> lock(mu_);
  if (rows.empty()) {
    ResetLocked(0);
  } else {
    auto [lo, hi] = std::minmax_element(
        rows.begin(), rows.end(),
        [](const ContextShard::Row& a, const ContextShard::Row& b) {
          return a.seq < b.seq;
        });
    ResetLocked(lo->seq);
    // The highest position first sizes every bitmap once.
    bits_->SetRow(hi->seq - base_, hi->x, hi->y);
    for (const ContextShard::Row& row : rows) {
      if (row.seq != hi->seq) bits_->SetRow(row.seq - base_, row.x, row.y);
    }
  }
  if (builds_ != nullptr) builds_->Increment();
}

void LiveIndex::InsertLocked(uint64_t seq, const Instance& x, Label y) {
  if (bits_->live_rows() == 0) {
    // Nothing live: start over at this row rather than leave a gap of
    // dead positions below it.
    ResetLocked(seq);
  } else if (seq < base_) {
    const uint64_t words = (base_ - seq + 63) / 64;
    bits_->ShiftWords(static_cast<std::ptrdiff_t>(words));
    base_ -= 64 * words;
  }
  bits_->SetRow(seq - base_, x, y);
}

void LiveIndex::Insert(uint64_t seq, const Instance& x, Label y) {
  std::unique_lock<WriterPriorityMutex> lock(mu_);
  InsertLocked(seq, x, y);
}

void LiveIndex::ReclaimLocked() {
  const RowBitmap& live = bits_->live();
  const uint64_t* words = live.data();
  size_t dead = 0;
  while (dead < live.num_words() && words[dead] == 0) ++dead;
  if (dead * 64 <= bits_->live_rows()) return;
  bits_->ShiftWords(-static_cast<std::ptrdiff_t>(dead));
  base_ += 64 * dead;
}

void LiveIndex::Remove(uint64_t seq) {
  std::unique_lock<WriterPriorityMutex> lock(mu_);
  if (seq < base_ || seq - base_ >= bits_->allocated_rows()) return;
  bits_->RemoveRow(seq - base_);
  ReclaimLocked();
}

void LiveIndex::TrimToCapacity(size_t capacity) {
  if (capacity == 0) return;
  std::unique_lock<WriterPriorityMutex> lock(mu_);
  if (bits_->live_rows() <= capacity) return;
  size_t excess = bits_->live_rows() - capacity;
  const RowBitmap& live = bits_->live();
  for (size_t w = 0; w < live.num_words() && excess > 0; ++w) {
    uint64_t word = live.data()[w];
    while (word != 0 && excess > 0) {
      const size_t bit = static_cast<size_t>(std::countr_zero(word));
      word &= word - 1;
      bits_->RemoveRow(w * 64 + bit);
      --excess;
    }
  }
  ReclaimLocked();
}

size_t LiveIndex::live_rows() const {
  std::shared_lock<WriterPriorityMutex> lock(mu_);
  return bits_->live_rows();
}

Result<std::vector<KeyResult>> LiveIndex::Reader::SearchBatch(
    const std::vector<BatchQuery>& items, const ReadPath& path,
    bool degraded_view, size_t* deadline_degraded) const {
  if (rows() == 0) {
    return Status::FailedPrecondition(
        "the served window is empty (nothing recorded or shipped yet)");
  }
  std::vector<Srk::BatchItem> batch;
  batch.reserve(items.size());
  for (const BatchQuery& item : items) {
    batch.push_back(Srk::BatchItem{item.x, item.y, item.deadline});
  }
  Srk::EngineStats stats;
  Result<std::vector<KeyResult>> keys = Srk::ExplainIndexedBatch(
      *index_->bits_, batch, SearchOptions(path, &stats));
  ExportEngineStats(stats, path);
  if (!keys.ok()) return keys;
  for (KeyResult& key : *keys) {
    if (key.degraded && deadline_degraded != nullptr) ++*deadline_degraded;
    if (degraded_view) key.degraded = true;
  }
  return keys;
}

}  // namespace cce::serving
