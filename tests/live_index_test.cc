// Differential test of the live index, the one Explain read model of the
// leader proxy and its replicas: every key served without `degraded` must
// equal the sorted-merge reference search (Srk::ExplainInstance) on
// ContextSnapshot(). Covers shard counts 1 and 4, windows on both sides of
// the 2048-row tie-break sample (and a tie decided by its last row),
// eviction, quarantine and repair, restart
// with orphan adoption, Records whose sequence is below the index base,
// batched Explain, and (under SUITE=stress) racing writers.

#include "serving/live_index.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "core/srk.h"
#include "io/fault_env.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "tests/test_util.h"

namespace cce::serving {
namespace {

/// Data with many tied violator counts: features 4..7 copy features 0..3
/// except in about 3% of rows, so a copy and its original often remove the
/// same number of violators and the sampled tie-break frequency picks
/// between them. Domains are tiny, so counts collide across unrelated
/// features too.
Dataset TiedData(size_t rows, uint64_t seed) {
  Dataset base = testing::RandomContext(rows, 4, 2, seed, /*noise=*/0.2);
  auto schema = std::make_shared<Schema>();
  for (size_t f = 0; f < 8; ++f) {
    const FeatureId id = schema->AddFeature("F" + std::to_string(f));
    schema->InternValue(id, "a");
    schema->InternValue(id, "b");
  }
  schema->InternLabel("neg");
  schema->InternLabel("pos");
  Dataset data(schema);
  Rng rng(seed ^ 0x5eedULL);
  for (size_t r = 0; r < rows; ++r) {
    Instance x(8);
    for (size_t f = 0; f < 4; ++f) {
      x[f] = base.instance(r)[f];
      x[4 + f] = rng.Bernoulli(0.03) ? 1 - x[f] : x[f];
    }
    data.Add(std::move(x), base.label(r));
  }
  return data;
}

int64_t CounterValue(const obs::Registry& registry, const std::string& name) {
  for (const auto& family : registry.Collect()) {
    if (family.name != name) continue;
    int64_t total = 0;
    for (const auto& sample : family.samples) total += sample.value;
    return total;
  }
  return -1;
}

void ExpectSameKey(const KeyResult& served, const KeyResult& oracle,
                   const std::string& what) {
  EXPECT_EQ(served.key, oracle.key) << what;
  EXPECT_EQ(served.pick_order, oracle.pick_order) << what;
  EXPECT_EQ(served.achieved_alpha, oracle.achieved_alpha)
      << what << " (bitwise double equality)";
  EXPECT_EQ(served.satisfied, oracle.satisfied) << what;
}

/// Probes `count` rows of `data` (every `stride`-th) through `explain` and
/// checks each non-degraded key against the reference search on `window`.
/// Returns how many keys were compared.
template <typename ExplainFn>
size_t ExpectOracleKeys(const Context& window, const Dataset& data,
                        size_t count, size_t stride, double alpha,
                        ExplainFn&& explain, const std::string& what,
                        bool ignore_degraded_flag = false) {
  Srk::Options oracle_options;
  oracle_options.alpha = alpha;
  size_t compared = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t row = (i * stride) % data.size();
    const Result<KeyResult> served = explain(data.instance(row),
                                             data.label(row));
    EXPECT_TRUE(served.ok()) << what << ": " << served.status().ToString();
    if (!served.ok()) continue;
    if (served->degraded && !ignore_degraded_flag) continue;
    const Result<KeyResult> oracle = Srk::ExplainInstance(
        window, data.instance(row), data.label(row), oracle_options);
    CCE_CHECK_OK(oracle.status());
    ExpectSameKey(*served, *oracle, what + " row " + std::to_string(row));
    ++compared;
  }
  return compared;
}

std::unique_ptr<ExplainableProxy> MakeProxy(const Dataset& data,
                                            size_t shards, size_t capacity,
                                            const std::string& dir = "",
                                            io::Env* env = nullptr,
                                            double alpha = 1.0) {
  ExplainableProxy::Options options;
  options.monitor_drift = false;
  options.shards = shards;
  options.context_capacity = capacity;
  options.alpha = alpha;
  options.durability.dir = dir;
  options.durability.sync_every = 0;
  options.durability.env = env;
  auto proxy = ExplainableProxy::Create(data.schema_ptr(), nullptr, options);
  CCE_CHECK_OK(proxy.status());
  return std::move(proxy).value();
}

void RecordRows(ExplainableProxy& proxy, const Dataset& data, size_t begin,
                size_t end) {
  for (size_t row = begin; row < end; ++row) {
    CCE_CHECK_OK(proxy.Record(data.instance(row), data.label(row)));
  }
}

TEST(LiveIndexTest, LeaderKeysMatchOracleAroundTheSampleEdge) {
  const Dataset data = TiedData(2600, 17);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (size_t window : {size_t{2047}, size_t{2048}, size_t{2049},
                          size_t{2100}}) {
      for (bool evicting : {false, true}) {
        const std::string what = "shards=" + std::to_string(shards) +
                                 " window=" + std::to_string(window) +
                                 (evicting ? " evicting" : " filling");
        // Filling: exactly `window` rows, nothing evicted. Evicting: 400
        // more rows slide the window, so the sample starts mid-stream.
        auto proxy = MakeProxy(data, shards, window);
        RecordRows(*proxy, data, 0, window + (evicting ? 400 : 0));
        const Context snapshot = proxy->ContextSnapshot();
        ASSERT_EQ(snapshot.size(), window) << what;
        const size_t compared = ExpectOracleKeys(
            snapshot, data, 48, 53, 1.0,
            [&](const Instance& x, Label y) { return proxy->Explain(x, y); },
            what);
        EXPECT_EQ(compared, 48u) << what << ": nothing is degraded here";

        // A batch answers every item exactly as the scalar Explain does.
        std::vector<BatchQuery> batch;
        for (size_t i = 0; i < 16; ++i) {
          const size_t row = (i * 131) % data.size();
          batch.push_back({data.instance(row), data.label(row), {}});
        }
        const auto batched = proxy->ExplainBatch(batch);
        ASSERT_EQ(batched.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          ASSERT_TRUE(batched[i].ok()) << what;
          const auto scalar = proxy->Explain(batch[i].x, batch[i].y);
          ASSERT_TRUE(scalar.ok()) << what;
          ExpectSameKey(*batched[i], *scalar,
                        what + " batch item " + std::to_string(i));
        }
      }
    }
  }
}

TEST(LiveIndexTest, TieBreakSampleIsTheFirst2048LiveRows) {
  // F0 and F1 are equal in every row but two, so they always remove the
  // same number of violators and the sampled frequency of x0's value
  // decides between them. Window position 2047 (the last sampled row)
  // favours F1 and position 2048 (the first unsampled row) favours F0:
  // only a sample of exactly the first 2048 live rows picks F1. Evicted
  // rows ahead of the window leave a dead prefix in the index.
  auto schema = std::make_shared<Schema>();
  for (const char* name : {"F0", "F1", "F2"}) {
    const FeatureId id = schema->AddFeature(name);
    schema->InternValue(id, "a");
    schema->InternValue(id, "b");
  }
  schema->InternLabel("neg");
  schema->InternLabel("pos");
  const Instance x0 = {0, 0, 0};
  constexpr size_t kWindow = 2100;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (size_t evicted : {size_t{0}, size_t{333}}) {
      const std::string what = "shards=" + std::to_string(shards) +
                               " evicted=" + std::to_string(evicted);
      Dataset data(schema);
      Rng rng(97 + evicted);
      for (size_t r = 0; r < evicted + kWindow; ++r) {
        const ValueId v = static_cast<ValueId>(rng.Uniform(2));
        Instance x = {v, v, 0};  // F2 agrees with x0 everywhere: useless
        Label y = static_cast<Label>(rng.Uniform(2));
        if (r == evicted + 2047) x = {1, 0, 0}, y = 0;
        if (r == evicted + 2048) x = {0, 1, 0}, y = 0;
        data.Add(std::move(x), y);
      }
      auto proxy = MakeProxy(data, shards, kWindow);
      RecordRows(*proxy, data, 0, data.size());
      const Context snapshot = proxy->ContextSnapshot();
      const auto oracle = Srk::ExplainInstance(snapshot, x0, 0, {});
      CCE_CHECK_OK(oracle.status());
      ASSERT_FALSE(oracle->pick_order.empty()) << what;
      EXPECT_EQ(oracle->pick_order.front(), 1u)
          << what << ": the tie must be decided by window row 2047";
      const auto served = proxy->Explain(x0, 0);
      ASSERT_TRUE(served.ok()) << what;
      ExpectSameKey(*served, *oracle, what);
    }
  }
}

TEST(LiveIndexTest, AlphaBelowOneMatchesOracle) {
  const Dataset data = TiedData(3000, 29);
  auto proxy = MakeProxy(data, 4, 2049, "", nullptr, /*alpha=*/0.97);
  RecordRows(*proxy, data, 0, data.size());
  const Context snapshot = proxy->ContextSnapshot();
  ExpectOracleKeys(
      snapshot, data, 40, 71, 0.97,
      [&](const Instance& x, Label y) { return proxy->Explain(x, y); },
      "alpha=0.97");
}

/// One replica ExplainBatch over 16 rows: every item equals the replica's
/// scalar Explain of that row and the leader's.
void ExpectBatchMatchesScalarAndLeader(const ExplainableProxy& leader,
                                       const ReplicaProxy& replica,
                                       const Dataset& data,
                                       const std::string& step) {
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < 16; ++i) {
    const size_t row = (i * 89) % data.size();
    batch.push_back({data.instance(row), data.label(row), {}});
  }
  const std::vector<Result<KeyResult>> batched = replica.ExplainBatch(batch);
  ASSERT_EQ(batched.size(), batch.size()) << step;
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string what = step + " item " + std::to_string(i);
    const auto from_leader = leader.Explain(batch[i].x, batch[i].y);
    const auto from_replica = replica.Explain(batch[i].x, batch[i].y);
    ASSERT_TRUE(from_leader.ok() && from_replica.ok() && batched[i].ok())
        << what;
    EXPECT_FALSE(batched[i]->degraded) << what;
    ExpectSameKey(*from_replica, *from_leader, what + " leader vs replica");
    ExpectSameKey(*batched[i], *from_replica, what + " batch vs scalar");
  }
}

TEST(LiveIndexTest, ReplicaKeysMatchOracleAndLeader) {
  const Dataset data = TiedData(2800, 41);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string what = "shards=" + std::to_string(shards);
    testing::ScopedTempDir leader_dir("leader_" + std::to_string(shards));
    testing::ScopedTempDir ship_dir("ship_" + std::to_string(shards));
    constexpr size_t kWindow = 2049;
    auto leader = MakeProxy(data, shards, kWindow, leader_dir.path());
    ShardLogShipper::Options ship_options;
    ship_options.source_dir = leader_dir.path();
    ship_options.ship_dir = ship_dir.path();
    ship_options.shards = leader->num_shards();
    ShardLogShipper shipper(ship_options);
    ReplicaProxy::Options replica_options;
    replica_options.ship_dir = ship_dir.path();
    replica_options.context_capacity = kWindow;
    auto replica_or = ReplicaProxy::Create(data.schema_ptr(), replica_options);
    ASSERT_TRUE(replica_or.ok());
    ReplicaProxy& replica = **replica_or;

    // Three catch-ups: bootstrap below capacity, then two that evict.
    for (size_t end : {size_t{1500}, size_t{2300}, size_t{2800}}) {
      RecordRows(*leader, data, leader->recorded(), end);
      CCE_CHECK_OK(shipper.Ship(leader->PublishedSequence()));
      CCE_CHECK_OK(replica.CatchUp());
      const std::string step = what + " at " + std::to_string(end);
      const Context view = replica.ContextSnapshot();
      ASSERT_EQ(view.size(), leader->ContextSnapshot().size()) << step;
      ExpectOracleKeys(
          view, data, 32, 67, 1.0,
          [&](const Instance& x, Label y) { return replica.Explain(x, y); },
          step + " replica");
      ExpectBatchMatchesScalarAndLeader(*leader, replica, data, step);
    }
    // A forced resync swaps in a freshly built index: same keys.
    CCE_CHECK_OK(replica.ForceResync());
    ExpectOracleKeys(
        replica.ContextSnapshot(), data, 32, 67, 1.0,
        [&](const Instance& x, Label y) { return replica.Explain(x, y); },
        what + " after ForceResync");
    ExpectBatchMatchesScalarAndLeader(*leader, replica, data,
                                      what + " after ForceResync");
  }
}

TEST(LiveIndexTest, QuarantineAndRepairKeepKeysExact) {
  const Dataset data = TiedData(1200, 53);
  testing::ScopedTempDir dir;
  constexpr size_t kShards = 4;
  {
    auto proxy = MakeProxy(data, kShards, 600, dir.path());
    RecordRows(*proxy, data, 0, 800);
  }
  // One failed read during recovery leaves its shard unsalvageable.
  io::FaultInjectingEnv fault(io::Env::Default());
  fault.FailNextRead();
  auto proxy = MakeProxy(data, kShards, 600, dir.path(), &fault);
  const HealthSnapshot health = proxy->Health();
  ASSERT_EQ(health.shards_quarantined, 1u);
  size_t quarantined = kShards;
  for (size_t i = 0; i < kShards; ++i) {
    if (health.shards[i].state == ContextShard::State::kQuarantined) {
      quarantined = i;
    }
  }
  ASSERT_LT(quarantined, kShards);

  // Quarantined: keys are flagged degraded, yet computed exactly over the
  // rows that remain, which is what ContextSnapshot shows.
  auto explain = [&](const Instance& x, Label y) {
    return proxy->Explain(x, y);
  };
  for (size_t row = 800; row < 900; ++row) {
    // Rows routed to the quarantined shard are refused and simply absent.
    const Status recorded = proxy->Record(data.instance(row), data.label(row));
    EXPECT_TRUE(recorded.ok() || recorded.code() == StatusCode::kUnavailable)
        << recorded.ToString();
  }
  ExpectOracleKeys(proxy->ContextSnapshot(), data, 32, 37, 1.0, explain,
                   "quarantined", /*ignore_degraded_flag=*/true);

  CCE_CHECK_OK(proxy->RepairShard(quarantined));
  RecordRows(*proxy, data, 900, 1200);
  const size_t compared = ExpectOracleKeys(
      proxy->ContextSnapshot(), data, 32, 37, 1.0, explain, "repaired");
  EXPECT_EQ(compared, 32u) << "after repair nothing is degraded";
}

TEST(LiveIndexTest, RestartAndOrphanAdoptionRebuildTheIndex) {
  const Dataset data = TiedData(2600, 61);
  testing::ScopedTempDir dir;
  constexpr size_t kWindow = 2049;
  std::vector<KeyResult> before;
  {
    auto proxy = MakeProxy(data, 4, kWindow, dir.path());
    RecordRows(*proxy, data, 0, 2500);
    for (size_t i = 0; i < 24; ++i) {
      const size_t row = i * 97;
      auto key = proxy->Explain(data.instance(row), data.label(row));
      CCE_CHECK_OK(key.status());
      before.push_back(*key);
    }
  }
  {
    // Same shard count: the index is rebuilt once from the recovered,
    // capacity-trimmed window and serves the keys it served before.
    auto proxy = MakeProxy(data, 4, kWindow, dir.path());
    for (size_t i = 0; i < 24; ++i) {
      const size_t row = i * 97;
      auto key = proxy->Explain(data.instance(row), data.label(row));
      ASSERT_TRUE(key.ok());
      ExpectSameKey(*key, before[i], "restart row " + std::to_string(row));
    }
    EXPECT_EQ(CounterValue(proxy->registry(), "cce_bitmap_rebuilds_total"),
              1)
        << "one build after recovery, not one per replayed row";
  }
  // Two shards: shards 2 and 3 are orphans whose rows are adopted.
  auto proxy = MakeProxy(data, 2, kWindow, dir.path());
  RecordRows(*proxy, data, 2500, 2600);
  ExpectOracleKeys(
      proxy->ContextSnapshot(), data, 32, 79, 1.0,
      [&](const Instance& x, Label y) { return proxy->Explain(x, y); },
      "adopted at 2 shards");
}

TEST(LiveIndexTest, SequenceBelowBaseMovesTheBaseDown) {
  // Direct drive of the index: slide far enough for the dead prefix to be
  // reclaimed, then insert a row whose sequence is below the new base —
  // the Record that claimed its number before the reclaim and reached the
  // index after it.
  const Dataset data = TiedData(400, 71);
  LiveIndex index(data.schema_ptr());
  std::vector<ContextShard::Row> rows;
  for (uint64_t seq = 0; seq < 300; ++seq) {
    index.Insert(seq, data.instance(seq), data.label(seq));
    rows.push_back({seq, data.instance(seq), data.label(seq)});
  }
  for (uint64_t seq = 0; seq < 280; ++seq) {
    if (seq == 20) continue;  // leave one early row live for a moment
    index.Remove(seq);
  }
  index.Remove(20);  // 20 live rows left behind a dead prefix of 280
  EXPECT_EQ(index.live_rows(), 20u);
  index.Insert(3, data.instance(350), data.label(350));
  EXPECT_EQ(index.live_rows(), 21u);

  // Reference window: seq 3, then 280..299, in sequence order.
  Context window(data.schema_ptr());
  window.Add(data.instance(350), data.label(350));
  for (uint64_t seq = 280; seq < 300; ++seq) {
    window.Add(data.instance(seq), data.label(seq));
  }
  const LiveIndex::Reader view = index.Read();
  ASSERT_EQ(view.rows(), window.size());
  ReadPath path;
  ExpectOracleKeys(
      window, data, 40, 7, 1.0,
      [&](const Instance& x, Label y) -> Result<KeyResult> {
        auto keys = view.SearchBatch({{x, y, Deadline()}}, path,
                                     /*degraded_view=*/false);
        if (!keys.ok()) return keys.status();
        return std::move(keys->front());
      },
      "below base");
}

TEST(LiveIndexTest, RacingWritersQuiesceToOracle) {
  // Capacity 4 with concurrent writers: evictions reclaim the dead prefix
  // constantly, so Records that claimed a sequence before a reclaim land
  // below the base. Explains race the writers (TSan under SUITE=stress);
  // once quiet, every key equals the oracle on the final window.
  const Dataset data = TiedData(4000, 83);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    auto proxy = MakeProxy(data, shards, 4);
    RecordRows(*proxy, data, 0, 4);
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    constexpr size_t kWriters = 4;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (size_t row = 4 + w; row < data.size(); row += kWriters) {
          CCE_CHECK_OK(proxy->Record(data.instance(row), data.label(row)));
        }
      });
    }
    std::vector<std::thread> readers;
    for (size_t r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(900 + r);
        while (!done.load(std::memory_order_acquire)) {
          const size_t row = rng.Uniform(data.size());
          std::vector<BatchQuery> batch = {
              {data.instance(row), data.label(row), {}},
              {data.instance((row + 1) % data.size()),
               data.label((row + 1) % data.size()),
               {}}};
          for (const auto& key : proxy->ExplainBatch(batch)) {
            EXPECT_TRUE(key.ok()) << key.status().ToString();
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    const Context window = proxy->ContextSnapshot();
    ASSERT_EQ(window.size(), 4u);
    const size_t compared = ExpectOracleKeys(
        window, data, 64, 61, 1.0,
        [&](const Instance& x, Label y) { return proxy->Explain(x, y); },
        "quiesced shards=" + std::to_string(shards));
    EXPECT_EQ(compared, 64u);
  }
}

}  // namespace
}  // namespace cce::serving
