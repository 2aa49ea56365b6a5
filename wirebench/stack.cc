#include "stack.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "common/logging.h"
#include "data/generators.h"
#include "stats.h"

namespace wirebench {

namespace fs = std::filesystem;
using cce::Status;

namespace {

// Explain-heavy on a large window: 90% Explain, 10% Record so the window
// keeps sliding. Merge + Context materialization dominates each Explain
// here; wire and WAL work is small.
constexpr WorkloadSpec kExplainLive = {
    .name = "explain_live",
    .recorded_rows = 128 * 1024,
    .window = 32 * 1024,
    .shards = 4,
    .replica = false,
    .mix = {.explain = 0.9, .predict = 0.0, .record = 0.1},
    .nominal_rps = 50.0,
    .overload_rps = 2000.0,
    .zipf_s = 1.0,
    .trace_every = 16,
    .oracle_sample = 24,
};

// Write-heavy on a small window with a replica: 60% Predict and 30% Record
// (both fsync'd before the ack) beside 10% Explain. Wire, admission, WAL
// and replication dominate; an Explain on 2 Ki rows is cheap.
constexpr WorkloadSpec kIngestReplicate = {
    .name = "ingest_replicate",
    .recorded_rows = 2 * 1024,
    .window = 2 * 1024,
    .shards = 4,
    .replica = true,
    .mix = {.explain = 0.1, .predict = 0.6, .record = 0.3},
    .nominal_rps = 1000.0,
    .overload_rps = 12000.0,
    .zipf_s = 1.0,
    .trace_every = 32,
    .oracle_sample = 64,
};

constexpr size_t kTrainRows = 4096;
constexpr uint64_t kModelSeed = 7;
constexpr size_t kWritePool = 64 * 1024;

void AddToDigest(const cce::Dataset& d, Digest* digest) {
  for (size_t i = 0; i < d.size(); ++i) {
    for (cce::ValueId v : d.instance(i)) digest->Add(v);
    digest->Add(d.label(i));
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  if (name == kExplainLive.name) return &kExplainLive;
  if (name == kIngestReplicate.name) return &kIngestReplicate;
  return nullptr;
}

uint32_t Inputs::PickTarget(cce::Rng* rng) const {
  const double u = rng->UniformDouble();
  const auto it = std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - zipf_cdf.begin(), zipf_cdf.size() - 1));
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  cce::data::AdultOptions adult;
  // The served model is part of the deployment, not of the traffic: it is
  // trained on a fixed sample, so every seed explains the same model.
  adult.rows = kTrainRows;
  adult.seed = kModelSeed;
  auto model = cce::ml::Gbdt::Train(cce::data::GenerateAdult(adult), {});
  CCE_CHECK_OK(model.status());
  in.model = std::move(model).value();

  adult.rows = spec.recorded_rows + kWritePool;
  adult.seed = seed;
  cce::Dataset all = cce::data::GenerateAdult(adult);
  in.schema = all.schema_ptr();

  // Every label the stack sees is the model's prediction, as a client of
  // a served model would observe it.
  auto predicted = [&](size_t begin, size_t count) {
    cce::Dataset d(in.schema);
    for (size_t i = begin; i < begin + count; ++i) {
      d.Add(all.instance(i), in.model->Predict(all.instance(i)));
    }
    return d;
  };
  in.recorded = predicted(0, spec.recorded_rows);
  in.writes = predicted(spec.recorded_rows, kWritePool);

  // Explain targets: the rows of the window set-up recovers, ranked by a
  // seeded permutation; rank r is drawn with weight 1 / r^s.
  const size_t first = spec.recorded_rows - spec.window;
  std::vector<size_t> order(spec.window);
  std::iota(order.begin(), order.end(), first);
  cce::Rng rng(seed ^ 0x7a1f5eedULL);
  rng.Shuffle(&order);
  in.targets = in.recorded.Subset(order);
  in.zipf_cdf.resize(spec.window);
  double total = 0.0;
  for (size_t r = 0; r < spec.window; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    in.zipf_cdf[r] = total;
  }
  for (double& c : in.zipf_cdf) c /= total;

  Digest digest;
  AddToDigest(in.recorded, &digest);
  AddToDigest(in.targets, &digest);
  AddToDigest(in.writes, &digest);
  in.digest = digest.value();
  return in;
}

cce::serving::ExplainableProxy::Options ProxyOptions(const WorkloadSpec& spec,
                                                     const std::string& dir) {
  cce::serving::ExplainableProxy::Options options;
  options.context_capacity = spec.window;
  options.shards = spec.shards;
  options.durability.dir = dir;
  return options;
}

Status PrepareDurableDir(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  auto options = ProxyOptions(spec, dir);
  // Only the fsync cadence differs from the served proxy: the files are
  // identical, and 128 Ki fsyncs would make input generation take minutes.
  options.durability.sync_every = 0;
  auto proxy = cce::serving::ExplainableProxy::Create(
      inputs.schema, inputs.model.get(), options);
  if (!proxy.ok()) return proxy.status();
  for (size_t i = 0; i < inputs.recorded.size(); ++i) {
    Status s = (*proxy)->Record(inputs.recorded.instance(i),
                                inputs.recorded.label(i));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

cce::Result<std::unique_ptr<Stack>> Stack::Start(const WorkloadSpec& spec,
                                                 const Inputs& inputs,
                                                 const std::string& dir,
                                                 SetupTiming* timing) {
  std::unique_ptr<Stack> stack(new Stack());
  const std::string leader_dir = dir + "/leader";
  const std::string ship_dir = dir + "/ship";
  std::error_code ec;
  fs::remove_all(ship_dir, ec);

  const int64_t t0 = NowNs();
  auto proxy = cce::serving::ExplainableProxy::Create(
      inputs.schema, inputs.model.get(), ProxyOptions(spec, leader_dir));
  if (!proxy.ok()) return proxy.status();
  stack->proxy_ = std::move(proxy).value();
  const int64_t t1 = NowNs();

  std::vector<cce::serving::ReplicaProxy*> replicas;
  if (spec.replica) {
    auto follower = Follower::Start(spec, inputs, stack->proxy_.get(),
                                    leader_dir, ship_dir);
    if (!follower.ok()) return follower.status();
    stack->follower_ = std::move(follower).value();
    replicas.push_back(stack->replica());
  }
  const int64_t t2 = NowNs();

  auto group = cce::serving::ServingGroup::Create(stack->proxy_.get(),
                                                  replicas, {});
  if (!group.ok()) return group.status();
  stack->group_ = std::move(group).value();
  auto server = cce::net::NetServer::Create(stack->group_.get(), {});
  if (!server.ok()) return server.status();
  stack->server_ = std::move(server).value();
  Status started = stack->server_->Start();
  if (!started.ok()) return started;

  auto client = cce::net::NetClient::Connect("127.0.0.1", stack->port());
  if (!client.ok()) return client.status();
  cce::net::Request first;
  first.type = cce::net::MessageType::kExplainRequest;
  first.request_id = 1;
  first.instance = inputs.targets.instance(0);
  first.label = inputs.targets.label(0);
  auto answer = client->Call(first);
  if (!answer.ok()) return answer.status();
  if (answer->status != cce::net::WireStatus::kOk) {
    return Status::Internal("first Explain failed: " + answer->message);
  }
  const int64_t t3 = NowNs();

  timing->setup_s = static_cast<double>(t3 - t0) / 1e9;
  timing->recover_ms = static_cast<double>(t1 - t0) / 1e6;
  timing->bootstrap_ms = static_cast<double>(t2 - t1) / 1e6;
  return stack;
}

Stack::~Stack() {
  StopShipLoop();
  if (server_ != nullptr) server_->Stop();
}

cce::Result<std::unique_ptr<Follower>> Follower::Start(
    const WorkloadSpec& spec, const Inputs& inputs,
    cce::serving::ExplainableProxy* leader, const std::string& leader_dir,
    const std::string& ship_dir) {
  auto f = std::make_unique<Follower>();
  cce::serving::ShardLogShipper::Options ship;
  ship.source_dir = leader_dir;
  ship.ship_dir = ship_dir;
  ship.shards = spec.shards;
  ship.registry = &leader->registry();
  f->shipper = std::make_unique<cce::serving::ShardLogShipper>(ship);
  f->published = leader->PublishedSequence();
  Status shipped = f->shipper->Ship(f->published);
  if (!shipped.ok()) return shipped;
  cce::serving::ReplicaProxy::Options ro;
  ro.ship_dir = ship_dir;
  ro.context_capacity = spec.window;
  auto replica = cce::serving::ReplicaProxy::Create(inputs.schema, ro);
  if (!replica.ok()) return replica.status();
  f->replica = std::move(replica).value();
  return f;
}

ShipCycle Follower::Cycle(cce::serving::ExplainableProxy* leader) {
  cce::obs::Counter* bytes = leader->registry().GetCounter(
      "cce_ship_shipped_bytes_total", "");
  ShipCycle c;
  c.watermark_ns = NowNs();
  c.published = leader->PublishedSequence();
  const uint64_t bytes_before = bytes->Value();
  CCE_CHECK_OK(shipper->Ship(c.published));
  c.shipped_ns = NowNs();
  CCE_CHECK_OK(replica->CatchUp());
  c.end_ns = NowNs();
  c.shipped_bytes = bytes->Value() - bytes_before;
  c.new_rows = c.published - published;
  published = c.published;
  return c;
}

ShipCycle Stack::ShipOnce() { return follower_->Cycle(proxy_.get()); }

void Stack::StartShipLoop() {
  if (follower_ == nullptr || ship_thread_.joinable()) return;
  ship_stop_.store(false);
  ship_thread_ = std::thread([this] {
    while (!ship_stop_.load()) {
      ShipCycle c = ShipOnce();
      std::lock_guard<std::mutex> lock(cycles_mu_);
      cycles_.push_back(c);
    }
  });
}

void Stack::StopShipLoop() {
  if (!ship_thread_.joinable()) return;
  ship_stop_.store(true);
  ship_thread_.join();
}

std::vector<ShipCycle> Stack::TakeCycles() {
  std::lock_guard<std::mutex> lock(cycles_mu_);
  std::vector<ShipCycle> out;
  out.swap(cycles_);
  return out;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.iowait = v[4];
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace wirebench
