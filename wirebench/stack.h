#ifndef WIREBENCH_STACK_H_
#define WIREBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "generator.h"
#include "ml/gbdt.h"
#include "net/server.h"
#include "serving/proxy.h"
#include "serving/replica_proxy.h"
#include "serving/replication.h"
#include "serving/serving_group.h"

namespace wirebench {

/// Everything that defines a workload. Rates are constants, never derived
/// at run time, so every commit is offered the same traffic.
struct WorkloadSpec {
  const char* name;
  size_t recorded_rows;  // rows in the durable directory at set-up
  size_t window;         // context_capacity
  size_t shards;
  bool replica;
  Mix mix;
  double nominal_rps;   // served by the seed commit without queueing
  double overload_rps;  // above the seed commit's saturated throughput
  double zipf_s;        // skew of the Explain targets over the window
  size_t trace_every;   // traced run: one request in this many is peeled
  size_t oracle_sample;  // quiescent Explains checked against the oracle
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload's generated inputs; the stack sees nothing else.
struct Inputs {
  std::shared_ptr<const cce::Schema> schema;
  std::unique_ptr<cce::ml::Gbdt> model;
  cce::Dataset recorded{nullptr};  // labels are the model's predictions
  cce::Dataset targets{nullptr};   // Explain pool: the window, most popular first
  cce::Dataset writes{nullptr};    // Predict/Record pool, labels = predictions
  std::vector<double> zipf_cdf;
  uint64_t digest = 0;  // over every generated row and label

  uint32_t PickTarget(cce::Rng* rng) const;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Writes `inputs.recorded` into a durable directory through a proxy with
/// the workload's layout, so set-up has something to recover. This is
/// input generation, not set-up: it is not timed.
cce::Status PrepareDurableDir(const WorkloadSpec& spec, const Inputs& inputs,
                              const std::string& dir);

/// The proxy options the workload sets; every other knob is a default.
cce::serving::ExplainableProxy::Options ProxyOptions(const WorkloadSpec& spec,
                                                     const std::string& dir);

struct SetupTiming {
  double setup_s = 0.0;       // stack creation to the first OK answer
  double recover_ms = 0.0;    // ExplainableProxy::Create on the dir
  double bootstrap_ms = 0.0;  // first Ship + ReplicaProxy::Create
};

/// One ship + catch-up cycle of the benchmark's replication loop.
struct ShipCycle {
  int64_t watermark_ns = 0;  // PublishedSequence() was read here
  int64_t shipped_ns = 0;    // Ship returned
  int64_t end_ns = 0;        // CatchUp returned
  uint64_t published = 0;
  uint64_t shipped_bytes = 0;
  uint64_t new_rows = 0;  // published minus the previous cycle's
};

/// A replica fed from the leader's durability directory: the shipper that
/// copies the leader's files into a ship directory and the ReplicaProxy
/// that tails them.
struct Follower {
  std::unique_ptr<cce::serving::ShardLogShipper> shipper;
  std::unique_ptr<cce::serving::ReplicaProxy> replica;
  uint64_t published = 0;  // watermark of the last shipped manifest

  /// Ships the leader's files once into `ship_dir` (which must not hold an
  /// older ship) and bootstraps a replica from them.
  static cce::Result<std::unique_ptr<Follower>> Start(
      const WorkloadSpec& spec, const Inputs& inputs,
      cce::serving::ExplainableProxy* leader, const std::string& leader_dir,
      const std::string& ship_dir);

  /// One Ship(PublishedSequence()) -> CatchUp() cycle.
  ShipCycle Cycle(cce::serving::ExplainableProxy* leader);
};

/// The serving stack in one process: ExplainableProxy -> ServingGroup ->
/// NetServer, plus a ReplicaProxy fed by a ShardLogShipper when the
/// workload has one. The repo has no production ship loop, so the stack
/// drives Ship(PublishedSequence()) -> CatchUp() back to back on its own
/// thread.
class Stack {
 public:
  static cce::Result<std::unique_ptr<Stack>> Start(const WorkloadSpec& spec,
                                                   const Inputs& inputs,
                                                   const std::string& dir,
                                                   SetupTiming* timing);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void StartShipLoop();
  void StopShipLoop();
  /// One synchronous cycle (quiescent checks and probes).
  ShipCycle ShipOnce();
  std::vector<ShipCycle> TakeCycles();

  cce::serving::ExplainableProxy* proxy() const { return proxy_.get(); }
  cce::serving::ReplicaProxy* replica() const {
    return follower_ == nullptr ? nullptr : follower_->replica.get();
  }
  cce::serving::ServingGroup* group() const { return group_.get(); }
  cce::net::NetServer* server() const { return server_.get(); }
  uint16_t port() const { return server_->port(); }

 private:
  Stack() = default;

  std::unique_ptr<cce::serving::ExplainableProxy> proxy_;
  std::unique_ptr<Follower> follower_;  // null without a replica
  std::unique_ptr<cce::serving::ServingGroup> group_;
  std::unique_ptr<cce::net::NetServer> server_;

  std::mutex cycles_mu_;
  std::vector<ShipCycle> cycles_;
  std::atomic<bool> ship_stop_{false};
  std::thread ship_thread_;
};

/// Peak resident memory (VmHWM) of this process, MiB.
double PeakRssMb();

/// The machine-wide CPU time counters of /proc/stat, in ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t iowait = 0;
  uint64_t steal = 0;  // time the hypervisor ran something else
};
CpuTimes ReadCpuTimes();

}  // namespace wirebench

#endif  // WIREBENCH_STACK_H_
