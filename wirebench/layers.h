#ifndef WIREBENCH_LAYERS_H_
#define WIREBENCH_LAYERS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "generator.h"
#include "stack.h"

namespace wirebench {

/// One call into one layer, timed from the benchmark's side of the
/// layer's public function. `parent` names the layer whose call contains
/// this one on the serving path; `phase`/`ordinal` name the request.
struct Span {
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t phase = 0;
  uint32_t ordinal = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// The traced run's layer peeler. A seeded sample of the requests the
/// generator sends is issued again at each layer boundary on this object's
/// thread, beside the wire traffic: ServingGroup, ExplainableProxy,
/// ContextSnapshot + SearchKey / SearchKeyBatch on that snapshot, and the
/// bitset conformity build, count and add/remove. Spans stay in memory.
class Tracer {
 public:
  Tracer(const WorkloadSpec& spec, const Inputs& inputs, Stack* stack,
         uint64_t seed);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Phase id stamped on the spans of requests offered from now on.
  void set_phase(uint32_t phase) { phase_ = phase; }
  /// Generator hook: queues the request if it is in the sample. Never blocks
  /// the generator; a sample that finds the peeler busy is dropped.
  void Offer(size_t ordinal, const Arrival& arrival);
  /// Waits for queued samples, then stops the thread.
  void Stop();

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t offered() const { return offered_; }
  uint64_t dropped() const { return dropped_; }
  /// Direct writes the peeler made that succeeded (extra recorded rows).
  uint64_t ok_writes() const { return ok_writes_; }

 private:
  struct Item {
    uint32_t phase;
    uint32_t ordinal;
    Arrival arrival;
  };
  void Loop();
  void Peel(const Item& item);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  Stack* stack_;
  uint64_t seed_;
  cce::Rng rng_;
  uint32_t phase_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stopping_ = false;
  bool busy_ = false;

  std::vector<Span> spans_;  // peeler thread only until Stop()
  uint64_t offered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t ok_writes_ = 0;
  std::thread thread_;
};

/// Writes spans as JSON lines; returns false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Median microseconds to encode and decode one request frame and its
/// response frame, over the given workload frames.
double CodecMedianUs(const std::vector<cce::net::Request>& requests,
                     const std::vector<cce::net::Response>& responses);

struct WalProbe {
  double append_us = 0.0;  // median Append (+ its fsync, sync_every = 1)
  double bytes_per_row = 0.0;
};
/// io::ContextWal::Append with sync_every = 1 on a scratch log at `path`,
/// fed the workload's write rows.
WalProbe ProbeWal(const std::string& path, const cce::Dataset& rows,
                  size_t count);

/// Replication layers on a workload without a replica: a follower is
/// bootstrapped from the leader's directory, then ship + catch-up cycles
/// run around 64-row Record bursts.
struct ReplicationProbe {
  double bootstrap_ms = 0.0;
  std::vector<ShipCycle> cycles;
  std::vector<double> lag_ms;      // a burst's last ack to catch-up end
  std::vector<double> explain_us;  // ReplicaProxy::Explain
};
ReplicationProbe ProbeReplication(const WorkloadSpec& spec,
                                  const Inputs& inputs,
                                  cce::serving::ExplainableProxy* leader,
                                  const std::string& leader_dir,
                                  const std::string& ship_dir,
                                  size_t* write_cursor);

/// ExplainableProxy::Predict timed directly, for a workload without
/// Predict traffic; microseconds per call.
std::vector<double> ProbePredict(cce::serving::ExplainableProxy* proxy,
                                 const Inputs& inputs, size_t* write_cursor);

}  // namespace wirebench

#endif  // WIREBENCH_LAYERS_H_
