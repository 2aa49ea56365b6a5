#ifndef WIREBENCH_GENERATOR_H_
#define WIREBENCH_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/client.h"
#include "net/protocol.h"

namespace wirebench {

enum class Op : uint8_t { kExplain = 0, kPredict = 1, kRecord = 2 };

inline bool IsWrite(Op op) { return op != Op::kExplain; }

/// One scheduled request: when it is due (offset from the phase start),
/// what it is, and which generated input it carries (an index into the
/// workload's explain targets or write rows).
struct Arrival {
  int64_t due_ns = 0;
  Op op = Op::kExplain;
  uint32_t item = 0;
};

/// Share of each operation in a workload's traffic.
struct Mix {
  double explain = 1.0;
  double predict = 0.0;
  double record = 0.0;
};

/// Poisson arrivals at `rate_rps` for `seconds`, each op drawn from `mix`.
/// Explain items come from `pick_explain`; writes take the next index of a
/// cycling write cursor, so every write carries a row nobody sent before
/// (until the pool wraps).
std::vector<Arrival> MakeSchedule(cce::Rng* rng, double rate_rps,
                                  double seconds, const Mix& mix,
                                  const std::function<uint32_t()>& pick_explain,
                                  size_t write_pool, size_t* write_cursor);

/// What happened to one scheduled request.
struct Outcome {
  static constexpr uint8_t kNoAnswer = 0xff;
  int64_t send_ns = 0;  // absolute steady-clock time the frame was written
  int64_t recv_ns = 0;  // absolute time the response was decoded
  uint8_t status = kNoAnswer;  // net::WireStatus, or kNoAnswer
  uint8_t flags = 0;           // explain response kFlag* bits
  bool untyped = false;  // answered with ERROR_RESPONSE or the wrong type
  bool wrong = false;    // answered OK with a wrong Predict label
  bool answered() const { return status != kNoAnswer; }
  bool ok() const {
    return status == static_cast<uint8_t>(cce::net::WireStatus::kOk) &&
           !untyped && !wrong;
  }
  bool shed() const {
    return status ==
               static_cast<uint8_t>(cce::net::WireStatus::kResourceExhausted) &&
           !untyped;
  }
};

/// One phase's schedule as it ran. Latency is measured from the due time
/// (start_ns + due_ns), not the send time, so a stall in the generator or
/// the server counts against every request it delayed.
struct PhaseRun {
  int64_t start_ns = 0;
  std::vector<Arrival> arrivals;
  std::vector<Outcome> outcomes;

  double LatencyMs(size_t i) const;  // +inf when not answered OK
  double LagMs(size_t i) const;      // send time minus due time
};

/// The open-loop generator: one thread, a handful of NetClient
/// connections, requests written when due regardless of outstanding
/// answers, responses matched by request id.
class Generator {
 public:
  /// Fills `out` with the wire request for an arrival.
  using BuildFn = std::function<void(const Arrival&, cce::net::Request* out)>;
  /// Expected Predict label for an arrival (checked on every answer).
  using LabelFn = std::function<cce::Label(const Arrival&)>;
  /// Called right after a due request was written (the trace sampler).
  using SentFn = std::function<void(size_t ordinal, const Arrival&)>;

  static cce::Result<Generator> Connect(uint16_t port, size_t connections);

  /// Sends every arrival at its due time and waits for every answer or
  /// until `drain_ns` passes after the last send.
  PhaseRun Run(std::vector<Arrival> arrivals, const BuildFn& build, const LabelFn& expected_label,
               const SentFn& on_sent, int64_t drain_ns);

  /// One synchronous request/response on the first connection.
  cce::Result<cce::net::Response> Call(const cce::net::Request& request);

 private:
  explicit Generator(std::vector<cce::net::NetClient> clients)
      : clients_(std::move(clients)) {}

  std::vector<cce::net::NetClient> clients_;
  uint64_t next_id_ = 1;
};

}  // namespace wirebench

#endif  // WIREBENCH_GENERATOR_H_
