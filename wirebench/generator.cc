#include "generator.h"

#include <poll.h>
#include <sys/ioctl.h>

#include <cmath>
#include <ctime>
#include <utility>

#include "stats.h"

namespace wirebench {

using cce::net::MessageType;
using cce::net::Request;
using cce::net::Response;

std::vector<Arrival> MakeSchedule(cce::Rng* rng, double rate_rps,
                                  double seconds, const Mix& mix,
                                  const std::function<uint32_t()>& pick_explain,
                                  size_t write_pool, size_t* write_cursor) {
  std::vector<Arrival> out;
  const double total = mix.explain + mix.predict + mix.record;
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 - u keeps the log argument > 0.
    t += -std::log(1.0 - rng->UniformDouble()) / rate_rps * 1e9;
    if (t >= horizon_ns) break;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t);
    const double u = rng->UniformDouble() * total;
    if (u < mix.explain) {
      a.op = Op::kExplain;
      a.item = pick_explain();
    } else {
      a.op = u < mix.explain + mix.predict ? Op::kPredict : Op::kRecord;
      a.item = static_cast<uint32_t>(*write_cursor % write_pool);
      ++*write_cursor;
    }
    out.push_back(a);
  }
  return out;
}

double PhaseRun::LatencyMs(size_t i) const {
  const Outcome& o = outcomes[i];
  if (!o.ok()) return kInf;
  return static_cast<double>(o.recv_ns - (start_ns + arrivals[i].due_ns)) /
         1e6;
}

double PhaseRun::LagMs(size_t i) const {
  return static_cast<double>(outcomes[i].send_ns -
                             (start_ns + arrivals[i].due_ns)) /
         1e6;
}

cce::Result<Generator> Generator::Connect(uint16_t port, size_t connections) {
  cce::net::NetClient::Options options;
  // A response frame is written whole by the server, so a started frame
  // completes in microseconds; the timeout only guards a wedged stack.
  options.recv_timeout = std::chrono::milliseconds(5000);
  options.send_timeout = std::chrono::milliseconds(5000);
  std::vector<cce::net::NetClient> clients;
  for (size_t i = 0; i < connections; ++i) {
    auto client = cce::net::NetClient::Connect("127.0.0.1", port, options);
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }
  return Generator(std::move(clients));
}

cce::Result<Response> Generator::Call(const Request& request) {
  Request r = request;
  r.request_id = next_id_++;
  return clients_[0].Call(r);
}

PhaseRun Generator::Run(std::vector<Arrival> arrivals, const BuildFn& build, const LabelFn& expected_label,
                     const SentFn& on_sent, int64_t drain_ns) {
  PhaseRun run;
  run.arrivals = std::move(arrivals);
  const size_t n = run.arrivals.size();
  run.outcomes.resize(n);
  const uint64_t base_id = next_id_;
  next_id_ += n;

  std::vector<pollfd> fds(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    fds[c] = {clients_[c].fd(), POLLIN, 0};
  }
  std::vector<bool> dead(clients_.size(), false);

  size_t next = 0;
  size_t answered = 0;
  int64_t last_send_ns = 0;
  Request request;
  run.start_ns = NowNs() + 1'000'000;

  auto on_response = [&](const Response& r) {
    if (r.request_id < base_id || r.request_id >= base_id + n) return;
    const size_t i = r.request_id - base_id;
    Outcome& o = run.outcomes[i];
    if (o.answered()) return;
    o.recv_ns = NowNs();
    o.status = static_cast<uint8_t>(r.status);
    const Arrival& a = run.arrivals[i];
    const MessageType want =
        a.op == Op::kExplain   ? MessageType::kExplainResponse
        : a.op == Op::kPredict ? MessageType::kPredictResponse
                               : MessageType::kRecordResponse;
    o.untyped = r.type != want;
    o.flags = r.flags;
    if (a.op == Op::kPredict && r.status == cce::net::WireStatus::kOk &&
        !o.untyped && r.label != expected_label(a)) {
      o.wrong = true;
    }
    ++answered;
  };

  while (true) {
    int64_t now = NowNs();
    while (next < n && run.start_ns + run.arrivals[next].due_ns <= now) {
      const Arrival& a = run.arrivals[next];
      const size_t c = next % clients_.size();
      build(a, &request);
      request.request_id = base_id + next;
      if (!dead[c] && clients_[c].Send(request).ok()) {
        run.outcomes[next].send_ns = NowNs();
        if (on_sent) on_sent(next, a);
      } else {
        dead[c] = true;
        fds[c].fd = -1;
        run.outcomes[next].send_ns = NowNs();
      }
      last_send_ns = run.outcomes[next].send_ns;
      ++next;
      now = NowNs();
    }
    if (next == n && answered == n) break;
    if (next == n && now - last_send_ns > drain_ns) break;

    int64_t wait_ns = next < n ? run.start_ns + run.arrivals[next].due_ns - now
                               : std::min<int64_t>(50'000'000, drain_ns);
    if (wait_ns < 0) wait_ns = 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < fds.size(); ++c) {
      if (dead[c] || fds[c].revents == 0) continue;
      if ((fds[c].revents & POLLIN) == 0) {
        dead[c] = true;  // HUP/ERR with nothing left to read
        fds[c].fd = -1;
        continue;
      }
      // Decode every frame already buffered on this connection.
      int available = 0;
      do {
        auto response = clients_[c].Receive();
        if (!response.ok()) {
          dead[c] = true;
          fds[c].fd = -1;
          break;
        }
        on_response(*response);
      } while (ioctl(fds[c].fd, FIONREAD, &available) == 0 && available > 0);
    }
  }
  return run;
}

}  // namespace wirebench
