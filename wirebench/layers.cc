#include "layers.h"

#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "core/bitset_conformity.h"
#include "io/context_wal.h"
#include "serving/read_path.h"
#include "stats.h"

namespace wirebench {

namespace {

// Queued samples beyond this are dropped: the peeler must not build a
// backlog that outlives the phase it samples.
constexpr size_t kMaxQueued = 2;
constexpr size_t kBatchItems = 16;
// Count and add/remove take nanoseconds; several calls per sample.
constexpr int kConformityReps = 8;

uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Tracer::Tracer(const WorkloadSpec& spec, const Inputs& inputs, Stack* stack,
               uint64_t seed)
    : spec_(spec),
      inputs_(inputs),
      stack_(stack),
      seed_(seed),
      rng_(seed ^ 0x5a3b1e77ULL),
      thread_([this] { Loop(); }) {}

Tracer::~Tracer() { Stop(); }

void Tracer::Offer(size_t ordinal, const Arrival& arrival) {
  if (Mix64(seed_ ^ (uint64_t{phase_} << 40) ^ ordinal) % spec_.trace_every !=
      0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++offered_;
  if (queue_.size() + (busy_ ? 1 : 0) > kMaxQueued) {
    ++dropped_;
    return;
  }
  queue_.push_back({phase_, static_cast<uint32_t>(ordinal), arrival});
  cv_.notify_one();
}

void Tracer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void Tracer::Loop() {
  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      busy_ = false;
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      item = queue_.front();
      queue_.pop_front();
      busy_ = true;
    }
    Peel(item);
  }
}

void Tracer::Peel(const Item& item) {
  auto span = [&](const char* name, const char* parent, auto&& fn) {
    Span s{name, parent, NowNs(), 0, item.phase, item.ordinal};
    auto result = fn();
    s.end_ns = NowNs();
    spans_.push_back(s);
    return result;
  };
  auto* group = stack_->group();
  auto* proxy = stack_->proxy();
  const Arrival& a = item.arrival;

  if (a.op != Op::kExplain) {
    const cce::Instance& x = inputs_.writes.instance(a.item);
    const cce::Label y = inputs_.writes.label(a.item);
    bool group_ok = false;
    bool proxy_ok = false;
    if (a.op == Op::kPredict) {
      group_ok = span("group", "wire", [&] { return group->Predict(x).ok(); });
      proxy_ok = span("proxy", "group", [&] { return proxy->Predict(x).ok(); });
    } else {
      group_ok =
          span("group", "wire", [&] { return group->Record(x, y).ok(); });
      proxy_ok =
          span("proxy", "group", [&] { return proxy->Record(x, y).ok(); });
    }
    ok_writes_ += (group_ok ? 1 : 0) + (proxy_ok ? 1 : 0);
    return;
  }

  const cce::Instance& x = inputs_.targets.instance(a.item);
  const cce::Label y = inputs_.targets.label(a.item);
  span("group", "wire", [&] { return group->Explain(x, y).ok(); });
  span("proxy", "group", [&] { return proxy->Explain(x, y).ok(); });
  if (stack_->replica() != nullptr) {
    span("replica.explain", "group",
         [&] { return stack_->replica()->Explain(x, y).ok(); });
  }
  const cce::Context context =
      span("snapshot", "proxy", [&] { return proxy->ContextSnapshot(); });
  const cce::serving::ReadPath path;
  auto key = span("search", "proxy", [&] {
    return cce::serving::SearchKey(context, x, y, {}, path);
  });
  std::vector<cce::serving::BatchQuery> batch(kBatchItems);
  batch[0] = {x, y, {}};
  for (size_t i = 1; i < kBatchItems; ++i) {
    const uint32_t t = inputs_.PickTarget(&rng_);
    batch[i] = {inputs_.targets.instance(t), inputs_.targets.label(t), {}};
  }
  span("search_batch16", "proxy", [&] {
    return cce::serving::SearchKeyBatch(context, batch, path).ok();
  });
  if (!key.ok()) return;
  auto checker = span("conformity.build", "search", [&] {
    return std::make_unique<cce::BitsetConformityChecker>(&context);
  });
  // The first AddRow after a build grows every bitmap; that one-off cost
  // is not the per-write maintenance a live index would pay.
  checker->RemoveRow(checker->AddRow(x, y));
  for (int rep = 0; rep < kConformityReps; ++rep) {
    span("conformity.count", "search",
         [&] { return checker->CountViolators(x, y, key->key); });
    span("conformity.add_remove", "search", [&] {
      checker->RemoveRow(checker->AddRow(x, y));
      return 0;
    });
  }
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"parent\":\"%s\",\"phase\":%u,"
                 "\"ordinal\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.parent, s.phase, s.ordinal,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double CodecMedianUs(const std::vector<cce::net::Request>& requests,
                     const std::vector<cce::net::Response>& responses) {
  std::vector<double> us;
  cce::net::Request req_out;
  cce::net::Response resp_out;
  cce::net::FrameHeader header;
  for (size_t i = 0; i < requests.size(); ++i) {
    const cce::net::Response& resp = responses[i % responses.size()];
    const int64_t t0 = NowNs();
    const std::string req_frame = cce::net::EncodeRequest(requests[i]);
    const auto* rb = reinterpret_cast<const uint8_t*>(req_frame.data());
    bool ok = cce::net::DecodeFrameHeader(rb, req_frame.size(), &header).ok() &&
              cce::net::DecodeRequestBody(
                  header, rb + cce::net::kFrameHeaderBytes, &req_out)
                  .ok();
    const std::string resp_frame = cce::net::EncodeResponse(resp);
    const auto* pb = reinterpret_cast<const uint8_t*>(resp_frame.data());
    ok = ok &&
         cce::net::DecodeFrameHeader(pb, resp_frame.size(), &header).ok() &&
         cce::net::DecodeResponseBody(
             header, pb + cce::net::kFrameHeaderBytes, &resp_out)
             .ok();
    const int64_t t1 = NowNs();
    if (ok) us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return Median(us);
}

WalProbe ProbeWal(const std::string& path, const cce::Dataset& rows,
                  size_t count) {
  WalProbe probe;
  std::remove(path.c_str());
  cce::io::ContextWal::Options options;
  options.sync_every = 1;
  auto wal = cce::io::ContextWal::Open(path, options, nullptr, nullptr);
  if (!wal.ok()) return probe;
  const uint64_t header_bytes = (*wal)->size_bytes();
  std::vector<double> us;
  for (size_t i = 0; i < count && i < rows.size(); ++i) {
    const int64_t t0 = NowNs();
    if (!(*wal)->Append(rows.instance(i), rows.label(i), i + 1).ok()) break;
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  probe.append_us = Median(us);
  if (!us.empty()) {
    probe.bytes_per_row =
        static_cast<double>((*wal)->size_bytes() - header_bytes) /
        static_cast<double>(us.size());
  }
  wal->reset();
  std::remove(path.c_str());
  return probe;
}

ReplicationProbe ProbeReplication(const WorkloadSpec& spec,
                                  const Inputs& inputs,
                                  cce::serving::ExplainableProxy* leader,
                                  const std::string& leader_dir,
                                  const std::string& ship_dir,
                                  size_t* write_cursor) {
  constexpr int kRounds = 8;
  constexpr int kBurst = 64;
  constexpr size_t kExplains = 16;
  ReplicationProbe probe;
  const int64_t t0 = NowNs();
  auto follower =
      Follower::Start(spec, inputs, leader, leader_dir, ship_dir);
  CCE_CHECK_OK(follower.status());
  probe.bootstrap_ms = static_cast<double>(NowNs() - t0) / 1e6;
  for (int round = 0; round < kRounds; ++round) {
    for (int w = 0; w < kBurst; ++w) {
      const size_t row = (*write_cursor)++ % inputs.writes.size();
      CCE_CHECK_OK(leader->Record(inputs.writes.instance(row),
                                  inputs.writes.label(row)));
    }
    const int64_t acked = NowNs();
    probe.cycles.push_back((*follower)->Cycle(leader));
    probe.lag_ms.push_back(
        static_cast<double>(probe.cycles.back().end_ns - acked) / 1e6);
  }
  for (size_t i = 0; i < kExplains; ++i) {
    const int64_t start = NowNs();
    CCE_CHECK_OK((*follower)
                     ->replica
                     ->Explain(inputs.targets.instance(i),
                               inputs.targets.label(i))
                     .status());
    probe.explain_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return probe;
}

std::vector<double> ProbePredict(cce::serving::ExplainableProxy* proxy,
                                 const Inputs& inputs, size_t* write_cursor) {
  constexpr int kCalls = 32;
  std::vector<double> us;
  for (int i = 0; i < kCalls; ++i) {
    const size_t row = (*write_cursor)++ % inputs.writes.size();
    const int64_t t0 = NowNs();
    CCE_CHECK_OK(proxy->Predict(inputs.writes.instance(row)).status());
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return us;
}

}  // namespace wirebench
