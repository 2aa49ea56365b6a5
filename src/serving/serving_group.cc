#include "serving/serving_group.h"

#include <algorithm>
#include <iterator>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cce::serving {

const char* RoutePolicyName(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kLeaderOnly:
      return "leader-only";
    case RoutePolicy::kPreferFresh:
      return "prefer-fresh";
    case RoutePolicy::kPreferAvailable:
      return "prefer-available";
  }
  return "unknown";
}

/// Rendezvous between the caller and its hedge-pool tasks: each task fills
/// its slot and signals; the caller waits until every item has an
/// acceptable answer or every submitted attempt is done. Heap-allocated and
/// shared so a losing task that outlives the caller still has somewhere
/// safe to write.
struct ServingGroup::HedgeState {
  std::mutex mu;
  std::condition_variable cv;
  Attempt attempts[2];
  int completed = 0;
};

namespace {

/// A served batch's trace outcome is its worst item's.
int OutcomeSeverity(obs::TraceOutcome outcome) {
  constexpr obs::TraceOutcome kOrder[] = {obs::TraceOutcome::kServedFull,
                                          obs::TraceOutcome::kRetried,
                                          obs::TraceOutcome::kDegraded};
  return static_cast<int>(std::find(std::begin(kOrder), std::end(kOrder),
                                    outcome) -
                          std::begin(kOrder));
}

}  // namespace

Result<std::unique_ptr<ServingGroup>> ServingGroup::Create(
    ExplainableProxy* leader, std::vector<ReplicaProxy*> replicas,
    const Options& options) {
  if (leader == nullptr) {
    return Status::InvalidArgument("serving group needs a leader proxy");
  }
  for (const ReplicaProxy* replica : replicas) {
    if (replica == nullptr) {
      return Status::InvalidArgument("serving group replica may not be null");
    }
  }
  if (options.hedge_deadline_fraction <= 0.0 ||
      options.hedge_deadline_fraction > 1.0) {
    return Status::InvalidArgument(
        "hedge_deadline_fraction must be in (0, 1]");
  }
  if (options.hedge_p95_factor <= 0.0) {
    return Status::InvalidArgument("hedge_p95_factor must be positive");
  }
  return std::unique_ptr<ServingGroup>(
      new ServingGroup(leader, std::move(replicas), options));
}

ServingGroup::ServingGroup(ExplainableProxy* leader,
                           std::vector<ReplicaProxy*> replicas,
                           const Options& options)
    : leader_(leader), options_(options), policy_(options.policy) {
  if (options_.latency_window == 0) options_.latency_window = 1;
  registry_ = options_.registry != nullptr ? options_.registry
                                           : std::make_shared<obs::Registry>();
  if (options_.trace_capacity > 0) {
    traces_ = std::make_unique<obs::TraceRing>(options_.trace_capacity,
                                               registry_->clock());
  }
  backends_.resize(1 + replicas.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = backends_[i];
    if (i > 0) backend.replica = replicas[i - 1];
    backend.breaker =
        std::make_unique<CircuitBreaker>(options_.breaker, options_.clock);
    backend.latencies_us.assign(options_.latency_window, 0);
  }
  InitInstruments();
  if (options_.hedge) {
    hedge_pool_ = std::make_unique<ThreadPool>(
        std::max<size_t>(2, options_.hedge_threads));
  }
  RefreshProbes();
}

ServingGroup::~ServingGroup() {
  // Drain in-flight hedge tasks before anything they touch goes away.
  hedge_pool_.reset();
}

void ServingGroup::InitInstruments() {
  obs::Registry& reg = *registry_;
  hedges_ = reg.GetCounter(
      "cce_group_hedges_total",
      "Hedged Explains fired after the primary backend exceeded its hedge "
      "delay.");
  hedge_wins_ = reg.GetCounter(
      "cce_group_hedge_wins_total",
      "Hedged Explains where the hedge request's answer was served (for at "
      "least one item of a batch).");
  failovers_ = reg.GetCounter(
      "cce_group_failovers_total",
      "Read dispatches that skipped past a broken or failing backend.");
  stale_hedge_rejects_ = reg.GetCounter(
      "cce_group_stale_hedge_rejects_total",
      "Secondary answers demoted to degraded because their view was behind "
      "the request's watermark fence.");
  degraded_serves_ = reg.GetCounter(
      "cce_group_degraded_serves_total",
      "Group Explains answered with a degraded key.");
  errors_ = reg.GetCounter(
      "cce_group_errors_total",
      "Group Explains that failed on every routable backend.");
  explain_latency_us_ = reg.GetHistogram(
      "cce_group_explain_latency_us",
      "Group Explain end-to-end latency (routing + hedging included), "
      "microseconds.");
  for (size_t i = 0; i < backends_.size(); ++i) {
    const obs::Labels labels = {{"backend", std::to_string(i)}};
    Backend& backend = backends_[i];
    backend.explains = reg.GetCounter(
        "cce_group_explains_total",
        "Explain attempts dispatched to each serving-group backend.", labels);
    backend.healthy_gauge = reg.GetGauge(
        "cce_group_backend_healthy",
        "1 while the backend is routable, non-degraded, breaker-closed and "
        "within the freshness slack.",
        labels);
    backend.evicted_gauge = reg.GetGauge(
        "cce_group_backend_evicted",
        "1 while the backend is evicted from the read routing set.", labels);
    backend.p95_gauge = reg.GetGauge(
        "cce_group_backend_p95_us",
        "Rolling p95 of the backend's Explain latency, microseconds.",
        labels);
  }
}

uint64_t ServingGroup::BackendSeq(size_t index) const {
  if (index == 0) return leader_->PublishedSequence();
  return backends_[index].replica->published_seq();
}

int64_t ServingGroup::P95Locked(const Backend& backend) const {
  if (backend.latency_count == 0) return 0;
  std::vector<int64_t> sample(
      backend.latencies_us.begin(),
      backend.latencies_us.begin() +
          static_cast<ptrdiff_t>(backend.latency_count));
  size_t nth = (sample.size() * 95) / 100;
  if (nth >= sample.size()) nth = sample.size() - 1;
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<ptrdiff_t>(nth), sample.end());
  return sample[nth];
}

std::vector<size_t> ServingGroup::RouteOrder() {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy_ == RoutePolicy::kLeaderOnly) {
    if (backends_[0].evicted) return {};
    return {0};
  }
  std::vector<size_t> order;
  uint64_t max_published = 0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].evicted) continue;
    order.push_back(i);
    max_published = std::max(max_published, backends_[i].published);
  }
  const uint64_t slack = options_.freshness_slack_seq;
  const RoutePolicy policy = policy_;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Backend& ba = backends_[a];
    const Backend& bb = backends_[b];
    // A degraded view or an open breaker ranks last regardless of policy:
    // those backends stay in the order as last-resort failover targets.
    const bool bad_a = ba.degraded ||
                       ba.breaker->state() == CircuitBreaker::State::kOpen;
    const bool bad_b = bb.degraded ||
                       bb.breaker->state() == CircuitBreaker::State::kOpen;
    if (bad_a != bad_b) return !bad_a;
    const int64_t p95_a = P95Locked(ba);
    const int64_t p95_b = P95Locked(bb);
    if (policy == RoutePolicy::kPreferFresh) {
      const bool fresh_a = ba.published + slack >= max_published;
      const bool fresh_b = bb.published + slack >= max_published;
      if (fresh_a != fresh_b) return fresh_a;
      if (!fresh_a && ba.published != bb.published) {
        return ba.published > bb.published;
      }
      // The leader wins a freshness tie: a replica can only match it as of
      // the last probe, and any write since then leaves the replica's view
      // below the served floor, where its answer would be demoted to
      // degraded. Latency decides between replicas.
      if ((a == 0) != (b == 0)) return a == 0;
      if (p95_a != p95_b) return p95_a < p95_b;
    } else {  // kPreferAvailable
      if (p95_a != p95_b) return p95_a < p95_b;
      if (ba.published != bb.published) return ba.published > bb.published;
    }
    return a < b;  // leader first on full ties
  });
  return order;
}

bool ServingGroup::AdmitBackend(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  return backends_[index].breaker->AllowRequest();
}

void ServingGroup::RecordOutcome(size_t index, const Status& status,
                                 int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  Backend& backend = backends_[index];
  backend.explains->Increment();
  backend.latencies_us[backend.latency_next] = micros;
  backend.latency_next = (backend.latency_next + 1) % backend.latencies_us.size();
  backend.latency_count =
      std::min(backend.latency_count + 1, backend.latencies_us.size());
  backend.p95_gauge->Set(P95Locked(backend));
  if (status.ok()) {
    backend.breaker->RecordSuccess();
  } else if (status.code() != StatusCode::kInvalidArgument) {
    // Client errors are the caller's fault, not the backend's.
    backend.breaker->RecordFailure();
  }
}

ServingGroup::Attempt ServingGroup::Dispatch(
    size_t index, const std::vector<BatchQuery>& items) {
  Attempt attempt;
  attempt.backend = index;
  // Sample the backend's watermark on both sides of the call and report the
  // min: the served view is at least that fresh even if a concurrent resync
  // rebuilt the view mid-call, so view_seq is always a sound lower bound.
  const uint64_t before = BackendSeq(index);
  const auto start = registry_->now();
  if (options_.explain_interceptor) options_.explain_interceptor(index);
  attempt.keys = index == 0 ? leader_->ExplainBatch(items)
                            : backends_[index].replica->ExplainBatch(items);
  const int64_t micros =
      std::chrono::duration_cast<std::chrono::microseconds>(registry_->now() -
                                                            start)
          .count();
  attempt.view_seq = std::min(before, BackendSeq(index));
  // One breaker verdict per dispatch: any served item is a success, a
  // backend failure with nothing served is a failure, and client errors
  // (kInvalidArgument) count neither way — not even when every item is one.
  Status verdict = Status::InvalidArgument("every item was malformed");
  for (const Result<KeyResult>& key : attempt.keys) {
    if (key.ok()) {
      verdict = Status::Ok();
      break;
    }
    if (key.status().code() != StatusCode::kInvalidArgument &&
        verdict.code() == StatusCode::kInvalidArgument) {
      verdict = key.status();
    }
  }
  RecordOutcome(index, verdict, micros);
  if (verdict.code() != StatusCode::kInvalidArgument) {
    attempt.failure = verdict;
  }
  attempt.done = true;
  return attempt;
}

std::chrono::milliseconds ServingGroup::HedgeDelay(size_t primary,
                                                   const Deadline& deadline) {
  int64_t p95_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    p95_us = P95Locked(backends_[primary]);
  }
  auto delay = std::chrono::milliseconds(static_cast<int64_t>(
      static_cast<double>(p95_us) * options_.hedge_p95_factor / 1000.0));
  delay = std::clamp(delay, options_.hedge_min_delay, options_.hedge_max_delay);
  if (!deadline.infinite()) {
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline.remaining());
    delay = std::min(
        delay, std::chrono::milliseconds(static_cast<int64_t>(
                   static_cast<double>(budget.count()) *
                   options_.hedge_deadline_fraction)));
  }
  return std::max(delay, std::chrono::milliseconds(0));
}

void ServingGroup::ApplyFence(Attempt* attempt, uint64_t fence_seq,
                              bool secondary) {
  const bool behind_fence = secondary && attempt->view_seq < fence_seq;
  const bool behind_floor =
      attempt->view_seq < served_floor_.load(std::memory_order_relaxed);
  if (!behind_fence && !behind_floor) return;
  for (Result<KeyResult>& key : attempt->keys) {
    if (!key.ok() || key->degraded) continue;
    // The key is still valid for the view it was computed from — it just
    // may not be the key the fence promised, so it serves flagged.
    key->degraded = true;
    if (behind_fence) stale_hedge_rejects_->Increment();
  }
}

std::vector<Result<ServingGroup::ExplainResult>> ServingGroup::Serve(
    obs::RequestTrace& trace, size_t items, Attempt& primary,
    Attempt* secondary, bool fired_as_hedge) {
  std::vector<Result<ExplainResult>> results;
  results.reserve(items);
  obs::TraceOutcome outcome = obs::TraceOutcome::kServedFull;
  std::optional<Status> failure;
  auto note = [&](obs::TraceOutcome item_outcome) {
    if (OutcomeSeverity(item_outcome) > OutcomeSeverity(outcome)) {
      outcome = item_outcome;
    }
  };
  bool hedge_won = false;
  for (size_t i = 0; i < items; ++i) {
    const bool hedged =
        secondary != nullptr && secondary->Quality(i) > primary.Quality(i);
    Attempt& from = hedged ? *secondary : primary;
    Result<KeyResult>& key = from.keys[i];
    if (!key.ok()) {
      errors_->Increment();
      note(obs::TraceOutcome::kError);
      if (!failure.has_value()) failure = key.status();
      results.push_back(key.status());
      continue;
    }
    ExplainResult out;
    out.key = std::move(key).value();
    out.backend = from.backend;
    out.view_seq = from.view_seq;
    out.hedged = hedged;
    hedge_won = hedge_won || (hedged && fired_as_hedge);
    if (out.key.degraded) {
      degraded_serves_->Increment();
      note(obs::TraceOutcome::kDegraded);
    } else {
      uint64_t floor = served_floor_.load(std::memory_order_relaxed);
      while (floor < out.view_seq &&
             !served_floor_.compare_exchange_weak(floor, out.view_seq,
                                                  std::memory_order_relaxed)) {
      }
      note(hedged ? obs::TraceOutcome::kRetried
                  : obs::TraceOutcome::kServedFull);
    }
    results.push_back(std::move(out));
  }
  if (hedge_won) hedge_wins_->Increment();
  trace.set_outcome(outcome);
  if (failure.has_value()) trace.set_detail(failure->ToString());
  return results;
}

Result<ServingGroup::ExplainResult> ServingGroup::Explain(
    const Instance& x, Label y, const Deadline& deadline) {
  return std::move(ExplainBatch({{x, y, deadline}}).front());
}

std::vector<Result<ServingGroup::ExplainResult>> ServingGroup::ExplainBatch(
    const std::vector<BatchQuery>& items) {
  if (items.empty()) return {};
  obs::RequestTrace trace(traces_.get(), "group_explain");
  obs::ScopedLatency latency(registry_.get(), explain_latency_us_);
  // Nothing was served: every item fails with `status`.
  auto fail_all = [&](obs::TraceOutcome outcome, const Status& status) {
    errors_->Add(items.size());
    trace.set_outcome(outcome);
    trace.set_detail(status.ToString());
    return std::vector<Result<ExplainResult>>(items.size(), status);
  };
  const std::vector<size_t> order = RouteOrder();
  if (order.empty()) {
    return fail_all(obs::TraceOutcome::kBroke,
                    Status::Unavailable("serving group: no routable backend"));
  }
  // The fence: the freshest view the preferred backend promised at entry.
  // No secondary answer may serve non-degraded from behind it.
  const uint64_t fence_seq = BackendSeq(order[0]);

  const bool can_hedge = options_.hedge && hedge_pool_ != nullptr &&
                         policy() != RoutePolicy::kLeaderOnly &&
                         order.size() > 1;
  if (!can_hedge) {
    // Synchronous sequential failover down the route order: the first
    // backend that serves any item answers the whole batch.
    Status last = Status::Unavailable("serving group: all breakers open");
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (AdmitBackend(order[pos])) {
        Attempt attempt = Dispatch(order[pos], items);
        if (attempt.failure.ok()) {
          ApplyFence(&attempt, fence_seq, /*secondary=*/pos > 0);
          return Serve(trace, items.size(), attempt, nullptr, false);
        }
        last = attempt.failure;
      }
      if (pos + 1 < order.size()) failovers_->Increment();
    }
    return fail_all(obs::TraceOutcome::kError, last);
  }

  size_t pos = 0;
  while (pos < order.size() && !AdmitBackend(order[pos])) {
    failovers_->Increment();
    ++pos;
  }
  if (pos == order.size()) {
    return fail_all(obs::TraceOutcome::kBroke,
                    Status::Unavailable("serving group: all breakers open"));
  }
  const bool primary_is_preferred = pos == 0;
  auto state = std::make_shared<HedgeState>();
  auto shared_items = std::make_shared<const std::vector<BatchQuery>>(items);
  auto submit = [&](int slot, size_t index) {
    hedge_pool_->Submit([this, state, shared_items, slot, index] {
      Attempt attempt = Dispatch(index, *shared_items);
      std::lock_guard<std::mutex> lock(state->mu);
      state->attempts[slot] = std::move(attempt);
      ++state->completed;
      state->cv.notify_all();
    });
  };
  // Under state->mu: fences the finished attempts (idempotent) and reports
  // whether every item already has an acceptable answer in one of them.
  auto settled = [&] {
    for (int slot = 0; slot < 2; ++slot) {
      Attempt& attempt = state->attempts[slot];
      if (attempt.done) {
        ApplyFence(&attempt, fence_seq,
                   /*secondary=*/slot == 1 || !primary_is_preferred);
      }
    }
    for (size_t i = 0; i < items.size(); ++i) {
      if (!state->attempts[0].Acceptable(i) &&
          !state->attempts[1].Acceptable(i)) {
        return false;
      }
    }
    return true;
  };

  // Give the primary its head start, bounded by the earliest item deadline.
  const std::chrono::milliseconds delay =
      HedgeDelay(order[pos], EarliestDeadline(items));
  submit(0, order[pos]);
  bool fired_as_hedge = false;
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait_for(lock, delay, [&] { return state->attempts[0].done; });
  if (!settled()) {
    // The primary is slow (hedge) or answered some item badly (failover):
    // fire the same batch at the next admissible backend.
    const bool primary_done = state->attempts[0].done;
    lock.unlock();
    bool secondary_fired = false;
    for (++pos; pos < order.size() && !secondary_fired; ++pos) {
      if (!AdmitBackend(order[pos])) {
        failovers_->Increment();
        continue;
      }
      secondary_fired = true;
      fired_as_hedge = !primary_done;
      (fired_as_hedge ? hedges_ : failovers_)->Increment();
      submit(1, order[pos]);
    }
    lock.lock();
    const int expected = secondary_fired ? 2 : 1;
    state->cv.wait(lock,
                   [&] { return settled() || state->completed >= expected; });
  }
  // A finished attempt is never written again, so its answers move out.
  Attempt primary;
  Attempt secondary;
  if (state->attempts[0].done) primary = std::move(state->attempts[0]);
  if (state->attempts[1].done) secondary = std::move(state->attempts[1]);
  lock.unlock();
  return Serve(trace, items.size(), primary, &secondary, fired_as_hedge);
}

Result<Label> ServingGroup::Predict(const Instance& x,
                                    const Deadline& deadline) {
  return leader_->Predict(x, deadline);
}

Status ServingGroup::Record(const Instance& x, Label y) {
  return leader_->Record(x, y);
}

Result<std::vector<RelativeCounterfactual>> ServingGroup::Counterfactuals(
    const Instance& x, Label y) {
  const std::vector<size_t> order = RouteOrder();
  if (order.empty()) {
    return Status::Unavailable("serving group: no routable backend");
  }
  Status last = Status::Unavailable("serving group: no backend answered");
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t index = order[pos];
    auto result = index == 0
                      ? leader_->Counterfactuals(x, y)
                      : backends_[index].replica->Counterfactuals(x, y);
    if (result.ok() ||
        result.status().code() == StatusCode::kInvalidArgument) {
      return result;
    }
    last = result.status();
    if (pos + 1 < order.size()) failovers_->Increment();
  }
  return last;
}

void ServingGroup::RefreshProbes() {
  const size_t n = backends_.size();
  std::vector<bool> degraded(n, false);
  std::vector<uint64_t> published(n, 0);
  // Probe every backend outside mu_ — Health() takes backend-side locks.
  const HealthSnapshot leader_health = leader_->Health();
  degraded[0] = leader_health.degraded_context;
  published[0] = leader_->PublishedSequence();
  for (size_t i = 1; i < n; ++i) {
    const ReplicaProxy::Health health = backends_[i].replica->GetHealth();
    degraded[i] = health.degraded;
    published[i] = health.view_published;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    Backend& backend = backends_[i];
    backend.degraded = degraded[i];
    backend.published = published[i];
    const uint64_t lag =
        published[0] > backend.published ? published[0] - backend.published : 0;
    const bool healthy =
        !backend.evicted && !backend.degraded &&
        backend.breaker->state() == CircuitBreaker::State::kClosed &&
        lag <= options_.freshness_slack_seq;
    backend.healthy_gauge->Set(healthy ? 1 : 0);
    backend.evicted_gauge->Set(backend.evicted ? 1 : 0);
  }
}

ServingGroup::GroupHealth ServingGroup::Health() {
  RefreshProbes();
  GroupHealth health;
  std::lock_guard<std::mutex> lock(mu_);
  health.policy = policy_;
  const uint64_t leader_published = backends_[0].published;
  bool fully = true;
  for (size_t i = 0; i < backends_.size(); ++i) {
    const Backend& backend = backends_[i];
    BackendHealth entry;
    entry.index = i;
    entry.is_leader = i == 0;
    entry.evicted = backend.evicted;
    entry.degraded = backend.degraded;
    entry.published_seq = backend.published;
    entry.lag_seq = leader_published > backend.published
                        ? leader_published - backend.published
                        : 0;
    entry.breaker = backend.breaker->state();
    entry.p95_us = P95Locked(backend);
    entry.healthy = !entry.evicted && !entry.degraded &&
                    entry.breaker == CircuitBreaker::State::kClosed &&
                    entry.lag_seq <= options_.freshness_slack_seq;
    fully = fully && entry.healthy;
    health.explains += backend.explains->Value();
    health.backends.push_back(std::move(entry));
  }
  health.hedges = hedges_->Value();
  health.hedge_wins = hedge_wins_->Value();
  health.failovers = failovers_->Value();
  health.stale_hedge_rejects = stale_hedge_rejects_->Value();
  health.degraded_serves = degraded_serves_->Value();
  health.errors = errors_->Value();
  health.fully_healthy = fully;
  return health;
}

void ServingGroup::EvictBackend(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= backends_.size()) return;
  backends_[index].evicted = true;
  backends_[index].evicted_gauge->Set(1);
}

void ServingGroup::ReadmitBackend(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= backends_.size()) return;
  backends_[index].evicted = false;
  backends_[index].evicted_gauge->Set(0);
}

void ServingGroup::set_policy(RoutePolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
}

RoutePolicy ServingGroup::policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

}  // namespace cce::serving
