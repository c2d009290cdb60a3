#include "serving/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/stats.h"
#include "rpc/netem.h"
#include "telemetry/telemetry.h"
#include "workload/monitor.h"

namespace kairos::serving {
namespace {

/// The admission knobs' one check, shared by Create() and SetAdmission().
Status CheckAdmission(const AdmissionOptions& admission) {
  if (!(admission.deadline_s >= 0.0)) {  // NaN fails too
    return Status::InvalidArgument(
        "admission deadline_s must be >= 0, got " +
        std::to_string(admission.deadline_s));
  }
  return Status::Ok();
}

}  // namespace

const char* EngineStateName(EngineState state) {
  switch (state) {
    case EngineState::kServing: return "SERVING";
    case EngineState::kDraining: return "DRAINING";
    case EngineState::kDrained: return "DRAINED";
  }
  return "UNKNOWN";
}

Engine::Engine(SystemSpec spec, std::unique_ptr<policy::Policy> policy,
               PredictorOptions predictor_options, EngineOptions options,
               sim::Simulator* shared_clock)
    : spec_(std::move(spec)),
      policy_(std::move(policy)),
      predictor_options_(predictor_options),
      options_(options),
      sim_(shared_clock != nullptr ? shared_clock : &owned_sim_),
      target_config_(spec_.config),
      rng_(options.seed) {}

StatusOr<std::unique_ptr<Engine>> Engine::Create(
    SystemSpec spec, std::unique_ptr<policy::Policy> policy,
    PredictorOptions predictor_options, EngineOptions options,
    sim::Simulator* shared_clock) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<Engine> engine(new Engine(std::move(spec), std::move(policy),
                                            predictor_options, options,
                                            shared_clock));
  if (Status status = engine->Init(); !status.ok()) return status;
  return engine;
}

Status Engine::Init() {
  if (spec_.catalog == nullptr || spec_.truth == nullptr) {
    return Status::InvalidArgument("engine needs a catalog and a truth model");
  }
  if (spec_.config.NumTypes() != spec_.catalog->size()) {
    return Status::InvalidArgument("config/catalog arity mismatch");
  }
  if (policy_ == nullptr) {
    return Status::InvalidArgument("engine needs a distribution policy");
  }
  if (spec_.config.TotalInstances() == 0) {
    return Status::InvalidArgument("engine needs at least one instance");
  }
  if (Status s = CheckAdmission(options_.admission); !s.ok()) return s;
  predictor_ = std::make_unique<LatencyPredictor>(*spec_.catalog, *spec_.truth,
                                                  predictor_options_);
  // Lay out base-type instances first: several FCFS baselines resolve ties
  // by instance order, which realizes their documented base-type preference.
  const cloud::TypeId base = spec_.catalog->BaseType();
  for (int k = 0; k < spec_.config.Count(base); ++k) AddInstance(base);
  for (cloud::TypeId t = 0; t < spec_.catalog->size(); ++t) {
    if (t == base) continue;
    for (int k = 0; k < spec_.config.Count(t); ++k) AddInstance(t);
  }
  totals_.per_type_busy.assign(spec_.catalog->size(), 0.0);
  totals_.per_type_served.assign(spec_.catalog->size(), 0);
  pending_by_type_.assign(spec_.catalog->size(), 0);
  billed_seconds_.assign(spec_.catalog->size(), 0.0);
  census_time_ = sim_->Now();
  // Chaos network hops draw from their own stream: installing a degraded
  // fabric must not perturb the arrival/policy RNG, and a zero-chaos run
  // never touches this one.
  net_rng_ = Rng(options_.seed ^ 0x6E657477696E6AULL);
  qos_sec_ = MsToSec(spec_.qos_ms);
  window_start_ = sim_->Now();
  policy_->Reset();
  return Status::Ok();
}

void Engine::AddInstance(cloud::TypeId type) {
  Instance inst;
  inst.type = type;
  inst.domain = domain_counter_++ % NumDomains();
  instances_.push_back(std::move(inst));
}

std::size_t Engine::NumDomains() const {
  return std::max<std::size_t>(options_.failure_domains, 1);
}

std::size_t Engine::LiveCount(cloud::TypeId type) const {
  std::size_t live = 0;
  for (const Instance& inst : instances_) {
    if (inst.type == type && !inst.retired && !inst.retiring) ++live;
  }
  return live;
}

std::size_t Engine::ActiveInstances() const {
  std::size_t active = 0;
  for (const Instance& inst : instances_) {
    if (!inst.retired) ++active;
  }
  return active;
}

std::size_t Engine::AssignableInstances() const {
  std::size_t assignable = 0;
  for (const Instance& inst : instances_) {
    if (!inst.retired && !inst.retiring) ++assignable;
  }
  return assignable;
}

std::size_t Engine::PendingInstances() const {
  std::size_t pending = 0;
  for (const std::size_t count : pending_by_type_) pending += count;
  return pending;
}

void Engine::AccrueBilling() {
  const Time now = sim_->Now();
  if (now > census_time_) {
    const Time span = now - census_time_;
    for (cloud::TypeId t = 0; t < spec_.catalog->size(); ++t) {
      billed_seconds_[t] +=
          static_cast<double>(pending_by_type_[t]) * span;
    }
    for (const Instance& inst : instances_) {
      if (!inst.retired) billed_seconds_[inst.type] += span;
    }
  }
  census_time_ = now;
}

std::vector<double> Engine::BilledSecondsPerType() const {
  std::vector<double> billed = billed_seconds_;
  const Time now = sim_->Now();
  if (now > census_time_) {
    const Time span = now - census_time_;
    for (cloud::TypeId t = 0; t < spec_.catalog->size(); ++t) {
      billed[t] += static_cast<double>(pending_by_type_[t]) * span;
    }
    for (const Instance& inst : instances_) {
      if (!inst.retired) billed[inst.type] += span;
    }
  }
  return billed;
}

std::vector<std::size_t> Engine::NewestAssignable(std::size_t count) const {
  // Newest = highest index (instances_ grows append-only). The cap keeps
  // one assignable survivor so chaos can degrade a model, never zero it.
  const std::size_t assignable = AssignableInstances();
  if (assignable <= 1) return {};
  count = std::min(count, assignable - 1);
  std::vector<std::size_t> victims;
  for (std::size_t i = instances_.size(); i-- > 0 && victims.size() < count;) {
    const Instance& inst = instances_[i];
    if (!inst.retired && !inst.retiring) victims.push_back(i);
  }
  return victims;
}

std::size_t Engine::PreemptInstances(std::size_t count, double notice_s) {
  if (state_ != EngineState::kServing || count == 0) return 0;
  const std::vector<std::size_t> victims = NewestAssignable(count);
  for (const std::size_t idx : victims) {
    // The notice window: no new work from now (retiring drains what it
    // holds), hard reclaim at the deadline unless it drained first.
    instances_[idx].retiring = true;
    ++preemption_notices_;
    sim_->After(std::max(notice_s, 0.0),
                [this, idx] { HardKill(idx, /*preemption=*/true); });
  }
  return victims.size();
}

std::size_t Engine::KillInstances(std::size_t count) {
  if (state_ != EngineState::kServing || count == 0) return 0;
  const std::vector<std::size_t> victims = NewestAssignable(count);
  for (const std::size_t idx : victims) {
    HardKill(idx, /*preemption=*/false);
  }
  return victims.size();
}

std::vector<std::size_t> Engine::DomainAssignable(std::size_t domain) const {
  const std::size_t assignable = AssignableInstances();
  if (assignable <= 1 || domain >= NumDomains()) return {};
  std::vector<std::size_t> victims;
  for (std::size_t i = instances_.size(); i-- > 0;) {
    const Instance& inst = instances_[i];
    if (!inst.retired && !inst.retiring && inst.domain == domain) {
      victims.push_back(i);
    }
  }
  // Survivor rule: a domain that holds every assignable instance spares
  // the fleet-wide oldest one, mirroring NewestAssignable's cap.
  if (victims.size() == assignable) victims.pop_back();
  return victims;
}

std::size_t Engine::PreemptDomain(std::size_t domain, double notice_s) {
  if (state_ != EngineState::kServing) return 0;
  const std::vector<std::size_t> victims = DomainAssignable(domain);
  for (const std::size_t idx : victims) {
    instances_[idx].retiring = true;
    ++preemption_notices_;
    sim_->After(std::max(notice_s, 0.0),
                [this, idx] { HardKill(idx, /*preemption=*/true); });
  }
  return victims.size();
}

std::size_t Engine::KillDomain(std::size_t domain) {
  if (state_ != EngineState::kServing) return 0;
  const std::vector<std::size_t> victims = DomainAssignable(domain);
  for (const std::size_t idx : victims) {
    HardKill(idx, /*preemption=*/false);
  }
  return victims.size();
}

void Engine::HardKill(std::size_t instance_idx, bool preemption) {
  Instance& inst = instances_[instance_idx];
  if (inst.retired) return;  // drained inside the notice window
  AccrueBilling();           // billed until the reclaim, not a tick longer

  InstanceFault fault;
  fault.time = sim_->Now();
  fault.preemption = preemption;

  std::vector<workload::Query>& orphans = orphan_scratch_;
  orphans.clear();
  if (inst.executing) {
    sim_->Cancel(inst.completion_event);
    // The interrupted query's remaining compute never happened.
    inst.busy_time -= std::min(
        inst.current_work, std::max(0.0, inst.current_finish - sim_->Now()));
    inst.executing = false;
    orphans.push_back(inst.current_query);
  }
  for (const workload::Query& q : inst.fifo) orphans.push_back(q);
  inst.fifo.clear();
  fault.requeued = orphans.size();
  // Orphans re-enter at the *front* of the central queue in their
  // original order: they arrived before anything queued behind them, and
  // their original arrival stamps carry the preemption damage into the
  // latency tail.
  for (std::size_t i = orphans.size(); i-- > 0;) {
    waiting_.push_front(orphans[i]);
  }

  inst.retiring = false;
  inst.retired = true;
  faults_.push_back(fault);
  // Survivors absorb the requeued work right away.
  RunRound();
}

Status Engine::Submit(workload::Query q) {
  if (state_ != EngineState::kServing) {
    return Status::FailedPrecondition(
        std::string("engine is ") + EngineStateName(state_) +
        "; submissions are only accepted while SERVING");
  }
  if (q.arrival < sim_->Now()) {
    return Status::InvalidArgument(
        "query arrival " + std::to_string(q.arrival) +
        "s is in the past (now " + std::to_string(sim_->Now()) + "s)");
  }
  ++totals_.offered;
  if (telemetry_ != nullptr) {
    telemetry_->tracer->EmitInstant(
        telemetry_->shard, "engine.submit",
        {{"arrival_s", std::to_string(q.arrival)},
         {"batch", std::to_string(q.batch_size)}});
  }
  sim_->At(q.arrival, [this, q] { OnArrival(q); });
  return Status::Ok();
}

Status Engine::SubmitSource(workload::QuerySource& source) {
  if (state_ != EngineState::kServing) {
    return Status::FailedPrecondition(
        std::string("engine is ") + EngineStateName(state_) +
        "; sources are only accepted while SERVING");
  }
  sources_.push_back(SourceState{&source, /*pending=*/0, /*open=*/true});
  PullSource(sources_.size() - 1);
  return Status::Ok();
}

void Engine::PullSource(std::size_t slot) {
  SourceState& state = sources_[slot];
  if (!state.open || abort_requested_) return;
  const std::optional<workload::Emission> emission =
      state.source->Next(rng_);
  if (!emission.has_value()) {
    state.open = false;
    return;
  }
  const workload::Query q{next_source_id_++, emission->batch,
                          sim_->Now() + emission->gap / arrival_scale_};
  // Source queries join the offered ledger on *arrival*: the one
  // scheduled-ahead emission must not inflate an undrained engine's
  // Totals() (Fleet::ServeAll reads them mid-flight).
  state.pending = sim_->At(q.arrival, [this, slot, q] {
    ++totals_.offered;
    OnArrival(q);
    PullSource(slot);
  });
}

std::size_t Engine::AdvanceTo(Time t) {
  const std::uint64_t wall_start_us =
      telemetry_ != nullptr ? telemetry_->tracer->NowUs() : 0;
  std::size_t fired = 0;
  while (!abort_requested_ && !sim_->Idle() && sim_->NextEventTime() <= t) {
    sim_->Step();
    ++fired;
  }
  if (!abort_requested_) sim_->FastForward(t);
  if (state_ == EngineState::kDraining && sim_->Idle()) {
    state_ = EngineState::kDrained;
  }
  if (telemetry_ != nullptr) {
    const std::uint64_t wall_us =
        telemetry_->tracer->NowUs() - wall_start_us;
    telemetry_->metrics->Observe(telemetry_->advance_wall_us,
                                 telemetry_->shard,
                                 static_cast<double>(wall_us));
    telemetry_->tracer->EmitSpan(
        telemetry_->shard, "engine.advance", wall_start_us, wall_us,
        {{"fired", std::to_string(fired)}, {"to_s", std::to_string(t)}});
  }
  return fired;
}

std::size_t Engine::Drain() {
  if (state_ == EngineState::kDrained) return 0;
  if (state_ == EngineState::kServing) {
    state_ = EngineState::kDraining;
    for (SourceState& source : sources_) {
      if (source.open) {
        // The cancelled emission was never counted (sources count on
        // arrival), so no offered bookkeeping is needed.
        sim_->Cancel(source.pending);
        source.open = false;
      }
    }
  }
  // Run until everything this engine accepted has completed — not until
  // the clock idles: a shared clock may carry co-simulated peers' events
  // (including unbounded source chains) forever. Rejected and shed
  // queries already left the system and will never complete.
  const std::uint64_t wall_start_us =
      telemetry_ != nullptr ? telemetry_->tracer->NowUs() : 0;
  std::size_t fired = 0;
  while (!abort_requested_ &&
         totals_.served + totals_.rejected + totals_.shed <
             totals_.offered &&
         sim_->Step()) {
    ++fired;
  }
  state_ = EngineState::kDrained;
  if (telemetry_ != nullptr) {
    const std::uint64_t wall_us =
        telemetry_->tracer->NowUs() - wall_start_us;
    telemetry_->metrics->Observe(telemetry_->advance_wall_us,
                                 telemetry_->shard,
                                 static_cast<double>(wall_us));
    telemetry_->tracer->EmitSpan(telemetry_->shard, "engine.drain",
                                 wall_start_us, wall_us,
                                 {{"fired", std::to_string(fired)}});
  }
  return fired;
}

Status Engine::SetAdmission(const AdmissionOptions& admission) {
  if (state_ != EngineState::kServing) {
    return Status::FailedPrecondition(
        std::string("engine is ") + EngineStateName(state_) +
        "; mutations are only accepted while SERVING");
  }
  if (Status s = CheckAdmission(admission); !s.ok()) return s;
  options_.admission = admission;
  // A newly set (or tightened) deadline takes effect on the current
  // queue right away rather than waiting for the next arrival.
  RunRound();
  return Status::Ok();
}

Status Engine::SetArrivalScale(double scale) {
  if (state_ != EngineState::kServing) {
    return Status::FailedPrecondition(
        std::string("engine is ") + EngineStateName(state_) +
        "; mutations are only accepted while SERVING");
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("arrival scale must be positive, got " +
                                   std::to_string(scale));
  }
  arrival_scale_ = scale;
  return Status::Ok();
}

Status Engine::SwapPolicy(const std::string& name,
                          const policy::KnobMap& knobs) {
  if (state_ != EngineState::kServing) {
    return Status::FailedPrecondition(
        std::string("engine is ") + EngineStateName(state_) +
        "; mutations are only accepted while SERVING");
  }
  auto built = policy::PolicyRegistry::Global().Build(name, knobs);
  if (!built.ok()) return built.status();
  policy_ = *std::move(built);
  policy_->Reset();
  // Redistribute the central queue under the new scheme right away.
  RunRound();
  return Status::Ok();
}

Status Engine::Reconfigure(const cloud::Config& config) {
  if (state_ != EngineState::kServing) {
    return Status::FailedPrecondition(
        std::string("engine is ") + EngineStateName(state_) +
        "; mutations are only accepted while SERVING");
  }
  if (config.NumTypes() != spec_.catalog->size()) {
    return Status::InvalidArgument(
        "config/catalog arity mismatch: config has " +
        std::to_string(config.NumTypes()) + " types, catalog " +
        std::to_string(spec_.catalog->size()));
  }
  if (config.TotalInstances() == 0) {
    return Status::InvalidArgument(
        "reconfiguration must keep at least one instance");
  }

  target_config_ = config;
  // The billed set (live + pending) is about to change shape.
  AccrueBilling();

  for (cloud::TypeId t = 0; t < spec_.catalog->size(); ++t) {
    const std::size_t target = static_cast<std::size_t>(config.Count(t));
    // Launches already pending count toward the target with their
    // *original* schedule — re-issuing an unchanged target must not
    // reset anyone's launch lag (a periodic reallocator would otherwise
    // starve growth forever whenever its period <= launch_lag_s).
    std::size_t expected = LiveCount(t) + pending_by_type_[t];
    if (target > expected) {
      for (std::size_t k = 0; k < target - expected; ++k) {
        const sim::EventId id =
            sim_->After(options_.launch_lag_s, [this, t] {
              --pending_by_type_[t];
              AddInstance(t);
              // Fresh capacity may unblock the central queue immediately.
              RunRound();
            });
        pending_launches_.push_back(PendingLaunch{id, t});
        ++pending_by_type_[t];
      }
    } else if (target < expected) {
      // Shrink by cancelling not-yet-online launches first (newest
      // scheduled last, cancelled first), then retiring live instances
      // newest-first: idle ones go offline on the spot, busy ones stop
      // taking work and drain what they hold.
      std::size_t excess = expected - target;
      for (std::size_t i = pending_launches_.size(); i-- > 0 && excess > 0;) {
        if (pending_launches_[i].type != t) continue;
        if (sim_->Cancel(pending_launches_[i].id)) {
          --pending_by_type_[t];
          --excess;
        }
        pending_launches_.erase(pending_launches_.begin() +
                                static_cast<std::ptrdiff_t>(i));
      }
      for (std::size_t i = instances_.size(); i-- > 0 && excess > 0;) {
        Instance& inst = instances_[i];
        if (inst.type != t || inst.retired || inst.retiring) continue;
        if (!inst.executing && inst.fifo.empty()) {
          inst.retired = true;
        } else {
          inst.retiring = true;
        }
        --excess;
      }
    }
  }
  return Status::Ok();
}

WindowedMetrics Engine::TakeWindow() {
  WindowedMetrics window;
  window.start = window_start_;
  window.end = sim_->Now();
  window.offered = window_offered_;
  window.served = window_served_;
  window.violations = window_violations_;
  window.rejected = window_rejected_;
  window.shed = window_shed_;
  if (!window_latencies_ms_.empty()) {
    // Mean first: it sums in completion order, and the selection below
    // reorders the latencies in place (they are cleared at the end).
    window.mean_ms = Mean(window_latencies_ms_);
    window.p99_ms = PercentileInPlace(window_latencies_ms_, 99.0);
  }
  const Time span = window.end - window.start;
  if (span > 0.0) {
    window.offered_qps = static_cast<double>(window.offered) / span;
    window.qps = static_cast<double>(window.served) / span;
  }
  if (window.offered > 0) {
    window.mean_batch =
        window_batch_sum_ / static_cast<double>(window.offered);
    window.reject_rate = static_cast<double>(window.rejected) /
                         static_cast<double>(window.offered);
    window.shed_rate = static_cast<double>(window.shed) /
                       static_cast<double>(window.offered);
    window.queue_depth_mean =
        window_queue_sum_ / static_cast<double>(window.offered);
  }
  window.queue_depth_max = window_queue_max_;
  window_start_ = window.end;
  window_offered_ = 0;
  window_served_ = 0;
  window_violations_ = 0;
  window_rejected_ = 0;
  window_shed_ = 0;
  window_batch_sum_ = 0.0;
  window_queue_max_ = 0;
  window_queue_sum_ = 0.0;
  window_latencies_ms_.clear();
  return window;
}

RunResult Engine::Totals() const {
  RunResult result = totals_;
  result.aborted = abort_requested_;
  if (!result.latencies_ms.empty()) {
    result.p99_ms = Percentile(result.latencies_ms, 99.0);
    result.mean_ms = Mean(result.latencies_ms);
  } else if (result.served > 0) {
    // keep_latencies == false: the mean survives via the running sum;
    // cumulative p99 is unavailable (read per-window p99 instead).
    result.mean_ms = latency_sum_ms_ / static_cast<double>(result.served);
  }
  if (result.makespan > 0.0 && result.served > 0) {
    result.throughput_qps =
        static_cast<double>(result.served) / result.makespan;
  }
  return result;
}

void Engine::OnArrival(const workload::Query& q) {
  ++window_offered_;
  window_batch_sum_ += q.batch_size;
  if (monitor_tap_ != nullptr) monitor_tap_->Observe(q.batch_size);
  if (telemetry_ != nullptr) {
    telemetry_->metrics->Add(telemetry_->queries_offered, telemetry_->shard);
  }
  if (AdmissionRejects()) {
    // The arrival is counted (it happened, and the monitor saw its
    // batch) but never enters the queue: no round runs for it.
    ++totals_.rejected;
    ++window_rejected_;
    if (telemetry_ != nullptr) {
      telemetry_->metrics->Add(telemetry_->queries_rejected,
                               telemetry_->shard);
    }
    SampleQueueDepth();
    return;
  }
  waiting_.push_back(q);
  SampleQueueDepth();
  RunRound();
}

void Engine::SampleQueueDepth() {
  // Central-queue depth right after the admission decision: the rejected
  // case samples the (unchanged) queue that caused the rejection, the
  // accepted case includes the new arrival. Feeds the per-window
  // queue_depth_max / queue_depth_mean fields and the telemetry gauge.
  const std::size_t depth = waiting_.size();
  window_queue_max_ = std::max(window_queue_max_, depth);
  window_queue_sum_ += static_cast<double>(depth);
  if (telemetry_ != nullptr) {
    telemetry_->metrics->Set(telemetry_->queue_depth, telemetry_->shard,
                             static_cast<double>(depth));
  }
}

bool Engine::AdmissionRejects() const {
  const std::size_t max_queue = options_.admission.max_queue;
  return max_queue > 0 && waiting_.size() >= max_queue;
}

double Engine::MinServiceSeconds(int batch) const {
  double best_ms = -1.0;
  for (const Instance& inst : instances_) {
    if (inst.retired || inst.retiring) continue;
    const double ms = predictor_->PredictMsNoiseless(inst.type, batch);
    if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
  }
  return best_ms < 0.0 ? 0.0 : MsToSec(best_ms);
}

void Engine::ShedExpired() {
  const double deadline_s = options_.admission.deadline_s;
  if (deadline_s <= 0.0) return;
  // waiting_ is FIFO by arrival, so the earliest deadline sits at the
  // head: drop doomed queries until the head is feasible. Survivors keep
  // their order, which is what makes shedding deterministic across
  // AdvanceTo step sizes.
  std::size_t shed_now = 0;
  while (!waiting_.empty()) {
    const workload::Query& q = waiting_.front();
    const Time latest_finish = q.arrival + deadline_s;
    if (sim_->Now() + MinServiceSeconds(q.batch_size) <= latest_finish) {
      break;
    }
    waiting_.pop_front();
    ++totals_.shed;
    ++window_shed_;
    ++shed_now;
  }
  if (telemetry_ != nullptr && shed_now > 0) {
    telemetry_->metrics->Add(telemetry_->queries_shed, telemetry_->shard,
                             static_cast<double>(shed_now));
  }
}

const std::vector<InstanceView>& Engine::SnapshotInstances() {
  std::vector<InstanceView>& views = round_views_;
  views.clear();
  views.reserve(instances_.size());
  view_to_instance_.clear();
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    // Retiring/retired instances take no new work and are invisible to
    // the policy. Batch runs never retire, so this is the full vector.
    if (inst.retired || inst.retiring) continue;
    InstanceView v;
    v.type = inst.type;
    Time avail = inst.executing ? inst.current_finish : sim_->Now();
    for (const workload::Query& q : inst.fifo) {
      avail += MsToSec(predictor_->PredictMsNoiseless(inst.type, q.batch_size));
    }
    v.available_at = avail;
    v.idle = !inst.executing && inst.fifo.empty();
    v.backlog = inst.fifo.size();
    views.push_back(v);
    view_to_instance_.push_back(i);
  }
  return views;
}

void Engine::RunRound() {
  if (abort_requested_) return;
  ShedExpired();
  if (waiting_.empty()) return;

  // Saturated-round fast path (late binding only): proposals start work
  // only on idle instances, so a round with none policy-visible-idle is a
  // state-level no-op — every tentative pairing dissolves and the queue
  // survives untouched to the next round. The overload regime hits this
  // on nearly every arrival, and skipping the snapshot, the per-type
  // pricing and the assignment solve roughly halves its round cost. (A
  // stateful policy would observe fewer Distribute calls; the bundled
  // policies derive each round purely from the RoundContext.)
  if (!policy_->EarlyBinding()) {
    bool any_idle = false;
    for (const Instance& inst : instances_) {
      if (!inst.retired && !inst.retiring && !inst.executing &&
          inst.fifo.empty()) {
        any_idle = true;
        break;
      }
    }
    if (!any_idle) return;
  }

  const std::size_t window =
      std::min(waiting_.size(), options_.run.matcher_window);
  std::vector<workload::Query>& prefix = round_prefix_;
  prefix.clear();
  prefix.reserve(window);
  for (std::size_t i = 0; i < window; ++i) prefix.push_back(waiting_[i]);
  const std::vector<InstanceView>& views = SnapshotInstances();
  if (views.empty()) return;  // everything retiring; wait for launches

  policy::RoundContext ctx;
  ctx.now = sim_->Now();
  ctx.qos_sec = qos_sec_;
  ctx.waiting = prefix;
  ctx.instances = views;
  ctx.predictor = predictor_.get();
  ctx.catalog = spec_.catalog;

  std::vector<policy::Assignment>& proposed = round_assignments_;
  policy_->Distribute(ctx, proposed);

  // Validate indices. Queries are one-to-one; instances are one-to-one for
  // late-binding policies (Eq. 6), while early-binding policies may stack
  // several commitments onto one instance's FIFO in a single round.
  const bool early = policy_->EarlyBinding();
  round_q_used_.assign(window, 0);
  round_i_used_.assign(views.size(), 0);
  std::vector<char>& q_used = round_q_used_;
  std::vector<char>& i_used = round_i_used_;
  for (const policy::Assignment& a : proposed) {
    if (a.waiting_idx >= window || a.instance_idx >= views.size() ||
        q_used[a.waiting_idx] || (!early && i_used[a.instance_idx])) {
      throw std::logic_error("Policy returned an invalid assignment set");
    }
    q_used[a.waiting_idx] = 1;
    i_used[a.instance_idx] = 1;
  }
  round_remove_.assign(window, 0);
  std::vector<char>& remove = round_remove_;
  for (const policy::Assignment& a : proposed) {
    Instance& inst = instances_[view_to_instance_[a.instance_idx]];
    const workload::Query& q = prefix[a.waiting_idx];
    const bool idle = !inst.executing && inst.fifo.empty();
    if (idle) {
      BeginExecution(view_to_instance_[a.instance_idx], q);
      remove[a.waiting_idx] = 1;
    } else if (early) {
      inst.fifo.push_back(q);
      remove[a.waiting_idx] = 1;
    }
    // Late binding onto a busy instance: the pairing was tentative; the
    // query stays in the central queue for the next round.
  }

  // Only the first `window` entries can have been taken, so splice the
  // survivors back in place: O(window) per round, not O(backlog) — at
  // sustained scale the queue behind the matcher window can be huge.
  waiting_.PopFrontN(window);
  for (std::size_t i = window; i-- > 0;) {
    if (!remove[i]) waiting_.push_front(prefix[i]);
  }
}

void Engine::BeginExecution(std::size_t instance_idx,
                            const workload::Query& q) {
  Instance& inst = instances_[instance_idx];
  assert(!inst.executing);
  const Time start = sim_->Now();
  const Time actual = spec_.truth->Latency(inst.type, q.batch_size);
  Time finish = start + actual;
  if (network_ != nullptr) {
    // Degraded fabric: the dispatch and the reply each ride one sampled
    // hop. Compute time (busy_time) is unchanged — the instance is just
    // occupied longer, which is exactly how netem slows a real fleet.
    finish += network_->SampleDelay(net_rng_) + network_->SampleDelay(net_rng_);
  }
  inst.executing = true;
  inst.current_finish = finish;
  inst.current_query = q;
  inst.current_work = actual;
  inst.busy_time += actual;
  inst.completion_event = sim_->At(finish, [this, instance_idx, q, start] {
    OnCompletion(instance_idx, q, start);
  });
}

void Engine::OnCompletion(std::size_t instance_idx, workload::Query q,
                          Time start) {
  Instance& inst = instances_[instance_idx];
  const Time finish = sim_->Now();
  inst.executing = false;
  ++inst.served;

  const double latency_ms = SecToMs(finish - q.arrival);
  if (options_.run.keep_latencies) totals_.latencies_ms.push_back(latency_ms);
  latency_sum_ms_ += latency_ms;
  ++totals_.served;
  if (telemetry_ != nullptr) {
    telemetry_->metrics->Add(telemetry_->queries_served, telemetry_->shard);
  }
  totals_.makespan = std::max(totals_.makespan, finish);
  totals_.per_type_busy[inst.type] += finish - start;
  ++totals_.per_type_served[inst.type];
  ++window_served_;
  window_latencies_ms_.push_back(latency_ms);
  if (latency_ms > spec_.qos_ms) {
    ++totals_.violations;
    ++window_violations_;
  }
  if (options_.run.keep_records) {
    totals_.records.push_back(ServedRecord{q.id, q.batch_size, inst.type,
                                           instance_idx, q.arrival, start,
                                           finish});
  }

  // Feed the online predictor with the *serving* latency (queueing time is
  // not part of the latency surface).
  predictor_->Observe(inst.type, q.batch_size, SecToMs(finish - start));

  if (options_.run.abort_violation_fraction > 0.0 && totals_.offered > 0) {
    const double frac = static_cast<double>(totals_.violations) /
                        static_cast<double>(totals_.offered);
    if (frac > options_.run.abort_violation_fraction) {
      abort_requested_ = true;
      state_ = EngineState::kDrained;
      return;
    }
  }

  StartIfIdle(instance_idx);
  RunRound();
}

void Engine::StartIfIdle(std::size_t instance_idx) {
  Instance& inst = instances_[instance_idx];
  if (!inst.executing && !inst.fifo.empty()) {
    const workload::Query next = inst.fifo.front();
    inst.fifo.pop_front();
    BeginExecution(instance_idx, next);
  } else if (inst.retiring && !inst.executing && inst.fifo.empty()) {
    AccrueBilling();  // drained: this instance stops billing now
    inst.retiring = false;
    inst.retired = true;
  }
}

}  // namespace kairos::serving
