// The three benchmark workloads: set-up, the measured closed loop, and
// the output checks that need the library (the reference parity
// sample).  Signatures are emitted here and compared with the recorded
// expected values by run.py.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <tuple>

#include "analysis/campaign_service.hpp"
#include "analysis/oracle_cache.hpp"
#include "bench.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_injector.hpp"

namespace prtbench {

namespace {

/// Set-up is repeated this often per run, a pause apart so the repeats
/// sample the host over a few seconds; setup_s is their median.
constexpr int kSetupReps = 20;
constexpr std::chrono::milliseconds kSetupPause{150};
/// A measured phase runs at least this many jobs, however long they take;
/// on the service mix, this many whole passes through the deck per client.
constexpr std::size_t kMinJobs = 5;
constexpr std::size_t kMinPasses = 2;
/// Reference parity: faults sampled per run, at this memory size.
constexpr std::size_t kParitySamples = 128;
constexpr mem::Addr kParityN = 256;
/// One service request in this many writes a checkpoint.
constexpr std::uint64_t kCheckpointOneIn = 4;
/// Closed-loop clients of the service mix, one request outstanding each.
/// One: a second client's large requests held the first one's small
/// ones in the pool's queue, and the median request's latency then
/// spread 16-28% over seeds against 4-6% with a single client (same
/// shared 4-vCPU virtual machine, runs interleaved).
constexpr unsigned kServiceClients = 1;

void emit_jobs(
    Json& out,
    const std::map<std::string, std::map<std::string, std::uint64_t>>& jobs) {
  out.key("jobs").begin_object();
  for (const auto& [key, sigs] : jobs) {
    out.key(key).begin_object();
    for (const auto& [sig, count] : sigs) out.field(sig, count);
    out.end_object();
  }
  out.end_object();
}

/// Runs a stride sample of the combo's universe, at kParityN cells,
/// through the engine one fault at a time and through the live
/// reference (run_prt / run_march on FaultyRam); verdict and ops must
/// match per fault.
void reference_parity(const Combo& c, const Args& args, Json& out) {
  Combo small = c;
  small.n = kParityN;
  std::vector<mem::Fault> u = build_universe(small.universe, small.n);
  const EngineFront engine(small, args.threads);
  const std::size_t stride = std::max<std::size_t>(u.size() / kParitySamples, 1);
  const std::size_t start = static_cast<std::size_t>(args.seed % stride);

  std::optional<core::PrtScheme> scheme;
  std::optional<core::PrtOracle> oracle;
  if (small.kind != Kind::kMarch) {
    scheme = scheme_for(small);
    oracle = core::make_prt_oracle(*scheme, small.n);
  }
  std::uint64_t checked = 0;
  std::vector<std::string> mismatches;
  mem::FaultyRam ram(small.n, small.m(), 1);
  for (std::size_t i = start; i < u.size(); i += stride) {
    const mem::Fault& f = u[i];
    const analysis::CampaignResult r = engine.run(std::span(&f, 1));
    ram.reset(f);
    bool ref_detected = false;
    if (scheme) {
      const core::PrtRunOptions run{.early_abort = small.early_abort,
                                    .record_iterations = false};
      ref_detected = core::run_prt(ram, *scheme, *oracle, run).detected();
    } else {
      const march::MarchRunOptions run{.early_abort = small.early_abort};
      ref_detected =
          march::run_march(march_test(), ram, 0, march::kDefaultDelayTicks, run)
              .fail;
    }
    const std::uint64_t ref_ops = ram.total_stats().total();
    ++checked;
    if ((r.overall.detected == 1) != ref_detected || r.ops != ref_ops) {
      mismatches.push_back(mem::to_string(f.kind) + "@" +
                           std::to_string(f.victim.cell) + ": engine " +
                           std::to_string(r.overall.detected) + "/" +
                           std::to_string(r.ops) + " reference " +
                           std::to_string(ref_detected ? 1 : 0) + "/" +
                           std::to_string(ref_ops));
    }
  }
  out.key("parity").begin_object();
  out.field("n", static_cast<std::uint64_t>(small.n));
  out.field("checked", checked);
  out.field("mismatched", static_cast<std::uint64_t>(mismatches.size()));
  out.key("examples").begin_array();
  for (std::size_t i = 0; i < std::min<std::size_t>(mismatches.size(), 5); ++i) {
    out.value(mismatches[i]);
  }
  out.end_array().end_object();
}

void engine_workload(RunContext& ctx, const Combo& c, WorkloadObs& obs) {
  const Args& args = ctx.args;
  obs.combo = c;
  std::unique_ptr<EngineFront> engine;
  std::size_t& offset = obs.offset;
  // One cold set-up: empty cache, fresh universe, new engine.
  auto set_up = [&] {
    analysis::OracleCache::global().clear();
    engine.reset();
    obs.universe.clear();
    obs.universe.shrink_to_fit();
    const std::int64_t t0 = now_ns();
    {
      auto span = ctx.tracer.scope("mem.universe_build");
      obs.universe = build_universe(c.universe, c.n);
    }
    const double universe_s = seconds_since(t0);
    // Input generation, not set-up: the seed rotates the enumeration.
    offset = static_cast<std::size_t>(Rng{args.seed}.below(obs.universe.size()));
    std::rotate(obs.universe.begin(),
                obs.universe.begin() + static_cast<std::ptrdiff_t>(offset),
                obs.universe.end());
    const std::int64_t t1 = now_ns();
    {
      auto span = ctx.tracer.scope("analysis.engine_ctor");
      engine = std::make_unique<EngineFront>(c, args.threads);
    }
    const double ctor_s = seconds_since(t1);
    obs.universe_build_s.push_back(universe_s);
    obs.front_ctor_s.push_back(ctor_s);
    return universe_s + ctor_s;
  };
  const double first_setup_s = set_up();
  obs.universe_faults = obs.universe.size();

  std::map<std::string, std::map<std::string, std::uint64_t>> jobs;
  auto check = [&](const analysis::CampaignResult& r) {
    obs.last_signature = signature(r, offset, obs.universe.size());
    ++jobs[c.key()][obs.last_signature];
  };
  // Warm-up: spins up the engine's pool and faults in the replay's
  // pages; checked, not timed.
  check(engine->run(obs.universe));

  std::vector<double> rate;
  std::uint64_t job = 0;
  double ops_by_trace[2] = {0, 0};
  double s_by_trace[2] = {0, 0};
  const std::int64_t phase_start = now_ns();
  while (obs.run_s.size() < kMinJobs || seconds_since(phase_start) < args.seconds) {
    ++job;
    const bool traced = job % 2 == 0;
    const std::int64_t t = now_ns();
    analysis::CampaignResult r;
    {
      auto span = ctx.tracer.scope_if(traced, "analysis.run", job);
      r = engine->run(obs.universe);
    }
    const double dt = seconds_since(t);
    obs.run_s.push_back(dt);
    rate.push_back(static_cast<double>(r.ops) / dt);
    ops_by_trace[traced ? 1 : 0] += static_cast<double>(r.ops);
    s_by_trace[traced ? 1 : 0] += dt;
    obs.sched_batches.push_back(static_cast<double>(r.sched.batches));
    obs.sched_steals.push_back(static_cast<double>(r.sched.steals));
    obs.max_lanes = std::max(obs.max_lanes, r.sched.max_lanes);
    obs.packed_faults += r.packed_faults;
    obs.total_faults += r.overall.total;
    check(r);
  }
  obs.untraced_rate = ops_by_trace[0] / s_by_trace[0];
  obs.traced_rate = ops_by_trace[1] / s_by_trace[1];
  // The reported set-up repeats run after the measured phase, when the
  // process's first-touch page faults are behind it; the first set-up
  // is reported on its own.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::this_thread::sleep_for(kSetupPause);
    setup_s.push_back(set_up());
  }

  Json& out = ctx.out;
  out.field("combo", c.key());
  out.field("universe_offset", static_cast<std::uint64_t>(offset));
  out.key("setup_s").values(setup_s);
  out.field("first_setup_s", first_setup_s);
  out.key("latency_s").values(obs.run_s);
  // Engines: the caller's time inside run(); the output checks between
  // runs are excluded.
  out.key("rate").values(rate);
  out.field("max_lanes", static_cast<std::uint64_t>(obs.max_lanes));
  out.field("incomplete", std::uint64_t{0});
  emit_jobs(out, jobs);
  reference_parity(c, args, out);
}

}  // namespace

// --- service mix -----------------------------------------------------

double setup_service(std::unique_ptr<ServiceInputs>& inputs, const Args& args,
                     Tracer& tracer, std::vector<double>& universe_build_s,
                     std::uint64_t& universe_faults,
                     std::vector<double>& ctor_s) {
  analysis::OracleCache::global().clear();
  inputs.reset();
  const std::int64_t t0 = now_ns();
  auto in = std::make_unique<ServiceInputs>();
  {
    auto span = tracer.scope("analysis.service_ctor");
    const std::int64_t t = now_ns();
    in->service = std::make_unique<analysis::CampaignService>(
        analysis::ServiceOptions{.threads = args.threads});
    ctor_s.push_back(seconds_since(t));
  }
  in->combos = service_combos();
  const std::int64_t tu = now_ns();
  universe_faults = 0;
  for (const Combo& c : in->combos) {
    auto& u = in->universes[{c.universe, c.n}];
    if (!u.empty()) continue;
    auto span = tracer.scope("mem.universe_build");
    u = build_universe(c.universe, c.n);
    universe_faults += u.size();
  }
  universe_build_s.push_back(seconds_since(tu));
  // Golden artifacts, compiled into the process-wide cache the service
  // reads, so the measured phase starts warm like a long-lived service.
  auto& cache = analysis::OracleCache::global();
  for (const Combo& c : in->combos) {
    if (c.kind == Kind::kMarch) {
      in->schemes.emplace_back();
      auto span = tracer.scope("analysis.cache_build");
      (void)cache.march(march_test(), c.n, false);
    } else {
      in->schemes.emplace_back(scheme_for(c));
      auto span = tracer.scope("analysis.cache_build");
      (void)cache.prt(*in->schemes.back(), c.n);
    }
  }
  const double s = seconds_since(t0);
  inputs = std::move(in);
  return s;
}

ServiceObs run_service_phase(ServiceInputs& in, const Args& args,
                             Tracer& tracer, double seconds,
                             std::size_t min_passes) {
  std::map<std::tuple<Kind, mem::Addr, Universe, bool>, std::size_t> index;
  for (std::size_t i = 0; i < in.combos.size(); ++i) {
    const Combo& c = in.combos[i];
    index[{c.kind, c.n, c.universe, c.early_abort}] = i;
  }
  // The seed shuffles a balanced deck of every (kind, size, universe,
  // abort) draw, one deck per pass, so every seed sends the same mix in
  // a different order: the mix's composition does not move the metrics.
  struct Draw {
    Kind kind;
    mem::Addr n;
    bool vdg;
    bool abort;
  };
  std::vector<Draw> deck;
  for (const Kind kind : {Kind::kPrtExt, Kind::kPrtStd, Kind::kWom, Kind::kMarch}) {
    for (const mem::Addr n : {128U, 256U, 512U, 1024U}) {
      for (const bool vdg : {false, true}) {
        for (const bool abort : {false, true}) deck.push_back({kind, n, vdg, abort});
      }
    }
  }
  static constexpr analysis::RequestPriority kPriorities[] = {
      analysis::RequestPriority::kHigh, analysis::RequestPriority::kNormal,
      analysis::RequestPriority::kBatch};

  std::vector<ServiceObs> per_client(kServiceClients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  auto client = [&](unsigned id) {
    ServiceObs& obs = per_client[id];
    Rng rng{args.seed * 0x100000001b3ULL + id + 1};
    std::vector<Draw> order;
    std::size_t next = 0;
    std::uint64_t count = 0;
    // The pass through the deck in flight: its start, ops and latencies.
    std::int64_t pass_start = 0;
    std::uint64_t pass_ops = 0;
    std::vector<double> pass_latency_s;
    while (obs.pass_rate.size() < min_passes || now_ns() < deadline) {
      if (next == order.size()) {
        order = deck;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[static_cast<std::size_t>(rng.below(i + 1))]);
        }
        next = 0;
        pass_start = now_ns();
        pass_ops = 0;
        pass_latency_s.clear();
      }
      const Draw d = order[next++];
      ++count;
      const std::uint64_t job = count * kServiceClients + id;
      const bool ckpt = count % kCheckpointOneIn == 0;
      const analysis::RequestPriority prio = kPriorities[count % 3];
      const Universe universe = d.kind == Kind::kWom ? Universe::kSingleCellM4
                                : d.vdg               ? Universe::kVanDeGoor
                                                      : Universe::kClassical;
      const std::size_t ci = index.at({d.kind, d.n, universe, d.abort});
      const Combo& c = in.combos[ci];

      analysis::CampaignRequest req;
      if (c.kind == Kind::kMarch) {
        req.march_test = march_test();
      } else {
        req.scheme = in.schemes[ci];
      }
      req.options = {.n = c.n, .m = c.m(), .ports = 1};
      req.early_abort = c.early_abort;
      req.universe = in.universes.at({c.universe, c.n});
      req.priority = prio;
      const std::string ckpt_path =
          ckpt ? args.tmpdir + "/ckpt-" + std::to_string(job) : std::string();
      req.checkpoint_path = ckpt_path;
      const std::int64_t t0 = now_ns();
      analysis::RequestOutcome outcome;
      {
        auto span = tracer.scope("analysis.service_request", job);
        analysis::CampaignService::Ticket ticket;
        {
          auto submit_span = tracer.scope("analysis.service_submit", job);
          ticket = in.service->submit(std::move(req));
        }
        obs.submit_s.push_back(seconds_since(t0));
        if (tracer.enabled()) {
          const auto st = in.service->stats();
          obs.queued_max = std::max(
              obs.queued_max, st.queued_high + st.queued_normal + st.queued_batch);
        }
        outcome = std::move(ticket).wait();
      }
      const double dt = seconds_since(t0);
      obs.latency_s.push_back(dt);
      pass_latency_s.push_back(dt);
      obs.latency_by_group[c.kind == Kind::kWom     ? "wom"
                           : c.kind == Kind::kMarch ? "march"
                                                    : "prt"]
          .push_back(dt);
      obs.latency_by_group[ckpt ? "ckpt" : "no_ckpt"].push_back(dt);
      obs.combo_ids.push_back(ci);
      if (ckpt) {
        // A completed request removes its checkpoint; a failed one may not.
        std::error_code ignored;
        std::filesystem::remove(ckpt_path, ignored);
      }
      if (outcome.status == analysis::RequestStatus::kComplete) {
        const analysis::CampaignResult& r = outcome.result;
        ++obs.jobs[c.key()][signature(r, 0, r.overall.total)];
        obs.ops += r.ops;
        pass_ops += r.ops;
        obs.sched_batches.push_back(static_cast<double>(r.sched.batches));
        obs.sched_steals.push_back(static_cast<double>(r.sched.steals));
        obs.max_lanes = std::max(obs.max_lanes, r.sched.max_lanes);
        obs.packed_faults += r.packed_faults;
        obs.total_faults += r.overall.total;
      } else {
        ++obs.incomplete;
      }
      if (next == order.size()) {
        // A whole pass sent the same requests as every other pass, so
        // its rate and latencies compare across passes and seeds; the
        // pass cut off by the deadline is left out of both.
        obs.pass_rate.push_back(static_cast<double>(pass_ops) /
                                seconds_since(pass_start));
        obs.pass_latency_s.insert(obs.pass_latency_s.end(),
                                  pass_latency_s.begin(), pass_latency_s.end());
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned id = 0; id < kServiceClients; ++id) clients.emplace_back(client, id);
  for (std::thread& t : clients) t.join();

  ServiceObs total;
  total.wall_s = seconds_since(start);
  for (ServiceObs& o : per_client) {
    total.ops += o.ops;
    total.incomplete += o.incomplete;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(total.latency_s, o.latency_s);
    append(total.pass_latency_s, o.pass_latency_s);
    append(total.pass_rate, o.pass_rate);
    append(total.submit_s, o.submit_s);
    for (const auto& [g, v] : o.latency_by_group) append(total.latency_by_group[g], v);
    total.combo_ids.insert(total.combo_ids.end(), o.combo_ids.begin(),
                           o.combo_ids.end());
    for (const auto& [k, sigs] : o.jobs) {
      for (const auto& [sig, n] : sigs) total.jobs[k][sig] += n;
    }
    append(total.sched_batches, o.sched_batches);
    append(total.sched_steals, o.sched_steals);
    total.max_lanes = std::max(total.max_lanes, o.max_lanes);
    total.packed_faults += o.packed_faults;
    total.total_faults += o.total_faults;
    total.queued_max = std::max(total.queued_max, o.queued_max);
  }
  const auto st = in.service->stats();
  total.checkpoint_writes = st.checkpoint_writes;
  total.shard_retries = st.shard_retries;
  total.rejected = st.rejected;
  total.shedded = st.shedded;
  return total;
}

namespace {

void service_workload(RunContext& ctx, WorkloadObs& obs) {
  const Args& args = ctx.args;
  obs.combo = {Kind::kPrtExt, 1024, Universe::kClassical, false};
  std::unique_ptr<ServiceInputs> in;
  auto set_up = [&] {
    return setup_service(in, args, ctx.tracer, obs.universe_build_s,
                         obs.universe_faults, obs.front_ctor_s);
  };
  const double first_setup_s = set_up();
  ServiceObs untraced;
  if (ctx.tracer.enabled()) {
    // Traced run: an untraced half, then a traced half with the same
    // request stream; their lane-op rates give the tracing overhead.
    Tracer off(false);
    untraced = run_service_phase(*in, args, off, args.seconds / 2, kMinPasses);
    obs.untraced_rate = static_cast<double>(untraced.ops) / untraced.wall_s;
  }
  obs.service = std::make_unique<ServiceObs>(run_service_phase(
      *in, args, ctx.tracer,
      ctx.tracer.enabled() ? args.seconds / 2 : args.seconds, kMinPasses));
  const ServiceObs& s = *obs.service;
  obs.traced_rate = static_cast<double>(s.ops) / s.wall_s;
  for (const auto& [key, sigs] : untraced.jobs) {
    for (const auto& [sig, n] : sigs) obs.service->jobs[key][sig] += n;
  }
  obs.service->incomplete += untraced.incomplete;
  // Set-up repeats after the phase, as for the engine workloads.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::this_thread::sleep_for(kSetupPause);
    setup_s.push_back(set_up());
  }
  obs.universe = in->universes.at({obs.combo.universe, obs.combo.n});

  Json& out = ctx.out;
  out.field("combo", "mix of " + std::to_string(in->combos.size()) +
                         " configurations");
  out.key("setup_s").values(setup_s);
  out.field("first_setup_s", first_setup_s);
  // Whole passes only: every seed's figures then cover the same mix.
  out.key("latency_s").values(s.pass_latency_s);
  // A pass rate is one client's; the clients run side by side.
  std::vector<double> rate;
  for (const double r : s.pass_rate) rate.push_back(r * kServiceClients);
  out.key("rate").values(rate);
  out.field("max_lanes", static_cast<std::uint64_t>(s.max_lanes));
  out.field("incomplete", s.incomplete);
  emit_jobs(out, s.jobs);
}

}  // namespace

EngineFront::EngineFront(const Combo& c, unsigned threads) {
  const analysis::CampaignOptions opt{.n = c.n, .m = c.m(), .ports = 1};
  if (c.kind == Kind::kMarch) {
    march_ = std::make_unique<analysis::MarchCampaign>(
        march_test(), opt,
        analysis::MarchEngineOptions{.threads = threads,
                                     .early_abort = c.early_abort});
  } else {
    prt_ = std::make_unique<analysis::CampaignEngine>(
        scheme_for(c), opt,
        analysis::EngineOptions{.threads = threads,
                                .early_abort = c.early_abort});
  }
}

analysis::CampaignResult EngineFront::run(
    std::span<const mem::Fault> universe) const {
  return march_ ? march_->run(universe) : prt_->run(universe);
}

void run_workload(RunContext& ctx, WorkloadObs& obs) {
  const std::string& w = ctx.args.workload;
  if (w == "prt_classical") {
    engine_workload(ctx, prt_classical_combo(), obs);
  } else if (w == "march_vdg_abort") {
    engine_workload(ctx, march_vdg_combo(), obs);
  } else if (w == "service_mix") {
    service_workload(ctx, obs);
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
}

void run_record(const Args& args, Json& out) {
  auto record = [&](const std::string& name, const std::vector<Combo>& combos) {
    out.key(name).begin_object();
    for (const Combo& c : combos) {
      const std::vector<mem::Fault> u = build_universe(c.universe, c.n);
      const analysis::CampaignResult r = EngineFront(c, args.threads).run(u);
      out.field(c.key(), signature(r, 0, u.size()));
    }
    out.end_object();
  };
  out.key("expected").begin_object();
  record("prt_classical", {prt_classical_combo()});
  record("march_vdg_abort", {march_vdg_combo()});
  record("service_mix", service_combos());
  out.end_object();
}

}  // namespace prtbench
