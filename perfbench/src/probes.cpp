// Per-layer probes of the traced run.  Each probe times calls into one
// layer's public functions from outside the library and sits inside a
// span named after that layer, so the span self times split the traced
// run across mem, core, march, analysis and util.
//
// Every probe runs on every workload.  It uses the workload's own
// configuration where the workload exercises that layer, and otherwise
// a fixed stand-in at the workload's size (README.md lists which).
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>

#include "analysis/oracle_cache.hpp"
#include "bench.hpp"
#include "core/op_transcript.hpp"
#include "core/prt_packed.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"
#include "util/durable_write.hpp"
#include "util/thread_pool.hpp"

namespace prtbench {

namespace {

constexpr int kReps = 7;
/// Each timed sample repeats its call until it has run this long.
constexpr double kMinSampleS = 0.01;
/// Single-thread replay throughput: batches are replayed until this long.
constexpr double kReplayS = 0.25;
/// Service burst for engine workloads (service_mix measures its own phase).
constexpr double kServiceBurstS = 3.0;
/// Checkpoint-sized payload for the durable-write probe.
constexpr std::size_t kCheckpointBytes = 4096;

volatile std::uint64_t g_sink = 0;

/// Median over kReps samples of the per-call time of `fn`, each sample
/// repeating `fn` for at least kMinSampleS.
template <typename Fn>
double per_call_s(Fn&& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t = now_ns();
    std::uint64_t calls = 0;
    do {
      fn();
      ++calls;
    } while (seconds_since(t) < kMinSampleS);
    samples.push_back(seconds_since(t) / static_cast<double>(calls));
  }
  return median(std::move(samples));
}

/// Up to `count` lane-compatible faults picked at an even stride.
std::vector<mem::Fault> stride_pick(const std::vector<mem::Fault>& from,
                                    std::size_t count, unsigned width = 1) {
  std::vector<mem::Fault> ok;
  for (const mem::Fault& f : from) {
    if (mem::lane_compatible(f, width)) ok.push_back(f);
  }
  std::vector<mem::Fault> out;
  const std::size_t stride = std::max<std::size_t>(ok.size() / count, 1);
  for (std::size_t i = 0; i < ok.size() && out.size() < count; i += stride) {
    out.push_back(ok[i]);
  }
  return out;
}

/// The transcript replay a probe drives: PRT or March.
struct Replay {
  const core::OpTranscript* transcript;
  bool march;

  template <typename W>
  std::uint64_t run(mem::PackedFaultRamT<W>& ram, bool early_abort,
                    core::PackedScratchT<W>& scratch) const {
    if (march) {
      return march::run_march_packed(ram, *transcript,
                                     {.early_abort = early_abort})
          .scalar_ops;
    }
    return core::run_prt_packed(ram, *transcript,
                                core::PackedRunOptions{.early_abort = early_abort},
                                scratch)
        .scalar_ops;
  }
};

/// Contiguous full batches of W lanes from four evenly spaced points of
/// the universe, like the engine's contiguous batches.
template <typename W>
std::vector<std::vector<mem::Fault>> sample_batches(
    const std::vector<mem::Fault>& u, unsigned width) {
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  std::vector<std::vector<mem::Fault>> batches;
  for (std::size_t b = 0; b < 4; ++b) {
    std::vector<mem::Fault> batch;
    for (std::size_t i = u.size() * b / 4; i < u.size() && batch.size() < kLanes;
         ++i) {
      if (mem::lane_compatible(u[i], width)) batch.push_back(u[i]);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct ReplayRate {
  double lane_ops_per_s = 0;
  std::uint64_t ops = 0;  // scalar-equivalent ops of one pass
};

/// Single-thread replay of the sampled batches at width W.
template <typename W>
ReplayRate replay_rate(const Replay& replay, const std::vector<mem::Fault>& u,
                       mem::Addr n, unsigned width, bool early_abort) {
  const auto batches = sample_batches<W>(u, width);
  mem::PackedFaultRamT<W> ram(n, width);
  core::PackedScratchT<W> scratch;
  double ops = 0;
  const std::int64_t t = now_ns();
  do {
    for (const auto& batch : batches) {
      ram.reset();
      for (const mem::Fault& f : batch) ram.add_fault(f);
      ops += static_cast<double>(replay.run(ram, early_abort, scratch));
    }
  } while (seconds_since(t) < kReplayS);
  ReplayRate rate;
  rate.lane_ops_per_s = ops / seconds_since(t);
  for (const auto& batch : batches) {
    ram.reset();
    for (const mem::Fault& f : batch) ram.add_fault(f);
    rate.ops += replay.run(ram, early_abort, scratch);
  }
  return rate;
}

/// Fault-free PackedFaultRamT read+write cost over the transcript's
/// address stream: one read and one write per record.
template <typename W>
double access_ns_per_op(const core::OpTranscript& t, mem::Addr n) {
  mem::PackedFaultRamT<W> ram(n, 1);
  W acc{};
  const double s = per_call_s([&] {
    for (const core::OpRec& rec : t.recs) {
      acc ^= ram.read(rec.addr);
      ram.write(rec.addr, acc);
    }
  });
  if (mem::lane_any(acc)) g_sink = g_sink + 1;
  return s * 1e9 / (2.0 * static_cast<double>(t.recs.size()));
}

enum class Family : std::uint8_t { kSingle, kCoupling, kDecoder, kNpsf, kRetention };

std::vector<mem::Fault> family_faults(Family family, mem::Addr n) {
  const std::vector<mem::Fault> vdg = mem::van_de_goor_universe(n);
  std::vector<mem::Fault> pool;
  switch (family) {
    case Family::kSingle:
      pool = mem::single_cell_universe(n, 1, /*read_logic=*/true);
      break;
    case Family::kCoupling:
      for (const mem::Fault& f : vdg) {
        if (mem::is_coupling(f.kind)) pool.push_back(f);
      }
      break;
    case Family::kDecoder:
      for (const mem::Fault& f : vdg) {
        if (mem::is_address_fault(f.kind)) pool.push_back(f);
      }
      break;
    case Family::kNpsf: {
      mem::UniverseOptions opt;
      opt.single_cell = opt.read_logic = opt.coupling = opt.bridges =
          opt.address_decoder = false;
      opt.npsf = true;
      pool = mem::make_universe(n, 1, opt);
      break;
    }
    case Family::kRetention:
      for (mem::Addr c = 0; c < n; ++c) {
        pool.push_back(mem::Fault::retention({c, 0}, c % 2, n));
      }
      break;
  }
  return stride_pick(pool, mem::LaneTraits<mem::LaneWord>::kLanes);
}

/// ns per packed op a full w64 batch of the family adds over a
/// fault-free batch; samples alternate so drift hits both sides.
double hook_ns_per_op(const Replay& replay, mem::Addr n, Family family) {
  const std::vector<mem::Fault> faults = family_faults(family, n);
  mem::PackedFaultRam ram(n, 1);
  core::PackedScratch scratch;
  std::vector<double> diffs;
  for (int rep = 0; rep < kReps; ++rep) {
    double per_op[2] = {0, 0};
    for (int with_faults = 0; with_faults < 2; ++with_faults) {
      ram.reset();
      if (with_faults == 1) {
        for (const mem::Fault& f : faults) ram.add_fault(f);
      }
      const std::int64_t t = now_ns();
      g_sink = g_sink + replay.run(ram, false, scratch);
      per_op[with_faults] =
          seconds_since(t) * 1e9 / static_cast<double>(ram.ops());
    }
    diffs.push_back(per_op[1] - per_op[0]);
  }
  return median(std::move(diffs));
}

/// Emits every per-layer metric; returns whether merging the batch
/// shards reproduced the workload's result (nothing for the mix).
std::optional<bool> probe_layers(RunContext& ctx, WorkloadObs& obs) {
  const Args& args = ctx.args;
  auto emit = [&](const std::string& name, double v) { ctx.out.field(name, v); };
  Tracer& tracer = ctx.tracer;
  const Combo& w = obs.combo;
  const mem::Addr n = w.n;
  // Stand-ins: the PRT probe config is the workload's own when it runs
  // PRT, else extended/classical at the workload's size; likewise March.
  const Combo prt_c = w.kind == Kind::kMarch
                          ? Combo{Kind::kPrtExt, n, Universe::kClassical, false}
                          : w;
  const Combo march_c = w.kind == Kind::kMarch
                            ? w
                            : Combo{Kind::kMarch, n, Universe::kVanDeGoor, true};
  const Combo word_c{Kind::kWom, 1024, Universe::kSingleCellM4, false};
  std::optional<bool> merge_matches;

  // --- mem ----------------------------------------------------------
  emit("mem.universe_build_s", median(obs.universe_build_s));
  emit("mem.universe_faults", static_cast<double>(obs.universe_faults));

  // --- core: oracle and transcript compile ---------------------------
  const core::PrtScheme scheme = scheme_for(prt_c);
  core::PrtOracle oracle;
  core::OpTranscript prt_t;
  {
    auto span = tracer.scope("core.oracle_build");
    emit("core.oracle_build_s", per_call_s([&] {
           oracle = core::make_prt_oracle(scheme, n);
         }));
  }
  {
    auto span = tracer.scope("core.transcript_build");
    emit("core.transcript_build_s", per_call_s([&] {
           prt_t = core::make_op_transcript(scheme, oracle);
         }));
  }
  emit("core.transcript_recs", static_cast<double>(prt_t.recs.size()));
  core::OpTranscript march_t;
  {
    auto span = tracer.scope("march.transcript_build");
    emit("march.transcript_build_s", per_call_s([&] {
           march_t = march::make_march_transcript(march_test(), n, false);
         }));
  }

  // --- mem: access and hook costs over the workload's transcript -----
  const bool on_march = w.kind == Kind::kMarch;
  const Replay workload_replay{on_march ? &march_t : &prt_t, on_march};
  {
    auto span = tracer.scope("mem.access");
    emit("mem.access_ns_per_op.w64", access_ns_per_op<mem::LaneWord>(*workload_replay.transcript, n));
    emit("mem.access_ns_per_op.w512", access_ns_per_op<mem::WideWord<8>>(*workload_replay.transcript, n));
  }
  {
    auto span = tracer.scope("mem.hooks");
    const std::pair<const char*, Family> families[] = {
        {"single", Family::kSingle},   {"coupling", Family::kCoupling},
        {"decoder", Family::kDecoder}, {"npsf", Family::kNpsf},
        {"retention", Family::kRetention}};
    for (const auto& [name, family] : families) {
      emit(std::string("mem.hook_ns_per_op.") + name,
           hook_ns_per_op(workload_replay, n, family));
    }
  }

  // --- core / march: single-thread replay throughput ------------------
  {
    auto span = tracer.scope("core.replay");
    const std::vector<mem::Fault> u = build_universe(prt_c.universe, n);
    const Replay r{&prt_t, false};
    emit("core.replay_lane_ops_per_s.w64",
         replay_rate<mem::LaneWord>(r, u, n, 1, false).lane_ops_per_s);
    emit("core.replay_lane_ops_per_s.w256",
         replay_rate<mem::WideWord<4>>(r, u, n, 1, false).lane_ops_per_s);
    emit("core.replay_lane_ops_per_s.w512",
         replay_rate<mem::WideWord<8>>(r, u, n, 1, false).lane_ops_per_s);
    const core::PrtScheme word_scheme = scheme_for(word_c);
    const core::OpTranscript word_t = core::make_op_transcript(
        word_scheme, core::make_prt_oracle(word_scheme, word_c.n));
    const std::vector<mem::Fault> wu = build_universe(word_c.universe, word_c.n);
    emit("core.replay_word_lane_ops_per_s",
         replay_rate<mem::LaneWord>({&word_t, false}, wu, word_c.n, 4, false)
             .lane_ops_per_s);
  }
  {
    auto span = tracer.scope("march.replay");
    const std::vector<mem::Fault> u = build_universe(march_c.universe, n);
    const Replay r{&march_t, true};
    const ReplayRate w64 = replay_rate<mem::LaneWord>(r, u, n, 1, true);
    emit("march.replay_lane_ops_per_s.w64", w64.lane_ops_per_s);
    emit("march.replay_lane_ops_per_s.w512",
         replay_rate<mem::WideWord<8>>(r, u, n, 1, true).lane_ops_per_s);
    const ReplayRate full = replay_rate<mem::LaneWord>(r, u, n, 1, false);
    emit("march.abort_ops_ratio",
         static_cast<double>(w64.ops) / static_cast<double>(full.ops));
  }

  // --- analysis: cache, construction, runs, scheduling ----------------
  {
    auto span = tracer.scope("analysis.cache");
    const std::vector<Combo> keys =
        obs.service ? service_combos() : std::vector<Combo>{w};
    std::vector<core::PrtScheme> schemes;
    for (const Combo& c : keys) {
      schemes.push_back(c.kind == Kind::kMarch ? core::PrtScheme{} : scheme_for(c));
    }
    auto lookup = [&](analysis::OracleCache& cache, std::size_t i) {
      if (keys[i].kind == Kind::kMarch) {
        (void)cache.march(march_test(), keys[i].n, false);
      } else {
        (void)cache.prt(schemes[i], keys[i].n);
      }
    };
    std::vector<double> builds;
    for (int rep = 0; rep < 3; ++rep) {
      analysis::OracleCache cache;
      const std::int64_t t = now_ns();
      for (std::size_t i = 0; i < keys.size(); ++i) lookup(cache, i);
      builds.push_back(seconds_since(t));
    }
    emit("analysis.cache_build_s", median(std::move(builds)));
    // Hit rate over the workload's key stream: one lookup per campaign,
    // or per request in the order the clients sent them.
    analysis::OracleCache cache;
    if (obs.service) {
      for (const std::size_t id : obs.service->combo_ids) lookup(cache, id);
    } else {
      for (std::size_t j = 0; j <= obs.run_s.size(); ++j) lookup(cache, 0);
    }
    const auto st = cache.stats();
    emit("analysis.cache_hit_rate",
         static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses));
  }
  const unsigned threads = args.threads;
  {
    auto span = tracer.scope("analysis.engine_ctor");
    if (obs.service) {
      emit("analysis.engine_ctor_s", median(obs.front_ctor_s));
    } else {
      emit("analysis.engine_ctor_s", per_call_s([&] { EngineFront e(w, threads); }));
    }
  }
  const ServiceObs* service = obs.service.get();
  emit("analysis.run_s", service ? median(service->latency_s) : median(obs.run_s));
  emit("analysis.sched_batches",
       median(service ? service->sched_batches : obs.sched_batches));
  emit("analysis.sched_steals",
       median(service ? service->sched_steals : obs.sched_steals));
  emit("analysis.sched_max_lanes",
       static_cast<double>(service ? service->max_lanes : obs.max_lanes));
  {
    const double packed = static_cast<double>(service ? service->packed_faults
                                                      : obs.packed_faults);
    const double total = static_cast<double>(service ? service->total_faults
                                                     : obs.total_faults);
    emit("analysis.packed_fraction", packed / total);
  }

  // Scaling and merge run on the workload's engine configuration (the
  // service mix's PRT extended/classical n = 1024 stand-in).
  const std::span<const mem::Fault> u(obs.universe);
  {
    double best[2] = {0, 0};
    const unsigned counts[2] = {1, threads};
    for (int i = 0; i < 2; ++i) {
      const EngineFront e(w, counts[i]);
      for (int rep = 0; rep < 2; ++rep) {
        auto span = tracer.scope(i == 0 ? "analysis.run_t1" : "analysis.run_tn");
        const std::int64_t t = now_ns();
        g_sink = g_sink + e.run(u).ops;
        const double s = seconds_since(t);
        best[i] = rep == 0 ? s : std::min(best[i], s);
      }
    }
    emit("analysis.scaling_eff_t4", best[0] / (threads * best[1]));
  }
  {
    // Shard-shaped results: one engine run per scheduler batch range.
    const std::size_t batch = 4U * mem::default_lane_width();
    const EngineFront e(w, 1);
    std::vector<analysis::CampaignResult> shards;
    for (std::size_t b = 0; b < u.size(); b += batch) {
      shards.push_back(e.run(u.subspan(b, std::min(batch, u.size() - b))));
      // A CampaignDriver shard's escapes index the whole universe.
      for (std::size_t& esc : shards.back().escapes) esc += b;
    }
    analysis::CampaignResult merged;
    {
      auto span = tracer.scope("analysis.merge");
      emit("analysis.merge_s", per_call_s([&] {
             merged = analysis::merge_results(shards);
           }));
    }
    // The service mix has no whole-run result to compare with.
    if (!obs.last_signature.empty()) {
      merge_matches =
          signature(merged, obs.offset, u.size()) == obs.last_signature;
    }
  }

  // --- analysis: service -------------------------------------------
  std::unique_ptr<ServiceObs> burst;
  if (!service) {
    std::unique_ptr<ServiceInputs> in;
    std::vector<double> ignored_s, ignored_ctor;
    std::uint64_t ignored_faults = 0;
    (void)setup_service(in, args, tracer, ignored_s, ignored_faults, ignored_ctor);
    burst = std::make_unique<ServiceObs>(
        run_service_phase(*in, args, tracer, kServiceBurstS, 0));
    service = burst.get();
  }
  emit("analysis.service_submit_s", median(service->submit_s));
  for (const char* group : {"prt", "wom", "march", "ckpt", "no_ckpt"}) {
    const auto it = service->latency_by_group.find(group);
    emit(std::string("analysis.service_req_p50_s.") + group,
         it == service->latency_by_group.end() ? 0.0 : median(it->second));
  }
  emit("analysis.service_checkpoint_writes", static_cast<double>(service->checkpoint_writes));
  emit("analysis.service_shard_retries", static_cast<double>(service->shard_retries));
  emit("analysis.service_rejected", static_cast<double>(service->rejected));
  emit("analysis.service_shedded", static_cast<double>(service->shedded));
  emit("analysis.service_queued_max", static_cast<double>(service->queued_max));

  // --- util ----------------------------------------------------------
  {
    util::ThreadPool pool(threads);
    const std::size_t batch = 4U * mem::default_lane_width();
    auto span = tracer.scope("util.batch_dispatch");
    emit("util.batch_dispatch_s", per_call_s([&] {
           (void)pool.parallel_for_batches(
               u.size(), batch, [](std::size_t, std::size_t, std::size_t) {});
         }));
  }
  {
    const std::string path = args.tmpdir + "/durable-probe";
    const std::string payload(kCheckpointBytes, 'x');
    auto span = tracer.scope("util.durable_write");
    emit("util.durable_write_s",
         per_call_s([&] { util::durable_replace_file(path, payload); }));
    std::filesystem::remove(path);
  }

  // --- trace summary -----------------------------------------------
  const double overhead = 1.0 - obs.traced_rate / obs.untraced_rate;
  emit("trace.overhead_frac", overhead);
  for (const auto& [layer, s] : tracer.self_seconds()) {
    emit(layer + ".self_s", s);
  }
  return merge_matches;
}

}  // namespace

void run_probes(RunContext& ctx, WorkloadObs& obs) {
  ctx.out.key("per_layer").begin_object();
  const std::optional<bool> merge_matches = probe_layers(ctx, obs);
  ctx.out.end_object();
  if (merge_matches) ctx.out.field("merge_matches", *merge_matches);
}

}  // namespace prtbench
