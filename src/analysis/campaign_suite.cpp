#include "analysis/campaign_suite.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/campaign_driver.hpp"

namespace prt::analysis {

namespace {

/// One configuration, prepared for scheduling: the generated universe
/// plus a type-erased shard runner over the configuration's driver.
/// The driver is owned by the closure so PRT and March configurations
/// flow through one schedule.
struct Prepared {
  std::vector<mem::Fault> universe;
  std::string name;
  std::function<bool(std::span<const mem::Fault>, std::size_t, std::size_t,
                     CampaignResult&, const util::StopToken&)>
      run_shard;
};

/// Throws std::invalid_argument on a malformed universe
/// (CampaignDriver::validate_universe), before any shard is scheduled.
template <typename Driver>
Prepared prepared_from(std::shared_ptr<Driver> driver,
                       std::vector<mem::Fault> universe, std::string name) {
  driver->validate_universe(universe);
  Prepared p;
  p.universe = std::move(universe);
  p.name = std::move(name);
  p.run_shard = [driver = std::move(driver)](
                    std::span<const mem::Fault> faults, std::size_t begin,
                    std::size_t end, CampaignResult& out,
                    const util::StopToken& stop) {
    return driver->run_shard(faults, begin, end, out, stop);
  };
  return p;
}

std::string config_label(const CampaignOptions& opt) {
  std::string label = "n=" + std::to_string(opt.n);
  if (opt.m != 1) label += " m=" + std::to_string(opt.m);
  if (opt.ports != 1) label += " ports=" + std::to_string(opt.ports);
  return label;
}

}  // namespace

struct CampaignSuite::Impl {
  // Exactly one of the two workload kinds is set.
  SchemeFactory factory;
  std::optional<march::MarchTest> march_test;
  EngineOptions engine;
  /// The one pool every configuration's shards flatten onto; spun up
  /// on the first multi-worker run() and reused across runs.
  mutable std::unique_ptr<util::ThreadPool> pool;

  /// Generates the universe and builds the driver for one
  /// configuration — through the same detail::make_driver path the
  /// standalone engines use, so per-configuration behaviour (and the
  /// OracleCache reuse) is identical by construction.
  [[nodiscard]] Prepared prepare(const CampaignOptions& opt, std::size_t index,
                                 const UniverseGenerator& universe) const {
    if (march_test) {
      std::shared_ptr<detail::MarchDriver> driver =
          detail::make_driver(*march_test, opt, engine);
      std::string name = march_test->name;
      return prepared_from(std::move(driver), universe(opt, index),
                           std::move(name));
    }
    std::shared_ptr<detail::PrtDriver> driver =
        detail::make_driver(factory(opt), opt, engine);
    std::string name = driver->workload().name();
    return prepared_from(std::move(driver), universe(opt, index),
                         std::move(name));
  }
};

CampaignSuite::CampaignSuite(SchemeFactory factory,
                             const EngineOptions& engine)
    : impl_(std::make_unique<Impl>()) {
  impl_->factory = std::move(factory);
  impl_->engine = engine;
}

CampaignSuite::CampaignSuite(march::MarchTest test,
                             const MarchEngineOptions& engine)
    : impl_(std::make_unique<Impl>()) {
  impl_->march_test = std::move(test);
  impl_->engine = engine;
}

CampaignSuite::~CampaignSuite() = default;

SuiteResult CampaignSuite::run(std::span<const CampaignOptions> configs,
                               const UniverseGenerator& universe) const {
  // A default token never stops, so this is exactly the pre-
  // cancellation suite run (every status comes back kComplete).
  return run(configs, universe, util::StopToken());
}

SuiteResult CampaignSuite::run(std::span<const CampaignOptions> configs,
                               const UniverseGenerator& universe,
                               const util::StopToken& stop) const {
  // Every configuration's geometry is validated before any universe is
  // generated or any task scheduled — a malformed grid point fails the
  // whole request up-front instead of mid-flight on a worker.
  for (const CampaignOptions& opt : configs) validate_campaign_options(opt);

  const std::size_t count = configs.size();
  std::vector<Prepared> prepared(count);
  /// Per-configuration shard slots, merged in shard order — the same
  /// contiguous-ascending-ranges merge the standalone engines use, so
  /// each configuration's result is bit-identical to its standalone
  /// run no matter how the flattened schedule interleaved the work.
  std::vector<std::vector<CampaignResult>> shards(count);
  /// Per-shard completion flags (unsigned char, not vector<bool>: each
  /// task writes only its own slot, which bit-packing would turn into
  /// a data race) plus a per-configuration "universe was generated"
  /// flag — a stop can pre-empt a configuration before prepare().
  std::vector<std::vector<unsigned char>> done(count);
  std::vector<unsigned char> generated(count, 0);

  const unsigned workers = impl_->engine.threads != 0
                               ? impl_->engine.threads
                               : util::default_worker_count();
  if (workers == 1) {
    for (std::size_t c = 0; c < count; ++c) {
      if (stop.stop_requested()) break;
      prepared[c] = impl_->prepare(configs[c], c, universe);
      generated[c] = 1;
      shards[c].resize(1);
      done[c].assign(1, 0);
      done[c][0] = prepared[c].run_shard(prepared[c].universe, 0,
                                         prepared[c].universe.size(),
                                         shards[c][0], stop)
                       ? 1
                       : 0;
    }
  } else {
    if (!impl_->pool) impl_->pool = std::make_unique<util::ThreadPool>(workers);
    util::ThreadPool& pool = *impl_->pool;
    // Worker exceptions (universe generator, scheme factory, malformed
    // faults) are captured and rethrown on the caller after the whole
    // schedule drained — same contract as ThreadPool::
    // parallel_for_chunks.
    util::ErrorCollector errors;
    for (std::size_t c = 0; c < count; ++c) {
      // One prepare task per configuration; each fans its own shard
      // tasks out onto the same pool as soon as it is ready, so small
      // configurations interleave with big ones instead of waiting
      // for them.  The shard partition is util::for_each_chunk — the
      // same contiguous-ascending splitter parallel_for_chunks uses,
      // which the bit-identical shard-order merge relies on.
      pool.submit([&, c] {
        errors.guard([&] {
          if (stop.stop_requested()) return;
          prepared[c] = impl_->prepare(configs[c], c, universe);
          generated[c] = 1;
          const std::size_t total = prepared[c].universe.size();
          if (total == 0) return;
          const auto shard_count = std::min<std::size_t>(workers, total);
          shards[c].resize(shard_count);
          done[c].assign(shard_count, 0);
          util::for_each_chunk(
              total, workers,
              [&, c](unsigned s, std::size_t begin, std::size_t end) {
                pool.submit([&, c, s, begin, end] {
                  errors.guard([&] {
                    done[c][s] =
                        prepared[c].run_shard(prepared[c].universe, begin,
                                              end, shards[c][s], stop)
                            ? 1
                            : 0;
                  });
                });
              });
        });
      });
    }
    pool.wait_idle();
    errors.rethrow_if_any();
  }

  SuiteResult out;
  out.configs.reserve(count);
  bool all_complete = true;
  for (std::size_t c = 0; c < count; ++c) {
    SuiteConfigResult entry;
    entry.options = configs[c];
    entry.workload = prepared[c].name;
    entry.faults = prepared[c].universe.size();
    entry.shards_total = shards[c].size();
    std::vector<CampaignResult> completed;
    completed.reserve(shards[c].size());
    for (std::size_t s = 0; s < shards[c].size(); ++s) {
      if (done[c][s] != 0) completed.push_back(std::move(shards[c][s]));
    }
    entry.shards_done = completed.size();
    entry.result = merge_results(completed);
    const bool complete =
        generated[c] != 0 && entry.shards_done == entry.shards_total;
    entry.status =
        complete ? RunStatus::kComplete : status_from(stop.reason());
    all_complete = all_complete && complete;
    for (const auto& [cls, cov] : entry.result.by_class) {
      auto& acc = out.by_class[cls];
      acc.detected += cov.detected;
      acc.total += cov.total;
    }
    out.overall.detected += entry.result.overall.detected;
    out.overall.total += entry.result.overall.total;
    out.ops += entry.result.ops;
    out.configs.push_back(std::move(entry));
  }
  out.status =
      all_complete ? RunStatus::kComplete : status_from(stop.reason());
  return out;
}

Table SuiteResult::table() const {
  Table table({"config", "workload", "faults", "detected", "total",
               "coverage %", "ops"});
  table.set_align(0, Align::kLeft);
  table.set_align(1, Align::kLeft);
  for (const SuiteConfigResult& entry : configs) {
    table.add(config_label(entry.options), entry.workload, entry.faults,
              entry.result.overall.detected, entry.result.overall.total,
              entry.result.overall.percent(), entry.result.ops);
  }
  table.add("TOTAL", "", overall.total, overall.detected, overall.total,
            overall.percent(), ops);
  return table;
}

SuiteResult run_prt_suite(std::span<const CampaignOptions> configs,
                          SchemeFactory factory,
                          const UniverseGenerator& universe,
                          const EngineOptions& engine) {
  return CampaignSuite(std::move(factory), engine).run(configs, universe);
}

SuiteResult run_march_suite(std::span<const CampaignOptions> configs,
                            march::MarchTest test,
                            const UniverseGenerator& universe,
                            const MarchEngineOptions& engine) {
  return CampaignSuite(std::move(test), engine).run(configs, universe);
}

}  // namespace prt::analysis
