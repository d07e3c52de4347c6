#include "analysis/campaign_suite.hpp"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_driver.hpp"

namespace prt::analysis {

namespace {

/// One configuration, prepared for the replay: its generated universe
/// and its driver.  A null driver marks a configuration that a stop
/// pre-empted before its universe was generated.
template <typename Driver>
struct Prepared {
  std::vector<mem::Fault> universe;
  std::unique_ptr<Driver> driver;
};

std::string config_label(const CampaignOptions& opt) {
  std::string label = "n=" + std::to_string(opt.n);
  if (opt.m != 1) label += " m=" + std::to_string(opt.m);
  if (opt.ports != 1) label += " ports=" + std::to_string(opt.ports);
  return label;
}

/// CampaignSuite::run after the grid check, over the drivers
/// `make(opt)` builds (a suite is all-PRT or all-March, so one Driver
/// type).  Two phases on one scheduler: prepare every configuration,
/// one batch each, then replay every configuration's faults in one
/// multi-segment run_sharded call; then fold the outcomes.
template <typename Driver, typename MakeDriver>
SuiteResult run_grid(std::span<const CampaignOptions> configs,
                     const UniverseGenerator& universe, unsigned workers,
                     std::unique_ptr<util::ThreadPool>& pool,
                     const util::StopToken& stop, MakeDriver&& make) {
  const std::size_t count = configs.size();
  // Prepare: generate the universe, build the driver through the same
  // detail::make_driver path (and OracleCache) the standalone engines
  // use, validate the universe.  A throwing generator or factory, or a
  // malformed universe, fails the call here, before any replay starts.
  std::vector<Prepared<Driver>> prepared(count);
  detail::for_each_batch(count, workers, pool, [&](std::size_t c) {
    if (stop.stop_requested()) return;
    Prepared<Driver>& p = prepared[c];
    p.universe = universe(configs[c], c);
    p.driver = make(configs[c]);
    p.driver->validate_universe(p.universe);
  });

  // Replay: one segment per prepared configuration, each cut into its
  // driver's fixed batches and merged in batch order, so each result
  // is bit-identical to a standalone engine run at any thread count.
  // Every driver shares the suite's EngineOptions, hence one batch
  // size.
  std::vector<const Prepared<Driver>*> live;
  std::vector<std::size_t> sizes;
  for (const Prepared<Driver>& p : prepared) {
    if (!p.driver) continue;
    live.push_back(&p);
    sizes.push_back(p.universe.size());
  }
  const std::size_t batch = live.empty() ? 1 : live[0]->driver->batch_size();
  std::vector<CampaignOutcome> outcomes = detail::run_sharded(
      sizes, workers, batch, pool,
      [&](std::size_t segment, std::size_t begin, std::size_t end,
          CampaignResult& shard) {
        const Prepared<Driver>& p = *live[segment];
        return p.driver->run_shard(p.universe, begin, end, shard, stop);
      },
      stop);

  SuiteResult out;
  out.configs.reserve(count);
  for (std::size_t c = 0, segment = 0; c < count; ++c) {
    SuiteConfigResult entry;
    entry.options = configs[c];
    entry.status = status_from(stop.reason());
    if (const Prepared<Driver>& p = prepared[c]; p.driver) {
      CampaignOutcome& o = outcomes[segment++];
      entry.workload = p.driver->workload().name();
      entry.faults = p.universe.size();
      entry.result = std::move(o.result);
      entry.status = o.status;
      entry.shards_done = o.shards_done;
      entry.shards_total = o.shards_total;
    }
    if (entry.status != RunStatus::kComplete) out.status = entry.status;
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
  return out;
}

}  // namespace

struct CampaignSuite::Impl {
  // Exactly one of the two workload kinds is set.
  SchemeFactory factory;
  std::optional<march::MarchTest> march_test;
  EngineOptions engine;
  /// The one pool both phases of every run() fan out on; spun up on
  /// the first multi-worker run() and reused across runs.
  mutable std::unique_ptr<util::ThreadPool> pool;
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
  const EngineOptions& engine = impl_->engine;
  const unsigned workers = detail::worker_count(engine);
  if (impl_->march_test) {
    const march::MarchTest& test = *impl_->march_test;
    return run_grid<detail::MarchDriver>(
        configs, universe, workers, impl_->pool, stop,
        [&](const CampaignOptions& opt) {
          return detail::make_driver(test, opt, engine);
        });
  }
  return run_grid<detail::PrtDriver>(
      configs, universe, workers, impl_->pool, stop,
      [&](const CampaignOptions& opt) {
        return detail::make_driver(impl_->factory(opt), opt, engine);
      });
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
