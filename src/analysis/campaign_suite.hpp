// Sharded multi-configuration campaign suite.
//
// The paper's coverage and cost claims are sweeps — coverage vs.
// memory size, word width and port count — but one CampaignEngine /
// MarchCampaign evaluates exactly one (n, m, ports) point.
// CampaignSuite fans a single request out over a whole grid of
// configurations:
//
//  * one workload (a PRT scheme *factory*, since schemes are sized per
//    n, or one March test) plus a list of CampaignOptions and a
//    universe *generator* called once per configuration;
//  * run() first prepares every configuration, one scheduler batch
//    each: its universe is generated, its driver built with golden
//    artifacts from the shared analysis::OracleCache (so a port sweep
//    at one n compiles its oracle once, and repeated sweeps recompile
//    nothing), and its universe validated — a throwing generator or a
//    malformed fault fails the call before any replay starts;
//  * then ONE batch fan-out replays every configuration: each
//    configuration is cut into the standalone engine's fixed batches
//    (4 lane sweeps each), every configuration's batches share one
//    work-stealing schedule on one pool spawned once per suite, and
//    each configuration's batches merge in batch order — so its
//    CampaignResult and shard counts are those of a standalone
//    CampaignEngine / MarchCampaign run over the same universe, at any
//    thread count (pinned by tests/test_campaign_suite.cpp);
//  * the merged SuiteResult additionally carries the aggregate
//    coverage/ops rollup and renders the per-configuration coverage
//    table.
//
// See DESIGN.md §10 and §20.  tests/test_campaign_golden.cpp checks
// the n x ports grid against per-point engines.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/march_campaign.hpp"
#include "util/table.hpp"

namespace prt::analysis {

/// Builds the fault universe for one configuration; `index` is the
/// configuration's position in the requested grid, so callers with
/// pre-generated universes can return theirs directly instead of
/// reverse-matching options.  Called once per configuration, possibly
/// concurrently from pool workers (must be safe to call concurrently
/// with distinct arguments).
using UniverseGenerator = std::function<std::vector<mem::Fault>(
    const CampaignOptions&, std::size_t index)>;

/// Builds the PRT scheme for one configuration (schemes are sized per
/// n / m, e.g. core::extended_scheme_bom).  Same concurrency contract
/// as UniverseGenerator.
using SchemeFactory =
    std::function<core::PrtScheme(const CampaignOptions&)>;

/// One configuration's outcome inside a SuiteResult.
struct SuiteConfigResult {
  CampaignOptions options;
  /// Workload display name (scheme name / March test name).
  std::string workload;
  /// Universe size the generator produced for this configuration.
  std::size_t faults = 0;
  /// Bit-identical to a standalone engine run over the same universe.
  /// On a stopped run this is the exact tally over the configuration's
  /// completed shards only (interrupted shards are discarded whole).
  CampaignResult result;
  /// kComplete when every shard of this configuration finished; the
  /// stop cause otherwise.  A configuration the stop pre-empted before
  /// its universe was even generated reports 0 shards.
  RunStatus status = RunStatus::kComplete;
  /// Completed and total batches of this configuration; the total
  /// equals a standalone engine run's CampaignOutcome::shards_total.
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
};

/// Merged outcome of a suite run: per-configuration results in request
/// order plus the aggregate coverage/ops rollup.
struct SuiteResult {
  std::vector<SuiteConfigResult> configs;
  /// kComplete when every configuration completed; the stop cause
  /// otherwise (the per-configuration statuses say which results are
  /// partial).
  RunStatus status = RunStatus::kComplete;
  /// Coverage summed over every configuration, per fault class and
  /// overall (escape indices stay per-configuration — they index each
  /// configuration's own universe).
  std::map<mem::FaultClass, ClassCoverage> by_class;
  ClassCoverage overall;
  /// Memory operations summed over every configuration's runs.
  std::uint64_t ops = 0;

  /// Renders the per-configuration coverage/ops table (one row per
  /// configuration plus the aggregate row).
  [[nodiscard]] Table table() const;
};

class CampaignSuite {
 public:
  /// PRT suite: `factory` is invoked once per configuration to size
  /// the scheme.  Engine options apply to every configuration
  /// (threads sizes the one shared pool).
  CampaignSuite(SchemeFactory factory, const EngineOptions& engine = {});
  /// March suite: one test drives every configuration.
  CampaignSuite(march::MarchTest test, const MarchEngineOptions& engine = {});
  ~CampaignSuite();
  CampaignSuite(const CampaignSuite&) = delete;
  CampaignSuite& operator=(const CampaignSuite&) = delete;

  /// Runs every configuration's campaign, all configurations' batches
  /// on one schedule over one pool.  Throws std::invalid_argument on any
  /// malformed configuration (validate_campaign_options, checked
  /// up-front for every configuration before any work is scheduled).
  /// Not safe to call concurrently on one suite; distinct suites are
  /// independent.
  [[nodiscard]] SuiteResult run(std::span<const CampaignOptions> configs,
                                const UniverseGenerator& universe) const;

  /// Cancellable suite run: every batch polls `stop`, interrupted
  /// batches are discarded whole, and each configuration's result is
  /// the exact merge of its completed shards (statuses on the config
  /// entries and the SuiteResult say what was cut short).  With a
  /// never-stopping token the result is bit-identical to run().
  [[nodiscard]] SuiteResult run(std::span<const CampaignOptions> configs,
                                const UniverseGenerator& universe,
                                const util::StopToken& stop) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: one-shot PRT suite run.
[[nodiscard]] SuiteResult run_prt_suite(
    std::span<const CampaignOptions> configs, SchemeFactory factory,
    const UniverseGenerator& universe, const EngineOptions& engine = {});

/// Convenience: one-shot March suite run.
[[nodiscard]] SuiteResult run_march_suite(
    std::span<const CampaignOptions> configs, march::MarchTest test,
    const UniverseGenerator& universe, const MarchEngineOptions& engine = {});

}  // namespace prt::analysis
