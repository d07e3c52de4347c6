// Lane-batched, thread-parallel March fault-simulation campaigns.
//
// run_campaign (fault_sim.hpp) evaluates march_algorithm serially, one
// FaultyRam run per fault; this campaign is the fast path for March
// coverage tables.  It is a thin facade over the generic
// analysis::CampaignDriver (campaign_driver.hpp) instantiated with the
// March workload — the same driver, pool, shard loops and
// order-deterministic merge CampaignEngine runs on:
//
//  * for bit-oriented (m = 1) campaigns the golden March run is
//    compiled once per (test, n, background) into a flat
//    core::OpTranscript, cached in the process-wide
//    analysis::OracleCache and shared by every campaign over the same
//    test; lane-compatible faults (every standard family, decoder,
//    NPSF and retention kinds included) ride 64, 256 or 512 lanes per
//    sweep through march::run_march_packed, and the merged
//    CampaignResult — coverage, per-class counts, escapes and op
//    totals — is bit-identical to run_campaign(universe,
//    march_algorithm(test), opt).  Early abort composes with packing:
//    lanes retire at their first mismatching read with analytic
//    per-lane op accounting identical to the abort-aware live
//    run_march reference;
//  * word-oriented (m > 1) campaigns and the lane-incompatible residue
//    run per fault on the live reference, march::run_march_backgrounds
//    over the standard data backgrounds, still sharded over the pool.
//
// See DESIGN.md §8/§9/§10 and bench/bench_campaign.cpp's March
// section.
#pragma once

#include <memory>
#include <span>

#include "analysis/fault_sim.hpp"
#include "march/march_runner.hpp"

namespace prt::analysis {

namespace detail {
class MarchWorkload;
template <typename Workload>
class CampaignDriver;
}  // namespace detail

/// March campaigns take the shared engine knobs (fault_sim.hpp).
using MarchEngineOptions = EngineOptions;

class MarchCampaign {
 public:
  /// Fetches the per-(test, n, background) transcript from
  /// OracleCache::global() when m = 1.  Throws std::invalid_argument
  /// on malformed options (validate_campaign_options) and on March
  /// tests with data indices outside {0, 1}.
  MarchCampaign(march::MarchTest test, const CampaignOptions& opt,
                const MarchEngineOptions& engine = {});
  ~MarchCampaign();
  MarchCampaign(const MarchCampaign&) = delete;
  MarchCampaign& operator=(const MarchCampaign&) = delete;

  [[nodiscard]] const march::MarchTest& test() const;

  /// Simulates every fault of the universe.  Identical CampaignResult
  /// to run_campaign(universe, march_algorithm(test), opt) regardless
  /// of thread count.  Not safe to call concurrently on one campaign
  /// (workers share its pool); distinct campaigns are independent.
  [[nodiscard]] CampaignResult run(std::span<const mem::Fault> universe) const;

  /// Cancellable run: shard loops poll `stop` per fault, interrupted
  /// shards are discarded whole, and the outcome carries the merge of
  /// the completed shards plus why the run ended (CampaignOutcome in
  /// fault_sim.hpp).  With a never-stopping token the result is
  /// bit-identical to run().
  [[nodiscard]] CampaignOutcome run(std::span<const mem::Fault> universe,
                                    const util::StopToken& stop) const;

 private:
  std::unique_ptr<detail::CampaignDriver<detail::MarchWorkload>> driver_;
};

/// Convenience: one-shot March campaign with default engine options.
[[nodiscard]] CampaignResult run_march_campaign(
    std::span<const mem::Fault> universe, march::MarchTest test,
    const CampaignOptions& opt, const MarchEngineOptions& engine = {});

}  // namespace prt::analysis
