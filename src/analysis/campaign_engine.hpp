// Oracle-backed, thread-parallel fault-simulation campaign engine for
// PRT schemes.
//
// run_campaign (fault_sim.hpp) evaluates an arbitrary TestAlgorithm
// serially on the live reference; this engine is the fast path for the
// common case where the algorithm is a PRT scheme.  It is a thin
// facade over the generic analysis::CampaignDriver
// (campaign_driver.hpp) instantiated with the PRT workload —
// MarchCampaign is the same driver with the March workload, and
// CampaignSuite fans one request over a grid of configurations on the
// same machinery:
//
//  * everything a scheme derives from its own structure — trajectory
//    permutations, golden LFSR sequences, expected images, Fin*
//    states, golden MISR signatures, and the compiled core::
//    OpTranscript — is fetched from the process-wide, thread-safe
//    analysis::OracleCache, built exactly once per (scheme, n) and
//    shared read-only by every fault, every worker and every engine;
//  * the fault universe is sharded over a worker pool in fixed-size
//    batches and merged in batch order, so the output is bit-identical
//    to the serial reference at any thread count;
//  * whenever the campaign word width equals the scheme's field degree
//    (GF(2) and GF(2^m) alike) the product path is the packed replay:
//    lane-compatible faults ride 64, 256 or 512 lanes per sweep of the
//    cached transcript through core::run_prt_packed, with early abort
//    composing through per-lane mismatch retirement;
//  * everything else — non-packable schemes and the lane-incompatible
//    residue (e.g. degenerate CFst trigger states) — runs per fault on
//    the live reference, core::run_prt over the cached oracle on a
//    rewound FaultyRam.
//
// See DESIGN.md §7/§8/§9/§10 and bench/bench_campaign.cpp.
#pragma once

#include <memory>
#include <span>

#include "analysis/fault_sim.hpp"
#include "core/prt_engine.hpp"

namespace prt::analysis {

namespace detail {
class PrtWorkload;
template <typename Workload>
class CampaignDriver;
}  // namespace detail

class CampaignEngine {
 public:
  /// Fetches the per-(scheme, n) artifacts from OracleCache::global()
  /// (building them on first use).  Throws std::invalid_argument on
  /// malformed options (validate_campaign_options).  Precondition:
  /// opt.n exceeds the scheme's register length k; opt.m equals the
  /// scheme field's m.
  CampaignEngine(core::PrtScheme scheme, const CampaignOptions& opt,
                 const EngineOptions& engine = {});
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  [[nodiscard]] const core::PrtScheme& scheme() const;
  [[nodiscard]] const core::PrtOracle& oracle() const;

  /// Simulates every fault of the universe.  Identical CampaignResult
  /// to run_campaign(universe, prt_algorithm(scheme), opt) regardless
  /// of thread count.  Not safe to call concurrently on one engine
  /// (workers share the engine's pool); distinct engines are
  /// independent.
  [[nodiscard]] CampaignResult run(std::span<const mem::Fault> universe) const;

  /// Cancellable run: shard loops poll `stop` per fault, interrupted
  /// shards are discarded whole, and the outcome carries the merge of
  /// the completed shards plus why the run ended (CampaignOutcome in
  /// fault_sim.hpp).  With a never-stopping token the result is
  /// bit-identical to run().
  [[nodiscard]] CampaignOutcome run(std::span<const mem::Fault> universe,
                                    const util::StopToken& stop) const;

 private:
  std::unique_ptr<detail::CampaignDriver<detail::PrtWorkload>> driver_;
};

/// Convenience: one-shot engine run with default engine options.
[[nodiscard]] CampaignResult run_prt_campaign(
    std::span<const mem::Fault> universe, const core::PrtScheme& scheme,
    const CampaignOptions& opt, const EngineOptions& engine = {});

}  // namespace prt::analysis
