// Fault-simulation campaign driver.
//
// A campaign instantiates one FaultyRam per fault in a universe, runs a
// test algorithm against it, and tallies detection per fault class.
// This is the empirical machinery behind the paper's §3 coverage claim
// and behind every coverage table in bench/.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/prt_engine.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_injector.hpp"
#include "util/stop_token.hpp"

namespace prt::analysis {

/// A test algorithm under evaluation: runs against the (faulty) memory
/// and returns true when it flags the memory as bad.
using TestAlgorithm = std::function<bool(mem::Memory&)>;

struct ClassCoverage {
  std::uint64_t detected = 0;
  std::uint64_t total = 0;
  [[nodiscard]] double percent() const {
    return total == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                    static_cast<double>(total);
  }
  bool operator==(const ClassCoverage&) const = default;
};

/// Scheduling/width telemetry of one campaign run — how the work was
/// *executed*, never what it computed.  Unlike the dispatch tallies
/// below, these fields depend on the partition, the thread count and
/// timing (steals), so they are excluded from CampaignResult's
/// equality: the parity suites compare whole results across widths and
/// thread counts, and the guarantee is that everything *else* is
/// bit-identical.
struct SchedTelemetry {
  /// Scheduler batches that completed (1 for an inline run).
  std::uint64_t batches = 0;
  /// Batches executed by a worker outside its home range
  /// (util::StealCounters::steals); 0 for inline runs.
  std::uint64_t steals = 0;
  /// Packed faults that rode a wider-than-64 lane word.  <=
  /// packed_faults; 0 when wide dispatch never engaged (narrow build,
  /// lane_width = 64, or every batch fell back).
  std::uint64_t wide_faults = 0;
  /// Widest lane word any batch of the run used (64 when packing never
  /// went wide; 0 when nothing ran packed).
  unsigned max_lanes = 0;
  /// Transcript ops the lane batches advanced through
  /// (mem::PackedFaultRamT::ops() summed over every flushed batch).
  /// The dense replays issue each of them as a packed access; the
  /// sparse March replay issues only those to touched cells and seeks
  /// the ram's counters over the rest, so this counts positions, not
  /// accesses.  A batch stops replaying once all its lanes have
  /// latched, so this sits below (batches x the transcript's
  /// total_ops()) whenever dropping fires; 0 when nothing ran packed.
  std::uint64_t replayed_ops = 0;
};

struct CampaignResult {
  std::map<mem::FaultClass, ClassCoverage> by_class;
  ClassCoverage overall;
  /// Indices (into the universe) of undetected faults, for debugging
  /// and for the TDB search.
  std::vector<std::size_t> escapes;
  /// Memory operations (reads + writes) the test issued summed over
  /// every fault's run — the campaign-level cost figure early-abort
  /// shrinks (analysis/campaign_engine).
  std::uint64_t ops = 0;
  /// Dispatch tallies: faults that rode a packed lane batch vs a
  /// per-fault live run.  packed_faults + scalar_faults ==
  /// overall.total.  The campaign drivers pack every fault
  /// (scalar_faults == 0); run_campaign runs every fault live
  /// (packed_faults == 0).  They never change a verdict, but operator==
  /// compares them, so a driver result equals another driver result
  /// (any thread count, any lane width) and never a run_campaign
  /// result: parity suites against the live reference compare the
  /// verdict fields and ops field by field instead.
  std::uint64_t packed_faults = 0;
  std::uint64_t scalar_faults = 0;
  /// Execution telemetry (batches, steals, lane widths) — NOT part of
  /// equality, see SchedTelemetry.
  SchedTelemetry sched;

  /// Everything except `sched`: the fields the bit-identical-at-any-
  /// thread-count-and-lane-width guarantee covers.
  bool operator==(const CampaignResult& o) const {
    return by_class == o.by_class && overall == o.overall &&
           escapes == o.escapes && ops == o.ops &&
           packed_faults == o.packed_faults &&
           scalar_faults == o.scalar_faults;
  }
};

struct CampaignOptions {
  mem::Addr n = 64;
  unsigned m = 1;
  unsigned ports = 1;
  // Every run starts from an all-zero array (deterministic start; a
  // real power-up state is unknown, but every algorithm under test
  // writes each cell before reading it back, so the fill only pins
  // down the "previous value" seen by first-write transitions).
};

/// Execution knobs of the campaign engines (CampaignEngine,
/// MarchCampaign, CampaignSuite; MarchEngineOptions is an alias).  A
/// workload that can pack always rides the packed replay; none of
/// these fields changes a verdict, a coverage number or an escape.
struct EngineOptions {
  /// Worker count; 0 defers to the PRT_THREADS environment override,
  /// then the hardware concurrency (util::default_worker_count).  One
  /// worker runs the universe as a single shard on the calling thread.
  unsigned threads = 0;
  /// Stop each fault's run at its first failure.  CampaignResult::ops
  /// shrinks to the abort-aware cost of the live reference (run_prt /
  /// run_march with early_abort), which packed lanes reproduce with
  /// analytic per-lane accounting.  Packed batches stop once every
  /// lane has latched either way (fault dropping, DESIGN.md §16); off,
  /// they still charge the complete test per lane, so this option
  /// changes only the op accounting.
  bool early_abort = false;
  /// Packed lane width: 64, 256, 512, or 0 for
  /// mem::default_lane_width() (512).  Per shard the driver runs 512
  /// lanes at >= 256 faults, 256 at >= 128, else 64; results are
  /// bit-identical at every width, only throughput and the
  /// CampaignResult::sched telemetry change.  Other values throw
  /// std::invalid_argument at engine construction.
  unsigned lane_width = 0;
};

/// How a stoppable campaign run ended.  kComplete means every shard
/// ran to completion — even if a stop arrived after the last shard
/// finished, the result covers the whole universe and is bit-identical
/// to an uninterrupted run.
enum class RunStatus : std::uint8_t {
  kComplete,
  kCancelled,
  kDeadlineExpired,
};

[[nodiscard]] constexpr RunStatus status_from(util::StopReason reason) {
  switch (reason) {
    case util::StopReason::kCancelled:
      return RunStatus::kCancelled;
    case util::StopReason::kStalled:
      // From the run's perspective a watchdog-stalled attempt is a
      // cancellation — the distinction (who pulled the token and why)
      // lives at the service layer, which retries the attempt.
      return RunStatus::kCancelled;
    case util::StopReason::kDeadline:
      return RunStatus::kDeadlineExpired;
    case util::StopReason::kNone:
      break;
  }
  return RunStatus::kComplete;
}

/// Outcome of a stoppable campaign run: the merge of every shard that
/// completed before the stop was observed.  Interrupted shards are
/// discarded whole — `result` is always an exact tally over the union
/// of the completed shards' (contiguous, ascending) index ranges, so a
/// partial result is trustworthy for the faults it covers and
/// `escapes` stays ascending.
struct CampaignOutcome {
  RunStatus status = RunStatus::kComplete;
  CampaignResult result;
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
  [[nodiscard]] bool complete() const {
    return status == RunStatus::kComplete;
  }
};

/// Central geometry validation, shared by every campaign entry point
/// (the unified driver behind CampaignEngine / MarchCampaign /
/// CampaignSuite, and run_campaign below).  Throws
/// std::invalid_argument — before any worker thread or memory is
/// constructed — unless n >= 1, 1 <= m <= 32 (the SimRam word width)
/// and ports is 1, 2 or 4 (the per-port state arrays).
void validate_campaign_options(const CampaignOptions& opt);

/// Folds shard results produced over contiguous ascending fault-index
/// ranges back into one CampaignResult, in shard order — the merge
/// that makes every parallel campaign path bit-identical to the serial
/// one (campaign drivers and CampaignSuite both fold through this).
[[nodiscard]] CampaignResult merge_results(
    std::span<const CampaignResult> shards);

/// Runs `test` once per fault; each run sees a freshly reset memory
/// with exactly that fault injected.  Serial by construction (the
/// TestAlgorithm may capture mutable state); PRT-scheme campaigns
/// should prefer the oracle-backed, parallel CampaignEngine
/// (analysis/campaign_engine.hpp), which produces identical results.
[[nodiscard]] CampaignResult run_campaign(
    std::span<const mem::Fault> universe, const TestAlgorithm& test,
    const CampaignOptions& opt);

// --- adapters -------------------------------------------------------

/// March test with the standard backgrounds for the memory width.
[[nodiscard]] TestAlgorithm march_algorithm(march::MarchTest test);

/// PRT scheme (all iterations).  The returned algorithm memoizes a
/// PrtOracle per memory size, so even legacy run_campaign call sites
/// derive each scheme's trajectories/golden sequences once per
/// campaign instead of once per fault.
[[nodiscard]] TestAlgorithm prt_algorithm(core::PrtScheme scheme);

/// PRT scheme truncated to its first `iterations` iterations — the
/// coverage-vs-iterations sweep of the §3 claim.  Throws
/// std::invalid_argument unless 1 <= iterations <= the scheme's
/// iteration count.
[[nodiscard]] TestAlgorithm prt_algorithm_prefix(core::PrtScheme scheme,
                                                 std::size_t iterations);

}  // namespace prt::analysis
