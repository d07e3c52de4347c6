// Internal shard-loop scaffolding under the generic campaign driver
// (campaign_driver.hpp): per-fault tallying, the per-fault loop of
// non-packable workloads, the lane-batching loop (64, 256 or 512 lanes
// per batch, filled kind by kind; lane-incompatible faults on the live
// reference in place) with its escape re-sort, and the pool fan-out
// with the order-deterministic merge.  Keeping every campaign type on
// one copy of this machinery is what keeps their bit-identical-to-serial
// guarantees in lockstep — fix it here, all paths get it.
//
// Header is internal to analysis/ (included via campaign_driver.hpp
// by the campaign .cpp files only); the public surfaces are
// campaign_engine.hpp, march_campaign.hpp and campaign_suite.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/fault_sim.hpp"
#include "mem/packed_fault_ram.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis::detail {

/// Records one fault's verdict into the shard result (class + overall
/// counters, escape index on a miss).
inline void tally_fault(CampaignResult& out,
                        std::span<const mem::Fault> universe, std::size_t i,
                        bool detected) {
  auto& cls = out.by_class[mem::fault_class(universe[i].kind)];
  ++cls.total;
  ++out.overall.total;
  if (detected) {
    ++cls.detected;
    ++out.overall.detected;
  } else {
    out.escapes.push_back(i);
  }
}

/// Per-fault shard loop for non-packable workloads: run_fault(i) ->
/// detected, charging its own ops to `out`.  Polls `stop` per fault;
/// returns false (shard abandoned — `out` is partial and must be
/// discarded) once a stop is observed, true when the shard ran to
/// completion.  A default-constructed token never stops, so the poll
/// is one null check on the non-cancellable paths.
template <typename RunFault>
bool per_fault_shard(std::span<const mem::Fault> universe, std::size_t begin,
                     std::size_t end, CampaignResult& out,
                     RunFault&& run_fault, const util::StopToken& stop = {}) {
  for (std::size_t i = begin; i < end; ++i) {
    if (stop.stop_requested()) return false;
    tally_fault(out, universe, i, run_fault(i));
    ++out.scalar_faults;
  }
  return true;
}

/// Number of lane_group() keys: two per fault kind.
inline constexpr std::size_t kLaneGroups =
    2 * (static_cast<std::size_t>(mem::FaultKind::kDrf) + 1);

/// Batching key of a lane-compatible fault: its kind, split for the
/// two-cell kinds by whether the aggressor cell lies below the victim
/// (the usual coupling-fault split by aggressor position).  Faults of
/// one group tend to latch at similar points of a replay, so a batch
/// filled from one group stops near that group's latch point instead
/// of waiting for a never-latching kind packed beside it.  A property
/// of the fault alone, never of the workload.
[[nodiscard]] inline std::size_t lane_group(const mem::Fault& f) {
  const bool below =
      mem::is_coupling(f.kind) && f.aggressor.cell < f.victim.cell;
  const std::size_t group =
      2 * static_cast<std::size_t>(f.kind) + (below ? 1 : 0);
  assert(group < kLaneGroups);  // kDrf must stay the last FaultKind
  return group;
}

/// Lane-batched shard loop: compatible faults ride the packed ram
/// kLanes at a time (64 for the LaneWord instantiation, 256/512 for
/// the wide words), the residue runs per fault in place on the live
/// reference.  The compatible faults are packed in lane_group() order
/// (a stable counting sort of each window of 4 * kLanes indices), so
/// batches are kind-uniform except where one group ends and the next
/// begins.
/// run_batch(packed) runs one flushed batch and returns {detected lane
/// word, ops to charge for the whole batch}; run_fault(i) -> detected
/// as above.  Escapes are gathered out of order and sorted once —
/// counts and op sums are order-independent, so the shard output is
/// bit-identical to the per-fault live reference *and* to itself at
/// any other lane width or packing order (the per-lane verdicts are
/// width- and neighbour-invariant; only the sched telemetry records
/// which width ran and how many packed accesses the batches issued).
/// Polls `stop` per fault, same contract as per_fault_shard (false =
/// shard abandoned, discard `out`).
template <typename W, typename RunBatch, typename RunFault>
bool lane_batched_shard(std::span<const mem::Fault> universe,
                        std::size_t begin, std::size_t end,
                        mem::PackedFaultRamT<W>& packed, CampaignResult& out,
                        RunBatch&& run_batch, RunFault&& run_fault,
                        const util::StopToken& stop = {}) {
  constexpr unsigned kLanes = mem::PackedFaultRamT<W>::kLanes;
  std::array<std::size_t, kLanes> batch_index{};
  auto flush = [&]() {
    const unsigned lanes = packed.lanes_used();
    if (lanes == 0) return;
    const auto [detected, ops] = run_batch(packed);
    out.ops += ops;
    out.packed_faults += lanes;
    if constexpr (mem::is_wide_lane_word_v<W>) out.sched.wide_faults += lanes;
    out.sched.max_lanes = std::max(out.sched.max_lanes, kLanes);
    out.sched.replayed_ops += packed.ops();
    for (unsigned lane = 0; lane < lanes; ++lane) {
      tally_fault(out, universe, batch_index[lane],
                  mem::lane_test(detected, lane));
    }
    packed.reset();
  };
  // Grouping runs per window of kWindow indices (the driver's
  // steal-queue batch), so the index buffer stays bounded when one
  // worker runs the whole universe as a single shard.  Batches keep
  // filling across windows.
  constexpr std::size_t kWindow = std::size_t{4} * kLanes;
  std::vector<std::size_t> order;
  for (std::size_t window = begin; window < end; window += kWindow) {
    const std::size_t window_end = std::min(end, window + kWindow);
    // Pass 1: the residue runs in place; the compatible faults are
    // counted per group.
    std::array<std::size_t, kLaneGroups + 1> group_start{};
    for (std::size_t i = window; i < window_end; ++i) {
      if (stop.stop_requested()) return false;
      if (mem::lane_compatible(universe[i], packed.width())) {
        ++group_start[lane_group(universe[i]) + 1];
      } else {
        tally_fault(out, universe, i, run_fault(i));
        ++out.scalar_faults;
      }
    }
    // Pass 2: stable counting sort of the compatible faults into group
    // order, then pack.
    for (std::size_t g = 1; g <= kLaneGroups; ++g) {
      group_start[g] += group_start[g - 1];
    }
    order.resize(group_start[kLaneGroups]);
    for (std::size_t i = window; i < window_end; ++i) {
      if (mem::lane_compatible(universe[i], packed.width())) {
        order[group_start[lane_group(universe[i])]++] = i;
      }
    }
    for (const std::size_t i : order) {
      if (stop.stop_requested()) return false;
      batch_index[packed.add_fault(universe[i])] = i;
      if (packed.lanes_used() == kLanes) flush();
    }
  }
  flush();
  std::sort(out.escapes.begin(), out.escapes.end());
  return true;
}

/// Pool fan-out with the order-deterministic merge: splits
/// [0, universe_size) into fixed-size batches of `batch_size` faults,
/// fans them out over `pool` (created lazily, `workers` wide) with the
/// work-stealing scheduler (util::ThreadPool::parallel_for_batches),
/// and merges per-batch results in batch-index order.  One worker (or
/// a universe of fewer than two faults) runs one inline shard instead.
/// run_shard(begin, end, out) -> bool fills one shard (false = the
/// shard observed `stop` and abandoned; its partial output is
/// discarded).  Shards that completed before the stop still count:
/// their ranges ascend even when non-contiguous, so the partial merge
/// is an exact tally over exactly the covered faults.
///
/// Determinism: batch boundaries depend only on (universe_size,
/// batch_size) — never on the worker count or who stole what — and
/// the merge folds them in index order, so the merged CampaignResult
/// is bit-identical at any thread count.  The scheduler's stolen-batch
/// telemetry lands in result.sched (batches = completed batches,
/// steals from the pool's counters), which equality ignores.
template <typename RunShard>
CampaignOutcome run_sharded(std::size_t universe_size, unsigned workers,
                            std::size_t batch_size,
                            std::unique_ptr<util::ThreadPool>& pool,
                            RunShard&& run_shard,
                            const util::StopToken& stop = {}) {
  CampaignOutcome out;
  if (workers == 1 || universe_size < 2) {
    out.shards_total = 1;
    CampaignResult result;
    if (run_shard(std::size_t{0}, universe_size, result)) {
      result.sched.batches = 1;
      out.result = std::move(result);
      out.shards_done = 1;
    }
  } else {
    if (!pool) pool = std::make_unique<util::ThreadPool>(workers);
    if (batch_size == 0) batch_size = 1;
    const std::size_t nbatches =
        (universe_size + batch_size - 1) / batch_size;
    out.shards_total = nbatches;
    std::vector<CampaignResult> shards(nbatches);
    // Completion flags are unsigned char, not vector<bool>: each batch
    // writes only its own slot, which bit-packing would turn into a
    // data race on the shared byte.
    std::vector<unsigned char> done(nbatches, 0);
    const util::StealCounters counters = pool->parallel_for_batches(
        universe_size, batch_size,
        [&](std::size_t batch, std::size_t begin, std::size_t end) {
          done[batch] = run_shard(begin, end, shards[batch]) ? 1 : 0;
        });
    std::vector<CampaignResult> completed;
    completed.reserve(nbatches);
    for (std::size_t s = 0; s < nbatches; ++s) {
      if (done[s] != 0) {
        completed.push_back(std::move(shards[s]));
        ++out.shards_done;
      }
    }
    out.result = merge_results(completed);
    // Batch count is deterministic (completed batches); the steal
    // count is genuine timing telemetry and varies run to run.
    out.result.sched.batches = out.shards_done;
    out.result.sched.steals = counters.steals;
  }
  out.status = out.shards_done == out.shards_total
                   ? RunStatus::kComplete
                   : status_from(stop.reason());
  return out;
}

}  // namespace prt::analysis::detail
