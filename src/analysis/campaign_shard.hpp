// Internal shard-loop scaffolding under the generic campaign driver
// (campaign_driver.hpp): per-fault tallying, the lane-batching loop
// (64, 256 or 512 lanes per batch, filled kind by kind) with its
// escape re-sort, and the one batch fan-out with the
// order-deterministic merge that both the engines and CampaignSuite
// run on.  Keeping every campaign type on
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

/// Number of lane_group() keys: two per fault kind.
inline constexpr std::size_t kLaneGroups =
    2 * (static_cast<std::size_t>(mem::FaultKind::kDrf) + 1);

/// Batching key of a fault: its kind, split for the
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

/// Lane-batched shard loop: the faults ride the packed ram kLanes at
/// a time (64 for the LaneWord instantiation, 256/512 for the wide
/// words), packed in lane_group() order (a stable counting sort of
/// each window of 4 * kLanes indices), so batches are kind-uniform
/// except where one group ends and the next begins.  The faults must
/// be well-formed (the driver's validate_universe ran first);
/// add_fault rejects a malformed one all the same.
/// run_batch(packed) runs one flushed batch and returns {detected lane
/// word, ops to charge for the whole batch}.  Escapes are gathered out
/// of order and sorted once — counts and op sums are
/// order-independent, so the shard output is bit-identical to the
/// per-fault live reference *and* to itself at any other lane width
/// or packing order (the per-lane verdicts are width- and
/// neighbour-invariant; only the sched telemetry records which width
/// ran and how many packed accesses the batches issued).  Polls `stop`
/// per fault; returns false (shard abandoned — `out` is partial and
/// must be discarded) once a stop is observed, true when the shard ran
/// to completion.  A default-constructed token never stops, so the
/// poll is one null check on the non-cancellable paths.
template <typename W, typename RunBatch>
bool lane_batched_shard(std::span<const mem::Fault> universe,
                        std::size_t begin, std::size_t end,
                        mem::PackedFaultRamT<W>& packed, CampaignResult& out,
                        RunBatch&& run_batch,
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
    // Stable counting sort of the window into group order, then pack.
    std::array<std::size_t, kLaneGroups + 1> group_start{};
    for (std::size_t i = window; i < window_end; ++i) {
      ++group_start[lane_group(universe[i]) + 1];
    }
    for (std::size_t g = 1; g <= kLaneGroups; ++g) {
      group_start[g] += group_start[g - 1];
    }
    order.resize(window_end - window);
    for (std::size_t i = window; i < window_end; ++i) {
      order[group_start[lane_group(universe[i])]++] = i;
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

/// Runs fn(i) for every i in [0, count), blocking until all are done:
/// inline on the calling thread when one worker is asked for or there
/// is at most one item, else one work-stealing batch per item on
/// `pool` (created lazily, `workers` wide;
/// util::ThreadPool::parallel_for_batches).  The first exception
/// rethrows on the caller.  Returns the scheduler's telemetry; the
/// inline path steals nothing.
template <typename Fn>
util::StealCounters for_each_batch(std::size_t count, unsigned workers,
                                   std::unique_ptr<util::ThreadPool>& pool,
                                   Fn&& fn) {
  if (workers == 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return {.batches = count, .steals = 0};
  }
  if (!pool) pool = std::make_unique<util::ThreadPool>(workers);
  return pool->parallel_for_batches(
      count, 1, [&](std::size_t i, std::size_t, std::size_t) { fn(i); });
}

/// Pool fan-out with the order-deterministic merge, over one or more
/// segments (one universe per segment: a campaign, or each
/// configuration of a suite).  Each segment of size s is cut into
/// fixed batches [k * batch_size, min((k + 1) * batch_size, s)); one
/// worker, or a segment of fewer than two faults, runs the segment as
/// one batch.  Every segment's batches share one global batch index
/// and run through one for_each_batch call, and each segment's
/// per-batch results merge in batch order into its own outcome.
/// run_shard(segment, begin, end, out) -> bool fills one batch (false
/// = the batch observed `stop` and abandoned; its partial output is
/// discarded).  Batches that completed before the stop still count:
/// their ranges ascend even when non-contiguous, so the partial merge
/// is an exact tally over exactly the covered faults.
///
/// Determinism: batch boundaries depend only on (segment size,
/// batch_size), never on the other segments, the worker count beyond
/// one, or who stole what, and the merge folds them in index order,
/// so each merged CampaignResult is bit-identical at any thread count
/// and to a one-segment call over the same universe.  The scheduler's
/// telemetry lands in result.sched (batches = the segment's completed
/// batches; steals = the whole fan-out's stolen batches, from the
/// pool's counters), which equality ignores.
template <typename RunShard>
std::vector<CampaignOutcome> run_sharded(
    std::span<const std::size_t> segment_sizes, unsigned workers,
    std::size_t batch_size, std::unique_ptr<util::ThreadPool>& pool,
    RunShard&& run_shard, const util::StopToken& stop = {}) {
  if (batch_size == 0) batch_size = 1;
  struct Batch {
    std::size_t segment, begin, end;
  };
  std::vector<Batch> batches;
  std::vector<CampaignOutcome> out(segment_sizes.size());
  for (std::size_t seg = 0; seg < segment_sizes.size(); ++seg) {
    const std::size_t size = segment_sizes[seg];
    const std::size_t step =
        workers == 1 || size < 2 ? std::max<std::size_t>(size, 1)
                                 : batch_size;
    std::size_t begin = 0;
    do {
      batches.push_back({seg, begin, std::min(begin + step, size)});
      begin += step;
      ++out[seg].shards_total;
    } while (begin < size);
  }
  std::vector<CampaignResult> results(batches.size());
  // Completion flags are unsigned char, not vector<bool>: each batch
  // writes only its own slot, which bit-packing would turn into a
  // data race on the shared byte.
  std::vector<unsigned char> done(batches.size(), 0);
  const util::StealCounters counters =
      for_each_batch(batches.size(), workers, pool, [&](std::size_t b) {
        const Batch& batch = batches[b];
        done[b] = run_shard(batch.segment, batch.begin, batch.end, results[b])
                      ? 1
                      : 0;
      });
  std::vector<CampaignResult> completed;
  for (std::size_t b = 0, seg = 0; seg < out.size(); ++seg) {
    completed.clear();
    for (; b < batches.size() && batches[b].segment == seg; ++b) {
      if (done[b] != 0) completed.push_back(std::move(results[b]));
    }
    CampaignOutcome& o = out[seg];
    o.shards_done = completed.size();
    o.result = merge_results(completed);
    // Batch count is deterministic (completed batches); the steal
    // count is genuine timing telemetry and varies run to run.
    o.result.sched.batches = o.shards_done;
    o.result.sched.steals = counters.steals;
    o.status = o.shards_done == o.shards_total ? RunStatus::kComplete
                                               : status_from(stop.reason());
  }
  return out;
}

}  // namespace prt::analysis::detail
