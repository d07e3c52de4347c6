// The one generic campaign driver both public campaign types are
// instances of.
//
//   CampaignDriver<Workload>  — options validation, the up-front
//     universe check, the lazy pool, the sharded run() and the
//     per-shard width dispatch, written once over the
//     campaign_shard.hpp loops;
//   PrtWorkload / MarchWorkload — the only parts that differ: how the
//     golden transcript is fetched from the analysis::OracleCache and
//     how one lane batch (64, 256 or 512 lanes) runs on the packed
//     replay.
//
// Every fault of every workload rides the packed replay: bit- and
// word-oriented PRT, and March over one background (m = 1) or over
// the whole background sweep of an m-bit word.  A workload that
// cannot pack (a scheme whose field degree differs from the word
// width, or that core::prt_scheme_packable rejects) throws at
// construction.  The live run_prt / run_march stay the differential
// reference behind run_campaign only.
//
// The public classes in campaign_engine.hpp / march_campaign.hpp are
// thin facades over a driver instance; the parity suites in tests/ pin
// their results to run_campaign over the live reference.
// CampaignSuite (campaign_suite.hpp) runs a grid of drivers through
// the same batch fan-out (detail::run_sharded, one segment per
// configuration); CampaignService drives the same workloads shard by
// shard on its own checkpointed partition.  All three run the same
// up-front universe check.
//
// Header is internal to analysis/ (included by the campaign .cpp files
// only); the public surfaces are campaign_engine.hpp,
// march_campaign.hpp and campaign_suite.hpp.  See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_shard.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_packed.hpp"
#include "march/march_runner.hpp"
#include "mem/fault.hpp"
#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis::detail {

/// Ops a packed batch charges to CampaignResult::ops.  The replay
/// always runs in early-abort mode (the batch drops once every lane
/// has latched), so `abort_ops` is the per-lane early-abort cost; a
/// full-run campaign instead charges the complete transcript per lane,
/// which is what a full replay's scalar_ops would have reported.
[[nodiscard]] inline std::uint64_t charged_ops(bool early_abort,
                                               std::uint64_t abort_ops,
                                               unsigned lanes,
                                               const core::OpTranscript& t) {
  return early_abort ? abort_ops : std::uint64_t{lanes} * t.total_ops();
}

/// PRT-scheme workload: the golden transcript from OracleCache::prt,
/// packed batches over core::run_prt_packed.
class PrtWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt`
  /// (validate_campaign_options) and on a scheme the packed replay
  /// cannot run: one core::prt_scheme_packable rejects, or one whose
  /// field degree differs from the campaign word width opt.m (the
  /// packed ram carries one bit plane per field bit, and the
  /// transcript's tap matrices must line up with them).
  PrtWorkload(core::PrtScheme scheme, const CampaignOptions& opt,
              bool early_abort, OracleCache& cache)
      : scheme_(std::move(scheme)), early_abort_(early_abort) {
    validate_campaign_options(opt);
    if (!core::prt_scheme_packable(scheme_)) {
      throw std::invalid_argument(
          "PRT campaign: scheme '" + scheme_.name +
          "' cannot run on the packed replay (prt_scheme_packable: field "
          "degree in [1, 16], window k in [1, 64], seeds and coefficients "
          "in the field)");
    }
    const int degree = poly_degree(scheme_.field_modulus);
    if (degree != static_cast<int>(opt.m)) {
      throw std::invalid_argument(
          "PRT campaign: scheme '" + scheme_.name + "' works over GF(2^" +
          std::to_string(degree) + ") but the campaign word width is m = " +
          std::to_string(opt.m) + "; the field degree must equal m");
    }
    entry_ = cache.prt(scheme_, opt.n);
  }

  /// Runs one flushed lane batch at the batch's width; returns
  /// {detected lane word, ops to charge for the whole batch} — per
  /// lane exactly what the live reference would have charged for that
  /// fault (charged_ops).  The replay drops the batch once every
  /// active lane has latched; the latch is monotone, so the detected
  /// mask is that of a full replay.
  template <typename W>
  std::pair<W, std::uint64_t> run_batch(
      mem::PackedFaultRamT<W>& batch, core::PackedScratchT<W>& scratch) const {
    const core::PackedVerdictT<W> v = core::run_prt_packed(
        batch, entry_->transcript, {.early_abort = true}, scratch);
    return {v.detected & batch.active_mask(),
            charged_ops(early_abort_, v.scalar_ops, batch.lanes_used(),
                        entry_->transcript)};
  }

  [[nodiscard]] const core::PrtScheme& scheme() const { return scheme_; }
  [[nodiscard]] const core::PrtOracle& oracle() const {
    return entry_->oracle;
  }
  [[nodiscard]] const std::string& name() const { return scheme_.name; }

 private:
  core::PrtScheme scheme_;
  std::shared_ptr<const OracleCache::PrtEntry> entry_;
  bool early_abort_;
};

/// March-test workload: packed batches over the transcript from
/// OracleCache::march_sweep — one background for a bit-oriented
/// campaign, the whole march::standard_backgrounds(m) sweep in order
/// for an m-bit word, exactly what march_algorithm runs live.
class MarchWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt` and on March
  /// tests whose data indices fall outside the {0, 1} notation (a
  /// data index the background expansion cannot represent).
  MarchWorkload(march::MarchTest test, const CampaignOptions& opt,
                bool early_abort, OracleCache& cache)
      : test_(std::move(test)), early_abort_(early_abort) {
    validate_campaign_options(opt);
    for (const march::MarchElement& elem : test_.elements) {
      for (const march::MarchOp& op : elem.ops) {
        if (op.data > 1) {
          throw std::invalid_argument(
              "MarchCampaign: op data index must be 0 or 1, got " +
              std::to_string(op.data));
        }
      }
    }
    entry_ = cache.march_sweep(test_, opt.n, opt.m);
  }

  /// Same contract as PrtWorkload::run_batch; the replay stops at the
  /// read that latches the last pending lane.  The scratch holds the
  /// sparse replay's sorted touched cells.
  template <typename W>
  std::pair<W, std::uint64_t> run_batch(
      mem::PackedFaultRamT<W>& batch, core::PackedScratchT<W>& scratch) const {
    const march::MarchPackedVerdictT<W> v = march::run_march_packed(
        batch, entry_->transcript, {.early_abort = true}, scratch);
    return {v.detected & batch.active_mask(),
            charged_ops(early_abort_, v.scalar_ops, batch.lanes_used(),
                        entry_->transcript)};
  }

  [[nodiscard]] const march::MarchTest& test() const { return test_; }
  [[nodiscard]] const std::string& name() const { return test_.name; }

 private:
  march::MarchTest test_;
  std::shared_ptr<const OracleCache::MarchEntry> entry_;
  bool early_abort_;
};

/// Workers a campaign fans out over: EngineOptions::threads, or
/// util::default_worker_count() when it is 0.
[[nodiscard]] inline unsigned worker_count(const EngineOptions& engine) {
  return engine.threads != 0 ? engine.threads : util::default_worker_count();
}

/// The generic driver: validated options and universe, lazy pool,
/// sharded fan-out with the order-deterministic merge, per-shard width
/// dispatch.  Workload supplies the one campaign-type-specific hook,
/// run_batch.
template <typename Workload>
class CampaignDriver {
 public:
  /// Throws std::invalid_argument when engine.lane_width is not one
  /// of {0, 64, 256, 512} — before any worker or memory is
  /// constructed, like validate_campaign_options.
  CampaignDriver(Workload workload, const CampaignOptions& opt,
                 const EngineOptions& engine)
      : workload_(std::move(workload)), opt_(opt), engine_(engine) {
    if (engine.lane_width != 0 && engine.lane_width != 64 &&
        engine.lane_width != 256 && engine.lane_width != 512) {
      throw std::invalid_argument(
          "CampaignDriver: lane_width must be 0, 64, 256 or 512, got " +
          std::to_string(engine.lane_width));
    }
  }

  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  /// The lane width runs request: the explicit option, else
  /// mem::default_lane_width().  Shards still fall back to 64 when
  /// their fault range cannot fill half the wide lanes (run_shard).
  [[nodiscard]] unsigned effective_lane_width() const {
    return engine_.lane_width != 0 ? engine_.lane_width
                                   : mem::default_lane_width();
  }

  /// Steal-queue batch = 4 lane sweeps at the requested width: big
  /// enough that per-batch packed-ram construction amortizes, small
  /// enough (vs universe/workers chunks) that idle workers find
  /// batches to steal — and every batch above the fallback threshold
  /// fills its wide lanes.  Boundaries depend only on universe size
  /// and this constant, so results stay bit-identical at any thread
  /// count.
  [[nodiscard]] std::size_t batch_size() const {
    return static_cast<std::size_t>(effective_lane_width()) * 4;
  }

  /// Throws std::invalid_argument, naming the first malformed fault,
  /// unless every fault of `universe` fits the campaign memory
  /// (mem::validate_fault).  run() calls it before any worker starts;
  /// CampaignSuite calls it as it prepares each configuration and
  /// CampaignService before it submits a shard, so a malformed
  /// universe fails the request up front instead of inside a worker.
  void validate_universe(std::span<const mem::Fault> universe) const {
    for (const mem::Fault& f : universe) {
      mem::validate_fault(f, opt_.n, opt_.m, "campaign universe");
    }
  }

  /// Fills one shard over universe indices [begin, end).  Stateless
  /// across calls (fresh packed ram and scratch per shard), so any
  /// contiguous ascending partition merges — in shard order — to the
  /// same CampaignResult; CampaignSuite (through run_sharded) and
  /// CampaignService call this directly, after validate_universe.  Polls
  /// `stop` per fault; returns false (discard `out`, it is partial)
  /// once a stop is observed.
  ///
  /// Width dispatch: the widest requested lane word the range can fill
  /// at least half of — a 512-lane sweep needs >= 256 faults in the
  /// range, a 256-lane sweep >= 128 — else the 64-lane word (wide
  /// words on a thin batch would burn whole-word XORs on mostly-empty
  /// lanes).  The choice is per shard and verdict-neutral: all
  /// instantiations share one templated replay, so `out` is
  /// bit-identical whichever word runs.
  bool run_shard(std::span<const mem::Fault> universe, std::size_t begin,
                 std::size_t end, CampaignResult& out,
                 const util::StopToken& stop = {}) const {
    const std::size_t range = end - begin;
    const unsigned width = effective_lane_width();
    if (width >= 512 && range >= 256) {
      return run_shard_impl<mem::WideWord<8>>(universe, begin, end, out, stop);
    }
    if (width >= 256 && range >= 128) {
      return run_shard_impl<mem::WideWord<4>>(universe, begin, end, out, stop);
    }
    return run_shard_impl<mem::LaneWord>(universe, begin, end, out, stop);
  }

  /// Simulates every fault of the universe; identical CampaignResult
  /// regardless of thread count.  Not safe to call concurrently on one
  /// driver (workers share its pool); distinct drivers are
  /// independent.
  [[nodiscard]] CampaignResult run(
      std::span<const mem::Fault> universe) const {
    // A default token never stops, so the outcome is always complete
    // and its result bit-identical to the pre-cancellation driver.
    return run_stoppable(universe, util::StopToken()).result;
  }

  /// Cancellable run: shards poll `stop` per fault, interrupted shards
  /// are discarded whole, and the outcome carries the merge of the
  /// completed shards plus why the run ended (fault_sim.hpp
  /// CampaignOutcome).  Same concurrency contract as run().
  [[nodiscard]] CampaignOutcome run_stoppable(
      std::span<const mem::Fault> universe,
      const util::StopToken& stop) const {
    validate_universe(universe);
    const std::size_t size = universe.size();
    std::vector<CampaignOutcome> out = run_sharded(
        std::span(&size, 1), worker_count(engine_), batch_size(), pool_,
        [&](std::size_t, std::size_t begin, std::size_t end,
            CampaignResult& shard) {
          return run_shard(universe, begin, end, shard, stop);
        },
        stop);
    return std::move(out.front());
  }

  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] const CampaignOptions& options() const { return opt_; }

 private:
  /// The width-concrete shard loop behind run_shard's dispatch.
  template <typename W>
  bool run_shard_impl(std::span<const mem::Fault> universe, std::size_t begin,
                      std::size_t end, CampaignResult& out,
                      const util::StopToken& stop) const {
    mem::PackedFaultRamT<W> packed(opt_.n, opt_.m);
    core::PackedScratchT<W> scratch;
    auto run_batch = [&](mem::PackedFaultRamT<W>& batch) {
      return workload_.run_batch(batch, scratch);
    };
    return lane_batched_shard(universe, begin, end, packed, out, run_batch,
                              stop);
  }

  Workload workload_;
  CampaignOptions opt_;
  EngineOptions engine_;
  /// Worker pool, spun up on the first parallel run() and reused —
  /// repeated campaigns pay thread spawn/join once, not per call.
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

using PrtDriver = CampaignDriver<PrtWorkload>;
using MarchDriver = CampaignDriver<MarchWorkload>;

/// The one construction path every public campaign surface goes
/// through (CampaignEngine, MarchCampaign, CampaignSuite,
/// CampaignService): build the workload against the shared cache, wrap
/// it in a driver.
[[nodiscard]] inline std::unique_ptr<PrtDriver> make_driver(
    core::PrtScheme scheme, const CampaignOptions& opt,
    const EngineOptions& engine) {
  return std::make_unique<PrtDriver>(
      PrtWorkload(std::move(scheme), opt, engine.early_abort,
                  OracleCache::global()),
      opt, engine);
}

[[nodiscard]] inline std::unique_ptr<MarchDriver> make_driver(
    march::MarchTest test, const CampaignOptions& opt,
    const EngineOptions& engine) {
  return std::make_unique<MarchDriver>(
      MarchWorkload(std::move(test), opt, engine.early_abort,
                    OracleCache::global()),
      opt, engine);
}

}  // namespace prt::analysis::detail
