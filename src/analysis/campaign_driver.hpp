// The one generic campaign driver both public campaign types are
// instances of.
//
//   CampaignDriver<Workload>  — options validation, the lazy pool, the
//     sharded run() and the per-shard width dispatch, written once
//     over the campaign_shard.hpp loops;
//   PrtWorkload / MarchWorkload — the only parts that differ: how the
//     golden artifacts are fetched from the analysis::OracleCache,
//     whether the workload is lane-packable at all, how one lane batch
//     (64, 256 or 512 lanes) runs on the packed replay, and how one
//     fault runs on the live reference (run_prt / run_march on a
//     rewound FaultyRam).
//
// A packable workload always packs: the packed replay is the product
// path, and run_fault serves only what cannot ride a lane — a
// non-packable workload (word-oriented March, a scheme whose field
// degree differs from the word width) and the lane-incompatible
// residue (CFst trigger state > 1, a bit plane past the word width).
//
// The public classes in campaign_engine.hpp / march_campaign.hpp are
// thin facades over a driver instance; the parity suites in tests/ pin
// their results to run_campaign over the live reference.
// CampaignSuite (campaign_suite.hpp) and CampaignService drive the
// same workloads shard by shard on their own schedules.
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
#include <type_traits>
#include <utility>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_shard.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_packed.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_injector.hpp"
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

/// PRT-scheme workload: golden artifacts from OracleCache::prt, packed
/// batches over core::run_prt_packed, per-fault runs over the live
/// core::run_prt with the cached oracle.
class PrtWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt`
  /// (validate_campaign_options).
  PrtWorkload(core::PrtScheme scheme, const CampaignOptions& opt,
              bool early_abort, OracleCache& cache)
      : scheme_(std::move(scheme)), early_abort_(early_abort) {
    validate_campaign_options(opt);
    entry_ = cache.prt(scheme_, opt.n);
    // Lane batching needs the campaign word width to equal the
    // scheme's field degree: the packed ram then carries one bit plane
    // per field bit and the transcript's tap matrices line up.
    packable_ = entry_->packable && entry_->transcript.width == opt.m;
  }

  /// Per-shard mutable state: one rewindable FaultyRam and the packed
  /// replay scratches (one per lane width the dispatch may pick; the
  /// unused ones never allocate — PackedScratchT vectors grow on first
  /// use), owned by exactly one worker at a time.
  struct ShardState {
    explicit ShardState(const CampaignOptions& opt)
        : ram(opt.n, opt.m, opt.ports) {}
    mem::FaultyRam ram;
    core::PackedScratchT<mem::LaneWord> scratch64;
    core::PackedScratchT<mem::WideWord<4>> scratch256;
    core::PackedScratchT<mem::WideWord<8>> scratch512;
    template <typename W>
    core::PackedScratchT<W>& scratch() {
      if constexpr (std::is_same_v<W, mem::WideWord<8>>) {
        return scratch512;
      } else if constexpr (std::is_same_v<W, mem::WideWord<4>>) {
        return scratch256;
      } else {
        return scratch64;
      }
    }
  };

  /// Lane batching permitted: the campaign word width matches the
  /// scheme's field degree (GF(2) and GF(2^m) alike).
  [[nodiscard]] bool packable() const { return packable_; }

  /// Runs one fault on the live reference; returns detected, charges
  /// its ops.
  bool run_fault(ShardState& s, const mem::Fault& fault,
                 std::uint64_t& ops) const {
    s.ram.reset(fault);
    const bool detected =
        core::run_prt(s.ram, scheme_, entry_->oracle,
                      {.early_abort = early_abort_, .record_iterations = false})
            .detected();
    ops += s.ram.total_stats().total();
    return detected;
  }

  /// Runs one flushed lane batch at the batch's width; returns
  /// {detected lane word, ops to charge for the whole batch} — per
  /// lane exactly what the live reference would have charged for that
  /// fault (charged_ops).  The replay drops the batch once every
  /// active lane has latched; the latch is monotone, so the detected
  /// mask is that of a full replay.
  template <typename W>
  std::pair<W, std::uint64_t> run_batch(
      ShardState& s, mem::PackedFaultRamT<W>& batch) const {
    const core::PackedVerdictT<W> v = core::run_prt_packed(
        batch, entry_->transcript, {.early_abort = true},
        s.template scratch<W>());
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
  bool packable_ = false;
};

/// March-test workload: packed batches over the transcript from
/// OracleCache::march when the campaign is bit-oriented, per-fault
/// runs over the live background sweep.
class MarchWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt` and on March
  /// tests whose data indices fall outside the {0, 1} notation (a
  /// data index the background expansion cannot represent).
  MarchWorkload(march::MarchTest test, const CampaignOptions& opt,
                bool early_abort, OracleCache& cache)
      : test_(std::move(test)),
        early_abort_(early_abort),
        bit_oriented_(opt.m == 1) {
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
    backgrounds_ = march::standard_backgrounds(opt.m);
    // standard_backgrounds' contract: every background fits the m-bit
    // word.  A wider word would silently mis-expand data index 1
    // (~background) — reject it here, not in a worker thread.
    for (const mem::Word bg : backgrounds_) {
      if (opt.m < 32 && (bg >> opt.m) != 0) {
        throw std::invalid_argument(
            "MarchCampaign: background " + std::to_string(bg) +
            " wider than the m = " + std::to_string(opt.m) + " word");
      }
    }
    // m = 1 has the single background 0, so one compiled transcript
    // covers the whole background set march_algorithm runs.
    if (bit_oriented_) {
      entry_ = cache.march(test_, opt.n, /*background=*/false);
    }
  }

  struct ShardState {
    explicit ShardState(const CampaignOptions& opt)
        : ram(opt.n, opt.m, opt.ports) {}
    mem::FaultyRam ram;
  };

  [[nodiscard]] bool packable() const { return bit_oriented_; }

  /// Same contract as PrtWorkload::run_fault.
  bool run_fault(ShardState& s, const mem::Fault& fault,
                 std::uint64_t& ops) const {
    s.ram.reset(fault);
    const bool detected = march::run_march_backgrounds(
                              test_, s.ram, backgrounds_,
                              {.early_abort = early_abort_})
                              .fail;
    ops += s.ram.total_stats().total();
    return detected;
  }

  /// Same contract as PrtWorkload::run_batch; the replay stops at the
  /// read that latches the last pending lane.
  template <typename W>
  std::pair<W, std::uint64_t> run_batch(ShardState&,
                                        mem::PackedFaultRamT<W>& batch) const {
    const march::MarchPackedVerdictT<W> v = march::run_march_packed(
        batch, entry_->transcript, {.early_abort = true});
    return {v.detected & batch.active_mask(),
            charged_ops(early_abort_, v.scalar_ops, batch.lanes_used(),
                        entry_->transcript)};
  }

  [[nodiscard]] const march::MarchTest& test() const { return test_; }
  [[nodiscard]] const std::string& name() const { return test_.name; }

 private:
  march::MarchTest test_;
  std::vector<mem::Word> backgrounds_;
  std::shared_ptr<const OracleCache::MarchEntry> entry_;
  bool early_abort_;
  bool bit_oriented_;
};

/// The generic driver: validated options, lazy pool, sharded fan-out
/// with the order-deterministic merge, per-shard width dispatch.
/// Workload supplies the four campaign-type-specific hooks
/// (ShardState, packable, run_fault, run_batch).
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

  /// Fills one shard over universe indices [begin, end).  Stateless
  /// across calls (fresh ShardState per shard), so any contiguous
  /// ascending partition merges — in shard order — to the same
  /// CampaignResult; CampaignSuite and CampaignService call this
  /// directly on their own schedules.  Polls `stop` per fault; returns
  /// false (discard `out`, it is partial) once a stop is observed.
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
    if (workload_.packable()) {
      const std::size_t range = end - begin;
      const unsigned width = effective_lane_width();
      if (width >= 512 && range >= 256) {
        return run_shard_impl<mem::WideWord<8>>(universe, begin, end, out,
                                                stop);
      }
      if (width >= 256 && range >= 128) {
        return run_shard_impl<mem::WideWord<4>>(universe, begin, end, out,
                                                stop);
      }
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
    const unsigned workers =
        engine_.threads != 0 ? engine_.threads : util::default_worker_count();
    // Steal-queue batch = 4 lane sweeps at the requested width: big
    // enough that per-batch ShardState construction amortizes, small
    // enough (vs universe/workers chunks) that idle workers find
    // batches to steal — and every batch above the fallback threshold
    // fills its wide lanes.  Boundaries depend only on universe size
    // and this constant, so results stay bit-identical at any thread
    // count.
    const std::size_t batch =
        static_cast<std::size_t>(effective_lane_width()) * 4;
    return run_sharded(
        universe.size(), workers, batch, pool_,
        [&](std::size_t begin, std::size_t end, CampaignResult& out) {
          return run_shard(universe, begin, end, out, stop);
        },
        stop);
  }

  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] const CampaignOptions& options() const { return opt_; }

 private:
  /// The width-concrete shard loop behind run_shard's dispatch.
  template <typename W>
  bool run_shard_impl(std::span<const mem::Fault> universe, std::size_t begin,
                      std::size_t end, CampaignResult& out,
                      const util::StopToken& stop) const {
    typename Workload::ShardState state(opt_);
    auto run_fault = [&](std::size_t i) {
      return workload_.run_fault(state, universe[i], out.ops);
    };
    if (!workload_.packable()) {
      return per_fault_shard(universe, begin, end, out, run_fault, stop);
    }
    mem::PackedFaultRamT<W> packed(opt_.n, opt_.m);
    auto run_batch = [&](mem::PackedFaultRamT<W>& batch) {
      return workload_.run_batch(state, batch);
    };
    return lane_batched_shard(universe, begin, end, packed, out, run_batch,
                              run_fault, stop);
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
