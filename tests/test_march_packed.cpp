// 64-lane March runner (march::run_march_packed) and the lane-batched
// March campaign wrapper (analysis::MarchCampaign).
//
// The load-bearing property mirrors the packed PRT path: every lane of
// a packed March sweep must reproduce run_march (run_march_backgrounds
// for a word-oriented background sweep) against a scalar FaultyRam
// holding that lane's single fault, and MarchCampaign must reproduce
// the serial run_campaign(march_algorithm) CampaignResult — coverage,
// per-class counts, escape indices and op totals — on any universe, at
// any thread count and lane width, bit- (m = 1) and word-oriented
// (m > 1) alike.
#include "march/march_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/march_campaign.hpp"
#include "march/march_library.hpp"
#include "march/march_test.hpp"
#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt {
namespace {

void expect_identical(const analysis::CampaignResult& a,
                      const analysis::CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

/// A 64-lane mix of every lane-compatible kind: single-cell, read
/// logic and the two-cell coupling/bridge kinds.
std::vector<mem::Fault> mixed_lane_universe(mem::Addr n) {
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef v{i % n, 0};
    const mem::BitRef a{(i + 1 + i % 3) % n, 0};
    switch (i % 16) {
      case 0: faults.push_back(mem::Fault::saf(v, 0)); break;
      case 1: faults.push_back(mem::Fault::saf(v, 1)); break;
      case 2: faults.push_back(mem::Fault::tf(v, true)); break;
      case 3: faults.push_back(mem::Fault::tf(v, false)); break;
      case 4: faults.push_back(mem::Fault::wdf(v)); break;
      case 5: faults.push_back(mem::Fault::rdf(v)); break;
      case 6: faults.push_back(mem::Fault::drdf(v)); break;
      case 7: faults.push_back(mem::Fault::irf(v)); break;
      case 8: faults.push_back(mem::Fault::sof(v)); break;
      case 9: faults.push_back(mem::Fault::cf_in(v, a)); break;
      case 10: faults.push_back(mem::Fault::cf_id(v, a, true, 1)); break;
      case 11: faults.push_back(mem::Fault::cf_id(v, a, false, 0)); break;
      case 12: faults.push_back(mem::Fault::cf_st(v, a, 1, 0)); break;
      case 13: faults.push_back(mem::Fault::cf_st(v, a, 0, 1)); break;
      case 14: faults.push_back(mem::Fault::bridge(v, a, true)); break;
      case 15: faults.push_back(mem::Fault::bridge(v, a, false)); break;
    }
  }
  return faults;
}

// --- per-lane parity of one packed sweep --------------------------------

/// Each lane's detected bit must equal run_march's fail verdict on a
/// scalar FaultyRam with the same fault, for both background bits, and
/// the packed op count must equal the scalar per-fault op count.
void check_march_lane_parity(std::span<const mem::Fault> faults,
                             const march::MarchTest& test, mem::Addr n) {
  for (const bool background : {false, true}) {
    mem::PackedFaultRam packed(n);
    for (const mem::Fault& f : faults) packed.add_fault(f);
    const std::uint64_t detected =
        march::run_march_packed(test, packed, background) &
        packed.active_mask();
    mem::FaultyRam scalar(n, 1);
    for (unsigned lane = 0; lane < faults.size(); ++lane) {
      scalar.reset(faults[lane]);
      const march::MarchResult r =
          march::run_march(test, scalar, background ? 1U : 0U);
      EXPECT_EQ(((detected >> lane) & 1U) != 0, r.fail)
          << test.name << " bg=" << background << " lane " << lane << " ("
          << faults[lane].describe() << ")";
      EXPECT_EQ(packed.ops(), scalar.total_stats().total());
    }
  }
}

TEST(RunMarchPacked, LaneVerdictsMatchScalarAcrossStandardTests) {
  const mem::Addr n = 16;
  for (const march::MarchTest& test :
       {march::mats_plus(), march::march_x(), march::march_y(),
        march::march_c_minus(), march::march_a(), march::march_b(),
        march::march_ss(), march::march_g()}) {
    check_march_lane_parity(mixed_lane_universe(n), test, n);
  }
}

/// A 64-lane mix of the pattern and clock-dependent kinds: static NPSF
/// neighbourhoods (interior, border-inert and no-grid-inert victims)
/// and retention lanes whose delays straddle the default Del tick.
std::vector<mem::Fault> npsf_retention_lane_universe(mem::Addr n) {
  const mem::Addr cols = 4;
  // Delays around march_runner's kDefaultDelayTicks = 100'000: decayed
  // by plain access clocking, by the first Del, only by the second Del,
  // and never.
  constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                       1'000'000'000};
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef v{i % n, 0};
    if (i % 2 == 0) {
      const mem::Addr grid = (i % 8 == 6) ? 0 : cols;  // some no-grid inert
      faults.push_back(
          mem::Fault::npsf_static(v, (i / 2) % 16, (i / 32) & 1, grid));
    } else {
      faults.push_back(
          mem::Fault::retention(v, (i / 2) & 1, kDelays[(i / 2) % 5]));
    }
  }
  return faults;
}

// The tentpole acceptance at the March layer: NPSF neighbourhood lanes
// and analytic retention lanes reproduce the scalar FaultyRam verdict
// per lane across the standard tests, including March G's Del elements
// (which advance the packed retention clock exactly like
// advance_time on the scalar ram).
TEST(RunMarchPacked, NpsfRetentionLanesMatchScalarAcrossStandardTests) {
  const mem::Addr n = 16;
  for (const march::MarchTest& test :
       {march::mats_plus(), march::march_c_minus(), march::march_ss(),
        march::march_g()}) {
    check_march_lane_parity(npsf_retention_lane_universe(n), test, n);
  }
}

// March G's delay elements issue no reads or writes — they only
// advance the virtual clock (which is what decays retention lanes);
// this pins the op accounting across a Del.
TEST(RunMarchPacked, DelayElementsIssueNoOps) {
  mem::PackedFaultRam packed(8);
  packed.add_fault(mem::Fault::saf({3, 0}, 1));
  const auto test = march::march_g();
  (void)march::run_march_packed(test, packed);
  EXPECT_EQ(packed.ops(), test.total_ops(8));
}

// Early abort over NPSF + retention lanes: identical verdicts to the
// full run, per-lane verdict parity with the scalar abort reference,
// and analytic per-lane op accounting equal to the scalar abort ops —
// for both backgrounds across memory sizes.
TEST(RunMarchPacked, NpsfRetentionAbortOpsMatchScalar) {
  const auto test = march::march_g();
  for (const mem::Addr n : {mem::Addr{17}, mem::Addr{64}, mem::Addr{256}}) {
    std::vector<mem::Fault> universe;
    constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                         1'000'000'000};
    for (mem::Addr c = 0; c < n; ++c) {
      universe.push_back(mem::Fault::npsf_static(
          {c, 0}, static_cast<unsigned>(c % 16),
          static_cast<unsigned>(c & 1), 4));
      universe.push_back(mem::Fault::retention(
          {c, 0}, static_cast<unsigned>(c & 1), kDelays[c % 5]));
    }
    for (const bool background : {false, true}) {
      const auto transcript = march::make_march_transcript(test, n, background);
      mem::FaultyRam scalar(n, 1);
      for (std::size_t base = 0; base < universe.size();
           base += mem::PackedFaultRam::kLanes) {
        const std::size_t lanes =
            std::min<std::size_t>(mem::PackedFaultRam::kLanes,
                                  universe.size() - base);
        mem::PackedFaultRam full_ram(n);
        mem::PackedFaultRam abort_ram(n);
        for (std::size_t j = 0; j < lanes; ++j) {
          full_ram.add_fault(universe[base + j]);
          abort_ram.add_fault(universe[base + j]);
        }
        const auto full = march::run_march_packed(full_ram, transcript, {});
        const auto abort =
            march::run_march_packed(abort_ram, transcript,
                                    {.early_abort = true});
        const std::uint64_t mask = full_ram.active_mask();
        EXPECT_EQ(full.detected & mask, abort.detected & mask)
            << "n=" << n << " bg=" << background << " batch at " << base;
        std::uint64_t scalar_abort_ops = 0;
        for (std::size_t j = 0; j < lanes; ++j) {
          scalar.reset(universe[base + j]);
          const auto r = march::run_march(
              test, scalar, background ? 1U : 0U, march::kDefaultDelayTicks,
              {.early_abort = true});
          scalar_abort_ops += r.ops;
          EXPECT_EQ(((abort.detected >> j) & 1U) != 0, r.fail)
              << "n=" << n << " bg=" << background << " lane " << j << " ("
              << universe[base + j].describe() << ")";
        }
        EXPECT_EQ(abort.scalar_ops, scalar_abort_ops)
            << "n=" << n << " bg=" << background << " batch at " << base;
      }
    }
  }
}

// --- campaign-level parity ----------------------------------------------

analysis::CampaignResult serial_reference(
    std::span<const mem::Fault> universe, const march::MarchTest& test,
    const analysis::CampaignOptions& opt) {
  return analysis::run_campaign(universe, analysis::march_algorithm(test),
                                opt);
}

void check_march_campaign_parity(std::span<const mem::Fault> universe,
                                 const march::MarchTest& test,
                                 const analysis::CampaignOptions& opt) {
  const auto reference = serial_reference(universe, test, opt);
  for (const unsigned threads : {1u, 3u}) {
    analysis::MarchEngineOptions eng;
    eng.threads = threads;
    expect_identical(reference,
                     analysis::run_march_campaign(universe, test, opt, eng));
  }
}

TEST(MarchCampaign, BitIdenticalToSerialScalarOnClassical256) {
  const mem::Addr n = 256;
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(mem::classical_universe(n),
                              march::march_c_minus(), opt);
}

TEST(MarchCampaign, BitIdenticalToSerialScalarOnClassical1024) {
  const mem::Addr n = 1024;
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(mem::classical_universe(n),
                              march::march_c_minus(), opt);
}

// The van de Goor universe interleaves packed (single-cell, read
// logic, coupling) and scalar (decoder) faults within every shard,
// exercising the escape re-sort and the per-class merge.
TEST(MarchCampaign, BitIdenticalToSerialScalarOnVanDeGoor) {
  const mem::Addr n = 64;
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(mem::van_de_goor_universe(n), march::march_ss(),
                              opt);
}

// NPSF + retention universes ride the March lanes end to end: packed
// campaigns, serial and threaded, bit-identical to the live reference
// on a grid memory under March G's Del schedule.
TEST(MarchCampaign, NpsfRetentionBitIdenticalToSerialScalar) {
  const mem::Addr n = 48;
  std::vector<mem::Fault> universe;
  constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                       1'000'000'000};
  for (mem::Addr c = 0; c < n; ++c) {
    universe.push_back(mem::Fault::npsf_static(
        {c, 0}, static_cast<unsigned>(c % 16), static_cast<unsigned>(c & 1),
        4));
    universe.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(c & 1), kDelays[c % 5]));
  }
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(universe, march::march_g(), opt);
}

// Word-oriented campaigns ride the packed background-sweep replay:
// every fault packs, still fanned out over the pool.
TEST(MarchCampaign, WomCampaignRidesPackedSweep) {
  const mem::Addr n = 32;
  const unsigned m = 4;
  const auto universe = mem::make_universe(
      n, m, {.coupling = false, .bridges = false, .npsf = false});
  analysis::CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  check_march_campaign_parity(universe, march::march_c_minus(), opt);
}

// --- word-oriented background sweep ---------------------------------------

/// The WOM universe (single-cell, read logic, inter- and intra-word
/// coupling, bridges, decoder) plus a retention fault on every bit
/// whose delay straddles none, one, two or several Del elements —
/// March G's later backgrounds see decay only if the retention clock
/// carries across the sweep, as it does live.
std::vector<mem::Fault> word_march_universe(mem::Addr n, unsigned m) {
  auto universe = mem::make_universe(
      n, m, {.address_decoder = true, .intra_word = true});
  constexpr std::uint64_t kDelays[] = {200,     30'000,  99'999,       150'000,
                                       250'000, 350'000, 1'000'000'000};
  for (mem::Addr c = 0; c < n; ++c) {
    for (unsigned b = 0; b < m; ++b) {
      universe.push_back(mem::Fault::retention(
          {c, b}, (c + b) & 1U, kDelays[(c * m + b) % 7]));
    }
  }
  return universe;
}

// One sweep transcript covers every standard background in order.  Per
// lane, the packed replay reaches the live run_march_backgrounds
// verdict and charges its ops — with early abort, the global op index
// of the first failing read, which is where the live sweep stops — and
// a 512-lane batch charges the sum of its lanes' live ops.
TEST(RunMarchPacked, WordSweepLaneOpsMatchLiveBackgroundSweep) {
  const mem::Addr n = 16;
  for (const unsigned m : {2u, 4u}) {
    const std::vector<mem::Word> backgrounds = march::standard_backgrounds(m);
    const std::vector<mem::Fault> universe = word_march_universe(n, m);
    for (const march::MarchTest& test :
         {march::march_c_minus(), march::march_g()}) {
      const core::OpTranscript t =
          march::make_march_transcript(test, n, backgrounds, m);
      EXPECT_EQ(t.width, m);
      EXPECT_EQ(t.total_ops(), backgrounds.size() * test.total_ops(n));
      for (const bool abort : {false, true}) {
        mem::FaultyRam scalar(n, m);
        mem::PackedFaultRam one(n, m);
        mem::PackedFaultRamT<mem::WideWord<8>> wide(n, m);
        std::uint64_t live_ops = 0;
        auto check_wide = [&] {
          const auto v =
              march::run_march_packed(wide, t, {.early_abort = abort});
          EXPECT_EQ(v.scalar_ops, live_ops) << test.name << " m=" << m;
          wide.reset();
          live_ops = 0;
        };
        for (const mem::Fault& f : universe) {
          scalar.reset(f);
          const march::MarchResult r = march::run_march_backgrounds(
              test, scalar, backgrounds, {.early_abort = abort});
          one.reset();
          one.add_fault(f);
          const auto v =
              march::run_march_packed(one, t, {.early_abort = abort});
          EXPECT_EQ(v.lane_detected(0), r.fail)
              << test.name << " m=" << m << " abort=" << abort << " ("
              << f.describe() << ")";
          EXPECT_EQ(v.scalar_ops, r.ops)
              << test.name << " m=" << m << " abort=" << abort << " ("
              << f.describe() << ")";
          wide.add_fault(f);
          live_ops += r.ops;
          if (wide.lanes_used() == decltype(wide)::kLanes) check_wide();
        }
        if (wide.lanes_used() != 0) check_wide();
      }
    }
  }
}

// Word-March parity grid: campaign results bit-identical to the live
// reference (run_campaign over march_algorithm, or its early-abort
// twin) at m in {2, 4}, lane widths {64, 256, 512} and 1 or 4 threads,
// with every fault packed.
TEST(MarchCampaign, WordSweepBitIdenticalToLiveReference) {
  const mem::Addr n = 16;
  for (const unsigned m : {2u, 4u}) {
    const std::vector<mem::Fault> universe = word_march_universe(n, m);
    analysis::CampaignOptions opt;
    opt.n = n;
    opt.m = m;
    for (const march::MarchTest& test :
         {march::march_c_minus(), march::march_g()}) {
      for (const bool early_abort : {false, true}) {
        const auto reference = analysis::run_campaign(
            universe,
            [&](mem::Memory& memory) {
              return march::run_march_backgrounds(
                         test, memory, march::standard_backgrounds(m),
                         {.early_abort = early_abort})
                  .fail;
            },
            opt);
        for (const unsigned lane_width : {64u, 256u, 512u}) {
          for (const unsigned threads : {1u, 4u}) {
            analysis::MarchEngineOptions eng;
            eng.threads = threads;
            eng.early_abort = early_abort;
            eng.lane_width = lane_width;
            const auto got =
                analysis::run_march_campaign(universe, test, opt, eng);
            SCOPED_TRACE(test.name + " m=" + std::to_string(m) +
                         " width=" + std::to_string(lane_width) +
                         " threads=" + std::to_string(threads) +
                         " abort=" + std::to_string(early_abort));
            expect_identical(reference, got);
            EXPECT_EQ(got.packed_faults, universe.size());
            EXPECT_EQ(got.scalar_faults, 0u);
            EXPECT_EQ(got.sched.max_lanes, lane_width);
          }
        }
      }
    }
  }
}

// --- lane-width parity ---------------------------------------------------

// One WideWord<4> March sweep reproduces, lane for lane, the verdicts
// of the 64-lane sweeps over the same faults — the March layer's half
// of the tentpole parity (the PRT half lives in test_lane_word.cpp).
TEST(RunMarchPacked, WideSweepMatchesNarrowGroups) {
  const mem::Addr n = 16;
  std::vector<mem::Fault> universe;
  for (int rep = 0; rep < 3; ++rep) {
    const auto mixed = mixed_lane_universe(n);
    universe.insert(universe.end(), mixed.begin(), mixed.end());
  }
  ASSERT_GT(universe.size(), 64u);
  for (const march::MarchTest& test :
       {march::march_c_minus(), march::march_g()}) {
    for (const bool background : {false, true}) {
      const core::OpTranscript transcript =
          march::make_march_transcript(test, n, background);
      mem::PackedFaultRamT<mem::WideWord<4>> wide(n);
      for (const mem::Fault& f : universe) wide.add_fault(f);
      const auto wide_verdict =
          march::run_march_packed(wide, transcript, march::MarchRunOptions{});
      for (std::size_t base = 0; base < universe.size(); base += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, universe.size() - base);
        mem::PackedFaultRam narrow(n);
        for (std::size_t j = 0; j < count; ++j) {
          narrow.add_fault(universe[base + j]);
        }
        const std::uint64_t detected =
            march::run_march_packed(test, narrow, background) &
            narrow.active_mask();
        for (unsigned lane = 0; lane < count; ++lane) {
          EXPECT_EQ(
              wide_verdict.lane_detected(static_cast<unsigned>(base) + lane),
              ((detected >> lane) & 1U) != 0)
              << test.name << " bg=" << background << " fault "
              << (base + lane) << " (" << universe[base + lane].describe()
              << ")";
        }
      }
    }
  }
}

// Campaign-level width sweep: bit-identical results at 64/256/512
// lanes and the default option (lane_width = 0, which must run 512
// lanes) x thread counts, with the wide telemetry engaging exactly when
// the shards can fill half the wide lanes.
TEST(MarchCampaign, BitIdenticalAcrossLaneWidthsAndThreadCounts) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_reference(universe, march::march_c_minus(), opt);
  for (const bool early_abort : {false, true}) {
    analysis::MarchEngineOptions ref_eng;
    ref_eng.threads = 1;
    ref_eng.early_abort = early_abort;
    ref_eng.lane_width = 64;
    const auto width64_reference = analysis::run_march_campaign(
        universe, march::march_c_minus(), opt, ref_eng);
    if (!early_abort) expect_identical(reference, width64_reference);
    for (const unsigned lane_width : {256u, 512u, 0u}) {
      const unsigned expect_lanes = lane_width != 0 ? lane_width : 512u;
      for (const unsigned threads : {1u, 2u, 4u}) {
        analysis::MarchEngineOptions eng;
        eng.threads = threads;
        eng.early_abort = early_abort;
        eng.lane_width = lane_width;
        const auto got = analysis::run_march_campaign(
            universe, march::march_c_minus(), opt, eng);
        expect_identical(width64_reference, got);
        EXPECT_EQ(got.ops, width64_reference.ops)
            << "width=" << lane_width << " threads=" << threads
            << " early_abort=" << early_abort;
        EXPECT_GT(got.sched.wide_faults, 0u)
            << "width=" << lane_width << " threads=" << threads;
        EXPECT_EQ(got.sched.max_lanes, expect_lanes)
            << "width=" << lane_width << " threads=" << threads;
      }
    }
  }
}

// --- fault dropping on full runs -----------------------------------------

// Full-run March campaigns stop a lane batch at the read that latches
// its last pending lane: results stay bit-identical to the scalar
// reference and the 64-lane run, and the packed accesses performed
// (sched.replayed_ops) fall below replaying every batch to the end.
TEST(MarchFaultDropping, FullRunDropsLatchedBatches) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto test = march::march_c_minus();
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_reference(universe, test, opt);
  ASSERT_EQ(reference.overall.total, universe.size());
  // A full live run charges the complete test per fault.
  const std::uint64_t full_ops = reference.ops / reference.overall.total;
  analysis::MarchEngineOptions narrow;
  narrow.threads = 1;
  narrow.lane_width = 64;
  const auto width64 =
      analysis::run_march_campaign(universe, test, opt, narrow);
  expect_identical(reference, width64);
  for (const unsigned threads : {1u, 4u}) {
    analysis::MarchEngineOptions eng;
    eng.threads = threads;
    const auto got = analysis::run_march_campaign(universe, test, opt, eng);
    expect_identical(reference, got);
    EXPECT_TRUE(got == width64) << "threads=" << threads;
    ASSERT_EQ(got.packed_faults, universe.size());
    const std::uint64_t lanes = got.sched.max_lanes;
    const std::uint64_t min_batches = (got.packed_faults + lanes - 1) / lanes;
    EXPECT_GT(got.sched.replayed_ops, 0u);
    EXPECT_LT(got.sched.replayed_ops, min_batches * full_ops)
        << "threads=" << threads;
  }
}

// An inert lane (border-victim NPSF) never latches, so its batch runs
// the whole test: its accesses equal one full run.
TEST(MarchFaultDropping, BatchWithInertLaneReplaysFullTest) {
  const mem::Addr n = 16;
  const mem::Addr cols = 4;
  const std::vector<mem::Fault> universe = {
      mem::Fault::saf({1, 0}, 0),
      mem::Fault::npsf_static({0, 0}, 0xF, 1, cols),  // row-0 victim: inert
      mem::Fault::tf({5, 0}, true),
  };
  const auto test = march::march_c_minus();
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_reference(universe, test, opt);
  ASSERT_EQ(reference.escapes, std::vector<std::size_t>{1});
  const std::uint64_t full_ops = reference.ops / reference.overall.total;
  analysis::MarchEngineOptions eng;
  eng.threads = 1;
  const auto got = analysis::run_march_campaign(universe, test, opt, eng);
  expect_identical(reference, got);
  EXPECT_EQ(got.packed_faults, universe.size());
  EXPECT_EQ(got.sched.replayed_ops, full_ops);
}

// Batches are filled kind by kind: DRDF lanes, which March C- never
// detects (every read of a cell is followed by a write that masks the
// flip, or is the last access), interleaved with SAF lanes in universe
// order share a batch with each other.  The SAF0 and SAF1 batches stop
// at their own last latch and only the DRDF batch runs the whole test;
// packed in universe order, both full batches would carry a DRDF lane
// and run to the end.
TEST(MarchFaultDropping, GroupedBatchesKeepNeverLatchingLanesTogether) {
  const mem::Addr n = 64;
  std::vector<mem::Fault> universe;
  std::vector<mem::Fault> saf0;
  std::vector<mem::Fault> saf1;
  std::vector<std::size_t> undetected;
  for (mem::Addr c = 0; c < n; ++c) {
    saf0.push_back(mem::Fault::saf({c, 0}, 0));
    saf1.push_back(mem::Fault::saf({c, 0}, 1));
    universe.push_back(saf0.back());
    universe.push_back(saf1.back());
    if (c == 5 || c == 50) {
      undetected.push_back(universe.size());
      universe.push_back(mem::Fault::drdf({c, 0}));
    }
  }
  const auto test = march::march_c_minus();
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_reference(universe, test, opt);
  ASSERT_EQ(reference.escapes, undetected);
  const std::uint64_t full_ops = reference.ops / reference.overall.total;
  // Each SAF batch on its own, run until its last lane latches.
  const core::OpTranscript transcript =
      march::make_march_transcript(test, n, /*background=*/false);
  std::uint64_t saf_ops = 0;
  for (const auto* batch : {&saf0, &saf1}) {
    mem::PackedFaultRam ram(n);
    for (const mem::Fault& f : *batch) ram.add_fault(f);
    const auto verdict =
        march::run_march_packed(ram, transcript, {.early_abort = true});
    ASSERT_EQ(verdict.detected, ram.active_mask());
    saf_ops += ram.ops();
  }
  ASSERT_LT(saf_ops, full_ops);
  analysis::MarchEngineOptions eng;
  eng.threads = 1;
  eng.lane_width = 64;
  const auto got = analysis::run_march_campaign(universe, test, opt, eng);
  expect_identical(reference, got);
  EXPECT_EQ(got.packed_faults, universe.size());
  EXPECT_EQ(got.sched.replayed_ops, saf_ops + full_ops);
}

// --- sparse replay --------------------------------------------------------

// The path choice: the sparse replay needs a transcript on which a
// fault-free memory starting from zero reads every golden, and a batch
// touching at most n/4 cells (n/2 for a word sweep).  A test that
// opens with a read of 1 fails the first condition; so does March C-'s
// opening read pattern shifted onto a background whose golden is not
// the zero the memory starts from.  A leading r0 at background 0 does
// read its golden from a zero memory, and is allowed.
TEST(SparseMarch, PathChoiceRefusesTestOpeningWithRead) {
  const mem::Addr n = 1024;
  const core::OpTranscript c_minus =
      march::make_march_transcript(march::march_c_minus(), n, false);
  EXPECT_TRUE(c_minus.zero_init_reads_golden);
  EXPECT_TRUE(march::sparse_march_applies(c_minus, 1));
  EXPECT_TRUE(march::sparse_march_applies(c_minus, n / 4));
  EXPECT_FALSE(march::sparse_march_applies(c_minus, n / 4 + 1));
  EXPECT_TRUE(march::make_march_transcript(march::march_c_minus(), n, true)
                  .zero_init_reads_golden);

  const march::MarchTest read_first =
      *march::parse_march("{^(r1,w0);v(r0,w1);^(r1)}", "read first");
  const core::OpTranscript opens_with_r1 =
      march::make_march_transcript(read_first, n, false);
  EXPECT_FALSE(opens_with_r1.zero_init_reads_golden);
  EXPECT_FALSE(march::sparse_march_applies(opens_with_r1, 1));
  // The same test at background 1 opens with a read of 0.
  EXPECT_TRUE(march::make_march_transcript(read_first, n, true)
                  .zero_init_reads_golden);
  const march::MarchTest r0_first =
      *march::parse_march("{^(r0,w1);v(r1,w0)}", "r0 first");
  EXPECT_FALSE(march::make_march_transcript(r0_first, n, true)
                   .zero_init_reads_golden);

  // Word sweeps: the checkerboard background reads what it wrote.
  const std::vector<mem::Word> bgs = march::standard_backgrounds(4);
  const core::OpTranscript sweep =
      march::make_march_transcript(march::march_c_minus(), n, bgs, 4);
  EXPECT_TRUE(sweep.zero_init_reads_golden);
  EXPECT_TRUE(march::sparse_march_applies(sweep, n / 2));
  EXPECT_FALSE(march::sparse_march_applies(sweep, n / 2 + 1));
  // Opening with r0 reads the previous background's leftovers.
  EXPECT_FALSE(march::make_march_transcript(r0_first, n, bgs, 4)
                   .zero_init_reads_golden);

  // A transcript not compiled by make_march_transcript never qualifies.
  EXPECT_FALSE(march::sparse_march_applies(core::OpTranscript{}, 0));
}

/// Every fault family on the "hot" cells {4, 12, 20, ...} (n/8 of
/// them) of an m-bit memory: single-cell, read logic, CFin/CFid/CFst
/// and bridges between two hot cells, the three decoder faults with a
/// hot alias, NPSF victims on a 32-column grid (whose east/west
/// neighbours are the only other cells touched) and retention lanes
/// whose delays straddle March G's Del elements.  A full 512-lane
/// batch therefore touches well under n/4 cells.  Stuck-open lanes sit
/// on the first and last hot cell too: the cell an element visits
/// first follows a skipped read, whose golden the lane must echo.
std::vector<mem::Fault> hot_cell_universe(mem::Addr n, unsigned m,
                                          std::size_t count) {
  const mem::Addr hot = n / 8;
  constexpr mem::Addr kCols = 32;
  constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                       1'000'000'000};
  auto cell = [&](std::size_t i) {
    return static_cast<mem::Addr>(i % hot) * 8 + 4;
  };
  std::vector<mem::Fault> faults;
  for (std::size_t i = 0; faults.size() < count; ++i) {
    const unsigned bit = static_cast<unsigned>(i % m);
    const mem::BitRef v{cell(i * 7), bit};
    const mem::BitRef a{cell(i * 7 + 1 + i % 5), (bit + 1) % m};
    const mem::Addr alias = cell(i * 7 + 3);
    switch (i % 24) {
      case 0: faults.push_back(mem::Fault::saf(v, 0)); break;
      case 1: faults.push_back(mem::Fault::saf(v, 1)); break;
      case 2: faults.push_back(mem::Fault::tf(v, true)); break;
      case 3: faults.push_back(mem::Fault::tf(v, false)); break;
      case 4: faults.push_back(mem::Fault::wdf(v)); break;
      case 5: faults.push_back(mem::Fault::rdf(v)); break;
      case 6: faults.push_back(mem::Fault::drdf(v)); break;
      case 7: faults.push_back(mem::Fault::irf(v)); break;
      case 8: {
        const std::size_t at[] = {0, hot - 1, i * 7};
        faults.push_back(mem::Fault::sof({cell(at[(i / 24) % 3]), bit}));
        break;
      }
      case 9: faults.push_back(mem::Fault::cf_in(v, a)); break;
      case 10: faults.push_back(mem::Fault::cf_id(v, a, true, 0)); break;
      case 11: faults.push_back(mem::Fault::cf_id(v, a, true, 1)); break;
      case 12: faults.push_back(mem::Fault::cf_id(v, a, false, 0)); break;
      case 13: faults.push_back(mem::Fault::cf_id(v, a, false, 1)); break;
      case 14: faults.push_back(mem::Fault::cf_st(v, a, 1, 0)); break;
      case 15: faults.push_back(mem::Fault::cf_st(v, a, 0, 1)); break;
      case 16: faults.push_back(mem::Fault::bridge(v, a, true)); break;
      case 17: faults.push_back(mem::Fault::bridge(v, a, false)); break;
      case 18: faults.push_back(mem::Fault::af_no_access(v.cell)); break;
      case 19:
        faults.push_back(mem::Fault::af_wrong_access(v.cell, alias));
        break;
      case 20:
        faults.push_back(mem::Fault::af_multi_access(v.cell, alias));
        break;
      case 21: {
        // An interior victim on a hot cell: rows 1.., columns 12 and
        // 20 of the grid.
        const mem::Addr row = 1 + static_cast<mem::Addr>(i % (n / kCols - 2));
        const mem::Addr c =
            kCols * row + 12 + 8 * static_cast<mem::Addr>(i % 2);
        faults.push_back(mem::Fault::npsf_static(
            {c, bit}, static_cast<unsigned>(i % 16),
            static_cast<unsigned>(i & 1U), kCols));
        break;
      }
      default:
        faults.push_back(mem::Fault::retention(
            v, static_cast<unsigned>(i & 1U), kDelays[(i / 24) % 5]));
        break;
    }
  }
  return faults;
}

/// One fault's live reference: run_march on a bit-oriented memory,
/// run_march_backgrounds over the standard backgrounds when m > 1.
march::MarchResult live_run(const march::MarchTest& test, const mem::Fault& f,
                            mem::Addr n, unsigned m, bool abort) {
  mem::FaultyRam scalar(n, m);
  scalar.reset(f);
  if (m == 1) {
    return march::run_march(test, scalar, 0, march::kDefaultDelayTicks,
                            {.early_abort = abort});
  }
  return march::run_march_backgrounds(test, scalar,
                                      march::standard_backgrounds(m),
                                      {.early_abort = abort});
}

/// Replays `universe` in batches of W's lanes on the sparse path and,
/// on a twin ram, on the dense loop (the same transcript with
/// zero_init_reads_golden cleared).  Each lane's verdict must be the
/// live reference's and each batch's ops the sum of its lanes' live
/// ops; the sparse run must agree with the dense one on the whole
/// verdict and on ram.reads(), writes() and clock() afterwards.
template <typename W>
void check_sparse_batches(std::span<const mem::Fault> universe,
                          std::span<const march::MarchResult> live,
                          const core::OpTranscript& t, bool abort) {
  constexpr unsigned kLanes = mem::PackedFaultRamT<W>::kLanes;
  core::OpTranscript dense_t = t;
  dense_t.zero_init_reads_golden = false;
  mem::PackedFaultRamT<W> sparse_ram(t.n, t.width);
  mem::PackedFaultRamT<W> dense_ram(t.n, t.width);
  core::PackedScratchT<W> scratch;
  for (std::size_t base = 0; base < universe.size(); base += kLanes) {
    SCOPED_TRACE("lanes=" + std::to_string(kLanes) + " n=" +
                 std::to_string(t.n) + " m=" + std::to_string(t.width) +
                 " abort=" + std::to_string(abort) + " batch at " +
                 std::to_string(base));
    const std::size_t count =
        std::min<std::size_t>(kLanes, universe.size() - base);
    sparse_ram.reset();
    dense_ram.reset();
    std::uint64_t live_ops = 0;
    for (std::size_t j = 0; j < count; ++j) {
      sparse_ram.add_fault(universe[base + j]);
      dense_ram.add_fault(universe[base + j]);
      live_ops += live[base + j].ops;
    }
    const auto sparse =
        march::run_march_packed(sparse_ram, t, {.early_abort = abort}, scratch);
    const auto dense = march::run_march_packed(dense_ram, dense_t,
                                               {.early_abort = abort}, scratch);
    ASSERT_TRUE(sparse.sparse);
    ASSERT_FALSE(dense.sparse);
    EXPECT_EQ(sparse.scalar_ops, live_ops);
    for (unsigned lane = 0; lane < count; ++lane) {
      EXPECT_EQ(sparse.lane_detected(lane), live[base + lane].fail)
          << universe[base + lane].describe();
    }
    EXPECT_TRUE(sparse.detected == dense.detected);
    EXPECT_EQ(sparse.scalar_ops, dense.scalar_ops);
    EXPECT_EQ(sparse_ram.reads(), dense_ram.reads());
    EXPECT_EQ(sparse_ram.writes(), dense_ram.writes());
    EXPECT_EQ(sparse_ram.clock(), dense_ram.clock());
  }
}

void check_sparse_all_widths(const march::MarchTest& test, mem::Addr n,
                             unsigned m, std::size_t faults) {
  const std::vector<mem::Fault> universe = hot_cell_universe(n, m, faults);
  const std::vector<mem::Word> bgs = march::standard_backgrounds(m);
  const core::OpTranscript t =
      march::make_march_transcript(test, n, bgs, m);
  for (const bool abort : {false, true}) {
    SCOPED_TRACE(test.name);
    std::vector<march::MarchResult> live;
    for (const mem::Fault& f : universe) {
      live.push_back(live_run(test, f, n, m, abort));
    }
    check_sparse_batches<mem::LaneWord>(universe, live, t, abort);
    check_sparse_batches<mem::WideWord<4>>(universe, live, t, abort);
    check_sparse_batches<mem::WideWord<8>>(universe, live, t, abort);
  }
}

// The sparse bit replay against the live reference and the dense loop,
// at n = 1024 and 2048, every lane width, abort on and off: March C-,
// and March G, whose Del elements decay the retention lanes between
// the visited accesses.
TEST(SparseMarch, LanesMatchLiveReferenceAndDenseReplay) {
  check_sparse_all_widths(march::march_c_minus(), 1024, 1, 512);
  check_sparse_all_widths(march::march_g(), 1024, 1, 512);
  check_sparse_all_widths(march::march_c_minus(), 2048, 1, 512);
}

// The word sweep (m = 4) rides the same sparse kernel through
// read_word/write_word: every background, intra-word aggressors and
// the retention clock carried across backgrounds.
TEST(SparseMarch, WordSweepMatchesLiveReferenceAndDenseReplay) {
  check_sparse_all_widths(march::march_c_minus(), 256, 4, 512);
  check_sparse_all_widths(march::march_g(), 256, 4, 512);
}

// reset() after a sparse run clears only the touched cells — every
// plane of them for a word memory — and that leaves the whole array
// zero, so a reused ram replays the next batch exactly like a fresh
// one.  After a dense run the full clear still runs.
TEST(SparseMarch, ResetAfterSparseRunLeavesEverySiteZero) {
  for (const unsigned m : {1u, 4u}) {
    const mem::Addr n = 256;
    const std::vector<mem::Fault> universe = hot_cell_universe(n, m, 128);
    const core::OpTranscript t = march::make_march_transcript(
        march::march_c_minus(), n, march::standard_backgrounds(m), m);
    core::OpTranscript dense_t = t;
    dense_t.zero_init_reads_golden = false;
    const core::OpTranscript* const transcripts[] = {&t, &dense_t};
    for (const core::OpTranscript* tr : transcripts) {
      mem::PackedFaultRam reused(n, m);
      for (std::size_t base = 0; base < universe.size(); base += 64) {
        mem::PackedFaultRam fresh(n, m);
        for (std::size_t j = base; j < base + 64; ++j) {
          fresh.add_fault(universe[j]);
          reused.add_fault(universe[j]);
        }
        const auto want = march::run_march_packed(fresh, *tr, {});
        const auto got = march::run_march_packed(reused, *tr, {});
        EXPECT_EQ(got.sparse, tr == &t);
        EXPECT_EQ(got.detected, want.detected) << "m=" << m;
        EXPECT_EQ(reused.clock(), fresh.clock()) << "m=" << m;
        reused.reset();
        for (mem::Addr site = 0; site < n * m; ++site) {
          ASSERT_EQ(reused.peek(site), 0u) << "m=" << m << " site " << site;
        }
      }
    }
  }
}

// Campaign level: with 64-lane batches a van de Goor sample at n = 2048
// runs sparse (each batch touches at most 128 + its aliases' cells),
// with 512 lanes mostly dense; both match the live reference at 1 and 4
// threads, with and without early abort.
TEST(SparseMarch, CampaignBitIdenticalToLiveReference) {
  const mem::Addr n = 2048;
  const auto full = mem::van_de_goor_universe(n);
  std::vector<mem::Fault> universe;
  for (std::size_t i = 0; i < full.size(); i += 61) universe.push_back(full[i]);
  const auto test = march::march_c_minus();
  analysis::CampaignOptions opt;
  opt.n = n;
  for (const bool early_abort : {false, true}) {
    const auto reference = analysis::run_campaign(
        universe,
        [&](mem::Memory& memory) {
          return march::run_march(test, memory, 0, march::kDefaultDelayTicks,
                                  {.early_abort = early_abort})
              .fail;
        },
        opt);
    for (const unsigned lane_width : {64u, 512u}) {
      for (const unsigned threads : {1u, 4u}) {
        analysis::MarchEngineOptions eng;
        eng.threads = threads;
        eng.early_abort = early_abort;
        eng.lane_width = lane_width;
        SCOPED_TRACE("width=" + std::to_string(lane_width) + " threads=" +
                     std::to_string(threads) +
                     " abort=" + std::to_string(early_abort));
        expect_identical(reference,
                         analysis::run_march_campaign(universe, test, opt, eng));
      }
    }
  }
}

}  // namespace
}  // namespace prt
