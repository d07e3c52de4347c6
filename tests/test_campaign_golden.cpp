// Golden campaign figures: the op count and detected/total faults of
// PRT and March campaigns over every universe family the engines pack,
// pinned per section at every worker count, lane width and abort
// setting they run at.  The figures are the live reference's
// (run_campaign over run_prt / run_march on a FaultyRam): a scheme
// change that drops coverage, or an accounting change that breaks the
// packed/live op identity (abort runs included), fails here by name.
//
// Sections (every universe stride-sampled to 512 faults, the suite
// grid to 128 per point):
//   classical PRT-ext at n = 256 / 1024 / 4096; the lane-compatible
//   single-cell universe at n = 1024 (PRT-ext) and 4096 (PRT-3); the
//   threads x lane-width grid (PRT-3, n = 1024); March C- at n = 1024 /
//   4096; single-cell WOM m = 4 (n = 256); the static-NPSF grid; the
//   retention universe under a pause scheme; the 2-port classical
//   universe; the n x ports suite grid.
//
// Every section must also pack fully (packed_faults == total).  The
// live reference runs in-process only where no other test compares it
// on that family and geometry: the 2-port universe, the retention
// universe (delays straddling the pause, the one section with escapes)
// and the suite grid (4-port and n = 4096 points, against per-point
// engines).  The other families are parity-checked on the live
// reference in test_packed_campaign and test_march_packed; at 100 %
// coverage the pinned ops and counts fix the whole result anyway.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prt::analysis {
namespace {

/// One section's pinned figures: ops of a full run and of an
/// early-abort run, and detected of total faults.
struct Golden {
  std::uint64_t ops;
  std::uint64_t abort_ops;
  std::uint64_t detected;
  std::uint64_t total;
};

/// Worker counts every section runs at: the inline single-shard path
/// and a real pool fan-out with its parallel merge.
constexpr unsigned kThreads[] = {1, 2};

/// Caps a universe by stride-sampling so the fault-family mix of the
/// full universe is preserved (a plain resize() would keep only the
/// leading single-cell faults).
std::vector<mem::Fault> cap_universe(std::vector<mem::Fault> universe,
                                     std::size_t cap = 512) {
  if (universe.size() <= cap) return universe;
  std::vector<mem::Fault> sampled;
  sampled.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    sampled.push_back(universe[i * universe.size() / cap]);
  }
  return sampled;
}

void expect_golden(const CampaignResult& r, std::uint64_t ops,
                   const Golden& golden) {
  EXPECT_EQ(r.ops, ops);
  EXPECT_EQ(r.overall.detected, golden.detected);
  EXPECT_EQ(r.overall.total, golden.total);
  EXPECT_EQ(r.packed_faults, r.overall.total);
  EXPECT_EQ(r.scalar_faults, 0u);
}

/// Runs `run` at every worker count with and without early abort (at
/// the default lane width) and checks each result against `golden`.
template <typename Run>
void check_section(std::size_t faults, const Golden& golden, Run run) {
  ASSERT_EQ(faults, golden.total);
  for (const unsigned threads : kThreads) {
    for (const bool early_abort : {false, true}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " early_abort=" << early_abort);
      expect_golden(run(EngineOptions{.threads = threads,
                                      .early_abort = early_abort}),
                    early_abort ? golden.abort_ops : golden.ops, golden);
    }
  }
}

void check_prt_section(std::span<const mem::Fault> universe,
                       const core::PrtScheme& scheme,
                       const CampaignOptions& opt, const Golden& golden) {
  check_section(universe.size(), golden, [&](const EngineOptions& eng) {
    return run_prt_campaign(universe, scheme, opt, eng);
  });
}

/// The live reference for a PRT scheme: run_campaign over run_prt on
/// one rewound FaultyRam, stopping each fault's run at its first
/// failing iteration under early_abort.
CampaignResult live_prt_campaign(std::span<const mem::Fault> universe,
                                 const core::PrtScheme& scheme,
                                 const CampaignOptions& opt,
                                 bool early_abort) {
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, opt.n);
  return run_campaign(
      universe,
      [&](mem::Memory& memory) {
        return core::run_prt(memory, scheme, oracle,
                             {.early_abort = early_abort,
                              .record_iterations = false})
            .detected();
      },
      opt);
}

/// The packed engine reproduces the live reference's verdicts, per-class
/// counts, escapes and ops, with and without early abort.
void expect_matches_live(std::span<const mem::Fault> universe,
                         const core::PrtScheme& scheme,
                         const CampaignOptions& opt) {
  for (const bool early_abort : {false, true}) {
    SCOPED_TRACE(testing::Message() << "early_abort=" << early_abort);
    const CampaignResult live =
        live_prt_campaign(universe, scheme, opt, early_abort);
    const CampaignResult packed = run_prt_campaign(
        universe, scheme, opt, {.threads = 2, .early_abort = early_abort});
    EXPECT_EQ(live.overall, packed.overall);
    EXPECT_EQ(live.by_class, packed.by_class);
    EXPECT_EQ(live.escapes, packed.escapes);
    EXPECT_EQ(live.ops, packed.ops);
  }
}

TEST(CampaignGolden, ClassicalPrtExt256) {
  check_prt_section(cap_universe(mem::classical_universe(256)),
                    core::extended_scheme_bom(256), {.n = 256},
                    {9437184, 1589248, 512, 512});
}

TEST(CampaignGolden, ClassicalPrtExt1024) {
  check_prt_section(cap_universe(mem::classical_universe(1024)),
                    core::extended_scheme_bom(1024), {.n = 1024},
                    {37748736, 5468160, 512, 512});
}

TEST(CampaignGolden, ClassicalPrtExt4096) {
  check_prt_section(cap_universe(mem::classical_universe(4096)),
                    core::extended_scheme_bom(4096), {.n = 4096},
                    {150994944, 21872640, 512, 512});
}

TEST(CampaignGolden, LaneCompatiblePrtExt1024) {
  check_prt_section(cap_universe(mem::single_cell_universe(1024, 1, true)),
                    core::extended_scheme_bom(1024), {.n = 1024},
                    {37748736, 4194304, 512, 512});
}

TEST(CampaignGolden, LaneCompatiblePrt3At4096) {
  check_prt_section(cap_universe(mem::single_cell_universe(4096, 1, true)),
                    core::standard_scheme_bom(4096), {.n = 4096},
                    {18874368, 6291456, 512, 512});
}

// The same universe over threads {1, 2, 4, 8} x lane widths {64, 512}:
// identical figures in every cell, and each cell runs the lane word it
// asked for (or the narrow 64-lane fallback for small shards).
TEST(CampaignGolden, ScalingGridPrt3At1024) {
  const mem::Addr n = 1024;
  const auto universe = cap_universe(mem::single_cell_universe(n, 1, true));
  const auto scheme = core::standard_scheme_bom(n);
  const Golden golden{4718592, /*abort_ops=*/0, 512, 512};  // no abort runs
  ASSERT_EQ(universe.size(), golden.total);
  for (const unsigned lane_width : {64u, 512u}) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "w" << lane_width << "/t" << threads);
      const CampaignResult r = run_prt_campaign(
          universe, scheme, {.n = n},
          {.threads = threads, .lane_width = lane_width});
      expect_golden(r, golden.ops, golden);
      EXPECT_TRUE(r.sched.max_lanes == lane_width || r.sched.max_lanes == 64)
          << "max_lanes " << r.sched.max_lanes;
      if (lane_width == 64) {
        EXPECT_EQ(r.sched.wide_faults, 0u);
      }
    }
  }
}

void check_march_section(mem::Addr n, const Golden& golden) {
  const auto universe = cap_universe(mem::classical_universe(n));
  check_section(universe.size(), golden, [&](const EngineOptions& eng) {
    return run_march_campaign(universe, march::march_c_minus(), {.n = n},
                              eng);
  });
}

TEST(CampaignGolden, ClassicalMarchCMinus1024) {
  check_march_section(1024, {5242880, 2403278, 512, 512});
}

TEST(CampaignGolden, ClassicalMarchCMinus4096) {
  check_march_section(4096, {20971520, 9613112, 512, 512});
}

TEST(CampaignGolden, WomSingleCellPrtExtM4) {
  const mem::Addr n = 256;
  const unsigned m = 4;
  check_prt_section(cap_universe(mem::single_cell_universe(n, m, true)),
                    core::extended_scheme_wom(n, m), {.n = n, .m = m},
                    {9437184, 1048576, 512, 512});
}

TEST(CampaignGolden, NpsfGridPrtExt1024) {
  const mem::Addr n = 1024;
  const auto universe = cap_universe(mem::make_universe(
      n, 1,
      {.single_cell = false, .coupling = false, .bridges = false,
       .address_decoder = false, .npsf = true, .npsf_grid_cols = 32}));
  check_prt_section(universe, core::extended_scheme_bom(n), {.n = n},
                    {37748736, 3145728, 512, 512});
}

// Delays straddle the pause length: some lanes decay at the first
// pause, some later, some never — 60.16 % coverage, so the escape set
// itself is compared with the live reference.
TEST(CampaignGolden, RetentionPauseScheme1024) {
  const mem::Addr n = 1024;
  constexpr std::uint64_t kDelays[] = {200, 900, 1500, 5000, 1'000'000'000};
  std::vector<mem::Fault> universe;
  for (mem::Addr c = 0; c < n; ++c) {
    universe.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(c & 1), kDelays[c % 5]));
    universe.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(1 - (c & 1)), kDelays[(c + 2) % 5]));
  }
  universe = cap_universe(std::move(universe));
  const auto scheme = core::retention_scheme(n, 1, /*pause_ticks=*/1000);
  check_prt_section(universe, scheme, {.n = n}, {4194304, 2932736, 308, 512});
  expect_matches_live(universe, scheme, {.n = n});
}

// The PRT engines drive port 0 only, so the packed lanes apply
// unchanged while the live reference models the second port's sense
// amp.
TEST(CampaignGolden, TwoPortClassicalPrtExt1024) {
  const mem::Addr n = 1024;
  const auto universe = cap_universe(mem::classical_universe(n));
  const auto scheme = core::extended_scheme_bom(n);
  const CampaignOptions opt{.n = n, .ports = 2};
  check_prt_section(universe, scheme, opt, {37748736, 5468160, 512, 512});
  expect_matches_live(universe, scheme, opt);
}

// The paper's sweep shape, n {256, 1024, 4096} x ports {1, 2, 4}: one
// suite call equals the per-point engines, whether each engine compiles
// its own golden artifacts or shares the process-wide cache.
TEST(CampaignGolden, SuiteGridMatchesPerPointEngines) {
  std::vector<CampaignOptions> grid;
  std::vector<std::vector<mem::Fault>> universes;
  for (const mem::Addr n : {256u, 1024u, 4096u}) {
    for (const unsigned ports : {1u, 2u, 4u}) {
      grid.push_back({.n = n, .ports = ports});
      universes.push_back(cap_universe(mem::classical_universe(n), 128));
    }
  }
  auto factory = [](const CampaignOptions& opt) {
    return core::extended_scheme_bom(opt.n);
  };
  std::vector<CampaignResult> cold;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    OracleCache::global().clear();
    cold.push_back(run_prt_campaign(universes[i], factory(grid[i]), grid[i],
                                    {.threads = 1}));
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(run_prt_campaign(universes[i], factory(grid[i]), grid[i],
                               {.threads = 2}),
              cold[i])
        << "cached engine, grid point " << i;
  }
  for (const unsigned threads : kThreads) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    OracleCache::global().clear();
    const SuiteResult suite = run_prt_suite(
        grid, factory,
        [&](const CampaignOptions&, std::size_t i) { return universes[i]; },
        {.threads = threads});
    ASSERT_EQ(suite.configs.size(), grid.size());
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(suite.configs[i].result, cold[i]) << "grid point " << i;
      packed += suite.configs[i].result.packed_faults;
    }
    EXPECT_EQ(suite.ops, 148635648u);
    EXPECT_EQ(suite.overall.detected, 1152u);
    EXPECT_EQ(suite.overall.total, 1152u);
    EXPECT_EQ(packed, suite.overall.total);
  }
}

}  // namespace
}  // namespace prt::analysis
