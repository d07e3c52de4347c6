// Tests for the oracle-backed, parallel campaign engine
// (analysis/campaign_engine): the parallel path must be bit-identical
// to the serial reference, and early-abort must change costs only,
// never verdicts.
#include "analysis/campaign_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis {
namespace {

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

TEST(CampaignEngine, MatchesSerialReferenceOnClassicalUniverse) {
  const mem::Addr n = 48;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  CampaignOptions opt;
  opt.n = n;
  const CampaignResult reference =
      run_campaign(universe, prt_algorithm(scheme), opt);
  for (unsigned threads : {1u, 2u, 4u}) {
    EngineOptions eng;
    eng.threads = threads;
    const CampaignResult engine =
        run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, engine);
  }
}

TEST(CampaignEngine, MatchesSerialReferenceOnFullVanDeGoorUniverse) {
  const mem::Addr n = 32;
  const auto universe = mem::van_de_goor_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  CampaignOptions opt;
  opt.n = n;
  const CampaignResult reference =
      run_campaign(universe, prt_algorithm(scheme), opt);
  EngineOptions eng;
  eng.threads = 3;  // uneven shards exercise the ordered merge
  const CampaignResult engine = run_prt_campaign(universe, scheme, opt, eng);
  expect_identical(reference, engine);
  // The extended scheme covers the whole model (§3 claim, extended):
  EXPECT_DOUBLE_EQ(engine.overall.percent(), 100.0);
}

TEST(CampaignEngine, ReusedEngineGivesIdenticalResultsAcrossRuns) {
  const mem::Addr n = 32;
  const auto universe = mem::classical_universe(n);
  CampaignOptions opt;
  opt.n = n;
  EngineOptions eng;
  eng.threads = 2;
  // One engine, several runs: the lazily created worker pool and the
  // oracle are reused, and every run must match the first bit-for-bit.
  const CampaignEngine engine(core::standard_scheme_bom(n), opt, eng);
  const CampaignResult first = engine.run(universe);
  for (int round = 0; round < 3; ++round) {
    expect_identical(first, engine.run(universe));
  }
}

TEST(CampaignEngine, EarlyAbortKeepsVerdictsAndCutsOps) {
  const mem::Addr n = 48;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  CampaignOptions opt;
  opt.n = n;
  EngineOptions full;
  EngineOptions abort_early;
  abort_early.early_abort = true;
  const CampaignResult complete =
      run_prt_campaign(universe, scheme, opt, full);
  const CampaignResult aborted =
      run_prt_campaign(universe, scheme, opt, abort_early);
  EXPECT_EQ(complete.overall, aborted.overall);
  EXPECT_EQ(complete.by_class, aborted.by_class);
  EXPECT_EQ(complete.escapes, aborted.escapes);
  // Most classical faults fail within the first iterations, so the
  // 18-iteration scheme skips real work.
  EXPECT_LT(aborted.ops, complete.ops);
}

TEST(CampaignEngine, OracleRunPrtMatchesPlainRunPrt) {
  const mem::Addr n = 32;
  const auto scheme = core::extended_scheme_bom(n);
  const auto oracle = core::make_prt_oracle(scheme, n);
  const auto fault = mem::Fault::cf_in({5, 0}, {6, 0});
  mem::FaultyRam plain(n, 1);
  plain.inject(fault);
  const auto expected = core::run_prt(plain, scheme);
  mem::FaultyRam reused(n, 1);
  reused.reset(fault);
  const auto actual = core::run_prt(reused, scheme, oracle);
  EXPECT_EQ(expected.pass, actual.pass);
  EXPECT_EQ(expected.misr_pass, actual.misr_pass);
  EXPECT_EQ(expected.reads, actual.reads);
  EXPECT_EQ(expected.writes, actual.writes);
  ASSERT_EQ(expected.iterations.size(), actual.iterations.size());
  for (std::size_t i = 0; i < expected.iterations.size(); ++i) {
    EXPECT_EQ(expected.iterations[i].pass, actual.iterations[i].pass);
    EXPECT_EQ(expected.iterations[i].fin, actual.iterations[i].fin);
    EXPECT_EQ(expected.iterations[i].fin_expected,
              actual.iterations[i].fin_expected);
    EXPECT_EQ(expected.iterations[i].verify_mismatches,
              actual.iterations[i].verify_mismatches);
  }
}

TEST(CampaignEngine, FaultyRamResetRestoresPristineState) {
  mem::FaultyRam ram(8, 1);
  ram.inject(mem::Fault::saf({3, 0}, 1));
  ram.write(2, 1, 0);
  (void)ram.read(3, 0);
  ram.advance_time(1000);
  ram.reset(mem::Fault::tf({1, 0}, true));
  EXPECT_EQ(ram.faults().size(), 1u);
  EXPECT_EQ(ram.faults()[0].kind, mem::FaultKind::kTfUp);
  EXPECT_EQ(ram.total_stats().total(), 0u);
  for (mem::Addr a = 0; a < 8; ++a) EXPECT_EQ(ram.peek(a), 0u);
}

TEST(CampaignEngine, ReusedRamMatchesFreshAcrossFaultFamilies) {
  // Regression guard for the reset(fault) fast-path gates
  // (has_address_fault_ / has_retention_fault_ / last_read_): running
  // an address fault, then a retention fault, then a SOF fault on the
  // *same* reused RAM must produce the verdicts of fresh-RAM runs —
  // no family may leave state that leaks into the next fault's run.
  const mem::Addr n = 32;
  const std::vector<core::PrtScheme> schemes = {
      core::extended_scheme_bom(n),
      core::retention_scheme(n, 1, /*pause_ticks=*/64)};
  const std::vector<mem::Fault> sequence = {
      mem::Fault::af_wrong_access(3, 5),
      mem::Fault::retention({4, 0}, /*decays_to=*/1, /*delay_ticks=*/8),
      mem::Fault::sof({6, 0}),
      mem::Fault::af_multi_access(2, 9),
      mem::Fault::retention({7, 0}, /*decays_to=*/0, /*delay_ticks=*/16),
      mem::Fault::sof({1, 0})};
  for (const auto& scheme : schemes) {
    const auto oracle = core::make_prt_oracle(scheme, n);
    mem::FaultyRam reused(n, 1);
    for (const mem::Fault& fault : sequence) {
      reused.reset(fault);
      const auto got = core::run_prt(reused, scheme, oracle);
      mem::FaultyRam fresh(n, 1);
      fresh.inject(fault);
      const auto want = core::run_prt(fresh, scheme, oracle);
      EXPECT_EQ(got.pass, want.pass) << fault.describe();
      EXPECT_EQ(got.misr_pass, want.misr_pass) << fault.describe();
      EXPECT_EQ(got.reads, want.reads) << fault.describe();
      EXPECT_EQ(got.writes, want.writes) << fault.describe();
    }
  }
}

TEST(PrtAlgorithmPrefix, RejectsOutOfRangeIterationCounts) {
  const auto scheme = core::standard_scheme_bom(16);
  EXPECT_THROW((void)prt_algorithm_prefix(scheme, 0), std::invalid_argument);
  EXPECT_THROW(
      (void)prt_algorithm_prefix(scheme, scheme.iterations.size() + 1),
      std::invalid_argument);
  EXPECT_NO_THROW(
      (void)prt_algorithm_prefix(scheme, scheme.iterations.size()));
}

TEST(CampaignEngine, MalformedUniverseThrowsOnEveryPath) {
  // inject()'s std::invalid_argument contract must hold on every
  // entry path: the serial live reference, and both campaign types at
  // one and several workers, where the driver's up-front
  // validate_universe rejects the bad fault (bit-oriented PRT and
  // word-oriented March) before any shard runs.
  const mem::Addr n = 16;
  auto universe = mem::classical_universe(n);
  universe.push_back(mem::Fault::saf({n + 10, 0}, 1));  // out of range
  const auto scheme = core::standard_scheme_bom(n);
  CampaignOptions opt;
  opt.n = n;
  EXPECT_THROW((void)run_campaign(universe, prt_algorithm(scheme), opt),
               std::invalid_argument);
  CampaignOptions word_opt = opt;
  word_opt.m = 2;
  auto word_universe = mem::single_cell_universe(n, 2, /*read_logic=*/true);
  word_universe.push_back(mem::Fault::saf({n + 10, 1}, 1));
  for (unsigned threads : {1u, 3u}) {
    EngineOptions eng;
    eng.threads = threads;
    EXPECT_THROW((void)run_prt_campaign(universe, scheme, opt, eng),
                 std::invalid_argument);
    EXPECT_THROW((void)run_march_campaign(word_universe, march::march_c_minus(),
                                          word_opt, eng),
                 std::invalid_argument);
  }
}

TEST(ThreadPool, SubmitAndWaitIdleRunsEverything) {
  util::ThreadPool pool(2);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 10; ++i) {
    pool.submit([&sum, i] { sum += i; });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, PrtThreadsEnvOverridesDefaultWorkerCount) {
  ASSERT_EQ(setenv("PRT_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(util::default_worker_count(), 3u);
  // An explicit request always wins over the environment.
  EXPECT_EQ(util::ThreadPool(2).workers(), 2u);
  // Pools sized 0 pick up the override.
  EXPECT_EQ(util::ThreadPool(0).workers(), 3u);
  // Garbage and out-of-range values fall back to the hardware default.
  ASSERT_EQ(setenv("PRT_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(util::default_worker_count(), 1u);
  ASSERT_EQ(setenv("PRT_THREADS", "0", 1), 0);
  EXPECT_GE(util::default_worker_count(), 1u);
  ASSERT_EQ(unsetenv("PRT_THREADS"), 0);
  EXPECT_GE(util::default_worker_count(), 1u);
}

}  // namespace
}  // namespace prt::analysis
