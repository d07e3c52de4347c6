// Tests for the multi-configuration campaign suite
// (analysis/campaign_suite) and the shared golden-artifact cache
// (analysis/oracle_cache): per-configuration suite results must be
// bit-identical to standalone engine runs at any thread count, the
// cache must build exactly once per key under concurrency, and the
// unified driver must reject malformed CampaignOptions up-front.
#include "analysis/campaign_suite.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prt::analysis {
namespace {

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

std::vector<mem::Fault> classical_for(const CampaignOptions& opt,
                                      std::size_t /*index*/) {
  return mem::classical_universe(opt.n);
}

TEST(CampaignSuite, PrtConfigsBitIdenticalToStandaloneEngines) {
  const std::vector<CampaignOptions> configs = {
      {.n = 32}, {.n = 48, .ports = 2}, {.n = 24}};
  const SuiteResult suite = run_prt_suite(
      configs, [](const CampaignOptions& opt) {
        return core::extended_scheme_bom(opt.n);
      },
      classical_for);
  ASSERT_EQ(suite.configs.size(), configs.size());
  ClassCoverage overall;
  std::uint64_t ops = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto universe = classical_for(configs[c], c);
    const CampaignResult standalone = run_prt_campaign(
        universe, core::extended_scheme_bom(configs[c].n), configs[c]);
    EXPECT_EQ(suite.configs[c].faults, universe.size());
    EXPECT_EQ(suite.configs[c].options.n, configs[c].n);
    expect_identical(standalone, suite.configs[c].result);
    overall.detected += standalone.overall.detected;
    overall.total += standalone.overall.total;
    ops += standalone.ops;
  }
  // The aggregate rollup is the sum of the per-configuration results.
  EXPECT_EQ(suite.overall, overall);
  EXPECT_EQ(suite.ops, ops);
  // The rendered table has one row per configuration plus the total.
  EXPECT_EQ(suite.table().rows(), configs.size() + 1);
}

TEST(CampaignSuite, PrtSuiteThreadCountInvariant) {
  const std::vector<CampaignOptions> configs = {{.n = 40}, {.n = 16}};
  auto factory = [](const CampaignOptions& opt) {
    return core::standard_scheme_bom(opt.n);
  };
  EngineOptions one;
  one.threads = 1;
  EngineOptions two;
  two.threads = 2;
  EngineOptions four;
  four.threads = 4;
  const SuiteResult a = run_prt_suite(configs, factory, classical_for, one);
  const SuiteResult b = run_prt_suite(configs, factory, classical_for, two);
  const SuiteResult c = run_prt_suite(configs, factory, classical_for, four);
  ASSERT_EQ(a.configs.size(), configs.size());
  ASSERT_EQ(b.configs.size(), configs.size());
  ASSERT_EQ(c.configs.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(a.configs[i].result, b.configs[i].result);
    expect_identical(a.configs[i].result, c.configs[i].result);
  }
  EXPECT_EQ(a.overall, c.overall);
  EXPECT_EQ(a.ops, c.ops);
}

// The suite cuts each configuration into the standalone engine's
// fixed batches (4 lane sweeps each), so per configuration the shard
// counts, and not only the merged result, match a standalone run.
// Classical n = 512 spans several batches at every width; the last
// two grid points are a one-fault and an empty universe, which run as
// one batch each, as does every configuration at one worker.
TEST(CampaignSuite, ConfigPartitionMatchesStandaloneEngine) {
  const std::vector<CampaignOptions> configs = {
      {.n = 512}, {.n = 24}, {.n = 64, .ports = 2}, {.n = 32}, {.n = 16}};
  auto universe_for = [](const CampaignOptions& opt, std::size_t index) {
    auto u = mem::classical_universe(opt.n);
    if (index == 3) u.resize(1);
    if (index == 4) u.clear();
    return u;
  };
  auto factory = [](const CampaignOptions& opt) {
    return core::standard_scheme_bom(opt.n);
  };
  ASSERT_GT(universe_for(configs[0], 0).size(), 4u * 512u);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    for (const unsigned lane_width : {64u, 512u}) {
      const EngineOptions eng{.threads = threads, .lane_width = lane_width};
      const SuiteResult suite =
          run_prt_suite(configs, factory, universe_for, eng);
      ASSERT_EQ(suite.configs.size(), configs.size());
      EXPECT_EQ(suite.status, RunStatus::kComplete);
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto universe = universe_for(configs[c], c);
        const CampaignEngine engine(factory(configs[c]), configs[c], eng);
        const CampaignOutcome standalone =
            engine.run(universe, util::StopToken());
        const SuiteConfigResult& got = suite.configs[c];
        EXPECT_EQ(got.shards_total, standalone.shards_total)
            << "threads=" << threads << " w=" << lane_width << " c=" << c;
        EXPECT_EQ(got.shards_done, standalone.shards_done);
        EXPECT_EQ(got.status, standalone.status);
        EXPECT_EQ(got.result, standalone.result);
        EXPECT_EQ(got.result.sched.batches, standalone.result.sched.batches);
      }
      const std::size_t batch = 4 * lane_width;
      EXPECT_EQ(suite.configs[0].shards_total,
                threads == 1 ? 1
                             : (universe_for(configs[0], 0).size() + batch - 1) /
                                   batch);
    }
  }
}

TEST(CampaignSuite, SuiteReusableAcrossRuns) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  EngineOptions eng;
  eng.threads = 2;
  const CampaignSuite suite(
      [](const CampaignOptions& opt) {
        return core::standard_scheme_bom(opt.n);
      },
      eng);
  const SuiteResult first = suite.run(configs, classical_for);
  for (int round = 0; round < 2; ++round) {
    const SuiteResult again = suite.run(configs, classical_for);
    ASSERT_EQ(again.configs.size(), first.configs.size());
    for (std::size_t i = 0; i < first.configs.size(); ++i) {
      expect_identical(first.configs[i].result, again.configs[i].result);
    }
  }
}

TEST(CampaignSuite, MarchConfigsBitIdenticalToStandaloneCampaigns) {
  // Mixed grid: two bit-oriented points (transcript + packed path) and
  // a word-oriented one (scalar background sweep).
  const std::vector<CampaignOptions> configs = {
      {.n = 24}, {.n = 40, .ports = 2}, {.n = 16, .m = 2}};
  auto universe_for = [](const CampaignOptions& opt, std::size_t) {
    return opt.m == 1
               ? mem::classical_universe(opt.n)
               : mem::single_cell_universe(opt.n, opt.m, /*read_logic=*/true);
  };
  const auto test = march::march_c_minus();
  for (const bool early_abort : {false, true}) {
    MarchEngineOptions eng;
    eng.early_abort = early_abort;
    const SuiteResult suite = run_march_suite(configs, test, universe_for, eng);
    ASSERT_EQ(suite.configs.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto universe = universe_for(configs[c], c);
      const CampaignResult standalone =
          run_march_campaign(universe, test, configs[c], eng);
      expect_identical(standalone, suite.configs[c].result);
      EXPECT_EQ(suite.configs[c].workload, test.name);
    }
  }
}

TEST(CampaignSuite, EmptyGridAndEmptyUniverses) {
  const CampaignSuite suite([](const CampaignOptions& opt) {
    return core::standard_scheme_bom(opt.n);
  });
  const SuiteResult empty_grid =
      suite.run(std::span<const CampaignOptions>{}, classical_for);
  EXPECT_TRUE(empty_grid.configs.empty());
  EXPECT_EQ(empty_grid.overall.total, 0u);

  const std::vector<CampaignOptions> configs = {{.n = 24}};
  const SuiteResult empty_universe = suite.run(
      configs, [](const CampaignOptions&, std::size_t) {
        return std::vector<mem::Fault>{};
      });
  ASSERT_EQ(empty_universe.configs.size(), 1u);
  EXPECT_EQ(empty_universe.configs[0].faults, 0u);
  EXPECT_EQ(empty_universe.configs[0].result, CampaignResult{});
}

TEST(CampaignSuite, WorkerExceptionsPropagateAndSuiteStaysUsable) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  EngineOptions eng;
  eng.threads = 3;
  const CampaignSuite suite(
      [](const CampaignOptions& opt) {
        return core::standard_scheme_bom(opt.n);
      },
      eng);
  // The generator blows up on one grid point, on a pool worker.
  EXPECT_THROW(
      (void)suite.run(
          configs,
          [](const CampaignOptions& opt,
             std::size_t) -> std::vector<mem::Fault> {
            if (opt.n == 32) throw std::runtime_error("boom");
            return mem::classical_universe(opt.n);
          }),
      std::runtime_error);
  // A malformed fault inside one configuration's universe surfaces too
  // (FaultyRam::inject's std::invalid_argument contract).
  EXPECT_THROW(
      (void)suite.run(configs,
                      [](const CampaignOptions& opt, std::size_t) {
                        auto u = mem::classical_universe(opt.n);
                        if (opt.n == 24) {
                          u.push_back(mem::Fault::saf({opt.n + 9, 0}, 1));
                        }
                        return u;
                      }),
      std::invalid_argument);
  // The pool survives a throwing run.
  const SuiteResult ok = suite.run(configs, classical_for);
  EXPECT_EQ(ok.configs.size(), configs.size());
}

// A stop that lands before the run pre-empts every configuration
// before its universe is generated: each reports no faults and no
// shards, with the stop's cause, at one worker and at several.
TEST(CampaignSuite, StopBeforeRunPreemptsEveryConfiguration) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  for (const unsigned threads : {1u, 3u}) {
    const CampaignSuite suite(
        [](const CampaignOptions& opt) {
          return core::standard_scheme_bom(opt.n);
        },
        {.threads = threads});
    util::StopSource source;
    source.request_stop();
    const SuiteResult out = suite.run(configs, classical_for, source.token());
    EXPECT_EQ(out.status, RunStatus::kCancelled);
    ASSERT_EQ(out.configs.size(), configs.size());
    for (const SuiteConfigResult& entry : out.configs) {
      EXPECT_EQ(entry.status, RunStatus::kCancelled);
      EXPECT_EQ(entry.faults, 0u);
      EXPECT_EQ(entry.shards_total, 0u);
      EXPECT_EQ(entry.result, CampaignResult{});
    }
  }
}

// --- OracleCache ----------------------------------------------------

TEST(OracleCache, BuildsOncePerKeyUnderConcurrentLookups) {
  OracleCache cache;
  const auto scheme = core::extended_scheme_bom(64);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const OracleCache::PrtEntry>> entries(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { entries[t] = cache.prt(scheme, /*n=*/64); });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(cache.prt_builds(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(entries[0], entries[t]);  // one shared entry, not copies
  }
  EXPECT_EQ(entries[0]->oracle.n, 64u);
  EXPECT_FALSE(entries[0]->transcript.recs.empty());

  // A different key builds separately; the same key never rebuilds.
  (void)cache.prt(scheme, /*n=*/32);
  EXPECT_EQ(cache.prt_builds(), 2u);
  (void)cache.prt(scheme, /*n=*/64);
  EXPECT_EQ(cache.prt_builds(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // clear() drops entries but outstanding pointers stay valid.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(entries[0]->oracle.n, 64u);
  (void)cache.prt(scheme, /*n=*/64);
  EXPECT_EQ(cache.prt_builds(), 3u);
}

TEST(OracleCache, MarchKeysSplitOnBackgroundAndDelay) {
  OracleCache cache;
  const auto test = march::march_c_minus();
  const auto a = cache.march(test, 32, /*background=*/false);
  const auto b = cache.march(test, 32, /*background=*/false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.march_builds(), 1u);
  (void)cache.march(test, 32, /*background=*/true);
  (void)cache.march(test, 32, /*background=*/false, /*delay_ticks=*/123);
  (void)cache.march(test, 64, /*background=*/false);
  EXPECT_EQ(cache.march_builds(), 4u);
  // A renamed but structurally identical test shares the entry.
  auto renamed = test;
  renamed.name = "renamed";
  (void)cache.march(renamed, 32, /*background=*/false);
  EXPECT_EQ(cache.march_builds(), 4u);
}

TEST(OracleCache, OneBuildUnderConcurrentEngineConstruction) {
  // Engines share OracleCache::global(): constructing several engines
  // for one never-before-seen (scheme, n) concurrently must compile
  // the oracle exactly once.
  const auto scheme = core::retention_scheme(53, 1, /*pause_ticks=*/7);
  CampaignOptions opt;
  opt.n = 53;
  const std::size_t before = OracleCache::global().prt_builds();
  constexpr int kThreads = 6;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] { CampaignEngine engine(scheme, opt); });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(OracleCache::global().prt_builds(), before + 1);
}

// --- central CampaignOptions validation -----------------------------

TEST(CampaignValidation, RejectsMalformedGeometryOnEveryEntryPath) {
  const auto scheme = core::standard_scheme_bom(64);
  const auto test = march::march_c_minus();
  const auto universe = mem::classical_universe(64);
  const std::vector<CampaignOptions> bad = {
      {.n = 0},                    // empty memory
      {.n = 64, .m = 0},           // zero width
      {.n = 64, .m = 33},          // wider than the SimRam word
      {.n = 64, .ports = 3},       // per-port arrays are sized 1/2/4
  };
  for (const CampaignOptions& opt : bad) {
    EXPECT_THROW((void)validate_campaign_options(opt), std::invalid_argument);
    EXPECT_THROW(CampaignEngine(scheme, opt), std::invalid_argument);
    EXPECT_THROW(MarchCampaign(test, opt), std::invalid_argument);
    EXPECT_THROW(
        (void)run_campaign(universe, march_algorithm(test), opt),
        std::invalid_argument);
    const std::vector<CampaignOptions> grid = {{.n = 64}, opt};
    EXPECT_THROW((void)run_march_suite(grid, test,
                                       [](const CampaignOptions& o,
                                          std::size_t) {
                                         return mem::classical_universe(o.n);
                                       }),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(validate_campaign_options({.n = 64, .m = 32, .ports = 4}));
}

// A scheme the packed replay cannot run is rejected at construction
// on every entry path, with a message naming the reason (the live
// reference's word-width precondition is only an assert, so running
// such a scheme would report coverage in a release build).
TEST(CampaignValidation, RejectsUnpackableSchemeOnEveryEntryPath) {
  const mem::Addr n = 32;
  const auto universe = mem::classical_universe(n);
  auto unpackable = core::standard_scheme_bom(n);
  unpackable.iterations.clear();
  struct Case {
    core::PrtScheme scheme;
    const char* reason;
  };
  const std::vector<Case> cases = {
      {core::extended_scheme_wom(n, 4), "GF(2^4)"},
      {unpackable, "packed replay"},
  };
  const CampaignOptions opt{.n = n, .m = 1};
  for (const Case& c : cases) {
    try {
      (void)run_prt_campaign(universe, c.scheme, opt);
      ADD_FAILURE() << "expected std::invalid_argument (" << c.reason << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.reason), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(CampaignEngine(c.scheme, opt), std::invalid_argument);
    for (const unsigned threads : {1u, 3u}) {
      const std::vector<CampaignOptions> grid = {opt};
      EXPECT_THROW(
          (void)run_prt_suite(
              grid, [&](const CampaignOptions&) { return c.scheme; },
              [](const CampaignOptions& o, std::size_t) {
                return mem::classical_universe(o.n);
              },
              {.threads = threads}),
          std::invalid_argument);
    }
  }
}

TEST(CampaignValidation, RejectsMarchDataIndexOutsideNotation) {
  // A hand-built test with a data index the {0, 1} background
  // expansion cannot represent must be rejected up-front, not run with
  // silently aliased data.
  march::MarchTest bad;
  bad.name = "bad";
  march::MarchElement elem;
  elem.ops.push_back({march::MarchOp::Type::kWrite, 2});
  bad.elements.push_back(elem);
  CampaignOptions opt;
  opt.n = 16;
  EXPECT_THROW(MarchCampaign(bad, opt), std::invalid_argument);
}

}  // namespace
}  // namespace prt::analysis
