// Word-packed SIMD fault lanes (mem/packed_fault_ram, core/prt_packed,
// and the lane-batching layer in analysis/campaign_engine).
//
// The load-bearing property is bit-identity: every lane of the packed
// ram must behave exactly like a scalar FaultyRam holding that lane's
// single fault, and the packed campaign path must reproduce the serial
// scalar CampaignResult — coverage, per-class counts, escape indices
// and op totals — on any universe.
#include "core/prt_packed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt {
namespace {

std::uint64_t next_rand(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x ^ (x >> 29);
}

void expect_identical(const analysis::CampaignResult& a,
                      const analysis::CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

// --- add_fault accept/reject ---------------------------------------------

// Every fault family rides a lane of a bit-oriented packed ram; a
// referenced bit plane past the word width is malformed and rejected
// (mem::validate_fault, the check FaultyRam::inject makes).  A CFst
// trigger state beyond {0, 1} never matches a stored bit: it is inert
// in FaultyRam, so add_fault accepts it as an inert lane, and the lane
// reaches FaultyRam's verdict.
TEST(PackedFaultRam, AddFaultAcceptsEveryKindRejectsPlanesPastWidth) {
  const mem::Addr n = 16;
  const std::vector<mem::Fault> accepted = {
      mem::Fault::saf({3, 0}, 0),
      mem::Fault::saf({3, 0}, 1),
      mem::Fault::tf({3, 0}, true),
      mem::Fault::tf({3, 0}, false),
      mem::Fault::wdf({3, 0}),
      mem::Fault::rdf({3, 0}),
      mem::Fault::drdf({3, 0}),
      mem::Fault::irf({3, 0}),
      mem::Fault::sof({3, 0}),
      // Two-cell coupling faults: the aggressor/victim pair lives in
      // one lane's memory.
      mem::Fault::cf_in({1, 0}, {2, 0}),
      mem::Fault::cf_id({1, 0}, {2, 0}, true, 1),
      mem::Fault::cf_id({1, 0}, {2, 0}, false, 0),
      mem::Fault::cf_st({1, 0}, {2, 0}, 0, 1),
      mem::Fault::cf_st({1, 0}, {2, 0}, 1, 0),
      mem::Fault::bridge({1, 0}, {2, 0}, true),
      mem::Fault::bridge({1, 0}, {2, 0}, false),
      // Decoder faults: one fault per lane means the remap touches
      // exactly one address and at most one alias cell.
      mem::Fault::af_no_access(1),
      mem::Fault::af_wrong_access(1, 2),
      mem::Fault::af_multi_access(1, 2),
      // Pattern and clock-dependent faults.
      mem::Fault::npsf_static({5, 0}, 0xF, 0, 4),
      mem::Fault::retention({1, 0}, 1, 8),
      // The degenerate CFst: inert.
      mem::Fault::cf_st({1, 0}, {2, 0}, 2, 1),
  };
  mem::PackedFaultRam ram(n);
  for (const mem::Fault& f : accepted) {
    EXPECT_NO_THROW(ram.add_fault(f)) << f.describe();
  }
  // The packed array models a 1-bit-wide memory: bit planes > 0 are
  // out of range, on either end of the pair.
  for (const mem::Fault& f :
       {mem::Fault::saf({3, 1}, 0), mem::Fault::cf_in({1, 1}, {2, 0}),
        mem::Fault::cf_in({1, 0}, {2, 1})}) {
    EXPECT_THROW(ram.add_fault(f), std::invalid_argument) << f.describe();
  }

  const mem::Fault degenerate = mem::Fault::cf_st({1, 0}, {2, 0}, 2, 1);
  const auto scheme = core::extended_scheme_bom(n);
  const auto oracle = core::make_prt_oracle(scheme, n);
  mem::PackedFaultRam packed(n);
  packed.add_fault(degenerate);
  const std::uint64_t detected =
      core::run_prt_packed(packed, scheme, oracle) & packed.active_mask();
  mem::FaultyRam scalar(n, 1);
  scalar.reset(degenerate);
  EXPECT_EQ(detected != 0, core::run_prt(scalar, scheme, oracle).detected());
  EXPECT_EQ(packed.ops(), scalar.total_stats().total());
}

TEST(PackedFaultRam, RejectsIncompatibleAndOverflowingFaults) {
  mem::PackedFaultRam ram(8);
  // Retention with delay == 0 would decay instantly and forever —
  // FaultyRam::inject rejects it, and so does the lane path.
  EXPECT_THROW(ram.add_fault(mem::Fault::retention({1, 0}, 1, 0)),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::saf({8, 0}, 1)),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::cf_in({1, 0}, {8, 0})),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::cf_in({1, 0}, {1, 0})),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::af_wrong_access(1, 8)),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::af_multi_access(1, 8)),
               std::invalid_argument);
  for (unsigned i = 0; i < mem::PackedFaultRam::kLanes; ++i) {
    EXPECT_EQ(ram.add_fault(mem::Fault::saf({i % 8, 0}, 1)), i);
  }
  EXPECT_THROW(ram.add_fault(mem::Fault::saf({0, 0}, 0)), std::length_error);
}

TEST(PackedFaultRam, StuckAtClampsFromInjectionLikeFaultyRam) {
  mem::PackedFaultRam packed(8);
  const unsigned lane = packed.add_fault(mem::Fault::saf({3, 0}, 1));
  // Before any write, the stuck-at-1 lane already reads 1.
  EXPECT_EQ((packed.read(3) >> lane) & 1U, 1U);
  mem::FaultyRam scalar(8, 1);
  scalar.inject(mem::Fault::saf({3, 0}, 1));
  EXPECT_EQ(scalar.read(3, 0), 1U);
}

// --- per-lane differential check against FaultyRam ---------------------

TEST(PackedFaultRam, EveryLaneMatchesScalarFaultyRamOnRandomTraffic) {
  const mem::Addr n = 24;
  // 64 faults cycling through every lane-compatible kind and cell.
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef v{i % n, 0};
    switch (i % 9) {
      case 0: faults.push_back(mem::Fault::saf(v, 0)); break;
      case 1: faults.push_back(mem::Fault::saf(v, 1)); break;
      case 2: faults.push_back(mem::Fault::tf(v, true)); break;
      case 3: faults.push_back(mem::Fault::tf(v, false)); break;
      case 4: faults.push_back(mem::Fault::wdf(v)); break;
      case 5: faults.push_back(mem::Fault::rdf(v)); break;
      case 6: faults.push_back(mem::Fault::drdf(v)); break;
      case 7: faults.push_back(mem::Fault::irf(v)); break;
      case 8: faults.push_back(mem::Fault::sof(v)); break;
    }
  }
  mem::PackedFaultRam packed(n);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, 1));
    scalars.back()->inject(f);
  }
  std::uint64_t x = 0xC0FFEE;
  for (int step = 0; step < 4000; ++step) {
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      const mem::LaneWord value = next_rand(x);
      packed.write(addr, value);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        scalars[lane]->write(addr,
                             static_cast<mem::Word>((value >> lane) & 1U), 0);
      }
    } else {
      const mem::LaneWord got = packed.read(addr);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        ASSERT_EQ((got >> lane) & 1U, scalars[lane]->read(addr, 0))
            << "step " << step << " lane " << lane << " ("
            << faults[lane].describe() << ")";
      }
    }
  }
}

// Coupling lanes: every two-cell kind across varied aggressor/victim
// pairs must match a scalar FaultyRam holding that one fault, op for
// op, under random traffic.
TEST(PackedFaultRam, EveryCouplingLaneMatchesScalarFaultyRam) {
  const mem::Addr n = 24;
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef a{i % n, 0};
    const mem::BitRef v{(i + 1 + i % 5) % n, 0};
    switch (i % 11) {
      case 0: faults.push_back(mem::Fault::cf_in(v, a)); break;
      case 1: faults.push_back(mem::Fault::cf_id(v, a, true, 0)); break;
      case 2: faults.push_back(mem::Fault::cf_id(v, a, true, 1)); break;
      case 3: faults.push_back(mem::Fault::cf_id(v, a, false, 0)); break;
      case 4: faults.push_back(mem::Fault::cf_id(v, a, false, 1)); break;
      case 5: faults.push_back(mem::Fault::cf_st(v, a, 0, 0)); break;
      case 6: faults.push_back(mem::Fault::cf_st(v, a, 0, 1)); break;
      case 7: faults.push_back(mem::Fault::cf_st(v, a, 1, 0)); break;
      case 8: faults.push_back(mem::Fault::cf_st(v, a, 1, 1)); break;
      case 9: faults.push_back(mem::Fault::bridge(v, a, true)); break;
      case 10: faults.push_back(mem::Fault::bridge(v, a, false)); break;
    }
  }
  mem::PackedFaultRam packed(n);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, 1));
    scalars.back()->inject(f);
  }
  // Injection-time condition enforcement (CFst1 on a zero aggressor
  // forces the victim immediately) must match before any traffic.
  for (mem::Addr addr = 0; addr < n; ++addr) {
    const mem::LaneWord got = packed.peek(addr);
    for (unsigned lane = 0; lane < scalars.size(); ++lane) {
      ASSERT_EQ((got >> lane) & 1U, scalars[lane]->peek(addr))
          << "post-inject cell " << addr << " lane " << lane << " ("
          << faults[lane].describe() << ")";
    }
  }
  std::uint64_t x = 0xBADC0DE;
  for (int step = 0; step < 6000; ++step) {
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      const mem::LaneWord value = next_rand(x);
      packed.write(addr, value);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        scalars[lane]->write(addr,
                             static_cast<mem::Word>((value >> lane) & 1U), 0);
      }
    } else {
      const mem::LaneWord got = packed.read(addr);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        ASSERT_EQ((got >> lane) & 1U, scalars[lane]->read(addr, 0))
            << "step " << step << " lane " << lane << " ("
            << faults[lane].describe() << ")";
      }
    }
  }
}

// Decoder lanes: the three AF kinds across varied address/alias pairs
// must match a scalar FaultyRam holding that one fault, op for op,
// under random traffic (no-access reads zeros and drops writes,
// wrong-access redirects both, multi-access opens both cells and
// wires reads AND).
TEST(PackedFaultRam, EveryDecoderLaneMatchesScalarFaultyRam) {
  const mem::Addr n = 24;
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::Addr a = i % n;
    const mem::Addr alias = (i + 1 + i % 7) % n;
    switch (i % 3) {
      case 0: faults.push_back(mem::Fault::af_no_access(a)); break;
      case 1: faults.push_back(mem::Fault::af_wrong_access(a, alias)); break;
      case 2: faults.push_back(mem::Fault::af_multi_access(a, alias)); break;
    }
  }
  mem::PackedFaultRam packed(n);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, 1));
    scalars.back()->inject(f);
  }
  std::uint64_t x = 0xDEC0DE;
  for (int step = 0; step < 6000; ++step) {
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      const mem::LaneWord value = next_rand(x);
      packed.write(addr, value);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        scalars[lane]->write(addr,
                             static_cast<mem::Word>((value >> lane) & 1U), 0);
      }
    } else {
      const mem::LaneWord got = packed.read(addr);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        ASSERT_EQ((got >> lane) & 1U, scalars[lane]->read(addr, 0))
            << "step " << step << " lane " << lane << " ("
            << faults[lane].describe() << ")";
      }
    }
  }
}

// Neighbourhood lanes: static NPSF faults across interior victims,
// every pattern/forced-value combination, plus border and degenerate
// neighbourhoods (inert on both paths — they consume a lane that never
// fires) must match a scalar FaultyRam holding that one fault, op for
// op, under random traffic.
TEST(PackedFaultRam, EveryNpsfLaneMatchesScalarFaultyRam) {
  const mem::Addr n = 36;  // 6 x 6 grid
  const mem::Addr cols = 6;
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    if (i % 8 == 7) {
      // Border victims (row 0 / west edge) and a no-grid fault: inert.
      const mem::Addr victim = (i % 16 == 7) ? i % cols : (i / 8) * cols % n;
      faults.push_back(
          mem::Fault::npsf_static({victim, 0}, i % 16, i & 1,
                                  (i % 16 == 15) ? 0 : cols));
    } else {
      const mem::Addr row = 1 + (i / 4) % (n / cols - 2);
      const mem::Addr col = 1 + i % (cols - 2);
      faults.push_back(mem::Fault::npsf_static({row * cols + col, 0}, i % 16,
                                               (i / 16) & 1, cols));
    }
  }
  mem::PackedFaultRam packed(n);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, 1));
    scalars.back()->inject(f);
  }
  // Pattern 0b0000 matches the all-zero power-up neighbourhood, so
  // injection-time enforcement must already agree before any traffic.
  for (mem::Addr addr = 0; addr < n; ++addr) {
    const mem::LaneWord got = packed.peek(addr);
    for (unsigned lane = 0; lane < scalars.size(); ++lane) {
      ASSERT_EQ((got >> lane) & 1U, scalars[lane]->peek(addr))
          << "post-inject cell " << addr << " lane " << lane << " ("
          << faults[lane].describe() << ")";
    }
  }
  std::uint64_t x = 0x9F5F1234;
  for (int step = 0; step < 6000; ++step) {
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      const mem::LaneWord value = next_rand(x);
      packed.write(addr, value);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        scalars[lane]->write(addr,
                             static_cast<mem::Word>((value >> lane) & 1U), 0);
      }
    } else {
      const mem::LaneWord got = packed.read(addr);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        ASSERT_EQ((got >> lane) & 1U, scalars[lane]->read(addr, 0))
            << "step " << step << " lane " << lane << " ("
            << faults[lane].describe() << ")";
      }
    }
  }
}

// Retention lanes: decay advances analytically from the packed clock
// (one tick per access plus advance_time idle windows) and latches at
// the first read after the pause boundary — bit-exact against
// FaultyRam's per-access decay under random traffic with random pause
// schedules.
TEST(PackedFaultRam, RetentionLanesMatchScalarUnderRandomPauses) {
  const mem::Addr n = 24;
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    faults.push_back(mem::Fault::retention({i % n, 0}, /*decays_to=*/i & 1,
                                           /*delay_ticks=*/1 + (i % 7) * 13));
  }
  mem::PackedFaultRam packed(n);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, 1));
    scalars.back()->inject(f);
  }
  std::uint64_t x = 0xDECAF;
  for (int step = 0; step < 4000; ++step) {
    if (next_rand(x) % 5 == 0) {
      // A pause: both clocks advance by the same idle window, which
      // straddles every lane's decay delay sooner or later.
      const std::uint64_t ticks = 1 + next_rand(x) % 40;
      packed.advance_time(ticks);
      for (auto& scalar : scalars) scalar->advance_time(ticks);
      continue;
    }
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      const mem::LaneWord value = next_rand(x);
      packed.write(addr, value);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        scalars[lane]->write(addr,
                             static_cast<mem::Word>((value >> lane) & 1U), 0);
      }
    } else {
      const mem::LaneWord got = packed.read(addr);
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        ASSERT_EQ((got >> lane) & 1U, scalars[lane]->read(addr, 0))
            << "step " << step << " lane " << lane << " ("
            << faults[lane].describe() << ")";
      }
    }
  }
}

// Stacked families: every fault family registers on the same hub sites
// at once.  A hub is the victim of write-kind and read-logic lanes, the
// aggressor of coupling lanes and the victim of a CFst lane, a bridge
// endpoint, a decoder address and a decoder alias, a retention victim,
// and the base or a neighbour of NPSF lanes — so one faulty site holds
// records in every family's table.  Random traffic with pauses must
// still match a FaultyRam per lane, at every lane width.
std::vector<mem::Fault> stacked_family_faults(mem::Addr cols, mem::Addr n,
                                              std::size_t count) {
  // Hubs sit two cells in from the border, so the NPSF lanes whose
  // neighbourhood includes a hub are complete (not inert).
  std::vector<mem::Addr> hubs;
  for (mem::Addr row = 2; row + 2 < n / cols; ++row) {
    for (mem::Addr col = 2; col + 2 < cols; ++col) {
      hubs.push_back(row * cols + col);
    }
  }
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < count; ++i) {
    const mem::Addr h = hubs[(i / 24) % hubs.size()];
    const mem::Addr other = (h + 1 + i % 5) % n;  // never the hub
    const mem::BitRef hub{h, 0};
    const mem::BitRef peer{other, 0};
    const unsigned bit = (i / 24) & 1U;
    switch (i % 24) {
      case 0: faults.push_back(mem::Fault::saf(hub, 0)); break;
      case 1: faults.push_back(mem::Fault::saf(hub, 1)); break;
      case 2: faults.push_back(mem::Fault::tf(hub, true)); break;
      case 3: faults.push_back(mem::Fault::tf(hub, false)); break;
      case 4: faults.push_back(mem::Fault::wdf(hub)); break;
      case 5: faults.push_back(mem::Fault::rdf(hub)); break;
      case 6: faults.push_back(mem::Fault::drdf(hub)); break;
      case 7: faults.push_back(mem::Fault::irf(hub)); break;
      case 8: faults.push_back(mem::Fault::sof(hub)); break;
      case 9: faults.push_back(mem::Fault::cf_in(peer, hub)); break;
      case 10:
        faults.push_back(mem::Fault::cf_id(peer, hub, true, bit));
        break;
      case 11:
        faults.push_back(mem::Fault::cf_id(peer, hub, false, bit));
        break;
      case 12: faults.push_back(mem::Fault::cf_st(hub, peer, bit, 1)); break;
      case 13: faults.push_back(mem::Fault::cf_st(peer, hub, bit, 0)); break;
      case 14: faults.push_back(mem::Fault::bridge(hub, peer, true)); break;
      case 15: faults.push_back(mem::Fault::bridge(peer, hub, false)); break;
      case 16: faults.push_back(mem::Fault::af_no_access(h)); break;
      case 17: faults.push_back(mem::Fault::af_wrong_access(h, other)); break;
      case 18: faults.push_back(mem::Fault::af_multi_access(h, other)); break;
      case 19: faults.push_back(mem::Fault::af_wrong_access(other, h)); break;
      case 20:
        faults.push_back(mem::Fault::retention(hub, bit, 1 + (i % 7) * 13));
        break;
      case 21:
        faults.push_back(mem::Fault::npsf_static(hub, i % 16, bit, cols));
        break;
      case 22:  // the hub is the west neighbour
        faults.push_back(
            mem::Fault::npsf_static({h + 1, 0}, i % 16, bit, cols));
        break;
      case 23:  // the hub is the south neighbour
        faults.push_back(
            mem::Fault::npsf_static({h - cols, 0}, i % 16, bit, cols));
        break;
    }
  }
  return faults;
}

template <typename W>
W random_lane_word(std::uint64_t& x) {
  if constexpr (mem::is_wide_lane_word_v<W>) {
    W w{};
    for (std::uint64_t& limb : w.limb) limb = next_rand(x);
    return w;
  } else {
    return next_rand(x);
  }
}

template <typename W>
void check_stacked_families() {
  constexpr unsigned kLanes = mem::PackedFaultRamT<W>::kLanes;
  const mem::Addr cols = 8;
  const mem::Addr n = 64;  // 8 x 8 grid
  const std::vector<mem::Fault> faults = stacked_family_faults(cols, n, kLanes);
  mem::PackedFaultRamT<W> packed(n);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, 1));
    scalars.back()->inject(f);
  }
  ASSERT_EQ(packed.lanes_used(), kLanes);
  for (mem::Addr addr = 0; addr < n; ++addr) {
    const W got = packed.peek(addr);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(mem::lane_test(got, lane), scalars[lane]->peek(addr) != 0)
          << "lanes=" << kLanes << " post-inject cell " << addr << " lane "
          << lane << " (" << faults[lane].describe() << ")";
    }
  }
  std::uint64_t x = 0x57AC4ED;
  for (int step = 0; step < 3000; ++step) {
    if (next_rand(x) % 7 == 0) {
      const std::uint64_t ticks = 1 + next_rand(x) % 40;
      packed.advance_time(ticks);
      for (auto& scalar : scalars) scalar->advance_time(ticks);
      continue;
    }
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      const W value = random_lane_word<W>(x);
      packed.write(addr, value);
      for (unsigned lane = 0; lane < kLanes; ++lane) {
        scalars[lane]->write(
            addr, static_cast<mem::Word>(mem::lane_test(value, lane)), 0);
      }
    } else {
      const W got = packed.read(addr);
      for (unsigned lane = 0; lane < kLanes; ++lane) {
        ASSERT_EQ(mem::lane_test(got, lane), scalars[lane]->read(addr, 0) != 0)
            << "lanes=" << kLanes << " step " << step << " lane " << lane
            << " (" << faults[lane].describe() << ")";
      }
    }
  }
}

TEST(PackedFaultRam, StackedFamiliesOnSharedSitesMatchScalar64) {
  check_stacked_families<mem::LaneWord>();
}

TEST(PackedFaultRam, StackedFamiliesOnSharedSitesMatchScalar256) {
  check_stacked_families<mem::WideWord<4>>();
}

TEST(PackedFaultRam, StackedFamiliesOnSharedSitesMatchScalar512) {
  check_stacked_families<mem::WideWord<8>>();
}

// The constructor validates before it sizes anything: a width past 32
// is invalid_argument even when cells * width could never be allocated
// (a size_t past max_size would otherwise surface as length_error).
TEST(PackedFaultRam, ConstructorValidatesBeforeAllocating) {
  constexpr mem::Addr kHuge = 0xFFFFFFFFu;
  EXPECT_THROW(mem::PackedFaultRam(kHuge, 0xFFFFFFFFu), std::invalid_argument);
  EXPECT_THROW(mem::PackedFaultRamT<mem::WideWord<8>>(kHuge, 0xFFFFFFFFu),
               std::invalid_argument);
  EXPECT_THROW(mem::PackedFaultRam(0, 0xFFFFFFFFu), std::invalid_argument);
}

// --- packed PRT evaluation ---------------------------------------------

TEST(RunPrtPacked, SchemePackability) {
  EXPECT_TRUE(core::prt_scheme_packable(core::standard_scheme_bom(16)));
  EXPECT_TRUE(core::prt_scheme_packable(core::extended_scheme_bom(16)));
  EXPECT_TRUE(
      core::prt_scheme_packable(core::retention_scheme(16, 1, 100)));
  // Word-oriented schemes pack too: each GF(2^m) constant multiply
  // compiles to an m x m tap matrix and the feedback stays XOR-only.
  EXPECT_TRUE(core::prt_scheme_packable(core::standard_scheme_wom(16, 4)));
}

// One full batch of lane-compatible faults on a tiny array: each
// lane's detected bit must equal the scalar oracle-backed run_prt
// verdict for that fault alone.
void check_packed_verdicts_on(const core::PrtScheme& scheme, mem::Addr n,
                              const std::vector<mem::Fault>& universe) {
  ASSERT_LE(universe.size(), mem::PackedFaultRam::kLanes);
  const auto oracle = core::make_prt_oracle(scheme, n);
  mem::PackedFaultRam packed(n);
  for (const mem::Fault& f : universe) packed.add_fault(f);
  const std::uint64_t detected =
      core::run_prt_packed(packed, scheme, oracle) & packed.active_mask();
  mem::FaultyRam scalar(n, 1);
  for (unsigned lane = 0; lane < universe.size(); ++lane) {
    scalar.reset(universe[lane]);
    const core::PrtRunOptions opts{.early_abort = false,
                                   .record_iterations = false};
    const bool expected =
        core::run_prt(scalar, scheme, oracle, opts).detected();
    EXPECT_EQ(((detected >> lane) & 1U) != 0, expected)
        << "lane " << lane << " (" << universe[lane].describe() << ")";
    // A packed batch runs the complete scheme, so its op count matches
    // the scalar per-fault cost.
    EXPECT_EQ(packed.ops(), scalar.total_stats().total());
  }
}

void check_packed_verdicts(const core::PrtScheme& scheme, mem::Addr n) {
  check_packed_verdicts_on(
      scheme, n, mem::single_cell_universe(n, 1, /*read_logic=*/true));
}

/// All 9 CFin/CFid/CFst variants on 7 ascending adjacent pairs — 63
/// faults, one batch.
std::vector<mem::Fault> small_coupling_universe(mem::Addr n) {
  std::vector<std::pair<mem::Addr, mem::Addr>> pairs;
  for (mem::Addr c = 0; c < 7 && c + 1 < n; ++c) pairs.emplace_back(c, c + 1);
  return mem::coupling_universe(pairs, /*bit=*/0);
}

TEST(RunPrtPacked, LaneVerdictsMatchScalarStandardScheme) {
  check_packed_verdicts(core::standard_scheme_bom(7), 7);
}

TEST(RunPrtPacked, LaneVerdictsMatchScalarExtendedScheme) {
  check_packed_verdicts(core::extended_scheme_bom(7), 7);
}

TEST(RunPrtPacked, LaneVerdictsMatchScalarWithMisr) {
  core::PrtScheme scheme = core::standard_scheme_bom(7);
  scheme.misr_poly = 0b100101;  // degree-5 signature over the read stream
  check_packed_verdicts(scheme, 7);
}

TEST(RunPrtPacked, CouplingLaneVerdictsMatchScalarStandardScheme) {
  check_packed_verdicts_on(core::standard_scheme_bom(16), 16,
                           small_coupling_universe(16));
}

TEST(RunPrtPacked, CouplingLaneVerdictsMatchScalarExtendedScheme) {
  check_packed_verdicts_on(core::extended_scheme_bom(16), 16,
                           small_coupling_universe(16));
}

// Per-lane early abort: the detected mask is unchanged and the
// reported scalar-equivalent op count reproduces exactly what
// run_prt(..., {.early_abort = true}) issues per fault.
TEST(RunPrtPacked, EarlyAbortKeepsVerdictsAndMatchesScalarAbortOps) {
  const mem::Addr n = 16;
  for (const bool misr : {false, true}) {
    core::PrtScheme scheme = core::extended_scheme_bom(n);
    if (misr) scheme.misr_poly = 0b1000011;
    const auto oracle = core::make_prt_oracle(scheme, n);
    auto universe = mem::single_cell_universe(n, 1, /*read_logic=*/true);
    const auto coupling = small_coupling_universe(n);
    universe.insert(universe.end(), coupling.begin(), coupling.end());
    mem::FaultyRam scalar(n, 1);
    for (std::size_t base = 0; base < universe.size();
         base += mem::PackedFaultRam::kLanes) {
      const std::size_t count = std::min<std::size_t>(
          mem::PackedFaultRam::kLanes, universe.size() - base);
      mem::PackedFaultRam packed(n);
      for (std::size_t j = 0; j < count; ++j) {
        packed.add_fault(universe[base + j]);
      }
      mem::PackedFaultRam packed_abort(n);
      for (std::size_t j = 0; j < count; ++j) {
        packed_abort.add_fault(universe[base + j]);
      }
      const auto full =
          core::run_prt_packed(packed, scheme, oracle, {.early_abort = false});
      const auto abort = core::run_prt_packed(packed_abort, scheme, oracle,
                                              {.early_abort = true});
      EXPECT_EQ(full.detected & packed.active_mask(),
                abort.detected & packed_abort.active_mask());
      std::uint64_t scalar_abort_ops = 0;
      for (std::size_t j = 0; j < count; ++j) {
        scalar.reset(universe[base + j]);
        const core::PrtRunOptions opts{.early_abort = true,
                                       .record_iterations = false};
        (void)core::run_prt(scalar, scheme, oracle, opts);
        scalar_abort_ops += scalar.total_stats().total();
      }
      EXPECT_EQ(abort.scalar_ops, scalar_abort_ops)
          << "batch at " << base << " misr=" << misr;
    }
  }
}

/// NPSF interior victims (4-wide grid, varied pattern/forced values)
/// interleaved with retention faults of both polarities and varied
/// delays on every cell.
std::vector<mem::Fault> npsf_retention_universe(mem::Addr n) {
  const mem::Addr cols = 4;
  std::vector<mem::Fault> u;
  for (mem::Addr c = 0; c < n; ++c) {
    const mem::Addr row = c / cols;
    const mem::Addr col = c % cols;
    if (row >= 1 && col >= 1 && col + 1 < cols && c + cols < n) {
      u.push_back(mem::Fault::npsf_static({c, 0}, static_cast<unsigned>(c) % 16,
                                          c & 1, cols));
    }
    u.push_back(
        mem::Fault::retention({c, 0}, c & 1, 50 + (c % 5) * 100));
  }
  return u;
}

// Abort-op parity for the NPSF and retention lanes: across sizes and
// schemes (including the pause-bearing retention scheme, whose idle
// windows trip the analytic decay), the packed early-abort run must
// keep every verdict and reproduce the scalar early-abort op count
// fault for fault.
TEST(RunPrtPacked, NpsfRetentionAbortOpsMatchScalar) {
  for (const mem::Addr n : {mem::Addr{17}, mem::Addr{64}, mem::Addr{256}}) {
    const auto universe = npsf_retention_universe(n);
    for (const bool retention_pauses : {false, true}) {
      const core::PrtScheme scheme = retention_pauses
                                         ? core::retention_scheme(n, 1, 1000)
                                         : core::extended_scheme_bom(n);
      const auto oracle = core::make_prt_oracle(scheme, n);
      mem::FaultyRam scalar(n, 1);
      for (std::size_t base = 0; base < universe.size();
           base += mem::PackedFaultRam::kLanes) {
        const std::size_t count = std::min<std::size_t>(
            mem::PackedFaultRam::kLanes, universe.size() - base);
        mem::PackedFaultRam packed(n);
        mem::PackedFaultRam packed_abort(n);
        for (std::size_t j = 0; j < count; ++j) {
          packed.add_fault(universe[base + j]);
          packed_abort.add_fault(universe[base + j]);
        }
        const auto full = core::run_prt_packed(packed, scheme, oracle,
                                               {.early_abort = false});
        const auto abort = core::run_prt_packed(packed_abort, scheme, oracle,
                                                {.early_abort = true});
        EXPECT_EQ(full.detected & packed.active_mask(),
                  abort.detected & packed_abort.active_mask());
        std::uint64_t scalar_abort_ops = 0;
        for (std::size_t j = 0; j < count; ++j) {
          scalar.reset(universe[base + j]);
          const core::PrtRunOptions opts{.early_abort = true,
                                         .record_iterations = false};
          const bool expected =
              core::run_prt(scalar, scheme, oracle, opts).detected();
          scalar_abort_ops += scalar.total_stats().total();
          EXPECT_EQ(((full.detected >> j) & 1U) != 0, expected)
              << "n=" << n << " lane " << j << " ("
              << universe[base + j].describe() << ")";
        }
        EXPECT_EQ(abort.scalar_ops, scalar_abort_ops)
            << "n=" << n << " batch at " << base
            << " retention_pauses=" << retention_pauses;
      }
    }
  }
}

// --- campaign-level parity (the acceptance criterion) -------------------

analysis::CampaignResult serial_scalar_reference(
    std::span<const mem::Fault> universe, const core::PrtScheme& scheme,
    const analysis::CampaignOptions& opt) {
  return analysis::run_campaign(universe, analysis::prt_algorithm(scheme),
                                opt);
}

/// The early-abort live reference: run_campaign over run_prt with
/// early_abort on, so ops count only the iterations each fault's run
/// actually issued.
analysis::CampaignResult serial_abort_reference(
    std::span<const mem::Fault> universe, const core::PrtScheme& scheme,
    const analysis::CampaignOptions& opt) {
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, opt.n);
  return analysis::run_campaign(
      universe,
      [&](mem::Memory& memory) {
        return core::run_prt(memory, scheme, oracle,
                             {.early_abort = true, .record_iterations = false})
            .detected();
      },
      opt);
}

TEST(PackedCampaign, BitIdenticalToSerialScalarOnClassical256) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (unsigned threads : {1u, 4u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    expect_identical(reference,
                     analysis::run_prt_campaign(universe, scheme, opt, eng));
  }
}

TEST(PackedCampaign, BitIdenticalToSerialScalarOnClassical1024) {
  const mem::Addr n = 1024;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::standard_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  analysis::EngineOptions eng;
  expect_identical(reference,
                   analysis::run_prt_campaign(universe, scheme, opt, eng));
}

// The van de Goor universe interleaves packed (single-cell, read-logic)
// and scalar (coupling, decoder) faults within every shard, exercising
// the escape re-sort and the per-class merge.
TEST(PackedCampaign, BitIdenticalToSerialScalarOnVanDeGoor) {
  const mem::Addr n = 48;
  const auto universe = mem::van_de_goor_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  analysis::EngineOptions eng;
  eng.threads = 3;  // uneven shards split batches at arbitrary points
  expect_identical(reference,
                   analysis::run_prt_campaign(universe, scheme, opt, eng));
}

// --- early abort composed with packing ---------------------------------

void expect_identical_verdicts(const analysis::CampaignResult& a,
                               const analysis::CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
}

/// The packed+abort engine must (a) reproduce the early-abort live
/// reference bit-for-bit *including ops*, and (b) reproduce the
/// no-abort reference's verdicts, coverage and escapes.
void check_abort_composition(std::span<const mem::Fault> universe,
                             const core::PrtScheme& scheme,
                             const analysis::CampaignOptions& opt,
                             const analysis::CampaignResult& reference) {
  analysis::EngineOptions packed_abort;
  packed_abort.threads = 2;
  packed_abort.early_abort = true;
  const auto a = serial_abort_reference(universe, scheme, opt);
  const auto b =
      analysis::run_prt_campaign(universe, scheme, opt, packed_abort);
  expect_identical(a, b);
  expect_identical_verdicts(reference, b);
  EXPECT_LE(b.ops, reference.ops);
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalOnClassical256) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalOnClassical1024) {
  const mem::Addr n = 1024;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::standard_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalOnVanDeGoor) {
  const mem::Addr n = 48;
  const auto universe = mem::van_de_goor_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalWithMisr) {
  const mem::Addr n = 64;
  const auto universe = mem::van_de_goor_universe(n);
  core::PrtScheme scheme = core::standard_scheme_bom(n);
  scheme.misr_poly = 0b1000011;  // degree-6
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, MisrEnabledCampaignStaysBitIdentical) {
  const mem::Addr n = 64;
  const auto universe = mem::single_cell_universe(n, 1, /*read_logic=*/true);
  core::PrtScheme scheme = core::standard_scheme_bom(n);
  scheme.misr_poly = 0b1000011;  // degree-6
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  analysis::EngineOptions eng;
  expect_identical(reference,
                   analysis::run_prt_campaign(universe, scheme, opt, eng));
}

// Word-oriented campaigns ride the lanes too: m = 4 bit planes per
// cell, GF(16) feedback through the transcript's compiled tap
// matrices.  The packed engine must reproduce the serial scalar
// reference bit for bit on the full mixed universe (single-cell, read
// logic, inter- and intra-word coupling, bridges, decoder faults).
TEST(PackedCampaign, WomCampaignBitIdenticalToSerialScalar) {
  const mem::Addr n = 24;
  const unsigned m = 4;
  const auto universe = mem::make_universe(n, m, {.npsf = false});
  const auto scheme = core::standard_scheme_wom(n, m);
  analysis::CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const unsigned threads : {1u, 3u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
    // Every fault of this universe rides a lane at width 4.
    EXPECT_EQ(got.packed_faults, got.overall.total);
    EXPECT_EQ(got.scalar_faults, 0u);
  }
}

// Early abort composes with word-oriented packing: per-lane analytic
// op accounting must equal the scalar abort reference over GF(16).
TEST(PackedCampaign, WomPerLaneAbortBitIdentical) {
  const mem::Addr n = 24;
  const unsigned m = 4;
  const auto universe = mem::single_cell_universe(n, m, /*read_logic=*/true);
  const auto scheme = core::standard_scheme_wom(n, m);
  analysis::CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

// NPSF + retention universes ride the lanes end to end: the packed
// campaign (with and without early abort) must reproduce the serial
// scalar reference bit for bit, with zero scalar fallbacks.
TEST(PackedCampaign, NpsfRetentionBitIdenticalToSerialScalar) {
  const mem::Addr n = 64;
  const auto universe = npsf_retention_universe(n);
  const auto scheme = core::retention_scheme(n, 1, 1000);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const unsigned threads : {1u, 3u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
    EXPECT_EQ(got.packed_faults, got.overall.total);
    EXPECT_EQ(got.scalar_faults, 0u);
  }
  check_abort_composition(universe, scheme, opt, reference);
}

// --- dispatch tallies ----------------------------------------------------

// packed_faults / scalar_faults partition the universe: the engine
// routes every fault through a lane batch — the degenerate CFst trigger
// state included, as an inert lane with the live reference's verdict —
// and the serial reference tallies every fault as per-fault.
TEST(PackedCampaign, DispatchTalliesPartitionTheUniverse) {
  const mem::Addr n = 48;
  auto universe = mem::van_de_goor_universe(n);
  // One degenerate CFst trigger state (> 1): inert in FaultyRam, an
  // inert lane on the packed path.
  universe.push_back(mem::Fault::cf_st({1, 0}, {2, 0}, /*when=*/2, 1));
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;

  const auto serial = serial_scalar_reference(universe, scheme, opt);
  EXPECT_EQ(serial.scalar_faults, universe.size());
  EXPECT_EQ(serial.packed_faults, 0u);

  analysis::EngineOptions packed_eng;
  const auto packed =
      analysis::run_prt_campaign(universe, scheme, opt, packed_eng);
  EXPECT_EQ(packed.packed_faults, universe.size());
  EXPECT_EQ(packed.scalar_faults, 0u);
  EXPECT_EQ(packed.packed_faults + packed.scalar_faults,
            packed.overall.total);
  expect_identical(serial, packed);
}

// --- lane-width x thread-count parity (the tentpole acceptance) ----------

// Campaign outputs must be bit-identical across lane widths
// {64, 256, 512, default} x thread counts {1, 2, 4, 8}, with and
// without early abort.  Only SchedTelemetry may differ (it is excluded
// from CampaignResult::operator==); wide widths must actually engage
// (wide_faults > 0, max_lanes == width) when the shards are big enough
// to fill half the wide lanes.  lane_width = 0 is the default option
// and must run the 512-lane word.
TEST(PackedCampaign, BitIdenticalAcrossLaneWidthsAndThreadCounts) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const bool early_abort : {false, true}) {
    analysis::EngineOptions abort_ref_eng;
    abort_ref_eng.threads = 1;
    abort_ref_eng.early_abort = early_abort;
    abort_ref_eng.lane_width = 64;
    const auto width64_reference =
        analysis::run_prt_campaign(universe, scheme, opt, abort_ref_eng);
    if (!early_abort) expect_identical(reference, width64_reference);
    for (const unsigned lane_width : {64u, 256u, 512u, 0u}) {
      const unsigned expect_lanes = lane_width != 0 ? lane_width : 512u;
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        analysis::EngineOptions eng;
        eng.threads = threads;
        eng.early_abort = early_abort;
        eng.lane_width = lane_width;
        const auto got =
            analysis::run_prt_campaign(universe, scheme, opt, eng);
        // Full bit-identity including the early-abort op accounting.
        expect_identical(width64_reference, got);
        EXPECT_TRUE(width64_reference == got)
            << "width=" << lane_width << " threads=" << threads
            << " early_abort=" << early_abort;
        EXPECT_EQ(got.packed_faults, width64_reference.packed_faults);
        if (expect_lanes > 64) {
          // This universe is big enough that every dispatch window
          // fills the wide half; the telemetry must show wide batches.
          EXPECT_GT(got.sched.wide_faults, 0u)
              << "width=" << lane_width << " threads=" << threads;
          EXPECT_EQ(got.sched.max_lanes, expect_lanes)
              << "width=" << lane_width << " threads=" << threads;
          EXPECT_LE(got.sched.wide_faults, got.packed_faults);
        } else {
          EXPECT_EQ(got.sched.wide_faults, 0u);
          EXPECT_EQ(got.sched.max_lanes, 64u);
        }
        EXPECT_GE(got.sched.batches, 1u);
      }
    }
  }
}

// A shard too small to fill half the wide lanes falls back to the
// 64-lane word per batch — still bit-identical, with zero wide faults.
TEST(PackedCampaign, SmallShardsFallBackToNarrowLanes) {
  const mem::Addr n = 8;
  const auto universe = mem::single_cell_universe(n, 1, /*read_logic=*/true);
  ASSERT_LT(universe.size(), 128u);  // below the WideWord<4> threshold
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const unsigned lane_width : {256u, 512u}) {
    analysis::EngineOptions eng;
    eng.lane_width = lane_width;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
    EXPECT_EQ(got.sched.wide_faults, 0u) << "width=" << lane_width;
    EXPECT_EQ(got.sched.max_lanes, 64u);
  }
}

// Widths the dispatch layer has no instantiation for are a caller
// error, rejected up front rather than silently rounded.
TEST(PackedCampaign, InvalidLaneWidthIsRejected) {
  const mem::Addr n = 16;
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  for (const unsigned lane_width : {1u, 32u, 128u, 1024u}) {
    analysis::EngineOptions eng;
    eng.lane_width = lane_width;
    EXPECT_THROW(
        (void)analysis::CampaignEngine(scheme, opt, eng),
        std::invalid_argument)
        << "lane_width=" << lane_width;
  }
}

// Mixed packed/scalar universes stay bit-identical at wide widths: the
// scalar remainder is unaffected by the lane word, and the packed
// subset's merge order is batch-index order at any width.
TEST(PackedCampaign, WideWidthBitIdenticalOnVanDeGoorWithAbort) {
  const mem::Addr n = 48;
  const auto universe = mem::van_de_goor_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const unsigned lane_width : {256u, 512u}) {
    analysis::EngineOptions eng;
    eng.threads = 3;
    eng.lane_width = lane_width;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
  }
  check_abort_composition(universe, scheme, opt, reference);
  // Abort composition at wide width against the live abort reference.
  const auto abort_ref = serial_abort_reference(universe, scheme, opt);
  for (const unsigned lane_width : {256u, 512u}) {
    analysis::EngineOptions packed_abort;
    packed_abort.threads = 4;
    packed_abort.early_abort = true;
    packed_abort.lane_width = lane_width;
    expect_identical(abort_ref, analysis::run_prt_campaign(universe, scheme,
                                                           opt, packed_abort));
  }
}

// --- fault dropping on full runs -----------------------------------------

// Full-run campaigns stop replaying a lane batch once every lane has
// latched.  On a universe the scheme fully detects the result must stay
// bit-identical to the scalar reference and to the 64-lane run, while
// the packed accesses actually performed (sched.replayed_ops) fall below
// what replaying every batch to the end would cost.
TEST(FaultDropping, FullRunDropsLatchedBatches) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  ASSERT_TRUE(reference.escapes.empty());
  ASSERT_EQ(reference.overall.total, universe.size());
  // A full live run charges the complete transcript per fault.
  const std::uint64_t full_ops = reference.ops / reference.overall.total;
  analysis::EngineOptions narrow;
  narrow.threads = 1;
  narrow.lane_width = 64;
  const auto width64 =
      analysis::run_prt_campaign(universe, scheme, opt, narrow);
  expect_identical(reference, width64);
  for (const unsigned threads : {1u, 4u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
    EXPECT_TRUE(got == width64) << "threads=" << threads;
    ASSERT_EQ(got.packed_faults, universe.size());
    // At least ceil(packed / lanes) batches were flushed; undropped,
    // each would have replayed the whole transcript.
    const std::uint64_t lanes = got.sched.max_lanes;
    const std::uint64_t min_batches = (got.packed_faults + lanes - 1) / lanes;
    EXPECT_GT(got.sched.replayed_ops, 0u);
    EXPECT_LT(got.sched.replayed_ops, min_batches * full_ops)
        << "threads=" << threads;
  }
}

// A batch holding a lane that never latches cannot drop: an NPSF
// fault with a border victim registers no effect, so the batch replays
// the whole transcript and its accesses equal one full run.
TEST(FaultDropping, BatchWithInertLaneReplaysFullTranscript) {
  const mem::Addr n = 16;
  const mem::Addr cols = 4;
  const std::vector<mem::Fault> universe = {
      mem::Fault::saf({1, 0}, 0),
      mem::Fault::npsf_static({0, 0}, 0xF, 1, cols),  // row-0 victim: inert
      mem::Fault::tf({5, 0}, true),
  };
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  ASSERT_EQ(reference.escapes, std::vector<std::size_t>{1});
  const std::uint64_t full_ops = reference.ops / reference.overall.total;
  analysis::EngineOptions eng;
  eng.threads = 1;
  const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
  expect_identical(reference, got);
  EXPECT_EQ(got.packed_faults, universe.size());
  EXPECT_EQ(got.sched.replayed_ops, full_ops);
}

// Batches are filled kind by kind, so never-latching lanes (inert
// border NPSF) interleaved with SAF lanes in universe order share a
// batch with each other, not with the SAF lanes: the SAF0 and SAF1
// batches drop at their own latch points and only the NPSF batch
// replays the whole transcript.  Packed in universe order, both full
// batches would carry an inert lane and replay to the end.
TEST(FaultDropping, GroupedBatchesKeepNeverLatchingLanesTogether) {
  const mem::Addr n = 64;
  const mem::Addr cols = 8;
  std::vector<mem::Fault> universe;
  std::vector<mem::Fault> saf0;
  std::vector<mem::Fault> saf1;
  std::vector<std::size_t> inert;
  for (mem::Addr c = 0; c < n; ++c) {
    saf0.push_back(mem::Fault::saf({c, 0}, 0));
    saf1.push_back(mem::Fault::saf({c, 0}, 1));
    universe.push_back(saf0.back());
    universe.push_back(saf1.back());
    if (c == 5 || c == 50) {
      inert.push_back(universe.size());
      // Row-0 victim: an incomplete neighbourhood, never fires.
      universe.push_back(mem::Fault::npsf_static({c % cols, 0}, 0xF, 1, cols));
    }
  }
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  ASSERT_EQ(reference.escapes, inert);
  const std::uint64_t full_ops = reference.ops / reference.overall.total;
  // Each SAF batch on its own, replayed until its last lane latches.
  const auto oracle = core::make_prt_oracle(scheme, n);
  const core::OpTranscript transcript =
      core::make_op_transcript(scheme, oracle);
  core::PackedScratch scratch;
  std::uint64_t saf_ops = 0;
  for (const auto* batch : {&saf0, &saf1}) {
    mem::PackedFaultRam ram(n);
    for (const mem::Fault& f : *batch) ram.add_fault(f);
    const auto verdict =
        core::run_prt_packed(ram, transcript, {.early_abort = true}, scratch);
    ASSERT_EQ(verdict.detected, ram.active_mask());
    saf_ops += ram.ops();
  }
  ASSERT_LT(saf_ops, full_ops);
  analysis::EngineOptions eng;
  eng.threads = 1;
  eng.lane_width = 64;
  const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
  expect_identical(reference, got);
  EXPECT_EQ(got.packed_faults, universe.size());
  EXPECT_EQ(got.sched.replayed_ops, saf_ops + full_ops);
}

}  // namespace
}  // namespace prt
