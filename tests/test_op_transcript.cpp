// Op-transcript compiler and replay (core/op_transcript.hpp,
// march::make_march_transcript).
//
// The load-bearing property: a compiled transcript must encode the
// *exact* operation stream of the live oracle-driven run — same ops,
// same addresses, same values, same pauses, in the same order — for
// any packable scheme and any March test, because the campaign engines
// swap the live loops for packed replays of it and promise
// bit-identical CampaignResults.  A RecordingRam captures the live
// stream and a test-local walk over the transcript records, and the
// tests diff them op for op over randomized schemes, every standard
// March test, both backgrounds and n in {17, 64, 256}.  On top of the
// stream identity, the packed replays' verdicts and abort op
// accounting must match the live references on faulty memories, fault
// by fault.
#include "core/op_transcript.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "core/prt_packed.hpp"
#include "lfsr/misr.hpp"
#include "march/march_library.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt {
namespace {

std::uint64_t next_rand(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One recorded memory operation (reads record the returned value,
/// writes the written value, pauses the tick count).
struct RecordedOp {
  char kind;  // 'r', 'w', 'p'
  mem::Addr addr;
  std::uint64_t value;
  bool operator==(const RecordedOp&) const = default;
};

/// A 1-bit-wide memory that records its whole operation stream — the
/// probe both the live run and the transcript replay are driven
/// against.
class RecordingRam final : public mem::Memory {
 public:
  explicit RecordingRam(mem::Addr n) : data_(n, 0) {}

  [[nodiscard]] mem::Addr size() const override {
    return static_cast<mem::Addr>(data_.size());
  }
  [[nodiscard]] unsigned width() const override { return 1; }
  [[nodiscard]] unsigned ports() const override { return 1; }

  mem::Word read(mem::Addr addr, unsigned) override {
    const mem::Word v = data_[addr];
    ops.push_back({'r', addr, v});
    return v;
  }
  void write(mem::Addr addr, mem::Word value, unsigned) override {
    data_[addr] = value & 1U;
    ops.push_back({'w', addr, value & 1U});
  }
  void advance_time(std::uint64_t ticks) override {
    ops.push_back({'p', 0, ticks});
  }
  [[nodiscard]] mem::AccessStats stats(unsigned) const override { return {}; }
  void reset_stats() override {}

  std::vector<RecordedOp> ops;

 private:
  std::vector<mem::Word> data_;
};

void expect_same_stream(const std::vector<RecordedOp>& live,
                        const std::vector<RecordedOp>& replay,
                        const std::string& label) {
  ASSERT_EQ(live.size(), replay.size()) << label;
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live[i].kind, replay[i].kind) << label << " op " << i;
    ASSERT_EQ(live[i].addr, replay[i].addr) << label << " op " << i;
    ASSERT_EQ(live[i].value, replay[i].value) << label << " op " << i;
  }
}

/// Walks a compiled GF(2) PRT transcript on a fault-free RecordingRam,
/// issuing the stream its records encode: per iteration the seed
/// writes, the k-wide sweep windows with the fb_mask-selected feedback
/// write, the Fin read-back, the Init re-read and the (paused) verify
/// pass.  Along the way every read must return its record's golden
/// value, every feedback write must equal the next golden sequence
/// value, and each iteration's MISR signature and cumulative op
/// prefix sums must match what the walk observed.
void walk_prt_transcript(RecordingRam& memory, const core::OpTranscript& t,
                         const std::string& label) {
  ASSERT_EQ(t.width, 1u) << label;
  const mem::Addr n = t.n;
  const bool use_misr = t.misr_poly != 0;
  lfsr::Misr misr(use_misr ? t.misr_poly : gf::Poly2{0b111});
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  auto read = [&](const core::OpRec& rec) {
    ++reads;
    const mem::Word raw = memory.read(rec.addr, 0);
    EXPECT_EQ(raw, rec.golden) << label << " read of cell " << rec.addr;
    return raw;
  };
  auto write = [&](mem::Addr addr, mem::Word value) {
    ++writes;
    memory.write(addr, value, 0);
  };
  for (const core::PrtIterSpan& it : t.iterations) {
    ASSERT_TRUE(it.tap_rows.empty()) << label;
    const core::OpRec* traj = t.recs.data() + it.traj_begin;
    const unsigned k = it.k;
    misr.reset();
    for (unsigned j = 0; j < k; ++j) write(traj[j].addr, traj[j].golden);
    for (mem::Addr q = 0; q + k < n; ++q) {
      mem::Word fb = 0;
      for (unsigned j = 0; j < k; ++j) {
        const mem::Word raw = read(traj[q + j]);
        if (use_misr) misr.shift(raw);
        if ((it.fb_mask >> j) & 1U) fb ^= raw;
      }
      EXPECT_EQ(fb, traj[q + k].golden) << label << " feedback at " << q;
      write(traj[q + k].addr, fb);
    }
    for (unsigned j = 0; j < k; ++j) {
      const mem::Word raw = read(traj[n - k + j]);
      if (use_misr) misr.shift(raw);
    }
    for (unsigned j = 0; j < k; ++j) {
      const mem::Word raw = read(traj[j]);
      if (use_misr) misr.shift(raw);
    }
    if (it.has_verify) {
      if (it.pause_ticks != 0) memory.advance_time(it.pause_ticks);
      for (mem::Addr a = 0; a < n; ++a) (void)read(t.recs[it.verify_begin + a]);
    }
    if (use_misr) {
      EXPECT_EQ(misr.state(), it.misr_expected) << label;
    }
    EXPECT_EQ(reads, it.reads_end) << label;
    EXPECT_EQ(writes, it.writes_end) << label;
  }
  EXPECT_EQ(reads + writes, t.total_ops()) << label;
}

/// Live oracle-driven run vs the transcript walk on fault-free
/// memories: the streams must be identical op for op, and the analytic
/// read/write totals must match the live counters.
void expect_prt_transcript_identity(const core::PrtScheme& scheme,
                                    mem::Addr n, const std::string& label) {
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, n);
  const core::OpTranscript t = core::make_op_transcript(scheme, oracle);
  RecordingRam live(n);
  const core::PrtVerdict lv =
      core::run_prt(live, scheme, oracle, {.record_iterations = false});
  RecordingRam replay(n);
  walk_prt_transcript(replay, t, label);
  expect_same_stream(live.ops, replay.ops, label);
  EXPECT_TRUE(lv.pass && lv.misr_pass) << label;
  EXPECT_EQ(lv.ops(), t.total_ops()) << label;
}

/// Walks a compiled March transcript on a fault-free RecordingRam:
/// each segment's records in order, reads checked against their golden
/// data, writes of the golden data, one advance_time per Del element.
/// Returns the ops issued.
std::uint64_t walk_march_transcript(RecordingRam& memory,
                                    const core::OpTranscript& t,
                                    const std::string& label) {
  std::uint64_t ops = 0;
  for (const core::MarchSegment& seg : t.march) {
    if (seg.is_delay) {
      memory.advance_time(t.delay_ticks);
      continue;
    }
    for (std::size_t r = seg.begin; r < seg.end; ++r) {
      const core::OpRec& rec = t.recs[r];
      const std::size_t j = (r - seg.begin) % seg.period;
      if ((seg.read_mask >> j) & 1U) {
        EXPECT_EQ(memory.read(rec.addr, 0), rec.golden)
            << label << " read " << r;
      } else {
        memory.write(rec.addr, rec.golden, 0);
      }
      ++ops;
    }
  }
  return ops;
}

/// A randomized packable scheme: k in {2, 3}, random GF(2) generator
/// (g0 = gk = 1), random seeds, trajectory and verify/pause/MISR
/// configuration — the property-test input space.
core::PrtScheme random_packable_scheme(std::uint64_t& x) {
  core::PrtScheme scheme;
  scheme.name = "random";
  const std::size_t iterations = 2 + next_rand(x) % 3;
  for (std::size_t i = 0; i < iterations; ++i) {
    core::SchemeIteration it;
    const unsigned k = 2 + next_rand(x) % 2;
    it.g.assign(k + 1, 0);
    it.g.front() = 1;
    it.g.back() = 1;
    for (unsigned j = 1; j < k; ++j) it.g[j] = next_rand(x) & 1;
    for (unsigned j = 0; j < k; ++j) {
      it.config.init.push_back(static_cast<gf::Elem>(next_rand(x) & 1));
    }
    switch (next_rand(x) % 3) {
      case 0: it.config.trajectory = core::TrajectoryKind::kAscending; break;
      case 1: it.config.trajectory = core::TrajectoryKind::kDescending; break;
      default:
        it.config.trajectory = core::TrajectoryKind::kRandom;
        it.config.seed = next_rand(x);
        break;
    }
    if (next_rand(x) & 1) {
      it.config.verify_pass = true;
      if (next_rand(x) & 1) it.config.pause_ticks = 1 + next_rand(x) % 500;
    }
    scheme.iterations.push_back(std::move(it));
  }
  if (next_rand(x) & 1) scheme.misr_poly = 0b1011;  // z^3 + z + 1
  return scheme;
}

TEST(OpTranscript, ReplayOpForOpIdenticalOnCanonicalSchemes) {
  for (mem::Addr n : {17u, 64u, 256u}) {
    expect_prt_transcript_identity(core::standard_scheme_bom(n), n,
                                   "PRT-3 n=" + std::to_string(n));
    expect_prt_transcript_identity(core::extended_scheme_bom(n), n,
                                   "PRT-ext n=" + std::to_string(n));
    expect_prt_transcript_identity(core::retention_scheme(n, 1, 5000), n,
                                   "retention n=" + std::to_string(n));
  }
}

TEST(OpTranscript, ReplayOpForOpIdenticalOnRandomPackableSchemes) {
  std::uint64_t x = 0x7EA5C217;
  for (int round = 0; round < 12; ++round) {
    const core::PrtScheme scheme = random_packable_scheme(x);
    ASSERT_TRUE(core::prt_scheme_packable(scheme));
    for (mem::Addr n : {17u, 64u, 256u}) {
      expect_prt_transcript_identity(
          scheme, n,
          "random round " + std::to_string(round) + " n=" + std::to_string(n));
    }
  }
}

/// The packed replay must reproduce run_prt's verdict and op counts on
/// *faulty* memories fault by fault — one fault per batch, so the
/// batch's scalar-equivalent ops are that fault's own — with and
/// without early abort, over every family the lanes carry (decoder
/// multi-access, retention and NPSF extras included).
TEST(OpTranscript, PackedReplayMatchesLiveRunOnFaults) {
  const mem::Addr n = 64;
  const core::PrtScheme scheme = core::extended_scheme_bom(n);
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, n);
  const core::OpTranscript t = core::make_op_transcript(scheme, oracle);
  std::vector<mem::Fault> universe = mem::classical_universe(n);
  universe.push_back(mem::Fault::af_multi_access(3, 40));
  universe.push_back(mem::Fault::retention({5, 0}, 1, 100));
  universe.push_back(mem::Fault::npsf_static({17, 0}, 0b0000, 1, 8));
  mem::FaultyRam live(n, 1);
  mem::PackedFaultRam packed(n);
  core::PackedScratch scratch;
  for (const mem::Fault& f : universe) {
    ASSERT_TRUE(mem::lane_compatible(f)) << f.describe();
    for (bool abort : {false, true}) {
      live.reset(f);
      const core::PrtVerdict lv = core::run_prt(
          live, scheme, oracle,
          {.early_abort = abort, .record_iterations = false});
      packed.reset();
      packed.add_fault(f);
      const core::PackedVerdict pv =
          core::run_prt_packed(packed, t, {.early_abort = abort}, scratch);
      ASSERT_EQ(lv.detected(), pv.lane_detected(0))
          << f.describe() << " abort=" << abort;
      ASSERT_EQ(lv.ops(), pv.scalar_ops) << f.describe() << " abort=" << abort;
      ASSERT_EQ(live.total_stats().total(), pv.scalar_ops)
          << f.describe() << " abort=" << abort;
    }
  }
}

// --- March transcripts --------------------------------------------------

TEST(MarchTranscript, ReplayOpForOpIdenticalOnStandardTests) {
  const std::vector<march::MarchTest> tests = {
      march::march_x(),  march::march_y(),  march::march_c_minus(),
      march::march_a(),  march::march_b(),  march::march_sr(),
      march::march_lr(), march::march_ss(), march::march_g()};
  for (const march::MarchTest& test : tests) {
    for (mem::Addr n : {17u, 64u, 256u}) {
      for (bool bg : {false, true}) {
        const core::OpTranscript t = march::make_march_transcript(test, n, bg);
        RecordingRam live(n);
        const march::MarchResult lv =
            march::run_march(test, live, bg ? 1U : 0U);
        const std::string label =
            test.name + " n=" + std::to_string(n) + " bg=" + (bg ? "1" : "0");
        RecordingRam replay(n);
        const std::uint64_t replay_ops =
            walk_march_transcript(replay, t, label);
        expect_same_stream(live.ops, replay.ops, label);
        EXPECT_FALSE(lv.fail) << label;
        EXPECT_EQ(lv.ops, replay_ops) << label;
        EXPECT_EQ(replay_ops, t.total_ops()) << label;
      }
    }
  }
}

/// March early abort: the packed per-lane analytic op accounting must
/// equal the abort-aware scalar run_march reference, fault by fault,
/// and verdicts must be unchanged.
TEST(MarchTranscript, AbortOpsParityScalarVsPacked) {
  const mem::Addr n = 48;
  const std::vector<march::MarchTest> tests = {
      march::march_c_minus(), march::march_y(), march::march_g()};
  const std::vector<mem::Fault> universe = mem::classical_universe(n);
  for (const march::MarchTest& test : tests) {
    const core::OpTranscript t =
        march::make_march_transcript(test, n, /*background=*/false);
    mem::FaultyRam scalar(n, 1);
    mem::PackedFaultRam packed(n);
    for (std::size_t base = 0; base < universe.size();
         base += mem::PackedFaultRam::kLanes) {
      packed.reset();
      const std::size_t lanes =
          std::min<std::size_t>(mem::PackedFaultRam::kLanes,
                                universe.size() - base);
      std::uint64_t scalar_detected = 0;
      std::uint64_t scalar_ops = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const mem::Fault& f = universe[base + lane];
        ASSERT_TRUE(mem::lane_compatible(f)) << f.describe();
        packed.add_fault(f);
        scalar.reset(f);
        const march::MarchResult r =
            march::run_march(test, scalar, 0, 100'000, {.early_abort = true});
        scalar_detected |= std::uint64_t{r.fail} << lane;
        scalar_ops += r.ops;
      }
      const march::MarchPackedVerdict v =
          march::run_march_packed(packed, t, {.early_abort = true});
      ASSERT_EQ(v.detected & packed.active_mask(), scalar_detected)
          << test.name << " batch at " << base;
      ASSERT_EQ(v.scalar_ops, scalar_ops) << test.name << " batch at " << base;
    }
  }
}

/// Abort-aware March campaigns: coverage and escapes unchanged, ops
/// shrink identically on the packed engine and the per-fault live
/// reference (run_campaign over run_march_backgrounds with early
/// abort).
TEST(MarchTranscript, AbortCampaignBitIdenticalScalarVsPacked) {
  const mem::Addr n = 96;
  const auto universe = mem::classical_universe(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto test = march::march_c_minus();
  const analysis::CampaignResult scalar_abort = analysis::run_campaign(
      universe,
      [&](mem::Memory& memory) {
        return march::run_march_backgrounds(
                   test, memory, march::standard_backgrounds(memory.width()),
                   {.early_abort = true})
            .fail;
      },
      opt);
  const analysis::CampaignResult packed_abort = analysis::run_march_campaign(
      universe, test, opt, {.threads = 3, .early_abort = true});
  EXPECT_EQ(scalar_abort.overall, packed_abort.overall);
  EXPECT_EQ(scalar_abort.by_class, packed_abort.by_class);
  EXPECT_EQ(scalar_abort.escapes, packed_abort.escapes);
  EXPECT_EQ(scalar_abort.ops, packed_abort.ops);
  // The abort runs must also keep the non-abort verdicts (only ops
  // shrink).
  const analysis::CampaignResult full = analysis::run_march_campaign(
      universe, test, opt, {.threads = 2});
  EXPECT_EQ(full.overall, packed_abort.overall);
  EXPECT_EQ(full.escapes, packed_abort.escapes);
  EXPECT_LT(packed_abort.ops, full.ops);
}

}  // namespace
}  // namespace prt
