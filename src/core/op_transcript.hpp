// Cached op-transcript replay: compile a (scheme, n) golden run into a
// flat op stream and make every hot loop a tight replay.
//
// A fault campaign replays the *same* deterministic golden operation
// stream per (scheme, n) — or per (march_test, n, background) — against
// thousands of faults.  The live engines (PiTester::run,
// march::run_march) re-derive that stream op by op on every run:
// trajectory lookups, oracle vector indirection, per-op branching on
// the scheme structure, feedback through WordLfsr::feedback.  An
// OpTranscript is the stream compiled once: a flat, cache-friendly
// array of {addr, golden} records plus per-iteration checkpoints
// (expected MISR signature, pause ticks, feedback mask, and the
// abort-op prefix sums that make per-lane early-abort op accounting
// analytic).  The replay loops then stream through contiguous records
// with no oracle indirection and no per-op dispatch:
//
//  * run_prt_transcript (below, a template so the memory type
//    devirtualizes) replays the scheme against any mem::Memory with a
//    detection verdict and op accounting identical to
//    run_prt(memory, scheme, oracle, options) — every fault family
//    rides the packed lanes now, so this scalar replay serves as the
//    campaigns' differential reference and the rare-escape fallback
//    (e.g. degenerate CFst trigger states);
//  * core::run_prt_packed (prt_packed.hpp) replays it against a
//    mem::PackedFaultRamT of 64, 256 or 512 lanes;
//  * march::run_march_packed (march/march_runner.hpp) replays a March
//    transcript compiled by march::make_march_transcript.
//
// Campaigns build one transcript next to their memoized oracles
// (analysis::CampaignEngine / analysis::MarchCampaign) and share it
// read-only across workers; it is immutable after construction.
// Bit-identical results to the live paths are enforced by the parity
// suites (tests/test_op_transcript.cpp op-for-op, plus the campaign
// parity tests).  See DESIGN.md §9.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/prt_engine.hpp"
#include "lfsr/misr.hpp"

namespace prt::core {

/// One compiled operation: the cell it touches and the golden value
/// associated with that position (seed value for init writes, golden
/// LFSR sequence value for sweep positions — which doubles as the
/// expected Fin/Init read-back — expected image bit for verify-pass
/// reads, expected data for March reads/writes).
struct OpRec {
  mem::Addr addr = 0;
  gf::Elem golden = 0;
};

/// Checkpoint of one compiled PRT iteration: spans into
/// OpTranscript::recs plus everything the replay needs between the
/// flat loops.
struct PrtIterSpan {
  /// recs[traj_begin .. traj_begin + n): the trajectory in visiting
  /// order.  Records [0, k) are the seed writes (golden = seed, also
  /// the expected Init re-read), the sweep slides k-wide read windows
  /// over the whole span, and records [n - k, n) carry Fin* as golden.
  std::size_t traj_begin = 0;
  /// recs[verify_begin .. verify_begin + n): the verify pass, address
  /// ascending, golden = fault-free image bit.  Only when has_verify.
  std::size_t verify_begin = 0;
  bool has_verify = false;
  /// Register length k of this iteration's generator.
  unsigned k = 0;
  /// Feedback selection: bit j set means window position j (the read
  /// of trajectory position q + j) feeds the feedback write — bit j
  /// corresponds to a non-zero generator coefficient g[k - j].  Over
  /// GF(2) the tap is a plain XOR of the read; wider fields also need
  /// tap_rows below.
  std::uint64_t fb_mask = 0;
  /// GF(2^m) tap matrices, empty for GF(2) schemes.  Multiplying by
  /// the constant g[k - j] is GF(2)-linear, so tap j is an m x m bit
  /// matrix: tap_rows[j * m + r] is the mask of input bit planes XORed
  /// into output plane r (row r of gf::multiplier_matrix(field,
  /// g[k - j])).  The packed word replay applies it lane-parallel
  /// (plane XORs), the scalar replay via per-row parity.
  std::vector<std::uint32_t> tap_rows;
  /// Golden MISR signature over this iteration's read stream (sweep
  /// windows, Fin read-back, Init re-read); 0 when MISR is disabled.
  std::uint64_t misr_expected = 0;
  /// Idle ticks between the sweep and the verify pass.
  std::uint64_t pause_ticks = 0;
  /// Reads/writes a scalar single-port run has issued once this
  /// iteration completes (cumulative over iterations) — the abort-op
  /// prefix sums: a fault whose first failing iteration is this one
  /// costs exactly ops_end under early abort.
  std::uint64_t reads_end = 0;
  std::uint64_t writes_end = 0;
  [[nodiscard]] std::uint64_t ops_end() const { return reads_end + writes_end; }
};

/// One compiled March element (march::make_march_transcript): recs
/// [begin, end) hold the element's operations flattened in traversal
/// order, `period` ops per address, read_mask bit j set when op j of
/// each period is a read (golden = expected data bit) instead of a
/// write (golden = data bit to write).
struct MarchSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint32_t period = 1;
  std::uint32_t read_mask = 0;
  /// A "Del" element: no records, one advance_time(delay_ticks).
  bool is_delay = false;
};

/// A compiled golden op stream.  Exactly one of `iterations` (PRT) or
/// `march` (March) is non-empty.
struct OpTranscript {
  mem::Addr n = 0;
  std::vector<OpRec> recs;
  // --- PRT side ---
  std::vector<PrtIterSpan> iterations;
  gf::Poly2 misr_poly = 0;  // 0 = MISR disabled
  /// Field degree m of the scheme: every golden value and memory word
  /// is an m-bit quantity.  1 for GF(2) (and for all March
  /// transcripts); word-oriented schemes carry their real width so the
  /// replays pick the word path.
  unsigned width = 1;
  // --- March side ---
  std::vector<MarchSegment> march;
  std::uint64_t delay_ticks = 0;
  /// Reads + writes of one complete scalar replay (the non-abort
  /// per-fault op cost).
  std::uint64_t total_reads = 0;
  std::uint64_t total_writes = 0;
  [[nodiscard]] std::uint64_t total_ops() const {
    return total_reads + total_writes;
  }
};

/// Compiles `scheme` against `oracle` (built by make_prt_oracle(scheme,
/// n)) into a flat transcript.  Preconditions: prt_scheme_packable
/// (structurally sane over GF(2^m), m <= 16 — GF(2) taps degenerate to
/// the XOR mask, wider fields get per-tap bit matrices) and every
/// iteration's k <= 64 (the fb_mask width).
[[nodiscard]] OpTranscript make_op_transcript(const PrtScheme& scheme,
                                              const PrtOracle& oracle);

/// Scalar transcript replay: issues the exact operation stream of
/// run_prt(memory, scheme, oracle, {.early_abort, .record_iterations =
/// false}) against any memory and returns an identical verdict
/// (detected(), reads, writes — with early_abort, complete iterations
/// up to and including the first failing one).  A template so the
/// concrete memory type's read/write devirtualize in the campaign hot
/// loop.
template <typename MemoryT>
[[nodiscard]] PrtVerdict run_prt_transcript(MemoryT& memory,
                                            const OpTranscript& t,
                                            const PrtRunOptions& options = {}) {
  PrtVerdict verdict;
  const mem::Addr n = t.n;
  const bool use_misr = t.misr_poly != 0;
  lfsr::Misr misr(use_misr ? t.misr_poly : gf::Poly2{0b111});
  for (const PrtIterSpan& it : t.iterations) {
    const OpRec* traj = t.recs.data() + it.traj_begin;
    const unsigned kk = it.k;
    bool fail = false;
    misr.reset();

    // Initialization: seed writes.
    for (unsigned j = 0; j < kk; ++j) {
      memory.write(traj[j].addr, traj[j].golden, 0);
    }
    // Sweep: k-wide read windows, feedback write selected by fb_mask.
    // GF(2) taps XOR the read straight in; GF(2^m) taps apply the
    // constant-multiplier bit matrix row by row (parity per output
    // plane) — exactly WordLfsr::feedback's sum of g[k - j] * read.
    for (mem::Addr q = 0; q + kk < n; ++q) {
      mem::Word fb = 0;
      for (unsigned j = 0; j < kk; ++j) {
        const mem::Word raw = memory.read(traj[q + j].addr, 0);
        if (use_misr) misr.shift(raw);
        if ((it.fb_mask >> j) & 1U) {
          if (it.tap_rows.empty()) {
            fb ^= raw;
          } else {
            const std::uint32_t* rows =
                it.tap_rows.data() + static_cast<std::size_t>(j) * t.width;
            mem::Word prod = 0;
            for (unsigned r = 0; r < t.width; ++r) {
              prod |= static_cast<mem::Word>(
                          static_cast<unsigned>(std::popcount(rows[r] & raw)) &
                          1U)
                      << r;
            }
            fb ^= prod;
          }
        }
      }
      memory.write(traj[q + kk].addr, fb, 0);
    }
    // Fin read-back against Fin*, Init re-read against the seed.
    for (unsigned j = 0; j < kk; ++j) {
      const mem::Word raw = memory.read(traj[n - kk + j].addr, 0);
      if (use_misr) misr.shift(raw);
      fail |= raw != traj[n - kk + j].golden;
    }
    for (unsigned j = 0; j < kk; ++j) {
      const mem::Word raw = memory.read(traj[j].addr, 0);
      if (use_misr) misr.shift(raw);
      fail |= raw != traj[j].golden;
    }
    // Verify pass: every cell against the fault-free image.
    if (it.has_verify) {
      if (it.pause_ticks != 0) memory.advance_time(it.pause_ticks);
      const OpRec* img = t.recs.data() + it.verify_begin;
      for (mem::Addr a = 0; a < n; ++a) {
        fail |= memory.read(img[a].addr, 0) != img[a].golden;
      }
    }
    verdict.pass = verdict.pass && !fail;
    if (use_misr && misr.state() != it.misr_expected) {
      verdict.misr_pass = false;
    }
    verdict.reads = it.reads_end;
    verdict.writes = it.writes_end;
    if (options.early_abort && verdict.detected()) break;
  }
  return verdict;
}

}  // namespace prt::core
