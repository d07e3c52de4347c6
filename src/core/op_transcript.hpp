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
//  * core::run_prt_packed (prt_packed.hpp) replays it against a
//    mem::PackedFaultRamT of 64, 256 or 512 lanes;
//  * march::run_march_packed (march/march_runner.hpp) replays a March
//    transcript compiled by march::make_march_transcript.
//
// The packed replays are the campaigns' only product path; the live
// run_prt / run_march on a FaultyRam stay the one differential
// reference.  Campaigns fetch one transcript next to the memoized
// oracle (analysis::OracleCache) and share it read-only across
// workers; it is immutable after construction.  Bit-identity to the
// live runs is enforced by the parity suites
// (tests/test_op_transcript.cpp walks the records op for op against a
// recording memory, plus the campaign parity tests).  See DESIGN.md §9.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prt_engine.hpp"

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
  /// (plane XORs).
  std::vector<std::uint32_t> tap_rows;
  /// Golden MISR signature over this iteration's read stream (sweep
  /// windows, Fin read-back, Init re-read); 0 when MISR is disabled.
  std::uint64_t misr_expected = 0;
  /// Idle ticks between the sweep and the verify pass.
  std::uint64_t pause_ticks = 0;
  /// Reads/writes a live single-port run has issued once this
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
  /// Word width m: every golden value and memory word is an m-bit
  /// quantity.  A PRT transcript carries its scheme's field degree (1
  /// for GF(2)), a March transcript the width it was compiled for (1
  /// for a single bit-oriented background, m for an m-bit background
  /// sweep); the replays take the word path when it exceeds 1.
  unsigned width = 1;
  // --- March side ---
  std::vector<MarchSegment> march;
  std::uint64_t delay_ticks = 0;
  /// Reads + writes of one complete live run (the non-abort
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

}  // namespace prt::core
