// Executes March tests against a Memory and reports detection.
//
// A March test detects a fault when any read returns a value different
// from the expected data.  For word-oriented memories the classic {0,1}
// data indices are expanded over a set of data backgrounds; the
// standard log2(m)+1 backgrounds (solid, checkerboard, double-stripe,
// ...) are provided.
//
// Campaign hot loops do not re-derive the element/address/op nesting
// per fault: make_march_transcript compiles a golden run into a flat
// core::OpTranscript — one background of a bit-oriented memory, or
// the whole background sweep of an m-bit word — and the packed replay
// run_march_packed (64, 256 or 512 lanes; one lane word per bit plane
// for m > 1) streams through it.  Every lane is bit-identical to
// run_march / run_march_backgrounds, including the early-abort op
// accounting (stop at the first mismatching read, ops = everything
// issued up to and including it), which is what lets the packed path
// report per-lane abort ops analytically.  run_march itself stays the
// differential reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/op_transcript.hpp"
#include "march/march_test.hpp"
#include "mem/memory.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt::march {

/// Virtual-time ticks a "Del" element advances by default — long
/// enough to out-wait every retention fault the universes inject.
/// Shared by every runner/compiler so the live, transcript and
/// background-sweep paths stay bit-identical.
inline constexpr std::uint64_t kDefaultDelayTicks = 100'000;

/// Outcome of one March run.
struct MarchResult {
  bool fail = false;          // any read mismatched
  std::uint64_t mismatches = 0;
  std::uint64_t ops = 0;      // reads + writes actually issued
  // First mismatch, valid when fail:
  mem::Addr first_addr = 0;
  mem::Word first_expected = 0;
  mem::Word first_actual = 0;
};

struct MarchRunOptions {
  /// Stop at the first mismatching read.  The fail verdict is
  /// unchanged (a March test detects iff any read deviates) but ops
  /// counts only what was actually issued — the abort-aware live
  /// reference the packed per-lane op accounting reproduces exactly.
  /// run_march_backgrounds additionally skips the remaining
  /// backgrounds after the first failing run.
  bool early_abort = false;
};

/// Runs `test` over the whole address space of `memory` with data
/// index 0 = `background`, index 1 = ~background.  Each "Del" element
/// advances the memory's virtual time by `delay_ticks` (data-retention
/// faults decay against that clock).
[[nodiscard]] MarchResult run_march(const MarchTest& test,
                                    mem::Memory& memory,
                                    mem::Word background = 0,
                                    std::uint64_t delay_ticks = kDefaultDelayTicks,
                                    const MarchRunOptions& options = {});

/// Runs the test once per background and merges the results (a fault is
/// detected if any background run fails).  The memory is not reset
/// between backgrounds: its state and clock carry over.
[[nodiscard]] MarchResult run_march_backgrounds(
    const MarchTest& test, mem::Memory& memory,
    const std::vector<mem::Word>& backgrounds,
    const MarchRunOptions& options = {});

/// Compiles one (test, n, background-bit) March run on a bit-oriented
/// memory into a flat op transcript: one core::MarchSegment per
/// element, records flattened in traversal order with the data bit
/// resolved against the background.  Built once per campaign and
/// replayed per fault.
[[nodiscard]] core::OpTranscript make_march_transcript(
    const MarchTest& test, mem::Addr n, bool background,
    std::uint64_t delay_ticks = kDefaultDelayTicks);

/// Compiles the sweep run_march_backgrounds(test, memory, backgrounds)
/// performs on n words of `width` bits into one transcript: per
/// background in order, one core::MarchSegment per element, each
/// record's golden the whole data word (index 0 = the background,
/// index 1 = its complement, masked to the word).  transcript.width =
/// `width`, so run_march_packed replays it through read_word /
/// write_word.  Memory state and the clock carry over between
/// backgrounds as in the live sweep, so a read's global op index is
/// what the live early-abort sweep charges when it stops there.
/// Throws std::invalid_argument when n < 1, width is outside [1, 32]
/// or an element has no ops or more than 32.
[[nodiscard]] core::OpTranscript make_march_transcript(
    const MarchTest& test, mem::Addr n, std::span<const mem::Word> backgrounds,
    unsigned width, std::uint64_t delay_ticks = kDefaultDelayTicks);

/// Verdict of a packed transcript March run at lane width
/// LaneTraits<W>::kLanes (mirrors core::PackedVerdictT).
template <typename W>
struct MarchPackedVerdictT {
  /// Lane L set means lane L's fault is detected.  Inspect single
  /// lanes through lane_detected() / mem::lane_test rather than
  /// shifting the raw word — the mask is width-generic.
  W detected{};
  /// Sum over the ram's active lanes of the ops a scalar
  /// run_march (run_march_backgrounds for a sweep transcript) on a
  /// FaultyRam with {.early_abort} would have issued for that lane's
  /// fault: everything up to and including the first mismatching read
  /// under early_abort, the full test otherwise.
  std::uint64_t scalar_ops = 0;

  /// Width-generic per-lane accessor: lane `lane`'s verdict.
  [[nodiscard]] bool lane_detected(unsigned lane) const {
    return mem::lane_test(detected, lane);
  }
  /// Number of detected lanes.
  [[nodiscard]] unsigned detected_count() const {
    return mem::lane_popcount(detected);
  }
};

using MarchPackedVerdict = MarchPackedVerdictT<mem::LaneWord>;

/// Replays a compiled March transcript bit-parallel over a
/// mem::PackedFaultRamT (one independent single-fault lane per word
/// bit): each write broadcasts the record's data to every lane and
/// each read compares every lane against the expected data at once —
/// one lane word per bit plane when transcript.width > 1.  Per-lane
/// semantics are identical to run_march(test,
/// FaultyRam-with-that-fault, background, delay, options), or to
/// run_march_backgrounds for a sweep transcript, at every lane width.
/// Precondition: transcript.n == ram.size() and transcript.width ==
/// ram.width().  With early_abort, lanes retire as their mismatch
/// latches and the replay stops once every active lane is retired,
/// with per-lane op accounting identical to the scalar abort path.
/// Lanes beyond ram.lanes_used() never deviate, but callers should
/// still AND with ram.active_mask().
template <typename W>
[[nodiscard]] MarchPackedVerdictT<W> run_march_packed(
    mem::PackedFaultRamT<W>& ram, const core::OpTranscript& transcript,
    const MarchRunOptions& options = {});

extern template MarchPackedVerdictT<mem::LaneWord> run_march_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const core::OpTranscript&,
    const MarchRunOptions&);
extern template MarchPackedVerdictT<mem::WideWord<4>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<4>>&, const core::OpTranscript&,
    const MarchRunOptions&);
extern template MarchPackedVerdictT<mem::WideWord<8>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const core::OpTranscript&,
    const MarchRunOptions&);

/// Convenience overload compiling the transcript on the fly (one-shot
/// callers, tests): the detected mask of a full run without early
/// abort.
[[nodiscard]] std::uint64_t run_march_packed(
    const MarchTest& test, mem::PackedFaultRam& ram,
    bool background = false, std::uint64_t delay_ticks = kDefaultDelayTicks);

/// The standard data backgrounds for an m-bit word: solid 0,
/// checkerboard 0101.., double stripe 0011.., quad stripe 00001111..,
/// etc — ceil(log2(m)) + 1 words.  m = 1 yields just {0}.
[[nodiscard]] std::vector<mem::Word> standard_backgrounds(unsigned m);

}  // namespace prt::march
