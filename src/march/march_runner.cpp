#include "march/march_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace prt::march {

namespace {

/// Applies one March element at a single address, updating the result.
/// Returns false when an early abort fired (stop the whole run).
bool apply_ops(const MarchElement& elem, mem::Memory& memory,
               mem::Addr addr, mem::Word bg, const MarchRunOptions& options,
               MarchResult& result) {
  const mem::Word mask = memory.word_mask();
  for (const MarchOp& op : elem.ops) {
    const mem::Word data = (op.data == 0 ? bg : ~bg) & mask;
    if (op.is_read()) {
      const mem::Word got = memory.read(addr, 0);
      ++result.ops;
      if (got != data) {
        if (!result.fail) {
          result.first_addr = addr;
          result.first_expected = data;
          result.first_actual = got;
        }
        result.fail = true;
        ++result.mismatches;
        if (options.early_abort) return false;
      }
    } else {
      memory.write(addr, data, 0);
      ++result.ops;
    }
  }
  return true;
}

}  // namespace

MarchResult run_march(const MarchTest& test, mem::Memory& memory,
                      mem::Word background, std::uint64_t delay_ticks,
                      const MarchRunOptions& options) {
  MarchResult result;
  const mem::Addr n = memory.size();
  for (const MarchElement& elem : test.elements) {
    if (elem.is_delay) {
      memory.advance_time(delay_ticks);
      continue;
    }
    if (elem.order == Order::kDown) {
      for (mem::Addr i = n; i-- > 0;) {
        if (!apply_ops(elem, memory, i, background, options, result)) {
          return result;
        }
      }
    } else {
      for (mem::Addr i = 0; i < n; ++i) {
        if (!apply_ops(elem, memory, i, background, options, result)) {
          return result;
        }
      }
    }
  }
  return result;
}

core::OpTranscript make_march_transcript(
    const MarchTest& test, mem::Addr n,
    std::span<const mem::Word> backgrounds, unsigned width,
    std::uint64_t delay_ticks) {
  // Malformed tests must fail loudly in release campaigns too (same
  // precedent as FaultyRam::inject): a silent mis-compiled read_mask
  // would corrupt coverage numbers instead of crashing.
  if (n < 1 || width < 1 || width > 32) {
    throw std::invalid_argument(
        "make_march_transcript: need n >= 1 and width in [1, 32], got n = " +
        std::to_string(n) + ", width = " + std::to_string(width));
  }
  core::OpTranscript t;
  t.n = n;
  t.width = width;
  t.delay_ticks = delay_ticks;
  const mem::Word mask =
      width == 32 ? ~mem::Word{0} : (mem::Word{1} << width) - 1;
  std::size_t rec_count = 0;
  for (const MarchElement& elem : test.elements) {
    if (!elem.is_delay) rec_count += elem.ops.size() * n;
  }
  t.recs.reserve(rec_count * backgrounds.size());
  t.march.reserve(test.elements.size() * backgrounds.size());
  // A fault-free memory from zero, replayed alongside the compile: does
  // every read record find its golden there?
  std::vector<mem::Word> fault_free(n, 0);
  t.zero_init_reads_golden = true;
  // Backgrounds follow one another with no reset in between, exactly
  // like run_march_backgrounds: memory state and the clock carry over.
  for (const mem::Word bg : backgrounds) {
    for (const MarchElement& elem : test.elements) {
      core::MarchSegment seg;
      seg.begin = t.recs.size();
      if (elem.is_delay) {
        seg.end = seg.begin;
        seg.is_delay = true;
        t.march.push_back(seg);
        continue;
      }
      if (elem.ops.empty() || elem.ops.size() > 32) {
        throw std::invalid_argument(
            "make_march_transcript: element needs 1..32 ops (read_mask "
            "width), got " +
            std::to_string(elem.ops.size()));
      }
      seg.period = static_cast<std::uint32_t>(elem.ops.size());
      for (std::uint32_t j = 0; j < seg.period; ++j) {
        if (elem.ops[j].is_read()) {
          seg.read_mask |= std::uint32_t{1} << j;
          t.total_reads += n;
        } else {
          t.total_writes += n;
        }
      }
      auto emit = [&](mem::Addr addr) {
        for (const MarchOp& op : elem.ops) {
          const mem::Word data = (op.data == 0 ? bg : ~bg) & mask;
          t.recs.push_back({addr, data});
          if (!op.is_read()) {
            fault_free[addr] = data;
          } else if (fault_free[addr] != data) {
            t.zero_init_reads_golden = false;
          }
        }
      };
      seg.descending = elem.order == Order::kDown;
      if (seg.descending) {
        for (mem::Addr i = n; i-- > 0;) emit(i);
      } else {
        for (mem::Addr i = 0; i < n; ++i) emit(i);
      }
      seg.end = t.recs.size();
      t.march.push_back(seg);
    }
  }
  return t;
}

core::OpTranscript make_march_transcript(const MarchTest& test, mem::Addr n,
                                         bool background,
                                         std::uint64_t delay_ticks) {
  const mem::Word bg = background ? 1 : 0;
  return make_march_transcript(test, n, std::span(&bg, 1), 1, delay_ticks);
}

namespace {

/// Word path (m > 1) of run_march_packed: one lane word per bit plane,
/// the golden word broadcast plane by plane, and a lane mismatches when
/// any plane differs.  Structure and abort accounting mirror the bit
/// loop below; the two are kept apart because a shared loop over
/// accessor lambdas measured ~8% slower on the bit-oriented replay (a
/// one-thread March C- engine run).
template <typename W>
MarchPackedVerdictT<W> run_march_packed_word(mem::PackedFaultRamT<W>& ram,
                                             const core::OpTranscript& t,
                                             const MarchRunOptions& options) {
  const unsigned m = t.width;
  std::array<W, mem::PackedFaultRamT<W>::kMaxWidth> planes;
  auto golden_plane = [](const core::OpRec& r, unsigned b) {
    return mem::lane_broadcast<W>(static_cast<unsigned>((r.golden >> b) & 1U));
  };
  const W active = ram.active_mask();
  MarchPackedVerdictT<W> verdict;
  W mismatch{};
  W pending = active;
  std::uint64_t op_idx = 0;
  for (const core::MarchSegment& seg : t.march) {
    if (seg.is_delay) {
      ram.advance_time(t.delay_ticks);
      continue;
    }
    const core::OpRec* r = t.recs.data() + seg.begin;
    const core::OpRec* const end = t.recs.data() + seg.end;
    while (r != end) {
      for (std::uint32_t j = 0; j < seg.period; ++j, ++r) {
        ++op_idx;
        if ((seg.read_mask >> j) & 1U) {
          ram.read_word(r->addr, planes.data());
          for (unsigned b = 0; b < m; ++b) {
            mismatch |= planes[b] ^ golden_plane(*r, b);
          }
          // The live sweep stops at its first failing background,
          // after every earlier background's ops: the read's global op
          // index.
          const W newly = pending & mismatch;
          if (options.early_abort && mem::lane_any(newly)) {
            verdict.scalar_ops +=
                static_cast<std::uint64_t>(mem::lane_popcount(newly)) *
                op_idx;
            pending &= ~newly;
            if (!mem::lane_any(pending)) {
              verdict.detected = mismatch;
              return verdict;
            }
          }
        } else {
          for (unsigned b = 0; b < m; ++b) planes[b] = golden_plane(*r, b);
          ram.write_word(r->addr, planes.data());
        }
      }
    }
  }
  const W full = options.early_abort ? pending : active;
  verdict.scalar_ops +=
      static_cast<std::uint64_t>(mem::lane_popcount(full)) * t.total_ops();
  verdict.detected = mismatch;
  return verdict;
}

/// Sparse path of run_march_packed (DESIGN.md §21): replays only the
/// periods of `cells` (sorted, distinct — every cell a lane's fault
/// can touch), element by element in traversal order, bit- (kWord
/// false) or word-oriented.  Every skipped access is to a cell that
/// holds the test's last write in every lane, so a skipped read
/// matches its golden and a skipped write changes nothing the lanes
/// can observe.  What the skipped accesses would have moved is set
/// from the transcript position instead: the op counters (so clock()
/// and the retention decay) through ram.seek() before each visited
/// period, and the sense-amp history a stuck-open lane echoes, which
/// is the golden of the previous read when the loop skipped it.
/// Verdict, abort accounting and the ram's final counters equal the
/// dense replay's.
template <bool kWord, typename W>
MarchPackedVerdictT<W> run_march_sparse(mem::PackedFaultRamT<W>& ram,
                                        const core::OpTranscript& t,
                                        const MarchRunOptions& options,
                                        std::span<const mem::Addr> cells) {
  constexpr std::size_t kNoRead = ~std::size_t{0};
  const unsigned m = t.width;
  std::array<W, mem::PackedFaultRamT<W>::kMaxWidth> planes;
  auto golden_plane = [](const core::OpRec& r, unsigned b) {
    return mem::lane_broadcast<W>(static_cast<unsigned>((r.golden >> b) & 1U));
  };
  const W active = ram.active_mask();
  MarchPackedVerdictT<W> verdict;
  verdict.sparse = true;
  W mismatch{};
  W pending = active;
  // Read records before the current segment, the last read record of
  // the earlier segments and the last read record the loop issued.
  std::uint64_t seg_reads = 0;
  std::size_t prev_seg_read = kNoRead;
  std::size_t issued_read = kNoRead;
  for (const core::MarchSegment& seg : t.march) {
    if (seg.is_delay) {
      ram.advance_time(t.delay_ticks);
      continue;
    }
    const std::uint32_t period = seg.period;
    const std::uint32_t read_mask = seg.read_mask;
    const std::uint64_t period_reads =
        static_cast<std::uint64_t>(std::popcount(read_mask));
    const std::uint32_t last_read_op =
        read_mask != 0 ? static_cast<std::uint32_t>(std::bit_width(read_mask)) - 1
                       : 0;
    // Replays `cell`'s period of this element; false once every active
    // lane has retired (early abort).
    auto visit = [&](mem::Addr cell) {
      const std::size_t k = seg.descending ? t.n - 1 - cell : cell;
      const std::size_t first = seg.begin + k * period;
      const std::uint64_t reads_before = seg_reads + k * period_reads;
      ram.seek(reads_before, first - reads_before);
      if (read_mask != 0) {
        // Only the period's first read can follow a skipped one.
        const std::size_t prev =
            k > 0 ? first - period + last_read_op : prev_seg_read;
        if (prev != kNoRead && prev != issued_read) {
          ram.set_last_read(t.recs[prev].golden);
        }
      }
      const core::OpRec* r = t.recs.data() + first;
      for (std::uint32_t j = 0; j < period; ++j, ++r) {
        if ((read_mask >> j) & 1U) {
          if constexpr (kWord) {
            ram.read_word(r->addr, planes.data());
            for (unsigned b = 0; b < m; ++b) {
              mismatch |= planes[b] ^ golden_plane(*r, b);
            }
          } else {
            mismatch |= ram.read(r->addr) ^ mem::lane_broadcast<W>(r->golden);
          }
          issued_read = first + j;
          const W newly = pending & mismatch;
          if (options.early_abort && mem::lane_any(newly)) {
            // The read's global op index, as in the dense loops.
            verdict.scalar_ops +=
                static_cast<std::uint64_t>(mem::lane_popcount(newly)) *
                (first + j + 1);
            pending &= ~newly;
            if (!mem::lane_any(pending)) return false;
          }
        } else if constexpr (kWord) {
          for (unsigned b = 0; b < m; ++b) planes[b] = golden_plane(*r, b);
          ram.write_word(r->addr, planes.data());
        } else {
          ram.write(r->addr, mem::lane_broadcast<W>(r->golden));
        }
      }
      return true;
    };
    const bool all_retired =
        seg.descending
            ? !std::all_of(cells.rbegin(), cells.rend(), visit)
            : !std::all_of(cells.begin(), cells.end(), visit);
    if (all_retired) {
      verdict.detected = mismatch;
      return verdict;
    }
    seg_reads += std::uint64_t{t.n} * period_reads;
    if (read_mask != 0) prev_seg_read = seg.end - period + last_read_op;
  }
  ram.seek(t.total_reads, t.total_writes);
  const W full = options.early_abort ? pending : active;
  verdict.scalar_ops +=
      static_cast<std::uint64_t>(mem::lane_popcount(full)) * t.total_ops();
  verdict.detected = mismatch;
  return verdict;
}

/// The distinct cells of ram's touched sites, ascending, into `cells`.
template <typename W>
void touched_cells(const mem::PackedFaultRamT<W>& ram,
                   std::vector<mem::Addr>& cells) {
  cells.clear();
  for (const std::size_t site : ram.touched_sites()) {
    cells.push_back(static_cast<mem::Addr>(site / ram.width()));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
}

}  // namespace

bool sparse_march_applies(const core::OpTranscript& t,
                          std::size_t touched_cells) {
  // Crossover, measured on 512-lane March C- batches of van de Goor
  // faults confined to the low cells (n = 1024 and 8192, one thread):
  // the sparse bit replay breaks even with the dense loop at about n/3
  // touched cells without early abort and n/2 with it, since a visited
  // cell costs more than a fault-free one in the streaming loop.  A
  // dense word access looks up m sites, so the sparse word replay
  // (m = 2, 4) still wins up to about n touched cells.  Both limits
  // keep a margin below break-even.
  const std::size_t cells_per_touched = t.width > 1 ? 2 : 4;
  return t.zero_init_reads_golden && touched_cells * cells_per_touched <= t.n;
}

template <typename W>
MarchPackedVerdictT<W> run_march_packed(mem::PackedFaultRamT<W>& ram,
                                        const core::OpTranscript& t,
                                        const MarchRunOptions& options,
                                        core::PackedScratchT<W>& scratch) {
  assert(t.n == ram.size());
  assert(t.width == ram.width());
  // The sparse path starts from the state reset() leaves: every
  // untouched cell zero, counters and clock at 0.
  if (t.zero_init_reads_golden && ram.clock() == 0) {
    touched_cells(ram, scratch.cells);
    if (sparse_march_applies(t, scratch.cells.size())) {
      return t.width > 1
                 ? run_march_sparse<true>(ram, t, options, scratch.cells)
                 : run_march_sparse<false>(ram, t, options, scratch.cells);
    }
  }
  if (t.width > 1) return run_march_packed_word(ram, t, options);
  const W active = ram.active_mask();
  MarchPackedVerdictT<W> verdict;
  W mismatch{};
  // Active lanes whose mismatch has not latched yet (early abort
  // retires lanes the moment they latch: a March verdict is monotone).
  W pending = active;
  std::uint64_t op_idx = 0;
  for (const core::MarchSegment& seg : t.march) {
    if (seg.is_delay) {
      ram.advance_time(t.delay_ticks);
      continue;
    }
    const core::OpRec* r = t.recs.data() + seg.begin;
    const core::OpRec* const end = t.recs.data() + seg.end;
    const std::uint32_t period = seg.period;
    const std::uint32_t read_mask = seg.read_mask;
    while (r != end) {
      for (std::uint32_t j = 0; j < period; ++j, ++r) {
        ++op_idx;
        if ((read_mask >> j) & 1U) {
          mismatch |= ram.read(r->addr) ^ mem::lane_broadcast<W>(r->golden);
          if (options.early_abort) {
            // A lane's scalar abort run stops at its first mismatching
            // read having issued exactly op_idx ops.
            const W newly = pending & mismatch;
            if (mem::lane_any(newly)) {
              verdict.scalar_ops +=
                  static_cast<std::uint64_t>(mem::lane_popcount(newly)) *
                  op_idx;
              pending &= ~newly;
              if (!mem::lane_any(pending)) {
                verdict.detected = mismatch;
                return verdict;
              }
            }
          }
        } else {
          ram.write(r->addr, mem::lane_broadcast<W>(r->golden));
        }
      }
    }
  }
  // Remaining lanes (all active lanes when early_abort is off) ran the
  // complete test.
  const W full = options.early_abort ? pending : active;
  verdict.scalar_ops +=
      static_cast<std::uint64_t>(mem::lane_popcount(full)) * t.total_ops();
  verdict.detected = mismatch;
  return verdict;
}

template MarchPackedVerdictT<mem::LaneWord> run_march_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const core::OpTranscript&,
    const MarchRunOptions&, core::PackedScratchT<mem::LaneWord>&);
template MarchPackedVerdictT<mem::WideWord<4>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<4>>&, const core::OpTranscript&,
    const MarchRunOptions&, core::PackedScratchT<mem::WideWord<4>>&);
template MarchPackedVerdictT<mem::WideWord<8>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const core::OpTranscript&,
    const MarchRunOptions&, core::PackedScratchT<mem::WideWord<8>>&);

std::uint64_t run_march_packed(const MarchTest& test,
                               mem::PackedFaultRam& ram, bool background,
                               std::uint64_t delay_ticks) {
  const core::OpTranscript t =
      make_march_transcript(test, ram.size(), background, delay_ticks);
  return run_march_packed(ram, t, MarchRunOptions{}).detected;
}

MarchResult run_march_backgrounds(const MarchTest& test, mem::Memory& memory,
                                  const std::vector<mem::Word>& backgrounds,
                                  const MarchRunOptions& options) {
  assert(!backgrounds.empty());
  MarchResult merged;
  for (mem::Word bg : backgrounds) {
    const MarchResult r =
        run_march(test, memory, bg, kDefaultDelayTicks, options);
    merged.ops += r.ops;
    merged.mismatches += r.mismatches;
    if (r.fail && !merged.fail) {
      merged.fail = true;
      merged.first_addr = r.first_addr;
      merged.first_expected = r.first_expected;
      merged.first_actual = r.first_actual;
    }
    // The abort-aware reference stops the whole background sweep at
    // the first failing run.
    if (options.early_abort && merged.fail) break;
  }
  return merged;
}

std::vector<mem::Word> standard_backgrounds(unsigned m) {
  assert(m >= 1 && m <= 32);
  std::vector<mem::Word> bgs{0};
  // Stripe widths 1, 2, 4, ... < m produce the checkerboard family.
  for (unsigned stripe = 1; stripe < m; stripe <<= 1) {
    mem::Word bg = 0;
    for (unsigned bit = 0; bit < m; ++bit) {
      if ((bit / stripe) & 1U) bg |= mem::Word{1} << bit;
    }
    bgs.push_back(bg);
  }
  return bgs;
}

}  // namespace prt::march
