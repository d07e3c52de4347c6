#include "march/march_runner.hpp"

#include <array>
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
          t.recs.push_back({addr, (op.data == 0 ? bg : ~bg) & mask});
        }
      };
      if (elem.order == Order::kDown) {
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

}  // namespace

template <typename W>
MarchPackedVerdictT<W> run_march_packed(mem::PackedFaultRamT<W>& ram,
                                        const core::OpTranscript& t,
                                        const MarchRunOptions& options) {
  assert(t.n == ram.size());
  assert(t.width == ram.width());
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
    const MarchRunOptions&);
template MarchPackedVerdictT<mem::WideWord<4>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<4>>&, const core::OpTranscript&,
    const MarchRunOptions&);
template MarchPackedVerdictT<mem::WideWord<8>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const core::OpTranscript&,
    const MarchRunOptions&);

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
