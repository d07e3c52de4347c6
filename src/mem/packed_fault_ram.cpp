#include "mem/packed_fault_ram.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace prt::mem {

bool lane_compatible(const Fault& fault, unsigned width) {
  return fault.victim.bit < width &&
         (!is_coupling(fault.kind) || fault.aggressor.bit < width);
}

template <typename W>
PackedFaultRamT<W>::PackedFaultRamT(Addr cells, unsigned width)
    : size_(cells), width_(width) {
  // Validate before sizing anything: a bad width must be an
  // invalid_argument, never a cells * width allocation.
  if (cells < 1) {
    throw std::invalid_argument("PackedFaultRam: cells must be >= 1");
  }
  if (width < 1 || width > kMaxWidth) {
    throw std::invalid_argument("PackedFaultRam: width must be in [1, 32]");
  }
  const std::size_t sites = static_cast<std::size_t>(cells) * width;
  data_.assign(sites, W{});
  slot_of_site_.assign(sites, -1);
  // The fault tables start empty and grow on first use: a batch only
  // pays records for the families it holds, and the capacity survives
  // reset() for the next batch.
}

template <typename W>
void PackedFaultRamT<W>::reset() {
  // An untouched cell is written only by accesses to it, so it still
  // holds zero unless a write landed outside the touched cells.  A word
  // write lands every plane of its cell, so the whole cell is cleared.
  const bool only_touched_written = writes_ == clean_writes_;
  if (!only_touched_written) std::fill(data_.begin(), data_.end(), W{});
  for (const std::size_t site : touched_sites_) {
    slot_of_site_[site] = -1;
    if (only_touched_written) {
      const auto cell = data_.begin() + static_cast<std::ptrdiff_t>(
                                            site - site % width_);
      std::fill(cell, cell + width_, W{});
    }
  }
  site_slots_.clear();
  touched_sites_.clear();
  write_faults_.clear();
  read_faults_.clear();
  coupling_faults_.clear();
  decoder_faults_.clear();
  retention_faults_.clear();
  npsf_faults_.clear();
  forced1_ = W{};
  cfst_state1_ = W{};
  bridge_or_ = W{};
  npsf_lanes_ = W{};
  npat_.fill(W{});
  nval_.fill(W{});
  npsf_forced1_ = W{};
  drf_decay1_ = W{};
  drf_refreshed_.fill(0);
  drf_delay_.fill(0);
  lanes_used_ = 0;
  has_sof_ = false;
  last_read_.fill(W{});
  reads_ = 0;
  writes_ = 0;
  idle_ticks_ = 0;
  clean_writes_ = 0;
}

template <typename W>
unsigned PackedFaultRamT<W>::add_fault(const Fault& fault) {
  validate_fault(fault, size_, width_, "PackedFaultRam::add_fault");
  if (lanes_used_ >= kLanes) {
    throw std::length_error("PackedFaultRam::add_fault: all lanes taken");
  }
  const unsigned lane = lanes_used_++;
  const W mask = lane_bit<W>(lane);
  const std::size_t vic = site_of(fault.victim.cell, fault.victim.bit);
  const std::size_t agg = site_of(fault.aggressor.cell, fault.aggressor.bit);
  // Forces a site's lane bit to `value`, the packed equivalent of
  // FaultyRam's injection-time condition enforcement.
  auto force_bit = [&](std::size_t site, unsigned value) {
    lane_assign(data_[site], lane, value != 0);
  };
  switch (fault.kind) {
    case FaultKind::kSaf0:
      slot(write_faults_, vic).saf0 |= mask;
      // Stuck-at victims hold from injection, matching FaultyRam.
      force_bit(vic, 0);
      break;
    case FaultKind::kSaf1:
      slot(write_faults_, vic).saf1 |= mask;
      force_bit(vic, 1);
      break;
    case FaultKind::kTfUp:
      slot(write_faults_, vic).tf_up |= mask;
      break;
    case FaultKind::kTfDown:
      slot(write_faults_, vic).tf_down |= mask;
      break;
    case FaultKind::kWdf:
      slot(write_faults_, vic).wdf |= mask;
      break;
    case FaultKind::kRdf:
      slot(read_faults_, vic).rdf |= mask;
      break;
    case FaultKind::kDrdf:
      slot(read_faults_, vic).drdf |= mask;
      break;
    case FaultKind::kIrf:
      slot(read_faults_, vic).irf |= mask;
      break;
    case FaultKind::kSof:
      slot(read_faults_, vic).sof |= mask;
      has_sof_ = true;
      break;
    // CFin/CFid victims are not faulty sites (their accesses need no
    // hook), but the aggressor's writes change them: touched.
    case FaultKind::kCfIn:
      slot(coupling_faults_, agg).cfin |= mask;
      lane_victim_[lane] = vic;
      touched_sites_.push_back(vic);
      break;
    case FaultKind::kCfIdUp0:
    case FaultKind::kCfIdUp1:
      slot(coupling_faults_, agg).cfid_up |= mask;
      lane_victim_[lane] = vic;
      touched_sites_.push_back(vic);
      if (fault.kind == FaultKind::kCfIdUp1) forced1_ |= mask;
      break;
    case FaultKind::kCfIdDown0:
    case FaultKind::kCfIdDown1:
      slot(coupling_faults_, agg).cfid_down |= mask;
      lane_victim_[lane] = vic;
      touched_sites_.push_back(vic);
      if (fault.kind == FaultKind::kCfIdDown1) forced1_ |= mask;
      break;
    case FaultKind::kCfSt0:
    case FaultKind::kCfSt1: {
      // A trigger state beyond {0, 1} never matches a stored bit, so
      // the fault is inert in FaultyRam: the lane registers nothing
      // and never mismatches, like an incomplete NPSF neighbourhood.
      if (fault.state > 1) break;
      slot(coupling_faults_, agg).cfst_agg |= mask;
      slot(coupling_faults_, vic).cfst_vic |= mask;
      lane_victim_[lane] = vic;
      lane_aggressor_[lane] = agg;
      const unsigned forced = fault.kind == FaultKind::kCfSt1 ? 1U : 0U;
      if (forced) forced1_ |= mask;
      if (fault.state & 1U) cfst_state1_ |= mask;
      // A freshly injected state condition is enforced against the
      // current contents immediately (a defect's effect holds from the
      // moment it exists).
      if (lane_test(data_[agg], lane) == ((fault.state & 1U) != 0)) {
        force_bit(vic, forced);
      }
      break;
    }
    case FaultKind::kAfNoAccess:
    case FaultKind::kAfWrongAccess:
    case FaultKind::kAfMultiAccess: {
      // Decoder faults remap the whole word access, so the masks go on
      // every site of the faulty address.
      for (unsigned p = 0; p < width_; ++p) {
        DecoderFaults& s =
            slot(decoder_faults_, site_of(fault.victim.cell, p));
        if (fault.kind == FaultKind::kAfNoAccess) {
          s.no |= mask;
        } else if (fault.kind == FaultKind::kAfWrongAccess) {
          s.wrong |= mask;
        } else {
          s.multi |= mask;
        }
      }
      if (fault.kind != FaultKind::kAfNoAccess) {
        lane_victim_[lane] = fault.alias;  // alias *cell*, plane per access
        // The alias cell is read and written through the faulty
        // address: touched, every plane.
        for (unsigned p = 0; p < width_; ++p) {
          touched_sites_.push_back(site_of(fault.alias, p));
        }
      }
      break;
    }
    case FaultKind::kBridgeAnd:
    case FaultKind::kBridgeOr: {
      slot(coupling_faults_, vic).bridge |= mask;
      slot(coupling_faults_, agg).bridge |= mask;
      lane_victim_[lane] = vic;
      lane_aggressor_[lane] = agg;
      const bool wired_or = fault.kind == FaultKind::kBridgeOr;
      if (wired_or) bridge_or_ |= mask;
      const bool a = lane_test(data_[vic], lane);
      const bool b = lane_test(data_[agg], lane);
      const unsigned tied =
          static_cast<unsigned>(wired_or ? (a || b) : (a && b));
      force_bit(vic, tied);
      force_bit(agg, tied);
      break;
    }
    case FaultKind::kNpsfStatic: {
      // Type-1 five-cell static NPSF.  An incomplete neighbourhood is
      // inert in FaultyRam (enforce_conditions breaks before the
      // pattern test), so the lane is consumed but registers nothing
      // and never mismatches.
      const Addr cols = fault.grid_cols;
      const Addr v = fault.victim.cell;
      bool inert = cols == 0 || fault.pattern > 15;
      if (!inert) {
        const Addr row = v / cols;
        const Addr col = v % cols;
        inert = row == 0 || col == 0 || col + 1 >= cols || v + cols >= size_;
      }
      if (inert) break;
      const unsigned plane = fault.victim.bit;
      const std::size_t north = site_of(v - cols, plane);
      const std::size_t east = site_of(v + 1, plane);
      const std::size_t south = site_of(v + cols, plane);
      const std::size_t west = site_of(v - 1, plane);
      slot(npsf_faults_, north).n |= mask;
      slot(npsf_faults_, east).e |= mask;
      slot(npsf_faults_, south).s |= mask;
      slot(npsf_faults_, west).w |= mask;
      slot(npsf_faults_, vic).vic |= mask;
      lane_victim_[lane] = vic;
      npsf_lanes_ |= mask;
      if (fault.state & 1U) npsf_forced1_ |= mask;
      // Pattern bits are (N << 3) | (E << 2) | (S << 1) | W, matching
      // FaultyRam::enforce_conditions.
      if (fault.pattern & 8U) npat_[0] |= mask;
      if (fault.pattern & 4U) npat_[1] |= mask;
      if (fault.pattern & 2U) npat_[2] |= mask;
      if (fault.pattern & 1U) npat_[3] |= mask;
      // Seed the neighbour-value caches from the current contents (the
      // lane is fresh, so its cache bits start clear) and enforce the
      // freshly injected condition immediately.
      if (lane_test(data_[north], lane)) nval_[0] |= mask;
      if (lane_test(data_[east], lane)) nval_[1] |= mask;
      if (lane_test(data_[south], lane)) nval_[2] |= mask;
      if (lane_test(data_[west], lane)) nval_[3] |= mask;
      const W mismatched = ((nval_[0] ^ npat_[0]) | (nval_[1] ^ npat_[1]) |
                            (nval_[2] ^ npat_[2]) | (nval_[3] ^ npat_[3])) &
                           mask;
      if (!lane_any(mismatched)) {
        force_bit(vic, static_cast<unsigned>(fault.state & 1U));
      }
      break;
    }
    case FaultKind::kDrf: {
      slot(retention_faults_, vic) |= mask;
      lane_victim_[lane] = vic;
      // The charge is stamped with the current clock, like FaultyRam's
      // refreshed_at_.push_back(clock_) at inject.
      drf_refreshed_[lane] = clock();
      drf_delay_[lane] = fault.delay;
      if (fault.state & 1U) drf_decay1_ |= mask;
      break;
    }
  }
  return lane;
}

template <typename W>
void PackedFaultRamT<W>::read_word(Addr cell, W* out) {
  assert(cell < size_);
  ++reads_;
  const std::size_t base = static_cast<std::size_t>(cell) * width_;
  for (unsigned p = 0; p < width_; ++p) out[p] = read_site(base + p, p);
  // The sense-amp history updates with the whole returned word, after
  // every plane's patches (FaultyRam stores last_read_ once per read).
  if (has_sof_) {
    for (unsigned p = 0; p < width_; ++p) last_read_[p] = out[p];
  }
}

template <typename W>
void PackedFaultRamT<W>::write_word(Addr cell, const W* planes) {
  assert(cell < size_);
  ++writes_;
  const std::size_t base = static_cast<std::size_t>(cell) * width_;
  std::array<W, kMaxWidth> old{};
  std::array<W, kMaxWidth> landed{};
  bool any_slot = false;
  // Phase 1: land every plane (WDF/TF/SAF per site, decoder
  // suppression) without firing coupling, so intra-word aggressor
  // transitions see their victims' *new* values — all bits of a word
  // write switch together (FaultyRam::physical_write does the same).
  for (unsigned p = 0; p < width_; ++p) {
    const std::size_t site = base + p;
    const std::int16_t slot = slot_of_site_[site];
    old[p] = data_[site];
    if (slot < 0) {
      data_[site] = planes[p];
      landed[p] = planes[p];
      continue;
    }
    any_slot = true;
    landed[p] =
        land(site, site_slots_[static_cast<std::size_t>(slot)], planes[p], p);
  }
  if (!any_slot) return;
  // Phase 2: coupling fires per plane in ascending order against the
  // landed values (not the post-coupling state — FaultyRam computes
  // its transition set from `old` vs `landed` too), then the NPSF
  // neighbourhood re-check runs for every touched site.
  for (unsigned p = 0; p < width_; ++p) {
    const std::int16_t slot = slot_of_site_[base + p];
    if (slot < 0) continue;
    const SiteSlots& s = site_slots_[static_cast<std::size_t>(slot)];
    if (const CouplingFaults* f = coupling_faults_.find(s)) {
      apply_coupling(base + p, old[p], landed[p], *f);
    }
  }
  for (unsigned p = 0; p < width_; ++p) {
    const std::int16_t slot = slot_of_site_[base + p];
    if (slot < 0) continue;
    const SiteSlots& s = site_slots_[static_cast<std::size_t>(slot)];
    if (const NpsfFaults* f = npsf_faults_.find(s)) apply_npsf(base + p, *f);
  }
}

template <typename W>
W PackedFaultRamT<W>::apply_af_read(W value, const DecoderFaults& f,
                                    unsigned plane) {
  // Per-lane scatter over the few decoder lanes remapping this cell.
  for_each_set_lane(f.wrong, [&](unsigned lane) {
    const W bit = lane_bit<W>(lane);
    const std::size_t alias =
        site_of(static_cast<Addr>(lane_victim_[lane]), plane);
    // Wrong access: the sense amp sees the alias cell.
    value = (value & ~bit) | (data_[alias] & bit);
  });
  for_each_set_lane(f.multi, [&](unsigned lane) {
    const W bit = lane_bit<W>(lane);
    const std::size_t alias =
        site_of(static_cast<Addr>(lane_victim_[lane]), plane);
    // Multi access: wired-AND of the addressed cell (already in
    // `value` — AF lanes carry no read-logic fault) and the alias.
    value &= ~bit | data_[alias];
  });
  return value;
}

template <typename W>
void PackedFaultRamT<W>::apply_af_write(const W& value,
                                        const DecoderFaults& f,
                                        unsigned plane) {
  for_each_set_lane(f.wrong | f.multi, [&](unsigned lane) {
    const W bit = lane_bit<W>(lane);
    const std::size_t alias =
        site_of(static_cast<Addr>(lane_victim_[lane]), plane);
    data_[alias] = (data_[alias] & ~bit) | (value & bit);
  });
}

template <typename W>
void PackedFaultRamT<W>::apply_retention(std::size_t site, const W& m) {
  const std::uint64_t now = clock();
  for_each_set_lane(m, [&](unsigned lane) {
    // Overflow-safe subtraction, same comparison FaultyRam uses; the
    // charge stamp is *not* refreshed, so the re-force is idempotent
    // until the next write.
    if (now - drf_refreshed_[lane] < drf_delay_[lane]) return;
    lane_assign(data_[site], lane, lane_test(drf_decay1_, lane));
  });
}

template <typename W>
void PackedFaultRamT<W>::refresh_retention(const W& m) {
  const std::uint64_t now = clock();
  for_each_set_lane(m, [&](unsigned lane) { drf_refreshed_[lane] = now; });
}

template <typename W>
void PackedFaultRamT<W>::apply_npsf(std::size_t site, const NpsfFaults& f) {
  // Refresh the direction caches for every lane whose neighbour is
  // this site, then match all lanes' patterns at once: a lane matches
  // when each cached neighbour value equals its pattern bit, i.e. when
  // it contributes no bit to any direction's XOR.
  const W v = data_[site];
  nval_[0] = (nval_[0] & ~f.n) | (v & f.n);
  nval_[1] = (nval_[1] & ~f.e) | (v & f.e);
  nval_[2] = (nval_[2] & ~f.s) | (v & f.s);
  nval_[3] = (nval_[3] & ~f.w) | (v & f.w);
  const W match =
      npsf_lanes_ & ~((nval_[0] ^ npat_[0]) | (nval_[1] ^ npat_[1]) |
                      (nval_[2] ^ npat_[2]) | (nval_[3] ^ npat_[3]));
  // Only lanes whose neighbourhood this write touched fire (FaultyRam's
  // `touched` test).  That is exact, not an optimisation: a lane whose
  // pattern already matched before this write had its victim forced
  // when the pattern last became true — nothing else can move an NPSF
  // lane's bits, because the lane holds no other fault.
  for_each_set_lane(match & f.any(), [&](unsigned lane) {
    const std::size_t vic = lane_victim_[lane];
    lane_assign(data_[vic], lane, lane_test(npsf_forced1_, lane));
  });
}

template <typename W>
void PackedFaultRamT<W>::apply_coupling(std::size_t site, const W& old,
                                        const W& now,
                                        const CouplingFaults& f) {
  // Per-lane scatter over the few lanes coupled to this site.  Lanes
  // are disjoint across the masks (one fault per lane), so the order
  // of the blocks is irrelevant.
  auto force = [&](std::size_t s, unsigned lane) {
    lane_assign(data_[s], lane, lane_test(forced1_, lane));
  };
  const W up = now & ~old;
  const W down = old & ~now;

  // CFin: any transition of this (aggressor) site inverts the victim.
  for_each_set_lane(f.cfin & (up | down), [&](unsigned lane) {
    data_[lane_victim_[lane]] ^= lane_bit<W>(lane);
  });

  // CFid: a matching-direction transition forces the victim.
  for_each_set_lane((f.cfid_up & up) | (f.cfid_down & down),
                    [&](unsigned lane) { force(lane_victim_[lane], lane); });

  // CFst, this site as aggressor: the condition is state-based, so it
  // is re-evaluated against the landed value on every write (matching
  // FaultyRam's enforce_conditions after each physical_write).
  for_each_set_lane(f.cfst_agg & ~(now ^ cfst_state1_),
                    [&](unsigned lane) { force(lane_victim_[lane], lane); });

  // CFst, this site as victim: a write under a holding condition is
  // forced straight back.
  for_each_set_lane(f.cfst_vic, [&](unsigned lane) {
    if (lane_test(data_[lane_aggressor_[lane]], lane) ==
        lane_test(cfst_state1_, lane)) {
      force(site, lane);
    }
  });

  // Bridge: tie both endpoints to the wired-AND/OR of their bits.
  for_each_set_lane(f.bridge, [&](unsigned lane) {
    const std::size_t other =
        site == lane_victim_[lane] ? lane_aggressor_[lane] : lane_victim_[lane];
    const bool a = lane_test(data_[site], lane);
    const bool b = lane_test(data_[other], lane);
    const bool tied = lane_test(bridge_or_, lane) ? (a || b) : (a && b);
    lane_assign(data_[site], lane, tied);
    lane_assign(data_[other], lane, tied);
  });
}

template class PackedFaultRamT<LaneWord>;
template class PackedFaultRamT<WideWord<4>>;
template class PackedFaultRamT<WideWord<8>>;

}  // namespace prt::mem
