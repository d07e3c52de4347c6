// Word-packed SIMD fault lanes.
//
// PackedFaultRamT<W> simulates up to LaneTraits<W>::kLanes
// *independent* single-fault faulty memories in one pass: each site
// stores a lane word whose bit lane L is the site's value in lane L's
// memory, and each lane carries exactly one injected fault.  One sweep
// over the array therefore evaluates up to kLanes faults
// simultaneously — the SIMD unit is the ordinary 64-bit ALU for the
// LaneWord instantiation and the vector units for the WideWord<K>
// ones (mem/lane_word.hpp), and every fault effect below is a handful
// of bitwise lane ops.
//
// A "site" is one bit of one cell: a memory of `cells` words of
// `width` bits is stored as cells*width lane words, site = cell*width
// + bit plane.  width == 1 (the classical bit-oriented campaigns) is
// the hot path and keeps the original one-site-per-cell layout; the
// word-oriented (WOM, m > 1) campaigns drive read_word()/write_word(),
// which count one operation per word access exactly like the scalar
// FaultyRam.
//
// Every fault family rides a lane now:
//  * the single-cell kinds (stuck-at, transition, write-disturb, the
//    read-logic kinds) — one victim site per lane;
//  * the two-cell coupling kinds (CFin, CFid, CFst) and bridges — a
//    lane is a whole memory, so an aggressor/victim *pair* fits in one
//    lane;
//  * the decoder faults — one fault per lane means the remap touches
//    exactly one address, a per-lane scatter on that one cell;
//  * static NPSF — each lane carries a 4-cell (N,E,S,W) neighbourhood
//    pattern in the same aggressor/victim metadata shape the coupling
//    lanes use: per-direction masks registered on the neighbour sites
//    plus cached neighbour-value lane words, so one write to any
//    neighbour re-checks the trigger of all lanes with four AND/XOR
//    ops (see apply_npsf);
//  * retention (DRF) — decay is advanced *analytically* from a packed
//    operation clock (reads + writes + advance_time ticks, bit-exact
//    with FaultyRam's clock_): instead of per-access decay scans the
//    lane latches the decayed value into the victim's lane word at the
//    first read after the pause boundary crosses the fault's delay.
//
// With that, the scalar FaultyRam is a *differential reference only*:
// semantics are bit-exact per lane with a FaultyRam holding the same
// single fault (tests/test_packed_campaign.cpp runs the differential
// check), including the injection-time stuck-at clamp, the
// injection-time enforcement of state conditions (CFst, bridge, NPSF)
// and the per-port sense-amp history of SOF (the PRT engines drive
// port 0 only).  Because every lane holds exactly one fault, the
// scalar model's cascade machinery (a victim flip re-triggering other
// faults) degenerates to a single direct effect per lane.
//
// Results are bit-identical per lane across every instantiation: the
// campaign layer picks the width per batch (wide only when the batch
// can fill at least half the lanes) without changing any verdict, op
// count or escape list (analysis/campaign_driver.hpp).
//
// Touched sites.  add_fault records every site a lane's fault can read
// or write (touched_sites()): the faulty sites the slot index lists,
// plus the CFin/CFid victims and the AF wrong/multi alias cells, which
// coupling and decoder effects write without being faulty themselves.
// Every other site only ever holds what was last written to it, in
// every lane.  The sparse March replay (march/march_runner.hpp) visits
// only the cells of touched sites and moves the op counters over the
// skipped accesses with seek(); reset() then clears just those cells
// when no write has landed anywhere else since the last reset.  The
// list lives beside slot_of_site_, so the read()/write() fast path
// below is the same for every replay.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/fault.hpp"
#include "mem/lane_word.hpp"

namespace prt::mem {

/// True when every bit plane `fault` references exists in a
/// `width`-bit word.  The library no longer calls it (the campaign
/// driver runs mem::validate_fault over the whole universe up front);
/// it stays for the perfbench probes, which filter their sample
/// batches with it.
[[nodiscard]] bool lane_compatible(const Fault& fault, unsigned width = 1);

template <typename W>
class PackedFaultRamT {
 public:
  using Word = W;
  static constexpr unsigned kLanes = LaneTraits<W>::kLanes;
  static constexpr unsigned kMaxWidth = 32;
  // A decoder lane registers one faulty site per bit plane (every other
  // lane at most five), so a full batch can have kLanes * kMaxWidth
  // faulty sites; slot_of_site_ indexes them as int16_t and must not
  // overflow when the lane word grows.  Each FamilyTable checks its
  // own record index the same way.
  static_assert(kLanes * kMaxWidth <= INT16_MAX,
                "slot_of_site_ (int16_t) cannot index every faulty site");

  /// A packed array of `cells` `width`-bit cells, all lanes
  /// zero-filled, no faults.  Throws std::invalid_argument when cells
  /// < 1 or width is outside [1, 32].
  explicit PackedFaultRamT(Addr cells, unsigned width = 1);

  [[nodiscard]] Addr size() const { return size_; }
  [[nodiscard]] unsigned width() const { return width_; }
  [[nodiscard]] unsigned lanes_used() const { return lanes_used_; }
  /// Mask with one bit set per occupied lane (low lanes_used() bits).
  [[nodiscard]] W active_mask() const { return lane_mask_low<W>(lanes_used_); }

  /// Returns to the just-constructed state (all lanes zero, no faults,
  /// counters zero) without releasing storage.  Only the touched sites
  /// pay a per-site cost.  The data array is one memset, skipped when
  /// every write since the last reset landed on a touched site's cell
  /// (a run of the sparse March replay, or no write at all), because
  /// every other cell still holds zero then.
  void reset();

  /// Assigns `fault` to the next free lane and returns its index.
  /// State conditions (CFst, bridge, NPSF) are enforced against the
  /// lane's current contents immediately and a retention victim's
  /// charge is stamped with the current clock, matching
  /// FaultyRam::inject.  A fault that is inert in FaultyRam — an NPSF
  /// fault whose neighbourhood is incomplete (no grid, border victim,
  /// pattern > 15), a CFst whose trigger state is outside {0, 1} —
  /// still consumes a lane but registers no effect, so the lane simply
  /// never mismatches.  Throws std::invalid_argument on a malformed
  /// fault (mem::validate_fault: the same check and messages as
  /// FaultyRam::inject); std::length_error when all kLanes lanes are
  /// taken.  The sense-amp
  /// history is only kept while a lane holds a stuck-open (SOF) fault,
  /// so add SOF faults before the first read (the campaign loops add
  /// every fault right after reset()).
  unsigned add_fault(const Fault& fault);

  /// Reads every lane's bit of cell `addr` at once, applying each
  /// lane's retention decay and read-logic fault.  Preconditions:
  /// addr < size(), width() == 1 (word-oriented memories use
  /// read_word()).  Defined inline below: the campaign replay loops
  /// issue millions of these per batch, so the fault-free-cell fast
  /// path must inline into them.
  W read(Addr addr);

  /// Writes bit lane L of `value` to cell `addr` in lane L's memory,
  /// applying each lane's write fault and firing each lane's coupling
  /// and NPSF effects (this cell as aggressor, victim, bridge endpoint
  /// or neighbourhood member).  Preconditions: addr < size(), width()
  /// == 1.  Defined inline below, like read().
  void write(Addr addr, W value);

  /// Reads all width() planes of `cell` into out[0..width()), counting
  /// one operation (one clock tick) for the whole word — the packed
  /// equivalent of one FaultyRam::read of a word-oriented memory.
  void read_word(Addr cell, W* out);

  /// Writes planes[0..width()) to `cell`, counting one operation.
  /// Mirrors FaultyRam::physical_write's two phases: every plane lands
  /// first (TF/WDF/SAF per site), then coupling fires per plane in
  /// ascending order and static conditions (CFst, bridge, NPSF) are
  /// re-enforced — so intra-word aggressor transitions see their
  /// victims' new values.
  void write_word(Addr cell, const W* planes);

  /// Idle time (March delay elements, PRT pause checkpoints): advances
  /// the packed operation clock so retention lanes decay analytically
  /// at the next access, exactly like FaultyRam::advance_time.
  void advance_time(std::uint64_t ticks) { idle_ticks_ += ticks; }

  /// Operation clock shared by all lanes: one tick per packed
  /// read/write (word or bit) plus the advance_time() idle ticks —
  /// bit-exact with FaultyRam's clock_, which also ticks once per
  /// access regardless of width.
  [[nodiscard]] std::uint64_t clock() const {
    return reads_ + writes_ + idle_ticks_;
  }

  /// Packed operations issued since the last reset().  Each packed
  /// read/write counts once; a scalar campaign issues the same count
  /// *per fault*, so the per-fault op cost is reads() + writes().
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t ops() const { return reads_ + writes_; }

  /// Direct state access for tests (bypasses faults and counters).
  /// `site` = cell * width() + bit plane.
  [[nodiscard]] W peek(Addr site) const { return data_[site]; }

  /// Every site a lane's fault can read or write, in registration
  /// order, possibly repeated (see the header comment).  A site not
  /// listed behaves as a plain memory bit in every lane.
  [[nodiscard]] std::span<const std::size_t> touched_sites() const {
    return touched_sites_;
  }

  /// Sets the op counters to a replay position: `reads` reads and
  /// `writes` writes issued so far, as if the accesses the caller
  /// skipped had been issued.  clock() and so the retention decay
  /// follow.  Only for a replay that, since reset(), has issued
  /// accesses to the cells of touched sites alone and skips accesses
  /// that cannot change any touched site (the sparse March replay): it
  /// also records that every other cell still holds zero, which lets
  /// reset() skip the memset.
  void seek(std::uint64_t reads, std::uint64_t writes) {
    reads_ = reads;
    writes_ = writes;
    clean_writes_ = writes;
  }

  /// Sets the port-0 sense-amp history to the data word `data` in
  /// every lane, as if the last read had returned it — what a
  /// stuck-open lane echoes at its next read.  For a replay that
  /// skipped that read.
  void set_last_read(std::uint32_t data) {
    if (!has_sof_) return;
    for (unsigned p = 0; p < width_; ++p) {
      last_read_[p] = lane_broadcast<W>((data >> p) & 1U);
    }
  }

 private:
  // Per-family lane masks for one faulty site.  Each fault family keeps
  // its own compact records (FamilyTable), so a faulty site pays only
  // for the families registered on it and a kind-uniform batch touches
  // one small table.  A lane's bit is set in the masks of at most the
  // few sites its single fault references (two for coupling, five for
  // NPSF, one per bit plane for the decoder).

  /// Single-cell write kinds, registered on the victim site.
  struct WriteFaults {
    W saf0{}, saf1{};
    W tf_up{}, tf_down{}, wdf{};
  };
  /// Read-logic kinds, registered on the victim site.
  struct ReadFaults {
    W rdf{}, drdf{}, irf{}, sof{};
  };
  /// Two-cell kinds.  cfin/cfid_*/cfst_agg are registered on the
  /// *aggressor* site, cfst_vic on the *victim* site (its writes must
  /// re-enforce the condition), bridge on *both* endpoints.
  struct CouplingFaults {
    W cfin{};
    W cfid_up{}, cfid_down{};
    W cfst_agg{}, cfst_vic{};
    W bridge{};
  };
  /// Decoder kinds, registered on every site of the *faulty address*
  /// (accesses to any other address behave normally — one fault per
  /// lane).  The wrong/multi alias cell lives in lane_victim_.
  struct DecoderFaults {
    W no{};     // address opens no cell: reads 0, writes lost
    W wrong{};  // address opens the alias cell instead
    W multi{};  // address opens its own cell and the alias
  };
  /// NPSF neighbourhood membership: n marks lanes for which this site
  /// is the *north* neighbour (and so on for e/s/w), vic lanes for
  /// which it is the base (victim) site.  Together they are the packed
  /// analogue of FaultyRam's `touched` test — a write to any site in
  /// the 5-cell neighbourhood re-checks the trigger.
  struct NpsfFaults {
    W n{}, e{}, s{}, w{};
    W vic{};

    [[nodiscard]] W any() const { return n | e | s | w | vic; }
  };

  /// A family's position in SiteSlots.
  enum Family : unsigned {
    kWrite,
    kRead,
    kCoupling,
    kDecoder,
    kRetention,
    kNpsf,
    kFamilies
  };

  /// A faulty site's record index in each family's table, -1 where the
  /// family registered nothing on the site.
  using SiteSlots = std::array<std::int16_t, kFamilies>;

  /// One family's records.  kMaxSlots is the most records one batch
  /// can register in the family, all of which the int16_t index in
  /// SiteSlots must reach.  reset() keeps the capacity.
  template <typename Rec, Family kFamily, std::size_t kMaxSlots>
  class FamilyTable {
    static_assert(kMaxSlots <= INT16_MAX,
                  "FamilyTable's int16_t index cannot reach every record");

   public:
    /// The family's record on a faulty site, null when it has none.
    [[nodiscard]] const Rec* find(const SiteSlots& site) const {
      const std::int16_t i = site[kFamily];
      return i < 0 ? nullptr : &recs_[static_cast<std::size_t>(i)];
    }

    /// The family's record on a faulty site, created zeroed.
    Rec& slot(SiteSlots& site) {
      if (site[kFamily] < 0) {
        assert(recs_.size() < kMaxSlots);
        site[kFamily] = static_cast<std::int16_t>(recs_.size());
        recs_.emplace_back();
      }
      return recs_[static_cast<std::size_t>(site[kFamily])];
    }

    void clear() { recs_.clear(); }

   private:
    std::vector<Rec> recs_;
  };

  [[nodiscard]] std::size_t site_of(Addr cell, unsigned plane) const {
    return static_cast<std::size_t>(cell) * width_ + plane;
  }

  /// Creates or returns `table`'s record on `site`, registering the
  /// site as faulty (and touched) first if it is not yet.
  template <typename Table>
  auto& slot(Table& table, std::size_t site) {
    if (slot_of_site_[site] < 0) {
      slot_of_site_[site] = static_cast<std::int16_t>(site_slots_.size());
      site_slots_.emplace_back();
      site_slots_.back().fill(-1);
      touched_sites_.push_back(site);
    }
    return table.slot(
        site_slots_[static_cast<std::size_t>(slot_of_site_[site])]);
  }

  /// Lands a write of `value` on faulty site `site` (slots `s`) through
  /// the write-kind and decoder records and refreshes its retention
  /// charges; returns the landed value.  The two-cell and NPSF effects
  /// are the caller's (write() fires them at once, write_word() after
  /// every plane has landed).
  W land(std::size_t site, const SiteSlots& s, const W& value,
         unsigned plane);

  /// Fires the two-cell effects of a write to site `site` that landed
  /// `now` over `old` (per-lane scatter over the few coupled lanes).
  void apply_coupling(std::size_t site, const W& old, const W& now,
                      const CouplingFaults& f);

  /// Re-checks the NPSF trigger after a write touched site `site`:
  /// refreshes the cached neighbour-value lane words from the site's
  /// new contents, matches all lanes' patterns bit-parallel (four
  /// XOR/OR ops across the direction caches) and forces the victims of
  /// the matching lanes registered on this site.
  void apply_npsf(std::size_t site, const NpsfFaults& f);

  /// Latches the decayed value into the victim site's lane word for
  /// every retention lane in `m` whose charge has expired on the
  /// packed clock (read path; the charge stamp itself is untouched,
  /// matching FaultyRam::apply_retention's idempotent re-force).
  void apply_retention(std::size_t site, const W& m);

  /// A write to a retention victim's cell refreshes its charge.
  void refresh_retention(const W& m);

  /// Patches a read of plane `plane` for the decoder lanes registered
  /// on it: wrong-access lanes read their alias cell, multi-access
  /// lanes read the wired-AND of both opened cells.
  [[nodiscard]] W apply_af_read(W value, const DecoderFaults& f,
                                unsigned plane);

  /// Lands a write of `value` in plane `plane` of the alias cells of
  /// the wrong/multi decoder lanes registered on the addressed site
  /// (the write to the addressed site itself was already suppressed
  /// for wrong-access lanes by the caller).
  void apply_af_write(const W& value, const DecoderFaults& f,
                      unsigned plane);

  /// One plane's read (the part read() and read_word() share): one
  /// index load for a fault-free site, read_faulty() otherwise.
  W read_site(std::size_t site, unsigned plane);

  /// A read of faulty site `site` (slots `s`) through its retention,
  /// read-logic and decoder records.
  W read_faulty(std::size_t site, const SiteSlots& s, unsigned plane);

  Addr size_;
  unsigned width_;
  std::vector<W> data_;
  /// Site -> index into site_slots_, -1 for fault-free sites — the hot
  /// path pays one index load and branch per access, and only faulty
  /// sites look up their families' records.
  std::vector<std::int16_t> slot_of_site_;
  std::vector<SiteSlots> site_slots_;
  /// Every faulty site (each listed once, as slot() registers it) plus
  /// the non-faulty sites coupling and decoder effects write.
  std::vector<std::size_t> touched_sites_;
  FamilyTable<WriteFaults, kWrite, kLanes> write_faults_;
  FamilyTable<ReadFaults, kRead, kLanes> read_faults_;
  FamilyTable<CouplingFaults, kCoupling, 2 * kLanes> coupling_faults_;
  FamilyTable<DecoderFaults, kDecoder, kLanes * kMaxWidth> decoder_faults_;
  /// Retention lanes per victim site.
  FamilyTable<W, kRetention, kLanes> retention_faults_;
  FamilyTable<NpsfFaults, kNpsf, 5 * kLanes> npsf_faults_;
  /// Per-lane second-site metadata, only read for lanes registered in
  /// a coupling/bridge/decoder/NPSF mask.  Coupling, bridge and NPSF
  /// lanes store the victim *site*; the AF kinds store the alias
  /// *cell* (the plane comes from the access).
  std::array<std::size_t, kLanes> lane_victim_{};
  std::array<std::size_t, kLanes> lane_aggressor_{};
  /// Lanes whose CFid/CFst forces the victim to 1 (clear = forces 0).
  W forced1_{};
  /// CFst lanes triggered while the aggressor holds 1 (clear = 0).
  W cfst_state1_{};
  /// Bridge lanes with wired-OR semantics (clear = wired-AND).
  W bridge_or_{};
  /// Non-inert NPSF lanes and their trigger machinery: npat_[d] bit L
  /// is the pattern value lane L requires of its direction-d
  /// neighbour, nval_[d] bit L is that neighbour's *current* value
  /// (kept coherent by apply_npsf — only packed writes can change an
  /// NPSF lane's neighbour bits, because the lane holds no other
  /// fault).  Directions are indexed N=0, E=1, S=2, W=3.
  W npsf_lanes_{};
  std::array<W, 4> npat_{};
  std::array<W, 4> nval_{};
  /// NPSF lanes forcing their victim to 1 (clear = forces 0).
  W npsf_forced1_{};
  /// Retention lanes decaying to 1 (clear = decays to 0), plus the
  /// per-lane charge stamp and decay delay in clock ticks.
  W drf_decay1_{};
  std::array<std::uint64_t, kLanes> drf_refreshed_{};
  std::array<std::uint64_t, kLanes> drf_delay_{};
  unsigned lanes_used_ = 0;
  /// True once any lane holds a stuck-open fault — only those lanes
  /// read the sense-amp history back, so batches without one skip the
  /// per-read store into last_read_.
  bool has_sof_ = false;
  /// Packed sense-amp history (port 0), one word per bit plane — the
  /// lane analogue of FaultyRam's per-port last_read_ word.  Only
  /// maintained while has_sof_.
  std::array<W, kMaxWidth> last_read_{};
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t idle_ticks_ = 0;
  /// writes_ as of the last reset() or seek(): while writes_ still
  /// equals it, every write since the reset landed on the cell of a
  /// touched site.
  std::uint64_t clean_writes_ = 0;
};

/// The status-quo 64-lane instantiation — the name the whole campaign
/// layer and test suite grew up on.
using PackedFaultRam = PackedFaultRamT<LaneWord>;

template <typename W>
inline W PackedFaultRamT<W>::read_site(std::size_t site, unsigned plane) {
  const std::int16_t slot = slot_of_site_[site];
  if (slot < 0) return data_[site];
  return read_faulty(site, site_slots_[static_cast<std::size_t>(slot)],
                     plane);
}

template <typename W>
inline W PackedFaultRamT<W>::read_faulty(std::size_t site, const SiteSlots& s,
                                         unsigned plane) {
  // DRF: expired charges latch their decayed value before the sense
  // amp looks (FaultyRam::physical_read applies retention first).
  if (const W* drf = retention_faults_.find(s)) apply_retention(site, *drf);
  W value = data_[site];
  if (const ReadFaults* f = read_faults_.find(s)) {
    // RDF: the cell flips and the sense amp sees the flipped value.
    value ^= f->rdf;
    // DRDF: the correct value is returned, the cell flips behind the
    // reader's back.
    data_[site] = value ^ f->drdf;
    // IRF: inverted data on the bus, cell untouched.
    value ^= f->irf;
    // SOF: the open cell echoes the sense amp's previous read.
    value = (value & ~f->sof) | (last_read_[plane] & f->sof);
  }
  if (const DecoderFaults* f = decoder_faults_.find(s)) {
    // Decoder lanes: a no-access read floats the bus (reads zeros), a
    // wrong/multi access reads the alias cell (wired-AND for multi).
    // Pure bus-level patches — the addressed cell keeps its state.
    value &= ~f->no;
    if (lane_any(f->wrong | f->multi)) {
      value = apply_af_read(value, *f, plane);
    }
  }
  // Coupling/NPSF lanes are untouched by reads: their lane has no
  // read-logic fault, and a read never changes the bits a condition
  // watches (FaultyRam likewise only enforces conditions on writes).
  return value;
}

template <typename W>
inline W PackedFaultRamT<W>::land(std::size_t site, const SiteSlots& s,
                                  const W& value, unsigned plane) {
  const W old = data_[site];
  W nb = value;
  // A lane holds exactly one fault, so the per-kind masks are
  // lane-disjoint and the sequential updates below never interact
  // across kinds.
  if (const WriteFaults* f = write_faults_.find(s)) {
    nb ^= f->wdf & ~(old ^ nb);  // WDF: non-transition write disturbs
    nb &= ~(f->tf_up & ~old);    // TF up: 0 -> 1 writes fail
    nb |= f->tf_down & old;      // TF down: 1 -> 0 writes fail
    nb = (nb & ~f->saf0) | f->saf1;
  }
  const DecoderFaults* af = decoder_faults_.find(s);
  if (af != nullptr) {
    // Decoder lanes: a no-access or wrong-access write never reaches
    // the addressed cell; wrong/multi lanes land the raw value in
    // their alias cell instead (no other fault lives in those lanes).
    const W suppressed = af->no | af->wrong;
    nb = (nb & ~suppressed) | (old & suppressed);
  }
  data_[site] = nb;
  if (af != nullptr && lane_any(af->wrong | af->multi)) {
    apply_af_write(value, *af, plane);
  }
  // A write refreshes the charge of every retention victim in the cell
  // (FaultyRam stamps refreshed_at_ right after the word lands).
  if (const W* drf = retention_faults_.find(s)) refresh_retention(*drf);
  return nb;
}

template <typename W>
inline W PackedFaultRamT<W>::read(Addr addr) {
  assert(addr < size_);
  assert(width_ == 1);
  ++reads_;
  const W value = read_site(addr, 0);
  if (has_sof_) last_read_[0] = value;
  return value;
}

template <typename W>
inline void PackedFaultRamT<W>::write(Addr addr, W value) {
  assert(addr < size_);
  assert(width_ == 1);
  ++writes_;
  const std::int16_t slot = slot_of_site_[addr];
  if (slot < 0) {
    data_[addr] = value;
    return;
  }
  const SiteSlots& s = site_slots_[static_cast<std::size_t>(slot)];
  const W old = data_[addr];
  const W now = land(addr, s, value, 0);
  if (const CouplingFaults* f = coupling_faults_.find(s)) {
    apply_coupling(addr, old, now, *f);
  }
  // NPSF is re-checked on every write to a neighbourhood site, even a
  // non-transition one (FaultyRam enforces conditions after every
  // physical_write).
  if (const NpsfFaults* f = npsf_faults_.find(s)) apply_npsf(addr, *f);
}

// The packed member definitions live in packed_fault_ram.cpp with
// explicit instantiations for the supported lane words; only the
// per-access hot path above is inline.  These declarations must follow
// the inline definitions: before them, GCC treats the hot path's body
// as unavailable and calls it out of line from every replay loop.
extern template class PackedFaultRamT<LaneWord>;
extern template class PackedFaultRamT<WideWord<4>>;
extern template class PackedFaultRamT<WideWord<8>>;

}  // namespace prt::mem
