#include "analysis/campaign_service.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/campaign_driver.hpp"
#include "analysis/oracle_cache.hpp"
#include "march/march_test.hpp"
#include "util/annotations.hpp"
#include "util/crc32.hpp"
#include "util/durable_write.hpp"
#include "util/fail_point.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace prt::analysis {

namespace {

// --- fingerprint ----------------------------------------------------
// FNV-1a over everything that determines a campaign's result: workload
// structure (scheme/test fingerprint), geometry, run options and the
// full universe.  A checkpoint is only ever merged into a request with
// the same fingerprint — resuming against a renamed-but-identical
// workload works, resuming against different faults cannot.

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

std::string request_fingerprint(const CampaignRequest& req) {
  Fnv1a f;
  if (req.scheme) {
    f.mix(std::string("prt"));
    f.mix(core::scheme_fingerprint(*req.scheme));
  } else {
    f.mix(std::string("march"));
    f.mix(march::test_fingerprint(*req.march_test));
  }
  f.mix(req.options.n);
  f.mix(req.options.m);
  f.mix(req.options.ports);
  // Requests once carried a packing switch here (always 1 by default);
  // the constant keeps the fingerprints of existing checkpoints.
  f.mix(1);
  f.mix(req.early_abort ? 1 : 0);
  f.mix(req.universe.size());
  for (const mem::Fault& fault : req.universe) {
    f.mix(static_cast<std::uint64_t>(fault.kind));
    f.mix(fault.victim.cell);
    f.mix(fault.victim.bit);
    f.mix(fault.aggressor.cell);
    f.mix(fault.aggressor.bit);
    f.mix(fault.state);
    f.mix(fault.alias);
    f.mix(fault.pattern);
    f.mix(fault.grid_cols);
    f.mix(fault.delay);
  }
  std::ostringstream hex;
  hex << std::hex << f.h;
  return hex.str();
}

// --- checkpoint file (format v2) ------------------------------------
// Plain text, integers only — parse(serialize(x)) is exact, which the
// resumed-equals-uninterrupted bit-identity guarantee rests on.  Every
// line after the version header carries its own CRC-32 so the loader
// can salvage the longest valid prefix of a torn or corrupted file
// (DESIGN.md §13):
//
//   prt-campaign-checkpoint v2
//   meta <crc32hex> fingerprint <fp> shards <total>
//   rec <crc32hex> shard <idx> ops <n> overall <d> <t> classes ...
//
// Each <crc32hex> is 8 lowercase hex digits over the rest of its line
// (the payload after "<crc32hex> ").  Replaced durably and atomically
// (util::durable_replace_file), so a *clean* crash leaves the previous
// checkpoint; the CRCs cover everything else (torn tails from
// power-loss on non-atomic media, bit rot, truncation in transit).

constexpr char kCheckpointHeader[] = "prt-campaign-checkpoint v2";

/// Loader guard against absurd (CRC-valid but foreign/crafted) shard
/// counts; real partitions are bounded by the universe size, which is
/// re-validated against the fingerprint after loading.
constexpr std::size_t kMaxCheckpointShards = std::size_t{1} << 24;

struct CheckpointShard {
  std::size_t index = 0;
  CampaignResult result;
};

struct Checkpoint {
  std::string fingerprint;
  std::size_t shards_total = 0;
  std::vector<CheckpointShard> shards;
};

std::string crc_hex(std::uint32_t crc) {
  std::ostringstream hex;
  hex << std::hex << std::setw(8) << std::setfill('0') << crc;
  return hex.str();
}

std::string shard_record_payload(const CheckpointShard& s) {
  std::ostringstream out;
  out << "shard " << s.index << " ops " << s.result.ops << " overall "
      << s.result.overall.detected << " " << s.result.overall.total
      << " classes " << s.result.by_class.size();
  for (const auto& [cls, cov] : s.result.by_class) {
    out << " " << static_cast<unsigned>(cls) << " " << cov.detected << " "
        << cov.total;
  }
  out << " escapes " << s.result.escapes.size();
  for (const std::size_t e : s.result.escapes) out << " " << e;
  out << " dispatch " << s.result.packed_faults << " "
      << s.result.scalar_faults;
  return out.str();
}

std::string serialize_checkpoint(const Checkpoint& cp) {
  std::ostringstream out;
  out << kCheckpointHeader << "\n";
  const std::string meta = "fingerprint " + cp.fingerprint + " shards " +
                           std::to_string(cp.shards_total);
  out << "meta " << crc_hex(util::crc32(meta)) << " " << meta << "\n";
  for (const CheckpointShard& s : cp.shards) {
    const std::string payload = shard_record_payload(s);
    out << "rec " << crc_hex(util::crc32(payload)) << " " << payload << "\n";
  }
  return out.str();
}

/// Validates "<tag> <crc32hex> <payload>" and returns the payload; any
/// structural or checksum mismatch is nullopt (the caller decides
/// whether that salvages or fails).
std::optional<std::string> checked_payload(const std::string& line,
                                           const std::string& tag) {
  const std::string prefix = tag + " ";
  if (line.rfind(prefix, 0) != 0) return std::nullopt;
  if (line.size() < prefix.size() + 10) return std::nullopt;
  if (line[prefix.size() + 8] != ' ') return std::nullopt;
  std::uint32_t want = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    const char c = line[i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    want = (want << 4) | digit;
  }
  std::string payload = line.substr(prefix.size() + 9);
  if (util::crc32(payload) != want) return std::nullopt;
  return payload;
}

/// Parses one CRC-verified record payload.  Returns false on any
/// malformation (wrong keyword, truncation, trailing junk) — the CRC
/// makes this unreachable for records we wrote, but the loader treats
/// parse failure exactly like a checksum failure: end of the valid
/// prefix.
bool parse_shard_record(const std::string& payload, CheckpointShard& s) {
  std::istringstream in(payload);
  std::string word;
  if (!(in >> word) || word != "shard") return false;
  if (!(in >> s.index)) return false;
  if (!(in >> word) || word != "ops") return false;
  if (!(in >> s.result.ops)) return false;
  if (!(in >> word) || word != "overall") return false;
  if (!(in >> s.result.overall.detected >> s.result.overall.total)) {
    return false;
  }
  if (!(in >> word) || word != "classes") return false;
  std::size_t classes = 0;
  if (!(in >> classes) || classes > 64) return false;
  for (std::size_t c = 0; c < classes; ++c) {
    unsigned cls = 0;
    ClassCoverage cov;
    if (!(in >> cls >> cov.detected >> cov.total)) return false;
    if (cls > static_cast<unsigned>(mem::FaultClass::kRetention)) return false;
    if (!s.result.by_class.emplace(static_cast<mem::FaultClass>(cls), cov)
             .second) {
      return false;  // duplicate class id
    }
  }
  if (!(in >> word) || word != "escapes") return false;
  std::size_t escapes = 0;
  if (!(in >> escapes)) return false;
  for (std::size_t e = 0; e < escapes; ++e) {
    std::size_t idx = 0;
    if (!(in >> idx)) return false;
    s.result.escapes.push_back(idx);
  }
  // Dispatch tallies; absent in records written before the tallies
  // existed, which resume as 0/0 (telemetry only, never verdicts).
  if (in >> word) {
    if (word != "dispatch") return false;
    if (!(in >> s.result.packed_faults >> s.result.scalar_faults)) {
      return false;
    }
    if (in >> word) return false;  // trailing junk
  }
  return true;
}

/// True when a parsed record can be the result of shard [begin, end)
/// of `universe`: the per-class and overall tallies are exactly those
/// the range's fault classes and the record's escapes imply, and the
/// escapes ascend strictly inside the range.  The CRC only proves a
/// record is the one that was written; this proves it fits the shard
/// it claims, so a hand-edited record with a recomputed CRC is
/// recomputed instead of merged.  (ops cannot be re-derived without
/// running the shard and stays trusted.)
bool shard_record_consistent(const CampaignResult& r,
                             std::span<const mem::Fault> universe,
                             std::size_t begin, std::size_t end) {
  std::map<mem::FaultClass, ClassCoverage> by_class;
  for (std::size_t i = begin; i < end; ++i) {
    ClassCoverage& cls = by_class[mem::fault_class(universe[i].kind)];
    ++cls.total;
    ++cls.detected;
  }
  for (std::size_t k = 0; k < r.escapes.size(); ++k) {
    const std::size_t e = r.escapes[k];
    if (e < begin || e >= end || (k > 0 && e <= r.escapes[k - 1])) {
      return false;
    }
    --by_class[mem::fault_class(universe[e].kind)].detected;
  }
  const std::uint64_t total = end - begin;
  const ClassCoverage overall{.detected = total - r.escapes.size(),
                              .total = total};
  const std::uint64_t dispatched = r.packed_faults + r.scalar_faults;
  return r.overall == overall && r.by_class == by_class &&
         (dispatched == total || dispatched == 0);
}

/// Result of reading a checkpoint file for resume.
struct CheckpointLoad {
  /// The adopted checkpoint; nullopt = start fresh (file missing, or
  /// nothing before the records was usable).
  std::optional<Checkpoint> checkpoint;
  /// Corruption was detected and the valid prefix (possibly empty)
  /// was kept.  False for a missing file — that is a fresh run, not a
  /// salvage.
  bool salvaged = false;
  /// Record lines discarded at the corrupt tail.
  std::size_t records_dropped = 0;
};

/// Loads a v2 checkpoint, salvaging the longest valid prefix.
/// Decision table:
///   missing file                          -> fresh run
///   bad/old version header, bad meta CRC  -> fresh run, salvaged
///   record k fails CRC/parse/consistency  -> records [0, k), salvaged
/// Only the *caller* can hard-fail (fingerprint mismatch) — by the
/// time integrity is established, every remaining mismatch means "a
/// different campaign", never "corruption".
CheckpointLoad load_checkpoint(const std::string& path) {
  CheckpointLoad out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::string header;
  if (!std::getline(in, header) || header != kCheckpointHeader) {
    out.salvaged = true;
    return out;
  }
  std::string meta_line;
  std::optional<std::string> meta;
  if (std::getline(in, meta_line)) meta = checked_payload(meta_line, "meta");
  if (!meta) {
    out.salvaged = true;
    return out;
  }
  Checkpoint cp;
  {
    std::istringstream m(*meta);
    std::string word;
    std::string trailing;
    if (!(m >> word) || word != "fingerprint" || !(m >> cp.fingerprint) ||
        !(m >> word) || word != "shards" || !(m >> cp.shards_total) ||
        (m >> trailing) || cp.shards_total < 1 ||
        cp.shards_total > kMaxCheckpointShards) {
      out.salvaged = true;
      return out;
    }
  }
  std::vector<unsigned char> seen(cp.shards_total, 0);
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<std::string> payload = checked_payload(line, "rec");
    CheckpointShard s;
    const bool ok = payload && parse_shard_record(*payload, s) &&
                    s.index < cp.shards_total && seen[s.index] == 0;
    if (!ok) {
      // End of the valid prefix: count this line and everything after
      // it as dropped, keep what verified.
      out.salvaged = true;
      ++out.records_dropped;
      while (std::getline(in, line)) ++out.records_dropped;
      break;
    }
    seen[s.index] = 1;
    cp.shards.push_back(std::move(s));
  }
  out.checkpoint = std::move(cp);
  return out;
}

/// Durable atomic replace: write `path + ".tmp"`, fsync it, rename it
/// over `path`, fsync the directory (util::durable_replace_file) — a
/// crash at any point leaves either the previous checkpoint or the new
/// one, fully persisted, never a torn or lost file.  The
/// "campaign_service.checkpoint" fail point sits in front so tests can
/// fail writes without touching the filesystem; its kPartialWrite
/// action *does* touch it, replacing the file with a truncated image
/// before failing — the deterministic stand-in for a torn tail on
/// media where the atomic-replace guarantees do not hold.
void write_checkpoint_file(const std::string& path, const std::string& text) {
  if (const std::optional<util::FailPoint::Config> fired =
          util::FailPoint::poll("campaign_service.checkpoint")) {
    switch (fired->action) {
      case util::FailPoint::Action::kThrow:
        throw util::FailPointError(
            "fail point 'campaign_service.checkpoint' fired");
      case util::FailPoint::Action::kDelay:
        std::this_thread::sleep_for(fired->delay);
        break;
      case util::FailPoint::Action::kPartialWrite:
        util::durable_replace_file(path, text.substr(0, fired->bytes));
        throw util::FailPointError(
            "fail point 'campaign_service.checkpoint' fired (partial write "
            "of " +
            std::to_string(fired->bytes) + " bytes)");
    }
  }
  util::durable_replace_file(path, text);
}

std::string format_ms(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << seconds * 1e3 << " ms";
  return out.str();
}

}  // namespace

std::string to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kComplete:
      return "complete";
    case RequestStatus::kPartialCancelled:
      return "partial (cancelled)";
    case RequestStatus::kPartialDeadline:
      return "partial (deadline)";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kShedded:
      return "shedded";
  }
  return "unknown";
}

std::string to_string(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kHigh:
      return "high";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kBatch:
      return "batch";
  }
  return "unknown";
}

// --- request state --------------------------------------------------

namespace detail {

/// Shared state of one request, owned jointly by the caller's Ticket,
/// the admission queue and every pool task working the request.  `mu`
/// guards all mutable fields.
struct ServiceRequest {
  // Invariant (publication, invisible to thread-safety analysis): the
  // setup fields come in two waves, each written before the state is
  // shared with anyone who reads them.  `req` and `deadline_at` are
  // written on the submitting thread before the request enters the
  // admission queue (queue push and every later read happen under the
  // service's `mu`, or on pool tasks that happen-after the push).
  // `run_shard`, `fingerprint` and `ranges` are written under `mu` by
  // orchestrate() before it submits any shard task and never again;
  // shard tasks read them without the lock, synchronized by the pool's
  // queue mutex (submit() happens-after the writes, task execution
  // happens-after submit()).  Guarding the reads would put the
  // type-erased run_shard call itself under `mu`, serializing every
  // shard.  `stop` is its own synchronization (atomics).
  CampaignRequest req;
  util::StopSource stop;
  /// Absolute deadline (steady clock) fixed at admission; only
  /// meaningful when req.deadline > 0.  The load-shedder compares the
  /// remaining budget against the cost estimate at dispatch.
  std::chrono::steady_clock::time_point deadline_at{};
  std::function<bool(std::span<const mem::Fault>, std::size_t, std::size_t,
                     CampaignResult&, const util::StopToken&)>
      run_shard;
  std::string fingerprint;
  /// The shard partition: contiguous ascending [begin, end) ranges.
  /// Fixed at orchestration (or adopted from the checkpoint) — the
  /// merge over it is what makes resume bit-identical.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;

  util::Mutex mu;
  util::CondVar cv;
  bool finished PRT_GUARDED_BY(mu) = false;
  RequestOutcome outcome PRT_GUARDED_BY(mu);
  std::vector<CampaignResult> results PRT_GUARDED_BY(mu);
  std::vector<unsigned char> done PRT_GUARDED_BY(mu);
  std::vector<int> attempts PRT_GUARDED_BY(mu);
  std::size_t outstanding PRT_GUARDED_BY(mu) = 0;
  std::size_t done_count PRT_GUARDED_BY(mu) = 0;
  std::size_t resumed_count PRT_GUARDED_BY(mu) = 0;
  std::size_t since_checkpoint PRT_GUARDED_BY(mu) = 0;
  bool failed PRT_GUARDED_BY(mu) = false;
  std::string error PRT_GUARDED_BY(mu);
};

}  // namespace detail

// --- ticket ---------------------------------------------------------

CampaignService::Ticket::Ticket(std::shared_ptr<detail::ServiceRequest> request)
    : request_(std::move(request)) {}

const RequestOutcome& CampaignService::Ticket::wait() const& {
  if (!request_) throw std::logic_error("wait() on a default Ticket");
  util::MutexLock lock(request_->mu);
  while (!request_->finished) request_->cv.wait(lock);
  // `outcome` is written once, before `finished` latches; handing the
  // reference out past the lock is safe because no writer runs again.
  return request_->outcome;
}

RequestOutcome CampaignService::Ticket::wait() && {
  // The outcome lives inside the request the ticket owns, so a
  // temporary ticket (`service.submit(...).wait()`) must hand the
  // outcome out by value — a reference would dangle the moment the
  // temporary is destroyed at the end of the full expression.
  return static_cast<const Ticket&>(*this).wait();
}

bool CampaignService::Ticket::done() const {
  if (!request_) return true;
  util::MutexLock lock(request_->mu);
  return request_->finished;
}

void CampaignService::Ticket::cancel() const {
  if (request_) request_->stop.request_stop();
}

// --- service --------------------------------------------------------

struct CampaignService::Impl {
  using Request = detail::ServiceRequest;

  static constexpr std::size_t kClasses = 3;
  /// EWMA weight of the newest shard-latency observation.
  static constexpr double kEwmaAlpha = 0.2;

  ServiceOptions options;
  util::ThreadPool pool;
  util::Watchdog watchdog;

  util::Mutex mu;
  util::CondVar all_done;
  /// Admission queues, one per RequestPriority, drained in class
  /// order then FIFO by dispatch_locked().
  std::array<std::deque<std::shared_ptr<Request>>, kClasses> queues
      PRT_GUARDED_BY(mu);
  /// Requests dispatched (orchestrating or running shards) and not yet
  /// resolved; bounded by options.max_running.
  std::size_t running PRT_GUARDED_BY(mu) = 0;
  /// Queued + running — what wait_all() waits out.
  std::size_t unresolved PRT_GUARDED_BY(mu) = 0;
  /// Per-(workload-kind, n) EWMA of observed successful-shard wall
  /// latency in seconds — the load-shedder's cost model.
  std::map<std::pair<char, mem::Addr>, double> shard_ewma PRT_GUARDED_BY(mu);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shedded{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> partial{0};
  std::atomic<std::uint64_t> failed{0};
  /// Packed faults summed over every resolved request's merged result
  /// (CampaignResult::packed_faults).
  std::atomic<std::uint64_t> packed_faults{0};
  std::atomic<std::uint64_t> wide_faults{0};
  std::atomic<std::uint64_t> replayed_ops{0};
  std::atomic<std::uint64_t> shard_retries{0};
  std::atomic<std::uint64_t> shard_stalls{0};
  std::atomic<std::uint64_t> checkpoint_writes{0};
  std::atomic<std::uint64_t> checkpoint_failures{0};
  std::atomic<std::uint64_t> checkpoint_salvaged{0};
  std::atomic<std::uint64_t> shards_resumed{0};

  explicit Impl(const ServiceOptions& o) : options(o), pool(o.threads) {}

  [[nodiscard]] std::size_t queue_bound(RequestPriority priority) const {
    switch (priority) {
      case RequestPriority::kHigh:
        return options.queue_bound_high;
      case RequestPriority::kNormal:
        return options.queue_bound_normal;
      case RequestPriority::kBatch:
        return options.queue_bound_batch;
    }
    return 0;
  }

  /// Load-shedder: true when the request's remaining deadline cannot
  /// cover the estimated run cost (EWMA shard latency × dispatch
  /// waves).  Optimistic on purpose — no deadline, no estimate yet, or
  /// an empty universe all admit.
  bool should_shed_locked(const Request& r, std::string& why)
      PRT_REQUIRES(mu) {
    if (r.req.deadline.count() == 0) return false;
    const std::size_t total = r.req.universe.size();
    if (total == 0) return false;
    const double remaining =
        std::chrono::duration<double>(r.deadline_at -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0.0) {
      why = "shed: deadline expired while queued (" +
            format_ms(-remaining) + " ago)";
      return true;
    }
    const auto it = shard_ewma.find(
        std::make_pair(r.req.march_test ? 'm' : 'p', r.req.options.n));
    if (it == shard_ewma.end()) return false;
    // Mirror for_each_chunk's clamp so the wave count matches the
    // partition orchestrate() would build.
    std::size_t shard_count = r.req.shards != 0 ? r.req.shards : pool.workers();
    shard_count = std::min(std::max<std::size_t>(shard_count, 1), total);
    const std::size_t workers = std::max<std::size_t>(pool.workers(), 1);
    const std::size_t waves = (shard_count + workers - 1) / workers;
    const double estimate = it->second * static_cast<double>(waves);
    if (estimate <= remaining) return false;
    why = "shed: estimated cost " + format_ms(estimate) +
          " (EWMA shard latency " + format_ms(it->second) + " x " +
          std::to_string(waves) + " wave(s)) exceeds remaining deadline " +
          format_ms(remaining);
    return true;
  }

  /// Feeds the shedder's cost model from an observed successful shard.
  void observe_shard_latency(const Request& r, double seconds)
      PRT_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    const auto key =
        std::make_pair(r.req.march_test ? 'm' : 'p', r.req.options.n);
    auto [it, inserted] = shard_ewma.try_emplace(key, seconds);
    if (!inserted) {
      it->second = kEwmaAlpha * seconds + (1.0 - kEwmaAlpha) * it->second;
    }
  }

  /// Drains the admission queues — strictly by class, FIFO within one —
  /// into the running window, shedding doomed requests instead of
  /// dispatching them.  Callers hold `mu`; runs after every admission
  /// and every release.
  void dispatch_locked() PRT_REQUIRES(mu) {
    while (running < options.max_running) {
      std::shared_ptr<Request> next;
      for (auto& queue : queues) {
        if (!queue.empty()) {
          next = std::move(queue.front());
          queue.pop_front();
          break;
        }
      }
      if (!next) return;
      std::string shed_reason;
      if (should_shed_locked(*next, shed_reason)) {
        ++shedded;
        --unresolved;
        {
          // Lock order: service mu (held) before request mu — the only
          // nesting direction anywhere (release()/run_shard_task take
          // mu only after dropping the request lock).
          util::MutexLock request_lock(next->mu);
          next->outcome.status = RequestStatus::kShedded;
          next->outcome.error = std::move(shed_reason);
          next->finished = true;
          next->cv.notify_all();
        }
        all_done.notify_all();
        continue;
      }
      ++running;
      pool.submit([this, r = std::move(next)] { orchestrate(r); });
    }
  }

  /// Serializes the current progress into the checkpoint file.
  /// Throws on write failure (callers count it and carry on — a
  /// failed checkpoint must never fail the campaign).
  void write_checkpoint_locked(Request& r) PRT_REQUIRES(r.mu) {
    Checkpoint cp;
    cp.fingerprint = r.fingerprint;
    cp.shards_total = r.ranges.size();
    for (std::size_t s = 0; s < r.ranges.size(); ++s) {
      if (r.done[s] != 0) cp.shards.push_back({s, r.results[s]});
    }
    write_checkpoint_file(r.req.checkpoint_path, serialize_checkpoint(cp));
  }

  /// Resolves the request: merges the completed shards (in shard
  /// order — ranges ascend, so the partial merge is exact), fixes the
  /// status, flushes or removes the checkpoint, wakes waiters.
  void finalize_locked(Request& r) PRT_REQUIRES(r.mu) {
    RequestOutcome& out = r.outcome;
    out.shards_total = r.ranges.size();
    out.shards_done = r.done_count;
    out.shards_resumed = r.resumed_count;
    if (r.failed) {
      out.status = RequestStatus::kFailed;
      out.error = r.error;
    } else if (r.done_count == r.ranges.size()) {
      out.status = RequestStatus::kComplete;
    } else {
      switch (r.stop.token().reason()) {
        case util::StopReason::kCancelled:
          out.status = RequestStatus::kPartialCancelled;
          break;
        case util::StopReason::kDeadline:
          out.status = RequestStatus::kPartialDeadline;
          break;
        case util::StopReason::kStalled:
          // Watchdog stalls trip per-attempt child tokens, never the
          // request token; reaching here means a bug upstream.
          out.status = RequestStatus::kFailed;
          out.error = "internal: request token stopped with kStalled";
          break;
        case util::StopReason::kNone:
          out.status = RequestStatus::kFailed;
          out.error = "internal: shards incomplete without a stop cause";
          break;
      }
    }
    if (!r.req.checkpoint_path.empty()) {
      if (out.status == RequestStatus::kComplete) {
        std::remove(r.req.checkpoint_path.c_str());
      } else if (r.done_count > 0) {
        // Final flush so an interrupted request resumes from its last
        // completed shard, not its last cadence point.  Skipped when
        // nothing completed (e.g. a fingerprint mismatch) — never
        // clobber an existing checkpoint with an empty one.  Must run
        // before the merge below moves the per-shard results out.
        try {
          write_checkpoint_locked(r);
          ++checkpoint_writes;
        } catch (...) {
          ++checkpoint_failures;
        }
      }
    }
    std::vector<CampaignResult> merged;
    merged.reserve(r.done_count);
    for (std::size_t s = 0; s < r.ranges.size(); ++s) {
      if (r.done[s] != 0) merged.push_back(std::move(r.results[s]));
    }
    out.result = merge_results(merged);
    packed_faults += out.result.packed_faults;
    wide_faults += out.result.sched.wide_faults;
    replayed_ops += out.result.sched.replayed_ops;
    switch (out.status) {
      case RequestStatus::kComplete:
        ++completed;
        break;
      case RequestStatus::kPartialCancelled:
      case RequestStatus::kPartialDeadline:
        ++partial;
        break;
      default:
        ++failed;
        break;
    }
    r.finished = true;
    r.cv.notify_all();
  }

  /// Drops one running slot (after a dispatched request resolved) and
  /// pulls the next queued request into the window.
  void release() PRT_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    --running;
    --unresolved;
    dispatch_locked();
    all_done.notify_all();
  }

  /// One shard's pool task: runs the shard under a per-attempt child
  /// stop token supervised by the watchdog, records the result, writes
  /// the cadence checkpoint, retries on an exception or a stall
  /// (bounded), finalizes when it was the last outstanding task.  The
  /// "campaign_service.shard" fail point models a worker crash (throw)
  /// or a wedged worker (delay + stall budget).
  void run_shard_task(const std::shared_ptr<Request>& r, std::size_t s) {
    const auto [begin, end] = r->ranges[s];
    CampaignResult result;
    bool completed_shard = false;
    bool threw = false;
    std::string what;
    // The child token: the watchdog cancels *this attempt* (kStalled)
    // without touching the request token; a request-level cancel or
    // deadline still reaches the shard loop through the parent link.
    util::StopSource attempt_stop{r->stop.token()};
    std::optional<util::Watchdog::Id> watch;
    if (options.stall_budget.count() > 0) {
      watch = watchdog.watch(options.stall_budget, [attempt_stop] {
        attempt_stop.request_stop(util::StopReason::kStalled);
      });
    }
    const auto attempt_start = std::chrono::steady_clock::now();
    try {
      util::FailPoint::hit("campaign_service.shard");
      completed_shard = r->run_shard(r->req.universe, begin, end, result,
                                     attempt_stop.token());
    } catch (const std::exception& e) {
      threw = true;
      what = e.what();
    } catch (...) {
      threw = true;
      what = "unknown error";
    }
    if (watch) watchdog.unwatch(*watch);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - attempt_start)
                               .count();

    // A stall is "the attempt token tripped kStalled while the request
    // itself is still live".  Fold it into the retry path: a wedged
    // shard becomes a retried shard, not a wedged request.
    if (!completed_shard && !threw &&
        attempt_stop.token().reason() == util::StopReason::kStalled &&
        !r->stop.token().stop_requested()) {
      ++shard_stalls;
      threw = true;
      what = "stalled: attempt exceeded the stall budget (" +
             format_ms(std::chrono::duration<double>(options.stall_budget)
                           .count()) +
             ")";
    }
    if (completed_shard) observe_shard_latency(*r, seconds);

    bool resolved = false;
    {
      util::MutexLock lock(r->mu);
      if (threw) {
        ++r->attempts[s];
        const bool retry = !r->failed && !r->stop.stop_requested() &&
                           r->attempts[s] <= options.max_retries;
        if (retry) {
          ++shard_retries;
          lock.Unlock();
          // Resubmit instead of looping in place: the retried shard
          // goes to the back of the queue, so one flaky shard cannot
          // starve other requests' tasks.
          pool.submit([this, r, s] { run_shard_task(r, s); });
          return;  // outstanding unchanged — the retry owns the slot
        }
        if (!r->failed) {
          r->failed = true;
          r->error = "shard " + std::to_string(s) + " failed after " +
                     std::to_string(r->attempts[s]) + " attempt(s): " + what;
          // Wind down this request's remaining shards promptly; other
          // requests have their own tokens and are untouched.
          r->stop.request_stop();
        }
      } else if (completed_shard) {
        r->results[s] = std::move(result);
        r->done[s] = 1;
        ++r->done_count;
        ++r->since_checkpoint;
        if (!r->req.checkpoint_path.empty() &&
            r->done_count < r->ranges.size() &&
            r->since_checkpoint >= r->req.checkpoint_every) {
          r->since_checkpoint = 0;
          try {
            write_checkpoint_locked(*r);
            ++checkpoint_writes;
          } catch (...) {
            // Checkpointing is best-effort durability; the campaign
            // itself keeps running.
            ++checkpoint_failures;
          }
        }
      }
      // else: the shard observed the stop token and abandoned — its
      // partial tallies are discarded, the slot stays not-done.
      if (--r->outstanding == 0) {
        finalize_locked(*r);
        resolved = true;
      }
    }
    if (resolved) release();
  }

  /// The per-request setup task: builds the driver (oracle-cache
  /// builds happen here, not on the submitting thread), fingerprints
  /// the request, loads/validates/salvages the checkpoint, fixes the
  /// shard partition and fans the pending shards out.  Holds r->mu for
  /// the whole setup: no shard task exists yet, so the lock is
  /// uncontended except for tickets polling done(), and holding it
  /// lets the analysis prove every write to the guarded state.  Shard
  /// tasks submitted at the end block on r->mu at most until this
  /// scope exits.
  void orchestrate(const std::shared_ptr<Request>& r) {
    bool resolved = false;
    util::MutexLock lock(r->mu);
    try {
      CampaignRequest& req = r->req;
      if (r->stop.token().stop_requested()) {
        // Dead on arrival (cancelled or deadline-expired while
        // queued): fix the partition cheaply — no driver build, no
        // oracle work, no checkpoint read — and resolve partial with
        // zero shards run.
        const std::size_t shard_count =
            req.shards != 0 ? req.shards : pool.workers();
        util::for_each_chunk(
            req.universe.size(), shard_count,
            [&](unsigned, std::size_t begin, std::size_t end) {
              r->ranges.emplace_back(begin, end);
            });
        r->results.resize(r->ranges.size());
        r->done.assign(r->ranges.size(), 0);
        r->attempts.assign(r->ranges.size(), 0);
        finalize_locked(*r);
        resolved = true;
        lock.Unlock();
        if (resolved) release();
        return;
      }
      const EngineOptions engine{.threads = 1,
                                 .early_abort = req.early_abort};
      // The universe is checked here, once, before any shard task
      // exists: a malformed fault is the request's error, not a shard
      // failure to retry.
      if (req.scheme) {
        std::shared_ptr<detail::PrtDriver> driver =
            detail::make_driver(*req.scheme, req.options, engine);
        driver->validate_universe(req.universe);
        r->run_shard = [driver = std::move(driver)](
                           std::span<const mem::Fault> universe,
                           std::size_t begin, std::size_t end,
                           CampaignResult& out, const util::StopToken& stop) {
          return driver->run_shard(universe, begin, end, out, stop);
        };
      } else {
        std::shared_ptr<detail::MarchDriver> driver =
            detail::make_driver(*req.march_test, req.options, engine);
        driver->validate_universe(req.universe);
        r->run_shard = [driver = std::move(driver)](
                           std::span<const mem::Fault> universe,
                           std::size_t begin, std::size_t end,
                           CampaignResult& out, const util::StopToken& stop) {
          return driver->run_shard(universe, begin, end, out, stop);
        };
      }
      r->fingerprint = request_fingerprint(req);

      std::size_t shard_count =
          req.shards != 0 ? req.shards : pool.workers();
      std::optional<Checkpoint> cp;
      bool salvaged = false;
      if (req.resume) {
        CheckpointLoad loaded = load_checkpoint(req.checkpoint_path);
        salvaged = loaded.salvaged;
        cp = std::move(loaded.checkpoint);
        if (cp) {
          if (cp->fingerprint != r->fingerprint) {
            throw std::runtime_error(
                "checkpoint fingerprint mismatch: " + req.checkpoint_path +
                " records a different campaign (workload, options or "
                "universe changed; checkpoint " +
                cp->fingerprint + ", request " + r->fingerprint + ")");
          }
          if (cp->shards_total < 1 ||
              cp->shards_total > std::max<std::size_t>(req.universe.size(),
                                                       1)) {
            throw std::runtime_error(
                "malformed checkpoint (shard count " +
                std::to_string(cp->shards_total) + " for a " +
                std::to_string(req.universe.size()) + "-fault universe): " +
                req.checkpoint_path);
          }
          // Adopt the recorded partition — merging checkpointed shard
          // results is only bit-identical over the partition they were
          // produced under.
          shard_count = cp->shards_total;
        }
      }
      util::for_each_chunk(req.universe.size(), shard_count,
                           [&](unsigned, std::size_t begin, std::size_t end) {
                             r->ranges.emplace_back(begin, end);
                           });
      if (cp && cp->shards_total != r->ranges.size()) {
        throw std::runtime_error("malformed checkpoint (partition): " +
                                 req.checkpoint_path);
      }
      r->results.resize(r->ranges.size());
      r->done.assign(r->ranges.size(), 0);
      r->attempts.assign(r->ranges.size(), 0);
      if (cp) {
        for (CheckpointShard& s : cp->shards) {
          if (s.index >= r->ranges.size() || r->done[s.index] != 0) {
            throw std::runtime_error("malformed checkpoint (shard index " +
                                     std::to_string(s.index) + "): " +
                                     req.checkpoint_path);
          }
          const auto [begin, end] = r->ranges[s.index];
          if (!shard_record_consistent(s.result, req.universe, begin, end)) {
            // CRC-valid but not a result of this shard: recompute it.
            salvaged = true;
            continue;
          }
          r->results[s.index] = std::move(s.result);
          r->done[s.index] = 1;
          ++r->resumed_count;
        }
        r->done_count = r->resumed_count;
        shards_resumed += r->resumed_count;
      }
      if (salvaged) ++checkpoint_salvaged;

      std::vector<std::size_t> pending;
      for (std::size_t s = 0; s < r->ranges.size(); ++s) {
        if (r->done[s] == 0) pending.push_back(s);
      }
      if (pending.empty()) {
        finalize_locked(*r);
        resolved = true;
      } else {
        r->outstanding = pending.size();
        for (const std::size_t s : pending) {
          pool.submit([this, r, s] { run_shard_task(r, s); });
        }
      }
    } catch (const std::exception& e) {
      r->failed = true;
      r->error = e.what();
      finalize_locked(*r);
      resolved = true;
    }
    lock.Unlock();
    if (resolved) release();
  }
};

CampaignService::CampaignService(const ServiceOptions& options)
    : impl_(std::make_unique<Impl>(options)) {
  if (options.cache_budget_bytes != 0) {
    OracleCache::global().set_budget_bytes(options.cache_budget_bytes);
  }
}

CampaignService::~CampaignService() { wait_all(); }

CampaignService::Ticket CampaignService::submit(CampaignRequest request) {
  auto r = std::make_shared<detail::ServiceRequest>();
  r->req = std::move(request);
  if (r->req.checkpoint_every == 0) r->req.checkpoint_every = 1;

  // Fail-fast validation on the submitting thread: a malformed request
  // resolves immediately instead of occupying a queue slot.  Every
  // message names the offending value.
  std::string invalid;
  if (static_cast<bool>(r->req.scheme) ==
      static_cast<bool>(r->req.march_test)) {
    invalid = std::string("exactly one of scheme / march_test must be set "
                          "(got ") +
              (r->req.scheme ? "both" : "neither") + ")";
  } else if (r->req.resume && r->req.checkpoint_path.empty()) {
    invalid = "resume requires a non-empty checkpoint_path";
  } else if (static_cast<std::uint8_t>(r->req.priority) >= Impl::kClasses) {
    invalid = "priority must be high, normal or batch (got " +
              std::to_string(static_cast<unsigned>(r->req.priority)) + ")";
  } else {
    try {
      validate_campaign_options(r->req.options);
    } catch (const std::exception& e) {
      invalid = e.what();
    }
  }
  if (!invalid.empty()) {
    // Still private to this thread; locked for the analysis' sake.
    util::MutexLock lock(r->mu);
    r->finished = true;
    r->outcome.status = RequestStatus::kFailed;
    r->outcome.error = std::move(invalid);
    ++impl_->failed;
    return Ticket(std::move(r));
  }

  std::string reject;
  {
    util::MutexLock lock(impl_->mu);
    const auto cls = static_cast<std::size_t>(r->req.priority);
    // The deadline clock starts at admission: queueing time counts
    // against the request's budget.  Written before the queue push
    // publishes the request.
    if (r->req.deadline.count() > 0) {
      r->stop.set_deadline_after(r->req.deadline);
      r->deadline_at = std::chrono::steady_clock::now() + r->req.deadline;
    }
    ++impl_->unresolved;
    impl_->queues[cls].push_back(r);
    impl_->dispatch_locked();
    // Backpressure: if the request is still waiting past its class
    // bound after the dispatch pass, revoke the admission.  (Checked
    // after dispatch, not before, so a free running slot always
    // admits — even with a zero bound.)
    auto& queue = impl_->queues[cls];
    if (!queue.empty() && queue.back() == r &&
        queue.size() > impl_->queue_bound(r->req.priority)) {
      queue.pop_back();
      --impl_->unresolved;
      impl_->all_done.notify_all();
      reject = "admission queue for class " + to_string(r->req.priority) +
               " is full (bound " +
               std::to_string(impl_->queue_bound(r->req.priority)) +
               ", running " + std::to_string(impl_->running) + "/" +
               std::to_string(impl_->options.max_running) + ")";
    }
  }
  if (!reject.empty()) {
    // Revoked before anyone else saw it — private again, locked for
    // the analysis' sake.
    util::MutexLock lock(r->mu);
    r->finished = true;
    r->outcome.status = RequestStatus::kRejected;
    r->outcome.error = std::move(reject);
    ++impl_->rejected;
    return Ticket(std::move(r));
  }
  ++impl_->accepted;
  return Ticket(std::move(r));
}

void CampaignService::wait_all() {
  util::MutexLock lock(impl_->mu);
  while (impl_->unresolved != 0) impl_->all_done.wait(lock);
}

CampaignService::Stats CampaignService::stats() const {
  Stats s;
  s.accepted = impl_->accepted.load();
  s.rejected = impl_->rejected.load();
  s.shedded = impl_->shedded.load();
  s.completed = impl_->completed.load();
  s.partial = impl_->partial.load();
  s.failed = impl_->failed.load();
  s.shard_retries = impl_->shard_retries.load();
  s.shard_stalls = impl_->shard_stalls.load();
  s.packed_faults = impl_->packed_faults.load();
  s.wide_faults = impl_->wide_faults.load();
  s.replayed_ops = impl_->replayed_ops.load();
  s.checkpoint_writes = impl_->checkpoint_writes.load();
  s.checkpoint_failures = impl_->checkpoint_failures.load();
  s.checkpoint_salvaged = impl_->checkpoint_salvaged.load();
  s.shards_resumed = impl_->shards_resumed.load();
  {
    util::MutexLock lock(impl_->mu);
    s.queued_high = impl_->queues[0].size();
    s.queued_normal = impl_->queues[1].size();
    s.queued_batch = impl_->queues[2].size();
    s.running = impl_->running;
  }
  const OracleCache::Stats cache = OracleCache::global().stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_evictions = cache.evictions;
  s.cache_entries = cache.entries;
  s.cache_bytes = cache.bytes;
  return s;
}

}  // namespace prt::analysis
