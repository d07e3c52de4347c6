#include "analysis/oracle_cache.hpp"

#include <chrono>
#include <utility>

#include "core/prt_packed.hpp"
#include "util/fail_point.hpp"

namespace prt::analysis {

namespace {

// Approximate resident cost of an entry for the LRU budget.  This is
// a *budgeting* estimate, not an allocator audit: it counts the heap
// vectors that dominate real entries (transcript op streams scale with
// n × iterations; oracle images with n) and charges structs at sizeof.
// Consistency matters more than precision — the same entry always
// costs the same, so eviction order and budget math are deterministic.

std::size_t transcript_bytes(const core::OpTranscript& t) {
  return t.recs.capacity() * sizeof(core::OpRec) +
         t.iterations.capacity() * sizeof(core::PrtIterSpan) +
         t.march.capacity() * sizeof(core::MarchSegment);
}

std::size_t entry_bytes(const OracleCache::PrtEntry& e) {
  std::size_t bytes = sizeof(e) + transcript_bytes(e.transcript);
  bytes += e.oracle.testers.capacity() * sizeof(core::PiTester);
  for (const auto& it : e.oracle.iterations) {
    bytes += sizeof(it);
    bytes += it.trajectory.order().capacity() * sizeof(mem::Addr);
    bytes += it.fin_expected.capacity() * sizeof(gf::Elem);
    bytes += it.image.capacity() * sizeof(gf::Elem);
  }
  return bytes;
}

std::size_t entry_bytes(const OracleCache::MarchEntry& e) {
  return sizeof(e) + transcript_bytes(e.transcript);
}

}  // namespace

template <typename Entry, typename Build>
std::shared_ptr<const Entry> OracleCache::lookup(
    SlotMap<Entry> OracleCache::*map, char kind, std::string key,
    std::atomic<std::size_t>& builds, Build&& build) {
  // A failed build must never poison the key: the builder evicts its
  // slot before publishing the exception, so the next requester
  // rebuilds from scratch.  A waiter that was already blocked on the
  // failed slot retries the lookup once itself (becoming the new
  // builder if nobody beat it there) instead of just relaying a
  // failure that may have been transient; a second failure propagates.
  for (int attempt = 0;; ++attempt) {
    std::promise<std::shared_ptr<const Entry>> promise;
    std::shared_future<std::shared_ptr<const Entry>> fut;
    {
      util::MutexLock lock(mutex_);
      auto [it, inserted] = (this->*map).try_emplace(key);
      if (!inserted) {
        ++hits_;
        fut = it->second.future;  // someone else built / is building
        if (it->second.in_lru) {
          lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        }
      } else {
        ++misses_;
        it->second.future = promise.get_future().share();
      }
    }
    if (fut.valid()) {
      try {
        return fut.get();  // blocks only while building
      } catch (...) {
        if (attempt > 0) throw;
        continue;
      }
    }
    // First requester: build outside the lock so distinct keys build
    // concurrently and lookups of cached keys never wait on a build.
    // Tests inject build failures here to pin the eviction protocol.
    try {
      util::FailPoint::hit("oracle_cache.build");
      auto entry = std::make_shared<const Entry>(build());
      ++builds;
      promise.set_value(entry);
      {
        util::MutexLock lock(mutex_);
        // Re-find rather than reuse the iterator: a concurrent clear()
        // may have dropped our slot (or a successor build may occupy
        // the key).  Only account a slot that is ours — ready and not
        // yet in the LRU — so a successor's in-flight build is never
        // mis-tagged as complete.
        const auto it = (this->*map).find(key);
        if (it != (this->*map).end() && !it->second.in_lru &&
            it->second.future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
          it->second.bytes = entry_bytes(*entry);
          lru_.push_front(LruKey{kind, key});
          it->second.lru_it = lru_.begin();
          it->second.in_lru = true;
          total_bytes_ += it->second.bytes;
          evict_locked();
        }
      }
      return entry;
    } catch (...) {
      // Un-publish the failed slot so a later call can retry, and hand
      // the exception to this caller and to any concurrent waiter.
      {
        util::MutexLock lock(mutex_);
        (this->*map).erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
  }
}

void OracleCache::evict_locked() {
  while (budget_bytes_ != 0 && total_bytes_ > budget_bytes_ &&
         !lru_.empty()) {
    const LruKey& victim = lru_.back();
    if (victim.first == 'p') {
      const auto it = prt_.find(victim.second);
      if (it != prt_.end()) {
        total_bytes_ -= it->second.bytes;
        prt_.erase(it);
      }
    } else {
      const auto it = march_.find(victim.second);
      if (it != march_.end()) {
        total_bytes_ -= it->second.bytes;
        march_.erase(it);
      }
    }
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const OracleCache::PrtEntry> OracleCache::prt(
    const core::PrtScheme& scheme, mem::Addr n) {
  std::string key =
      core::scheme_fingerprint(scheme) + "|n=" + std::to_string(n);
  return lookup(&OracleCache::prt_, 'p', std::move(key), prt_builds_, [&] {
    PrtEntry entry;
    entry.oracle = core::make_prt_oracle(scheme, n);
    if (core::prt_scheme_packable(scheme)) {
      entry.transcript = core::make_op_transcript(scheme, entry.oracle);
    }
    return entry;
  });
}

std::shared_ptr<const OracleCache::MarchEntry> OracleCache::march(
    const march::MarchTest& test, mem::Addr n, bool background,
    std::uint64_t delay_ticks) {
  std::string key = march::test_fingerprint(test) + "|n=" + std::to_string(n) +
                    "|bg=" + (background ? "1" : "0") +
                    "|del=" + std::to_string(delay_ticks);
  return lookup(&OracleCache::march_, 'm', std::move(key), march_builds_,
                [&] {
                  return MarchEntry{march::make_march_transcript(
                      test, n, background, delay_ticks)};
                });
}

std::shared_ptr<const OracleCache::MarchEntry> OracleCache::march_sweep(
    const march::MarchTest& test, mem::Addr n, unsigned m,
    std::uint64_t delay_ticks) {
  if (m == 1) return march(test, n, false, delay_ticks);
  std::string key = march::test_fingerprint(test) + "|n=" + std::to_string(n) +
                    "|m=" + std::to_string(m) +
                    "|del=" + std::to_string(delay_ticks);
  return lookup(&OracleCache::march_, 'm', std::move(key), march_builds_,
                [&] {
                  return MarchEntry{march::make_march_transcript(
                      test, n, march::standard_backgrounds(m), m,
                      delay_ticks)};
                });
}

std::size_t OracleCache::size() const {
  util::MutexLock lock(mutex_);
  return prt_.size() + march_.size();
}

OracleCache::Stats OracleCache::stats() const {
  util::MutexLock lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = prt_.size() + march_.size();
  s.bytes = total_bytes_;
  return s;
}

void OracleCache::set_budget_bytes(std::size_t budget) {
  util::MutexLock lock(mutex_);
  budget_bytes_ = budget;
  evict_locked();
}

std::size_t OracleCache::budget_bytes() const {
  util::MutexLock lock(mutex_);
  return budget_bytes_;
}

void OracleCache::clear() {
  util::MutexLock lock(mutex_);
  prt_.clear();
  march_.clear();
  lru_.clear();
  total_bytes_ = 0;
}

OracleCache& OracleCache::global() {
  static OracleCache cache;
  return cache;
}

}  // namespace prt::analysis
