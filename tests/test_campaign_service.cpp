// Tests for the async campaign service (analysis/campaign_service):
// complete runs bit-identical to the synchronous engines, cooperative
// cancellation / deadlines with exact partial results, shard-granular
// checkpoint/resume whose resumed results are bit-identical to
// uninterrupted runs (interrupting at *every* cadence point, packed PRT
// and March plus a non-packable word-oriented March workload on the
// per-fault path, 1 and 4 threads), per-class priority
// admission with bounded queues and deadline-aware load shedding, the
// shard stall watchdog, bounded shard retry with request isolation,
// and the oracle cache's poisoned-entry eviction plus budgeted LRU —
// all driven deterministically through util::FailPoint.  (The
// checkpoint corruption/salvage matrix lives in
// tests/test_checkpoint_recovery.cpp.)
#include "analysis/campaign_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign_suite.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/fail_point.hpp"
#include "util/stop_token.hpp"

namespace prt::analysis {
namespace {

using util::FailPoint;
using util::FailPointScope;

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

std::string temp_checkpoint(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

CampaignRequest prt_request(mem::Addr n) {
  CampaignRequest req;
  req.scheme = core::extended_scheme_bom(n);
  req.options = {.n = n};
  req.universe = mem::classical_universe(n);
  return req;
}

CampaignRequest march_request(mem::Addr n) {
  CampaignRequest req;
  req.march_test = march::march_c_minus();
  req.options = {.n = n};
  req.universe = mem::classical_universe(n);
  return req;
}

/// Word-oriented (m = 2) March request: not packable, so every fault
/// runs on the per-fault live reference path.
CampaignRequest word_march_request(mem::Addr n) {
  CampaignRequest req;
  req.march_test = march::march_c_minus();
  req.options = {.n = n, .m = 2};
  req.universe = mem::single_cell_universe(n, 2, /*read_logic=*/true);
  return req;
}

// --- complete runs --------------------------------------------------

TEST(CampaignService, PrtCompleteBitIdenticalToEngine) {
  const mem::Addr n = 32;
  CampaignRequest req = prt_request(n);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_done, out.shards_total);
  expect_identical(out.result, reference);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(CampaignService, MarchCompleteBitIdenticalToCampaign) {
  const mem::Addr n = 32;
  CampaignRequest req = march_request(n);
  const CampaignResult reference =
      run_march_campaign(req.universe, *req.march_test, req.options);
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
}

TEST(CampaignService, ConcurrentRequestsAllComplete) {
  CampaignService service;
  std::vector<CampaignService::Ticket> tickets;
  std::vector<CampaignResult> references;
  for (const mem::Addr n : {24, 32, 40}) {
    CampaignRequest req = prt_request(n);
    references.push_back(run_prt_campaign(req.universe, *req.scheme,
                                          req.options));
    tickets.push_back(service.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const RequestOutcome& out = tickets[i].wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    expect_identical(out.result, references[i]);
  }
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST(CampaignService, EmptyUniverseCompletesEmpty) {
  CampaignRequest req = prt_request(24);
  req.universe.clear();
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.result.overall.total, 0u);
  EXPECT_EQ(out.shards_total, 0u);
}

// Dispatch tallies roll up across resolved requests: a packed run of a
// fully lane-compatible universe tallies every fault as packed, a
// non-packable (word-oriented March) run tallies every fault as
// per-fault, and the service stats sum both.
TEST(CampaignService, StatsRollUpDispatchTallies) {
  const mem::Addr n = 32;
  CampaignService service;
  CampaignRequest packed_req = prt_request(n);
  const std::uint64_t total = packed_req.universe.size();
  const RequestOutcome& packed_out =
      service.submit(std::move(packed_req)).wait();
  ASSERT_EQ(packed_out.status, RequestStatus::kComplete);
  EXPECT_EQ(packed_out.result.packed_faults, total);
  EXPECT_EQ(packed_out.result.scalar_faults, 0u);
  {
    const auto stats = service.stats();
    EXPECT_EQ(stats.packed_faults, total);
    EXPECT_EQ(stats.scalar_faults, 0u);
  }
  CampaignRequest word_req = word_march_request(n);
  const std::uint64_t word_total = word_req.universe.size();
  const RequestOutcome& word_out = service.submit(std::move(word_req)).wait();
  ASSERT_EQ(word_out.status, RequestStatus::kComplete);
  EXPECT_EQ(word_out.result.packed_faults, 0u);
  EXPECT_EQ(word_out.result.scalar_faults, word_total);
  {
    const auto stats = service.stats();
    EXPECT_EQ(stats.packed_faults, total);
    EXPECT_EQ(stats.scalar_faults, word_total);
  }
}

// With default options every shard big enough to fill half a 512-lane
// word runs the wide word, and the result equals a 64-lane engine run.
TEST(CampaignService, DefaultOptionsRunWideLanes) {
  const mem::Addr n = 256;
  CampaignRequest req = prt_request(n);
  ASSERT_GE(req.universe.size(), 4u * 256u);  // >= 256 faults per shard
  EngineOptions narrow;
  narrow.lane_width = 64;
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options, narrow);
  CampaignService service({.threads = 4});
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_TRUE(out.result == reference);
  EXPECT_EQ(out.result.sched.max_lanes, 512u);
  EXPECT_GT(service.stats().wide_faults, 0u);
}

// A full-run request drops lane batches once every lane has latched;
// the service rolls the packed accesses actually performed into its stats.
TEST(CampaignService, StatsRollUpReplayedOps) {
  const mem::Addr n = 256;
  CampaignRequest req = prt_request(n);
  ASSERT_FALSE(req.early_abort);
  CampaignService service({.threads = 4});
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  const std::uint64_t replayed = service.stats().replayed_ops;
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(replayed, out.result.sched.replayed_ops);
  // Every fault is detected, so dropping must save replay: the accesses
  // performed stay below one full transcript per flushed batch.
  ASSERT_TRUE(out.result.escapes.empty());
  const std::uint64_t full_ops = out.result.ops / out.result.overall.total;
  const std::uint64_t lanes = out.result.sched.max_lanes;
  const std::uint64_t min_batches =
      (out.result.packed_faults + lanes - 1) / lanes;
  EXPECT_LT(replayed, min_batches * full_ops);
}

// --- admission / validation -----------------------------------------

TEST(CampaignService, MalformedRequestsFailFast) {
  CampaignService service;
  {
    CampaignRequest req;  // neither workload set
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
  }
  {
    CampaignRequest req = prt_request(24);
    req.march_test = march::march_c_minus();  // both set
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
  }
  {
    CampaignRequest req = prt_request(24);
    req.resume = true;  // no checkpoint_path
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
  }
  {
    CampaignRequest req = prt_request(24);
    req.options.ports = 3;  // invalid geometry
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_FALSE(out.error.empty());
  }
  EXPECT_EQ(service.stats().accepted, 0u);
}

TEST(CampaignService, DefaultTicketIsInert) {
  CampaignService::Ticket ticket;
  EXPECT_TRUE(ticket.done());
  ticket.cancel();  // no-op
  EXPECT_THROW((void)ticket.wait(), std::logic_error);
}

TEST(CampaignService, BackpressureRejectsPastClassQueueBound) {
  FailPointScope scope;
  // Every shard task sleeps, so the first request reliably occupies
  // the single running slot while the second is submitted.  A zero
  // queue bound means "no queueing": the second submission is revoked
  // the moment dispatch leaves it waiting.
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(20)});
  CampaignService service(
      {.threads = 1, .max_running = 1, .queue_bound_normal = 0});
  CampaignService::Ticket first = service.submit(prt_request(24));
  CampaignService::Ticket second = service.submit(prt_request(24));
  const RequestOutcome& rejected = second.wait();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_NE(rejected.error.find("normal"), std::string::npos);
  EXPECT_TRUE(second.done());
  first.cancel();
  (void)first.wait();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().accepted, 1u);
}

TEST(CampaignService, ZeroQueueBoundStillAdmitsIntoFreeSlot) {
  // The bound limits *waiting*, not admission: with the running window
  // free, a zero-bound class must still dispatch immediately.
  CampaignService service(
      {.threads = 1, .max_running = 1, .queue_bound_normal = 0});
  const RequestOutcome& out = service.submit(prt_request(24)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(CampaignService, QueueBoundsArePerClass) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1,
                           .max_running = 1,
                           .queue_bound_high = 1,
                           .queue_bound_normal = 0,
                           .queue_bound_batch = 1});
  CampaignRequest blocker = prt_request(24);
  blocker.shards = 4;  // occupies the slot for >= 4 injected delays
  CampaignService::Ticket slot = service.submit(std::move(blocker));
  CampaignRequest b1 = prt_request(24);
  b1.priority = RequestPriority::kBatch;
  CampaignRequest b2 = prt_request(24);
  b2.priority = RequestPriority::kBatch;
  CampaignService::Ticket queued = service.submit(std::move(b1));
  const RequestOutcome& rejected = service.submit(std::move(b2)).wait();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_NE(rejected.error.find("batch"), std::string::npos);
  // The batch queue being full leaves the other classes untouched.
  CampaignRequest h = prt_request(24);
  h.priority = RequestPriority::kHigh;
  CampaignService::Ticket high = service.submit(std::move(h));
  EXPECT_EQ(service.stats().queued_high, 1u);
  EXPECT_EQ(service.stats().queued_batch, 1u);
  slot.cancel();
  high.cancel();
  queued.cancel();
  service.wait_all();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().accepted, 3u);
}

TEST(CampaignService, DispatchDrainsHighBeforeBatch) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  CampaignRequest blocker = prt_request(24);
  blocker.shards = 2;
  CampaignService::Ticket slot = service.submit(std::move(blocker));
  // Batch is queued *first*; high must still dispatch first.
  CampaignRequest batch = prt_request(24);
  batch.priority = RequestPriority::kBatch;
  batch.shards = 4;
  CampaignRequest high = prt_request(24);
  high.priority = RequestPriority::kHigh;
  high.shards = 1;
  CampaignService::Ticket batch_ticket = service.submit(std::move(batch));
  CampaignService::Ticket high_ticket = service.submit(std::move(high));
  EXPECT_EQ(service.stats().queued_high, 1u);
  EXPECT_EQ(service.stats().queued_batch, 1u);
  slot.cancel();
  (void)slot.wait();
  // max_running = 1: the batch request cannot even dispatch until the
  // high request fully resolves, so high completing while batch is
  // still pending proves the drain order (batch's first shard alone
  // sleeps 60 ms once it does start).
  const RequestOutcome& high_out = high_ticket.wait();
  EXPECT_EQ(high_out.status, RequestStatus::kComplete);
  EXPECT_FALSE(batch_ticket.done());
  batch_ticket.cancel();
  (void)batch_ticket.wait();
}

TEST(CampaignService, DispatchIsFifoWithinClass) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  CampaignRequest blocker = prt_request(24);
  blocker.shards = 2;
  CampaignService::Ticket slot = service.submit(std::move(blocker));
  CampaignRequest a = prt_request(24);
  a.shards = 1;
  CampaignRequest b = prt_request(24);
  b.shards = 4;
  CampaignService::Ticket first = service.submit(std::move(a));
  CampaignService::Ticket second = service.submit(std::move(b));
  slot.cancel();
  (void)slot.wait();
  const RequestOutcome& out = first.wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_FALSE(second.done());
  second.cancel();
  (void)second.wait();
}

// --- load shedding ---------------------------------------------------

TEST(CampaignService, QueuedRequestPastDeadlineIsShedded) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  CampaignRequest blocker = prt_request(24);
  blocker.shards = 2;  // runs out naturally, holding the slot >= 120 ms
  CampaignService::Ticket slot = service.submit(std::move(blocker));
  CampaignRequest victim = prt_request(24);
  victim.deadline = std::chrono::milliseconds(30);
  CampaignService::Ticket ticket = service.submit(std::move(victim));
  (void)slot.wait();
  const RequestOutcome& out = ticket.wait();
  ASSERT_EQ(out.status, RequestStatus::kShedded);
  EXPECT_NE(out.error.find("expired"), std::string::npos);
  // Shed at dispatch: no partition was built, no shard ran.
  EXPECT_EQ(out.shards_total, 0u);
  EXPECT_EQ(out.result.overall.total, 0u);
  EXPECT_EQ(service.stats().shedded, 1u);
}

TEST(CampaignService, ShedderUsesLatencyEstimateAgainstDeadline) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  // Warm the (prt, n=24) latency EWMA: two shards, >= 60 ms each.
  {
    CampaignRequest warm = prt_request(24);
    warm.shards = 2;
    const RequestOutcome& out = service.submit(std::move(warm)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
  }
  // Blocker occupies the slot so the victim's shed decision happens at
  // dispatch, with ~60 ms of its 400 ms budget already spent.
  CampaignRequest blocker = prt_request(24);
  blocker.shards = 1;
  CampaignService::Ticket slot = service.submit(std::move(blocker));
  // 8 shards on 1 worker = 8 waves x ~60 ms EWMA >= 480 ms estimated,
  // against < 400 ms remaining: shed, before any oracle work.
  CampaignRequest victim = prt_request(24);
  victim.shards = 8;
  victim.deadline = std::chrono::milliseconds(400);
  CampaignService::Ticket ticket = service.submit(std::move(victim));
  (void)slot.wait();
  const RequestOutcome& out = ticket.wait();
  ASSERT_EQ(out.status, RequestStatus::kShedded);
  EXPECT_NE(out.error.find("estimated cost"), std::string::npos);
  EXPECT_EQ(service.stats().shedded, 1u);
}

TEST(CampaignService, ShedderAdmitsWhenDeadlineCoversEstimate) {
  // Same shape without the injected latency: the estimate comfortably
  // fits the deadline, so the request is admitted and completes.
  CampaignService service({.threads = 1, .max_running = 1});
  {
    CampaignRequest warm = prt_request(24);
    warm.shards = 2;
    ASSERT_EQ(service.submit(std::move(warm)).wait().status,
              RequestStatus::kComplete);
  }
  CampaignRequest req = prt_request(24);
  req.shards = 2;
  req.deadline = std::chrono::seconds(60);
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(service.stats().shedded, 0u);
}

// --- shard stall watchdog --------------------------------------------

TEST(CampaignService, WatchdogCancelsStalledShardAndRetries) {
  FailPointScope scope;
  // One shard attempt wedges for 600 ms; the watchdog trips its
  // per-attempt token at 150 ms (kStalled) and the bounded retry
  // completes the campaign bit-identically.  A concurrent healthy
  // request on the same pool is unaffected.  (Budgets are generous:
  // a *healthy* shard here computes for a few ms, so only the wedged
  // attempt can plausibly cross 150 ms even on a loaded 1-core box.)
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = 1,
                  .delay = std::chrono::milliseconds(600)});
  CampaignRequest req = prt_request(32);
  CampaignRequest other = march_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  const CampaignResult other_reference =
      run_march_campaign(other.universe, *other.march_test, other.options);
  CampaignService service({.threads = 2,
                           .max_retries = 1,
                           .stall_budget = std::chrono::milliseconds(150)});
  CampaignService::Ticket first = service.submit(std::move(req));
  CampaignService::Ticket second = service.submit(std::move(other));
  const RequestOutcome& out = first.wait();
  const RequestOutcome& other_out = second.wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  ASSERT_EQ(other_out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
  expect_identical(other_out.result, other_reference);
  EXPECT_GE(service.stats().shard_stalls, 1u);
  EXPECT_GE(service.stats().shard_retries, 1u);
}

TEST(CampaignService, StallRetryExhaustionFailsRequest) {
  FailPointScope scope;
  // Every attempt wedges: retries exhaust and the request fails with
  // the stall named in the error, rather than hanging forever.
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(400)});
  CampaignService service({.threads = 1,
                           .max_retries = 0,
                           .stall_budget = std::chrono::milliseconds(100)});
  const RequestOutcome& out = service.submit(prt_request(24)).wait();
  ASSERT_EQ(out.status, RequestStatus::kFailed);
  EXPECT_NE(out.error.find("stalled"), std::string::npos);
  EXPECT_GE(service.stats().shard_stalls, 1u);
  // The service itself is healthy afterwards.
  FailPoint::disarm_all();
  EXPECT_EQ(service.submit(prt_request(24)).wait().status,
            RequestStatus::kComplete);
}

// --- cancellation / deadlines ---------------------------------------

TEST(CampaignService, CancellationYieldsIsolatedPartialResult) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(30)});
  CampaignService service({.threads = 1});
  CampaignRequest slow = prt_request(32);
  slow.shards = 8;
  const std::size_t universe_size = slow.universe.size();
  CampaignService::Ticket ticket = service.submit(std::move(slow));
  ticket.cancel();
  const RequestOutcome& out = ticket.wait();
  ASSERT_EQ(out.status, RequestStatus::kPartialCancelled);
  EXPECT_LT(out.shards_done, out.shards_total);
  // The partial result is an exact tally over the completed shards
  // only — never a torn count over a half-run shard.
  EXPECT_LE(out.result.overall.total, universe_size);
  EXPECT_TRUE(std::is_sorted(out.result.escapes.begin(),
                             out.result.escapes.end()));
  // A second request on the same service is unaffected.
  FailPoint::disarm_all();
  CampaignRequest healthy = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(healthy.universe, *healthy.scheme, healthy.options);
  const RequestOutcome& ok = service.submit(std::move(healthy)).wait();
  ASSERT_EQ(ok.status, RequestStatus::kComplete);
  expect_identical(ok.result, reference);
}

TEST(CampaignService, DeadlineYieldsPartialDeadline) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(30)});
  CampaignService service({.threads = 1});
  CampaignRequest req = prt_request(32);
  req.shards = 8;
  req.deadline = std::chrono::milliseconds(1);
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kPartialDeadline);
  EXPECT_LT(out.shards_done, out.shards_total);
}

// --- worker failure / retry -----------------------------------------

TEST(CampaignService, ShardFailureRetriesToCompletion) {
  FailPointScope scope;
  // The first two shard-task attempts crash; retries finish the job.
  FailPoint::arm("campaign_service.shard", {.fires = 2});
  CampaignRequest req = prt_request(32);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  CampaignService service({.max_retries = 2});
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
  EXPECT_EQ(service.stats().shard_retries, 2u);
}

TEST(CampaignService, RetryExhaustionFailsRequestButNotService) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard", {.fires = -1});
  CampaignService service({.threads = 2, .max_retries = 1});
  const RequestOutcome& failed = service.submit(prt_request(24)).wait();
  ASSERT_EQ(failed.status, RequestStatus::kFailed);
  EXPECT_NE(failed.error.find("shard"), std::string::npos);
  EXPECT_GE(service.stats().shard_retries, 1u);
  // The worker that "crashed" was isolated: the pool and service keep
  // serving subsequent requests.
  FailPoint::disarm_all();
  CampaignRequest healthy = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(healthy.universe, *healthy.scheme, healthy.options);
  const RequestOutcome& ok = service.submit(std::move(healthy)).wait();
  ASSERT_EQ(ok.status, RequestStatus::kComplete);
  expect_identical(ok.result, reference);
}

// --- oracle cache poisoning (satellite) -----------------------------

TEST(OracleCachePoison, FailedBuildIsEvictedAndRebuilt) {
  FailPointScope scope;
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(32);
  FailPoint::arm("oracle_cache.build", {.fires = 1});
  EXPECT_THROW((void)cache.prt(scheme, 32), util::FailPointError);
  // The failed build must not leave a poisoned slot behind: the same
  // key rebuilds from scratch and succeeds.
  const auto entry = cache.prt(scheme, 32);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.prt_builds(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OracleCachePoison, ConcurrentWaitersRecoverAfterFailedBuild) {
  FailPointScope scope;
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(32);
  // Exactly one build fails; every concurrent requester must end up
  // with a real entry (waiters retry the lookup once themselves).
  FailPoint::arm("oracle_cache.build", {.fires = 1});
  std::vector<std::thread> threads;
  std::atomic<int> succeeded{0};
  std::atomic<int> threw{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      try {
        if (cache.prt(scheme, 32) != nullptr) ++succeeded;
      } catch (const util::FailPointError&) {
        ++threw;
      }
    });
  }
  for (auto& t : threads) t.join();
  // The injected failure surfaces at most on the thread that ran the
  // failing build; everyone else recovers via the rebuilt entry.
  EXPECT_LE(threw.load(), 1);
  EXPECT_GE(succeeded.load(), 7);
  EXPECT_EQ(cache.size(), 1u);
}

// --- oracle cache budget / LRU (tentpole) ---------------------------

TEST(OracleCacheEviction, HitMissCountersTrack) {
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(24);
  (void)cache.prt(scheme, 24);
  (void)cache.prt(scheme, 24);
  const OracleCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(OracleCacheEviction, BudgetEvictsLeastRecentlyUsed) {
  // Entry costs are deterministic per (scheme, n), so measure the
  // budget we need — two specific entries — in a throwaway cache.
  const core::PrtScheme s24 = core::extended_scheme_bom(24);
  const core::PrtScheme s32 = core::extended_scheme_bom(32);
  const core::PrtScheme s40 = core::extended_scheme_bom(40);
  std::size_t budget = 0;
  {
    OracleCache probe;
    (void)probe.prt(s24, 24);
    (void)probe.prt(s40, 40);
    budget = probe.stats().bytes;
  }
  OracleCache cache;
  cache.set_budget_bytes(budget);
  (void)cache.prt(s24, 24);
  (void)cache.prt(s32, 32);
  (void)cache.prt(s24, 24);  // touch 24: 32 is now least recent
  (void)cache.prt(s40, 40);  // over budget -> evicts exactly 32
  const OracleCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, budget);
  // The touched entry survived; the evicted one rebuilds on demand.
  const std::size_t builds = cache.prt_builds();
  (void)cache.prt(s24, 24);
  EXPECT_EQ(cache.prt_builds(), builds);
  (void)cache.prt(s32, 32);
  EXPECT_EQ(cache.prt_builds(), builds + 1);
}

TEST(OracleCacheEviction, TinyBudgetStillServesLookups) {
  // A budget below any single entry degenerates to "build, hand out,
  // evict immediately" — every lookup still succeeds, March included.
  OracleCache cache;
  cache.set_budget_bytes(1);
  const core::PrtScheme scheme = core::extended_scheme_bom(24);
  ASSERT_NE(cache.prt(scheme, 24), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  ASSERT_NE(cache.prt(scheme, 24), nullptr);  // rebuilt, not poisoned
  EXPECT_EQ(cache.prt_builds(), 2u);
  ASSERT_NE(cache.march(march::march_c_minus(), 24, true, 0), nullptr);
  const OracleCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_GE(s.evictions, 3u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(OracleCacheEviction, ShrinkingBudgetEvictsImmediately) {
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(24);
  (void)cache.prt(scheme, 24);
  ASSERT_EQ(cache.stats().entries, 1u);
  cache.set_budget_bytes(1);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Back to unbounded: entries stick again.
  cache.set_budget_bytes(0);
  (void)cache.prt(scheme, 24);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CampaignService, StatsSurfaceOracleCacheCounters) {
  OracleCache::global().clear();
  CampaignService service;
  const RequestOutcome& out = service.submit(prt_request(24)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  const CampaignService::Stats s = service.stats();
  EXPECT_GE(s.cache_misses, 1u);
  EXPECT_GE(s.cache_entries, 1u);
  EXPECT_GT(s.cache_bytes, 0u);
}

TEST(CampaignService, OracleBuildFailureFailsRequestThenRecovers) {
  FailPointScope scope;
  OracleCache::global().clear();
  FailPoint::arm("oracle_cache.build", {.fires = 1});
  CampaignService service;
  CampaignRequest req = prt_request(48);
  CampaignRequest again = prt_request(48);
  const RequestOutcome& failed = service.submit(std::move(req)).wait();
  EXPECT_EQ(failed.status, RequestStatus::kFailed);
  // Eviction means the identical request now rebuilds and completes.
  const RequestOutcome& ok = service.submit(std::move(again)).wait();
  EXPECT_EQ(ok.status, RequestStatus::kComplete);
}

// --- checkpoint / resume --------------------------------------------

enum class Workload { kPrt, kMarch, kWordMarch };

struct ResumeCase {
  Workload workload = Workload::kPrt;
  unsigned threads = 1;
};

/// Interrupt at every cadence point: for a fixed shard partition, run
/// once with the k-th shard-task attempt (and everything after it)
/// crashing, then resume from the checkpoint and require the merged
/// result to be bit-identical to the uninterrupted reference.
void run_resume_matrix(const ResumeCase& c) {
  const char* names[] = {"prt", "march", "word_march"};
  const std::string name = names[static_cast<int>(c.workload)];
  SCOPED_TRACE(name + " threads=" + std::to_string(c.threads));
  const mem::Addr n = 24;
  const std::size_t kShards = 6;
  auto make_request = [&] {
    CampaignRequest req = c.workload == Workload::kPrt ? prt_request(n)
                          : c.workload == Workload::kMarch
                              ? march_request(n)
                              : word_march_request(n);
    req.shards = kShards;
    return req;
  };
  CampaignRequest ref_req = make_request();
  const CampaignResult reference =
      ref_req.march_test
          ? run_march_campaign(ref_req.universe, *ref_req.march_test,
                               ref_req.options)
          : run_prt_campaign(ref_req.universe, *ref_req.scheme,
                             ref_req.options);

  for (std::size_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("interrupt after " + std::to_string(k) + " shards");
    FailPointScope scope;
    const std::string path =
        temp_checkpoint("svc_resume_" + name + std::to_string(c.threads) +
                        "_" + std::to_string(k) + ".ckpt");
    CampaignService service({.threads = c.threads, .max_retries = 0});
    {
      // Let k shard tasks complete, crash every later attempt.
      FailPoint::arm("campaign_service.shard",
                     {.skip = static_cast<int>(k), .fires = -1});
      CampaignRequest req = make_request();
      req.checkpoint_path = path;
      req.checkpoint_every = 1;
      const RequestOutcome& out = service.submit(std::move(req)).wait();
      ASSERT_EQ(out.status, RequestStatus::kFailed);
      ASSERT_LT(out.shards_done, kShards);
    }
    FailPoint::disarm_all();
    {
      CampaignRequest req = make_request();
      req.checkpoint_path = path;
      req.resume = true;
      const RequestOutcome& out = service.submit(std::move(req)).wait();
      ASSERT_EQ(out.status, RequestStatus::kComplete);
      EXPECT_EQ(out.shards_total, kShards);
      expect_identical(out.result, reference);
    }
    std::remove(path.c_str());
  }
}

TEST(CampaignServiceResume, PrtPackedOneThread) {
  run_resume_matrix({.workload = Workload::kPrt, .threads = 1});
}
TEST(CampaignServiceResume, PrtPackedFourThreads) {
  run_resume_matrix({.workload = Workload::kPrt, .threads = 4});
}
TEST(CampaignServiceResume, MarchPackedOneThread) {
  run_resume_matrix({.workload = Workload::kMarch, .threads = 1});
}
TEST(CampaignServiceResume, MarchPackedFourThreads) {
  run_resume_matrix({.workload = Workload::kMarch, .threads = 4});
}
TEST(CampaignServiceResume, WordMarchPerFaultOneThread) {
  run_resume_matrix({.workload = Workload::kWordMarch, .threads = 1});
}
TEST(CampaignServiceResume, WordMarchPerFaultFourThreads) {
  run_resume_matrix({.workload = Workload::kWordMarch, .threads = 4});
}

TEST(CampaignServiceResume, ResumeAcrossThreadCountsIsBitIdentical) {
  // Interrupted at 1 thread, resumed at 4: the checkpoint's partition
  // is adopted, so the merge stays bit-identical.
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_resume_cross_threads.ckpt");
  CampaignRequest ref_req = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(ref_req.universe, *ref_req.scheme, ref_req.options);
  {
    FailPoint::arm("campaign_service.shard", {.skip = 3, .fires = -1});
    CampaignService one({.threads = 1, .max_retries = 0});
    CampaignRequest req = prt_request(24);
    req.shards = 6;
    req.checkpoint_path = path;
    const RequestOutcome& out = one.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    ASSERT_GT(out.shards_done, 0u);
  }
  FailPoint::disarm_all();
  {
    CampaignService four({.threads = 4});
    CampaignRequest req = prt_request(24);
    req.shards = 6;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = four.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    EXPECT_GT(out.shards_resumed, 0u);
    expect_identical(out.result, reference);
  }
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, CancelThenResumeIsBitIdentical) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_cancel_resume.ckpt");
  CampaignRequest ref_req = prt_request(32);
  const CampaignResult reference =
      run_prt_campaign(ref_req.universe, *ref_req.scheme, ref_req.options);
  {
    FailPoint::arm("campaign_service.shard",
                   {.action = FailPoint::Action::kDelay,
                    .fires = -1,
                    .delay = std::chrono::milliseconds(15)});
    CampaignService service({.threads = 1});
    CampaignRequest req = prt_request(32);
    req.shards = 8;
    req.checkpoint_path = path;
    CampaignService::Ticket ticket = service.submit(std::move(req));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ticket.cancel();
    const RequestOutcome& out = ticket.wait();
    ASSERT_EQ(out.status, RequestStatus::kPartialCancelled);
  }
  FailPoint::disarm_all();
  {
    CampaignService service({.threads = 4});
    CampaignRequest req = prt_request(32);
    req.shards = 8;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    expect_identical(out.result, reference);
  }
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, CompletedRunRemovesCheckpoint) {
  const std::string path = temp_checkpoint("svc_complete_removes.ckpt");
  CampaignService service;
  CampaignRequest req = prt_request(24);
  req.checkpoint_path = path;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "checkpoint should be removed on completion";
}

TEST(CampaignServiceResume, FingerprintMismatchFailsInsteadOfMerging) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_fp_mismatch.ckpt");
  {
    FailPoint::arm("campaign_service.shard", {.skip = 2, .fires = -1});
    CampaignService service({.threads = 1, .max_retries = 0});
    CampaignRequest req = prt_request(24);
    req.shards = 6;
    req.checkpoint_path = path;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    ASSERT_GT(out.shards_done, 0u);
  }
  FailPoint::disarm_all();
  CampaignService service;
  {
    // Different universe (one fault dropped) — must be rejected.
    CampaignRequest req = prt_request(24);
    req.universe.pop_back();
    req.shards = 6;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("fingerprint"), std::string::npos);
  }
  {
    // Different run options (early_abort changes op accounting).
    CampaignRequest req = prt_request(24);
    req.early_abort = true;
    req.shards = 6;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("fingerprint"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, MalformedCheckpointSalvagesToFreshRun) {
  // A file that is not a checkpoint at all carries nothing salvageable
  // before the records: the run starts fresh (salvage counted) instead
  // of failing — crash-safety means corruption costs recomputation,
  // never the campaign.  The full corruption matrix (torn tails,
  // flipped bytes, partial final writes) lives in
  // tests/test_checkpoint_recovery.cpp.
  const std::string path = temp_checkpoint("svc_malformed.ckpt");
  {
    std::ofstream file(path);
    file << "not a checkpoint\n";
  }
  CampaignRequest req = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  CampaignService service;
  req.checkpoint_path = path;
  req.resume = true;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_resumed, 0u);
  expect_identical(out.result, reference);
  EXPECT_EQ(service.stats().checkpoint_salvaged, 1u);
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, MissingCheckpointMeansFreshRun) {
  const std::string path = temp_checkpoint("svc_missing.ckpt");
  CampaignRequest req = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  req.checkpoint_path = path;
  req.resume = true;
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_resumed, 0u);
  expect_identical(out.result, reference);
}

TEST(CampaignServiceResume, CheckpointWriteFailureIsNonFatal) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_ckpt_fail.ckpt");
  FailPoint::arm("campaign_service.checkpoint", {.fires = -1});
  CampaignRequest req = prt_request(32);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  req.shards = 6;
  req.checkpoint_path = path;
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
  EXPECT_GE(service.stats().checkpoint_failures, 1u);
}

// --- engine / suite cancellation (threaded StopToken) ---------------

TEST(StoppableRuns, EngineWithIdleTokenMatchesPlainRun) {
  const auto universe = mem::classical_universe(32);
  const CampaignOptions opt{.n = 32};
  CampaignEngine engine(core::extended_scheme_bom(32), opt);
  const CampaignResult plain = engine.run(universe);
  util::StopSource source;
  const CampaignOutcome outcome = engine.run(universe, source.token());
  ASSERT_EQ(outcome.status, RunStatus::kComplete);
  EXPECT_EQ(outcome.shards_done, outcome.shards_total);
  expect_identical(outcome.result, plain);
}

TEST(StoppableRuns, EnginePreCancelledTokenRunsNothing) {
  const auto universe = mem::classical_universe(32);
  CampaignEngine engine(core::extended_scheme_bom(32), {.n = 32});
  util::StopSource source;
  source.request_stop();
  const CampaignOutcome outcome = engine.run(universe, source.token());
  EXPECT_EQ(outcome.status, RunStatus::kCancelled);
  EXPECT_EQ(outcome.shards_done, 0u);
  EXPECT_EQ(outcome.result.overall.total, 0u);
}

TEST(StoppableRuns, MarchExpiredDeadlineReportsDeadline) {
  const auto universe = mem::classical_universe(32);
  MarchCampaign campaign(march::march_c_minus(), {.n = 32});
  util::StopSource source;
  source.set_deadline_after(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const CampaignOutcome outcome = campaign.run(universe, source.token());
  EXPECT_EQ(outcome.status, RunStatus::kDeadlineExpired);
  EXPECT_EQ(outcome.shards_done, 0u);
}

TEST(StoppableRuns, SuitePreCancelledTokenReportsPerConfigStatus) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  CampaignSuite suite(
      [](const CampaignOptions& opt) {
        return core::extended_scheme_bom(opt.n);
      });
  util::StopSource source;
  source.request_stop();
  const SuiteResult result = suite.run(
      configs,
      [](const CampaignOptions& opt, std::size_t) {
        return mem::classical_universe(opt.n);
      },
      source.token());
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  ASSERT_EQ(result.configs.size(), configs.size());
  for (const SuiteConfigResult& entry : result.configs) {
    EXPECT_EQ(entry.status, RunStatus::kCancelled);
  }
  EXPECT_EQ(result.overall.total, 0u);
}

TEST(StoppableRuns, SuiteIdleTokenBitIdenticalToPlainRun) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  auto factory = [](const CampaignOptions& opt) {
    return core::extended_scheme_bom(opt.n);
  };
  auto universe = [](const CampaignOptions& opt, std::size_t) {
    return mem::classical_universe(opt.n);
  };
  CampaignSuite suite(factory);
  const SuiteResult plain = suite.run(configs, universe);
  util::StopSource source;
  const SuiteResult stoppable = suite.run(configs, universe, source.token());
  EXPECT_EQ(stoppable.status, RunStatus::kComplete);
  ASSERT_EQ(stoppable.configs.size(), plain.configs.size());
  for (std::size_t c = 0; c < plain.configs.size(); ++c) {
    EXPECT_EQ(stoppable.configs[c].status, RunStatus::kComplete);
    expect_identical(stoppable.configs[c].result, plain.configs[c].result);
  }
  EXPECT_EQ(stoppable.overall, plain.overall);
}

}  // namespace
}  // namespace prt::analysis
