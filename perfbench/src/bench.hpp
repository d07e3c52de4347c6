// Shared pieces of the prtbench harness: options, a monotonic clock,
// the in-memory span tracer, the fixed workload configurations, result
// signatures and a minimal JSON writer.
//
// Everything here talks to the library through its public headers
// only; layer timings come from spans placed around calls into those
// headers, never from instrumentation inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_service.hpp"
#include "analysis/fault_sim.hpp"
#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "march/march_test.hpp"
#include "mem/fault.hpp"

namespace prtbench {

namespace analysis = prt::analysis;
namespace core = prt::core;
namespace march = prt::march;
namespace mem = prt::mem;
namespace util = prt::util;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  unsigned threads = 0;
  std::string tmpdir;
  std::string spans_path;
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// splitmix64: the harness's only source of randomness, so a seed
/// fixes every drawn input.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

// --- tracing ---------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

/// In-memory span recorder.  Disabled, a Scope costs one branch.  Spans
/// nest per thread; the parent is the innermost open span of the same
/// thread.  Spans are kept until write() at the end of the run.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope scope(const char* name, std::uint64_t job = 0) {
    return Scope(enabled_ ? this : nullptr, name, job);
  }
  /// A span only when `on`: the traced run records every other job so
  /// the untraced ones give the tracing overhead.
  [[nodiscard]] Scope scope_if(bool on, const char* name,
                               std::uint64_t job = 0) {
    return Scope(enabled_ && on ? this : nullptr, name, job);
  }

  /// Self time per layer (the span-name prefix before the first '.'):
  /// each span's duration minus the part covered by its children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes one JSON object per span, one per line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- workloads -------------------------------------------------------

/// One campaign configuration: what the service mix draws and what the
/// engine workloads run.  `n` and the universe kind fix the fault set.
enum class Kind : std::uint8_t { kPrtExt, kPrtStd, kWom, kMarch };
enum class Universe : std::uint8_t { kClassical, kVanDeGoor, kSingleCellM4 };

struct Combo {
  Kind kind = Kind::kPrtExt;
  mem::Addr n = 0;
  Universe universe = Universe::kClassical;
  bool early_abort = false;
  [[nodiscard]] std::string key() const;
  [[nodiscard]] unsigned m() const { return kind == Kind::kWom ? 4U : 1U; }
};

[[nodiscard]] std::vector<mem::Fault> build_universe(Universe u, mem::Addr n);
[[nodiscard]] core::PrtScheme scheme_for(const Combo& c);
[[nodiscard]] march::MarchTest march_test();

/// Every configuration the service mix can draw, in a fixed order.
[[nodiscard]] std::vector<Combo> service_combos();
/// The engine workloads' configurations.
[[nodiscard]] Combo prt_classical_combo();
[[nodiscard]] Combo march_vdg_combo();

/// Order-invariant summary of a CampaignResult: per-class counts, ops
/// and an FNV-1a digest of the sorted escape set, with each escape
/// index mapped back through the universe rotation `offset` first.
[[nodiscard]] std::string signature(const analysis::CampaignResult& r,
                                    std::size_t offset, std::size_t size);

/// The campaign front a combo runs on: CampaignEngine for PRT schemes,
/// MarchCampaign for March C-.  Options other than the pinned worker
/// count and early abort keep their library defaults.
class EngineFront {
 public:
  EngineFront(const Combo& c, unsigned threads);
  [[nodiscard]] analysis::CampaignResult run(
      std::span<const mem::Fault> universe) const;

 private:
  std::unique_ptr<analysis::CampaignEngine> prt_;
  std::unique_ptr<analysis::MarchCampaign> march_;
};

// --- JSON ------------------------------------------------------------

/// Appends JSON text to a string; the harness only ever writes JSON,
/// run.py parses it.
class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(const std::string& k);
  Json& value(double v);
  Json& value(std::uint64_t v);
  Json& value(bool v);
  Json& value(const std::string& v);
  Json& value(const char* v) { return value(std::string(v)); }
  Json& values(std::span<const double> v);
  template <typename T>
  Json& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void separate();
  std::string out_;
  bool need_comma_ = false;
};

// --- entry points ----------------------------------------------------

/// Context shared by the workload loop and the probes of one run.
struct RunContext {
  const Args& args;
  Tracer& tracer;
  Json& out;
};

/// What a closed loop of service requests observed.
struct ServiceObs {
  double wall_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t incomplete = 0;
  std::vector<double> latency_s;
  std::vector<double> submit_s;
  /// Each client sends passes through a shuffled deck of every draw.
  /// Per whole pass: its lane-op rate; and the latencies of its requests.
  std::vector<double> pass_rate;
  std::vector<double> pass_latency_s;
  /// Latencies split by request kind (prt / wom / march) and by
  /// checkpointing (ckpt / no_ckpt).
  std::map<std::string, std::vector<double>> latency_by_group;
  /// service_combos() index of every request, per client in order.
  std::vector<std::size_t> combo_ids;
  /// combo key -> output signature -> requests.
  std::map<std::string, std::map<std::string, std::uint64_t>> jobs;
  std::vector<double> sched_batches;
  std::vector<double> sched_steals;
  unsigned max_lanes = 0;
  std::uint64_t packed_faults = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t shard_retries = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shedded = 0;
  std::uint64_t queued_max = 0;
};

/// What the workload loop observed; the traced probes read it.
struct WorkloadObs {
  Combo combo;  // the engine workload's combo; PRT ext n=1024 for the mix
  std::vector<mem::Fault> universe;  // as run (rotated)
  std::size_t offset = 0;            // the seed's rotation
  std::string last_signature;        // of the last measured run
  std::vector<double> universe_build_s;
  std::uint64_t universe_faults = 0;
  std::vector<double> front_ctor_s;
  /// Engine workloads: per-run measurements of the measured phase.
  std::vector<double> run_s;
  std::vector<double> sched_batches;
  std::vector<double> sched_steals;
  unsigned max_lanes = 0;
  std::uint64_t packed_faults = 0;
  std::uint64_t total_faults = 0;
  /// Lane-ops per second with tracing off and on: alternate runs of
  /// the engine workloads, or the two halves of the service_mix phase.
  double untraced_rate = 0;
  double traced_rate = 0;
  /// The service_mix phase (or, on an engine workload, nothing: the
  /// probes then run a short burst of the same mix).
  std::unique_ptr<ServiceObs> service;
};

/// Inputs and service of the service_mix workload.
struct ServiceInputs {
  std::vector<Combo> combos;                            // service_combos()
  std::vector<std::optional<core::PrtScheme>> schemes;  // per combo
  std::map<std::pair<Universe, mem::Addr>, std::vector<mem::Fault>> universes;
  std::unique_ptr<analysis::CampaignService> service;
};

/// Replaces `in` with freshly built inputs and service (cold cache);
/// returns the set-up time.
double setup_service(std::unique_ptr<ServiceInputs>& in, const Args& args,
                     Tracer& tracer, std::vector<double>& universe_build_s,
                     std::uint64_t& universe_faults,
                     std::vector<double>& ctor_s);
/// Closed loop of the mix's clients over the service for `seconds`, and
/// until each client has sent `min_passes` whole passes; every request
/// is traced when `tracer` is enabled.
[[nodiscard]] ServiceObs run_service_phase(ServiceInputs& in,
                                           const Args& args, Tracer& tracer,
                                           double seconds,
                                           std::size_t min_passes);

void run_workload(RunContext& ctx, WorkloadObs& obs);
void run_probes(RunContext& ctx, WorkloadObs& obs);
void run_record(const Args& args, Json& out);

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace prtbench
