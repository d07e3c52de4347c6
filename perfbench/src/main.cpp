// prtbench: one benchmark workload per process.
//
//   prtbench --workload <prt_classical|march_vdg_abort|service_mix>
//            --seed <n> --seconds <s> --trace <0|1> --threads <n>
//            --tmpdir <dir> [--spans <file>]
//   prtbench --record --threads <n>
//
// Prints one JSON report as the last line of stdout: the environment
// stamp, raw set-up and latency samples, ops, the output signature of
// every job, the reference parity sample and, when traced, the
// per-layer metrics.  perfbench/run.py turns it into the benchmark's
// result line; see perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "mem/lane_word.hpp"

namespace {

prtbench::Args parse(int argc, char** argv) {
  prtbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--threads") {
      a.threads = static_cast<unsigned>(std::stoul(v));
    } else if (flag == "--tmpdir") {
      a.tmpdir = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  if (!a.record && (a.workload.empty() || a.tmpdir.empty())) {
    throw std::invalid_argument("--workload and --tmpdir are required");
  }
  return a;
}

void stamp(const prtbench::Args& a, prtbench::Json& out) {
  out.key("stamp").begin_object();
#if defined(__VERSION__)
  out.field("compiler", __VERSION__);
#endif
  out.field("build_type", PRTBENCH_BUILD_TYPE);
  out.field("cxx_flags", PRTBENCH_CXX_FLAGS);
#if defined(PRT_SIMD)
  out.field("prt_simd", true);
#else
  out.field("prt_simd", false);
#endif
  out.field("hardware_concurrency",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  out.field("threads", static_cast<std::uint64_t>(a.threads));
  out.field("default_lane_width",
            static_cast<std::uint64_t>(prt::mem::default_lane_width()));
  out.field("seed", a.seed);
  out.field("traced", a.trace);
  out.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const prtbench::Args args = parse(argc, argv);
    prtbench::Json out;
    out.begin_object();
    stamp(args, out);
    if (args.record) {
      prtbench::run_record(args, out);
    } else {
      out.field("workload", args.workload);
      prtbench::Tracer tracer(args.trace);
      prtbench::RunContext ctx{args, tracer, out};
      prtbench::WorkloadObs obs;
      prtbench::run_workload(ctx, obs);
      if (args.trace) {
        prtbench::run_probes(ctx, obs);
        if (!args.spans_path.empty()) tracer.write(args.spans_path);
      }
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      out.field("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    }
    out.end_object();
    std::printf("%s\n", out.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prtbench: %s\n", e.what());
    return 2;
  }
}
