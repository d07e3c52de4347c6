#!/usr/bin/env python3
"""Benchmark of the packed-replay product path (see perfbench/README.md).

One workload per call:

    python3 perfbench/run.py --workload prt_classical --seed 1 --seconds 15 --trace 0

builds perfbench/ (and with it the repository's `prt` library) into
.bench_build/, runs the workload in one process, checks every output, and
prints one JSON result line last.  --trace 1 prints the per-layer metrics
instead of the end-to-end ones.

Other modes:

    python3 perfbench/run.py --all [--seed N] [--seconds S]   every workload, one table
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR  verdicts per metric
    python3 perfbench/run.py --record                         rewrite expected.json

Every run also writes its full report (environment stamp, samples, checks)
to --out (default .bench_build/results); --compare reads those files.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "prtbench")
EXPECTED = os.path.join(HERE, "expected.json")
LAYERS = os.path.join(HERE, "layers.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Pools are pinned to at most this many workers so results stay
# comparable on larger machines.
MAX_WORKERS = 4
# A workload process that runs longer than this is stopped and the run fails.
RUN_TIMEOUT_S = 170
# The paper's coverage claims, checked on every job of the engine workloads.
CLAIMS = {"prt_classical": 100.0, "march_vdg_abort": 93.75}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def worker_count():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return nproc, max(1, min(nproc, MAX_WORKERS))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no prt sources next to perfbench/ (expected ../src and "
             "../CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed", 3)
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "prtbench",
                        "-j", str(worker_count()[0])], stdout=log, stderr=log)
    if r.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed", 3)


def source_digest():
    """sha256 over the library sources, root build file and the benchmark."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run_binary(extra, threads):
    """Runs prtbench in a scratch dir under .bench_build; returns its report."""
    tmp = os.path.join(BUILD_ROOT, "tmp", str(os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ)
    # Library defaults are part of what is measured: no lane or worker
    # overrides from the caller's environment.
    env.pop("PRT_LANES", None)
    env.pop("PRT_THREADS", None)
    try:
        r = subprocess.run([BINARY, "--threads", str(threads), "--tmpdir", tmp]
                           + extra, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload process timed out after %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("workload process failed (exit %d)" % r.returncode, 4)
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def coverage(sig):
    det, tot = sig.split(";")[0][len("all="):].split("/")
    return 100.0 * int(det) / int(tot)


def check(workload, report):
    """Counts jobs and failures; returns (attempted, failed, problems)."""
    expected = load_json(EXPECTED)["expected"].get(workload, {})
    attempted = failed = 0
    problems = []
    for key, sigs in report["jobs"].items():
        for sig, count in sigs.items():
            attempted += count
            ok = expected.get(key) == sig
            if not ok:
                problems.append("%d job(s) of %s: got %s, expected %s"
                                % (count, key, sig, expected.get(key)))
            claim = CLAIMS.get(workload)
            if ok and claim is not None and abs(coverage(sig) - claim) >= 0.005:
                ok = False
                problems.append("%s: coverage %.4f%%, paper claim %.2f%%"
                                % (key, coverage(sig), claim))
            if not ok:
                failed += count
    incomplete = report.get("incomplete", 0)
    attempted += incomplete
    failed += incomplete
    if incomplete:
        problems.append("%d request(s) did not complete" % incomplete)
    parity = report.get("parity")
    if parity:
        attempted += parity["checked"]
        failed += parity["mismatched"]
        for example in parity["examples"]:
            problems.append("reference parity at n=%d: %s" % (parity["n"], example))
    if "merge_matches" in report:
        attempted += 1
        if not report["merge_matches"]:
            failed += 1
            problems.append("merge_results over batch shards differs from run()")
    return attempted, failed, problems


# Printed and recorded with the end-to-end metrics but not listed in
# BENCHMARK.json, so no bound applies: on a 4-vCPU virtual machine shared
# with other tenants the median service request (a few ms, much of it
# thread hand-offs) slowed up to 2.6x while the replay slowed 1.9x, and
# its spread over ten seeds reached 40%.
UNGATED = ("req_p50_s",)


def end_to_end(report):
    lat = sorted(report["latency_s"])
    return {
        # Median over jobs (engines) or whole deck passes (service mix):
        # a slow moment of a shared host moves it less than a mean would.
        "lane_ops_per_s": statistics.median(report["rate"]),
        "req_p50_s": statistics.median(lat),
        "req_p90_s": percentile(lat, 0.9),
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def run_workload(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    build()
    nproc, threads = worker_count()
    os.makedirs(args.out, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", os.path.join(args.out, "spans-%s.jsonl" % tag)]
    report = run_binary(extra, threads)
    attempted, failed, problems = check(args.workload, report)

    if args.trace:
        spec = bench["per_layer"]
        values = report["per_layer"]
    else:
        spec = bench["end_to_end"]
        values = end_to_end(report)
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        fail("report lacks metrics: " + ", ".join(missing), 4)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    result = {"correct": failed == 0 and attempted >= 1, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    stamp = dict(report["stamp"])
    stamp.update({"nproc": nproc, "git_revision": git_revision(),
                  "source_digest": source_digest(),
                  "effective_lane_width": report["max_lanes"]})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
              "samples": {"setup": len(report["setup_s"]),
                          "requests": len(report["latency_s"]),
                          "rate": len(report["rate"])},
              "first_setup_s": report["first_setup_s"],
              "parity": report.get("parity"),
              "failed_frac": failed / max(attempted, 1), "problems": problems,
              "result": result}
    if args.trace:
        record["per_layer"] = report["per_layer"]
    else:
        record["ungated"] = {name: values[name] for name in UNGATED}
    with open(os.path.join(args.out, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("samples: %d set-ups, %d requests, %d rates; failed_frac %.6g (%d of %d)"
          % (len(report["setup_s"]), len(report["latency_s"]), len(report["rate"]),
             record["failed_frac"], failed, attempted))
    for p in problems:
        print("CHECK FAILED: " + p)
    if args.trace:
        print_layers(report["per_layer"], bench)
    else:
        for m in spec:
            print("%-16s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
        for name in UNGATED:
            print("%-16s %14.6g s (no bound)" % (name, values[name]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def print_layers(values, bench):
    moves = load_json(LAYERS)["metrics"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in sorted(values):
        v = values[name]
        note = moves.get(name, {}).get("moves", "")
        print("%-40s %14.6g %-6s %s" % (name, v, units.get(name, ""), note))


def run_all(args, bench):
    rows, status = [], 0
    for w in bench["workloads"]:
        ns = argparse.Namespace(workload=w["name"], seed=args.seed,
                                seconds=args.seconds, trace=0, out=args.out)
        status |= run_workload(ns, bench)
        path = os.path.join(args.out, "%s-seed%d-trace0.json" % (w["name"], args.seed))
        rows.append((w["name"], load_json(path)))
    print()
    print("%-16s %-16s %14s %s" % ("workload", "metric", "value", "unit"))
    for name, rec in rows:
        for metric, m in rec["result"]["metrics"].items():
            print("%-16s %-16s %14.6g %s" % (name, metric, m["value"], m["unit"]))
        for metric, v in rec["ungated"].items():
            print("%-16s %-16s %14.6g %s" % (name, metric, v, "s (no bound)"))
        print("%-16s %-16s %14.6g %s" % (name, "failed_frac", rec["failed_frac"], "ratio"))
    return status


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def compare(parent_dir, change_dir, bench):
    """Median, quartiles and a verdict per end-to-end metric and workload."""
    def load(d):
        runs = {}
        for f in sorted(os.listdir(d)):
            if f.endswith("-trace0.json"):
                rec = load_json(os.path.join(d, f))
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    parent, change = load(parent_dir), load(change_dir)
    # Runs compare only under the same environment and configuration.
    same = ("compiler", "build_type", "cxx_flags", "prt_simd", "nproc",
            "hardware_concurrency", "threads", "effective_lane_width")
    for name in sorted(set(parent) & set(change)):
        for key in same:
            seen = {str(r["stamp"].get(key)) for r in parent[name] + change[name]}
            if len(seen) > 1:
                print("WARNING: %s runs differ in %s: %s"
                      % (name, key, ", ".join(sorted(seen))))
    print("%-16s %-15s %11s %11s %11s %11s %11s %11s  %s"
          % ("workload", "metric", "parent_q1", "parent_med", "parent_q3",
             "change_q1", "change_med", "change_q3", "verdict"))
    worse = False
    for w in bench["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print("%-16s missing runs on one side" % name)
            continue
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            pv = {r["seed"]: r["result"]["metrics"][metric]["value"] for r in parent[name]}
            cv = {r["seed"]: r["result"]["metrics"][metric]["value"] for r in change[name]}
            p1, pm, p3 = quartiles(list(pv.values()))
            c1, cm, c3 = quartiles(list(cv.values()))
            # Positive = change is worse, as a share of the parent median.
            delta = sign * (cm - pm) / pm
            spread = max((p3 - p1) / pm, (c3 - c1) / cm)
            all_better = max(sign * v for v in cv.values()) < min(sign * v for v in pv.values())
            all_worse = min(sign * v for v in cv.values()) > max(sign * v for v in pv.values())
            pairs = [s for s in pv if s in cv]
            wins = sum(1 for s in pairs if sign * cv[s] < sign * pv[s])
            if spread > bound:
                verdict = "better" if all_better else "worse" if all_worse else "unresolved"
            elif delta > bound:
                verdict = "worse"
            elif (-delta > (p3 - p1) / pm and pairs
                  and wins >= 0.9 * len(pairs)):
                verdict = "better"
            else:
                verdict = "unchanged"
            worse |= verdict == "worse"
            print("%-16s %-15s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g  %s (%+.1f%%, bound %.0f%%)"
                  % (name, metric, p1, pm, p3, c1, cm, c3, verdict,
                     100 * delta, 100 * bound))
    return 1 if worse else 0


def record_expected():
    build()
    report = run_binary(["--record"], worker_count()[1])
    out = {"note": "Output signatures of the synchronous engines at the "
                   "recording revision; escapes are universe indices before "
                   "the seed's rotation, so one value serves every seed.",
           "recorded_with": report["stamp"], "expected": report["expected"]}
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(EXPECTED, ROOT))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(BUILD_ROOT, "results"))
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(BENCHMARK):
        fail("BENCHMARK.json not found at the repository root")
    bench = load_json(BENCHMARK)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    if args.record:
        return record_expected()
    if args.all:
        return run_all(args, bench)
    if not args.workload:
        fail("--workload, --all, --compare or --record is required")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
