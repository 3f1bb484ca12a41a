"""mechindep benchmark.

    python3 perfbench/run.py --workload {sparsity,audit,screen} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from ``src/``;
nothing is installed.  Each workload runs in processes of its own
(perfbench/worker.py), so that set-up time and peak memory are per workload.

--trace 0 prints the end-to-end metrics: set-up time (median of several
process starts, each timed from spawn until import, corpus generation and
warm-up are done), then the latency, throughput and peak memory of a timed
closed loop of in-process CLI requests.  Times are scaled to a host of fixed
speed (REFERENCE_KERNEL_S); the provenance line gives them unscaled as well.

--trace 1 prints the per-layer metrics from two traced processes on the same
seed, started with different hash seeds.  Their counts (calls, eliminations,
io bytes) and report digests must be identical, or the run is not correct.

Progress and provenance go to stdout before the result; the last stdout line
is the result object.  Exit status 1 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
# op_tail_ms per workload: the highest of p50/p75/p90/p95/p99/p99.9 with at
# least 10 samples beyond it in a 32 s run at the commit that defined the
# benchmark and that falls inside a band of requests of equal cost (on
# sparsity, p90 falls on the edge between the two costliest requests; see
# corpus.py).  The level is fixed, not re-chosen per run, because the sample
# count follows the host's speed and a level that changes between runs would
# make runs incomparable; the provenance line reports the samples beyond it.
TAIL_PERCENTILE = {"sparsity": 75.0, "audit": 90.0, "screen": 95.0}
TRACE_HASH_SEEDS = ("1", "2")
# Every end-to-end time is multiplied by REFERENCE_KERNEL_S / t, where t is
# the median time of worker.reference_kernel measured alongside it: in the
# same pass for op latencies, right after set-up for set-up times.  So times
# read as on a host where that kernel takes 2.5 ms.  The hosts this runs on
# change speed by up to 2x over minutes, and the kernel changes with them;
# unscaled, a 10-run median moved by 18% between two sets of runs of the
# same code.
REFERENCE_KERNEL_S = 0.0025


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_scale(reference_s):
    """Factor that turns a time measured next to these reference-kernel
    samples into a time on the reference host."""
    return REFERENCE_KERNEL_S / statistics.median(reference_s)


def start_worker(workload, seed, mode, seconds=0.0, spans=None, hash_seed=None):
    """Spawn a worker, wait for its ready line; returns (process, set-up s)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    start = time.perf_counter()
    # unbuffered, so readline() takes no bytes beyond the ready line away
    # from the later communicate()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env, bufsize=0)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if not line or json.loads(line).get("event") != "ready":
        stop(proc)
        raise RuntimeError(f"{mode} worker for {workload} failed during set-up")
    return proc, setup_s


def finish(proc):
    """Wait for a worker and return its result line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        stop(proc)
    lines = [l for l in out.decode().splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("event") != "result":
        raise RuntimeError("worker printed no result")
    return result


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def end_to_end(args):
    setups, setup_scales = [], []
    for mode in ["setup"] * (SETUP_REPEATS - 1) + ["measure"]:
        proc, setup_s = start_worker(args.workload, args.seed, mode, args.seconds)
        res = finish(proc)
        setups.append(setup_s)
        setup_scales.append(host_scale(res["setup_reference_s"]))
    pass_scales = [host_scale(ref) for ref in res["reference_s"]]
    raw = [x for lat in res["latencies"] for x in lat]
    lat = [x * k for lat, k in zip(res["latencies"], pass_scales) for x in lat]
    q = TAIL_PERCENTILE[args.workload]
    # one client in a closed loop: throughput is the reciprocal of the mean
    # latency, taken over the time spent in requests only, so that neither the
    # reference kernel nor the correctness checks count
    metrics = {
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_tail_ms": percentile(lat, q) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "setup_s": statistics.median(s * k for s, k in zip(setups, setup_scales)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    info = {
        "latency": {
            "op_p50_ms": {"percentile": 50.0, "samples": len(lat)},
            "op_tail_ms": {
                "percentile": q,
                "samples": len(lat),
                "beyond": sum(x > metrics["op_tail_ms"] / 1e3 for x in lat),
            },
        },
        "unscaled": {
            "op_p50_ms": percentile(raw, 50.0) * 1e3,
            "op_tail_ms": percentile(raw, q) * 1e3,
            "ops_per_s": len(raw) / sum(raw),
            "setup_s": statistics.median(setups),
        },
        "host_scale": {"passes": pass_scales, "setups": setup_scales},
        "passes": len(res["latencies"]),
        "elapsed_s": res["elapsed_s"],
        "setup_samples_s": setups,
        "fail_frac": res["failed"] / res["attempted"],
    }
    return res, res["attempted"], metrics, info


def per_layer(args):
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for tag in TRACE_HASH_SEEDS:
        spans = spans_dir / f"{args.workload}-seed{args.seed}-{tag}.jsonl"
        proc, _ = start_worker(args.workload, args.seed, "trace", spans=spans, hash_seed=tag)
        runs.append(finish(proc))
    first, second = runs
    counts = sorted(
        k for k, v in first["layers"].items()
        if not k.endswith(".self_s") and v is not None
    )
    mismatched = [k for k in counts if first["layers"][k] != second["layers"][k]]
    if first["digests"] != second["digests"]:
        mismatched.append("report digests")
    metrics = {}
    for name, value in first["layers"].items():
        if name.endswith(".self_s") and value is not None:
            value = (value + second["layers"][name]) / 2
        metrics[name] = value
    overheads = [r["traced_s"] - r["untraced_s"] for r in runs]
    metrics["trace.overhead_s"] = statistics.mean(overheads)
    metrics["trace.untraced_pass_s"] = statistics.mean(r["untraced_s"] for r in runs)
    info = {
        "determinism": {"identical": not mismatched, "mismatched": mismatched},
        "absent": first["absent"],
        "spans": [r["spans"] for r in runs],
        "tracing_overhead_s": overheads,
    }
    attempted = sum(r["attempted"] for r in runs)
    info["fail_frac"] = sum(r["failed"] for r in runs) / attempted
    merged = dict(first, failed=first["failed"] + second["failed"],
                  errors=first["errors"] + second["errors"])
    return merged, attempted, metrics, info, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mechindep" / "cli.py").is_file() or not bench_file.is_file():
        print("perfbench: run from a mechindep checkout (src/mechindep and BENCHMARK.json)",
              file=sys.stderr)
        return 1
    bench = json.loads(bench_file.read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 1

    try:
        if args.trace:
            res, attempted, values, info, deterministic = per_layer(args)
            wanted = bench["per_layer"]
        else:
            res, attempted, values, info = end_to_end(args)
            deterministic = True
            wanted = bench["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        entry = {"value": value, "unit": spec["unit"]}
        if value is None:
            entry["absent"] = True
        metrics[spec["name"]] = entry
    for err in res["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    provenance = {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "clients": 1,
        "loop": "closed",
    }
    provenance.update(info)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": res["failed"] == 0 and deterministic,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
