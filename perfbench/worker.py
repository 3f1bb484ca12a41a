"""One workload process of the benchmark, started by run.py.

Set-up imports the library from ``src/``, writes the seeded corpus and runs a
warm-up; the process then prints ``{"event": "ready"}``.  After that it runs
one of:

- ``setup``: nothing more (run.py times several set-ups).
- ``measure``: the timed closed loop.  One client, one thread: each request is
  ``mechindep.cli.main(argv)`` called in-process with stdout captured, and
  the next request starts when the previous one returns.  The loop runs whole
  passes over the corpus until ``--seconds`` have elapsed, so every request
  has the same weight in the latency percentiles; it ends at the pass boundary
  nearest ``--seconds``.  Before each request the worker times
  ``reference_kernel`` (see there).
- ``trace``: an untraced pass, the same pass traced, and another untraced
  pass, for the per-layer metrics and the tracing overhead.

The last stdout line is ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "perfbench" / "digests.json"
# reference-kernel samples taken right after set-up, for scaling setup_s
SETUP_REFERENCE_SAMPLES = 25
_REFERENCE_MATRICES = []


def emit(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def call_cli(cli, argv):
    """Run one request in-process; returns (exit code, stdout bytes, error)."""
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    error = None
    code = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
    sink.flush()
    return code, sink.buffer.getvalue(), error


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of the benchmark's own work: complete-
    pivoting elimination of 20 fixed 8x6 matrices, the small-array numpy and
    interpreter work the library's searches are made of (2-3 ms).

    The speed of the hosts the benchmark runs on drifts by up to 2x over
    minutes, and by about the same factor for this kernel as for the
    requests measured next to it.  run.py divides each time by the kernel's time
    measured alongside it, so the reported times do not depend on the host's
    speed at that minute.  The kernel does not call the library, so a change
    to the library does not change it.
    """
    import numpy as np

    if not _REFERENCE_MATRICES:
        rng = np.random.default_rng(20250926)
        _REFERENCE_MATRICES.extend(rng.standard_normal((8, 6)) for _ in range(20))
    start = time.perf_counter()
    for M in _REFERENCE_MATRICES:
        A = M.copy()
        m, n = A.shape
        for r in range(min(m, n)):
            sub = np.abs(A[r:, r:])
            pi, pj = divmod(int(np.argmax(sub)), n - r)
            pi += r
            pj += r
            A[[r, pi], :] = A[[pi, r], :]
            A[:, [r, pj]] = A[:, [pj, r]]
            A[r + 1 :, :] -= np.outer(A[r + 1 :, r] / A[r, r], A[r, :])
    return time.perf_counter() - start


def verdict(code, body) -> list:
    """Exit code, per-certificate verdicts and the structural fields of a JSON
    report.  These depend only on an instance's sparsity pattern, so they are
    the same for every seed."""
    doc = json.loads(body)
    certs = list(doc.get("certificates", []))
    for entry in doc.get("files", []):
        certs.extend(entry["certificates"])
    shape = {k: doc[k] for k in ("components", "blocks", "rows", "cols") if k in doc}
    return [code, [[c["criterion"], c["holds"]] for c in certs], shape]


class Checker:
    """Judges each op: it must not raise or exit 2; its report must match the
    frozen sha256 when the seed has frozen digests, and the frozen verdict
    otherwise; and a repeated op must give the same bytes as its first run."""

    def __init__(self, workload, seed):
        frozen = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
        self.verdicts = frozen.get("verdicts", {})
        self.sha = frozen.get("sha256", {}).get(str(seed))
        self.first = {}
        self.errors = []

    def check(self, op, code, body, error) -> bool:
        if error is not None or code not in (0, 1):
            self.errors.append(f"{op.id}: exit {code} {error or ''}".strip())
            return False
        digest = hashlib.sha256(body).hexdigest()
        if op.id in self.first:
            ok = self.first[op.id] == digest
        elif self.sha is not None:
            ok = self.sha.get(op.id) == digest
        else:
            ok = self.verdicts.get(op.id) == verdict(code, body)
        self.first.setdefault(op.id, digest)
        if not ok:
            self.errors.append(f"{op.id}: report differs from the frozen one")
        return ok


def run_pass(cli, ops, checker, tracer=None, reference=None):
    """One pass over the corpus; returns per-op latencies (s) and failures.
    With a ``reference`` list, the reference kernel is timed before each op
    and its times are appended there."""
    latencies, failed = [], 0
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        if reference is not None:
            reference.append(reference_kernel())
        start = time.perf_counter()
        code, body, error = call_cli(cli, op.argv)
        latencies.append(time.perf_counter() - start)
        if not checker.check(op, code, body, error):
            failed += 1
    return latencies, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None, help="trace mode: where to write the spans")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from mechindep import cli

    import corpus
    from tracer import Tracer

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    ops = corpus.build(args.workload, args.seed)
    if tracer is not None:
        tracer.uninstall()
    for op in corpus.warmup(ops):
        call_cli(cli, op.argv)
    emit({"event": "ready"})
    if args.mode != "trace":
        reference_kernel()  # first call builds the matrices
        setup_reference = [reference_kernel() for _ in range(SETUP_REFERENCE_SAMPLES)]
    if args.mode == "setup":
        emit({"event": "result", "setup_reference_s": setup_reference})
        return 0

    checker = Checker(args.workload, args.seed)
    result = {
        "event": "result",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.mode == "measure":
        latencies, reference, failed, pass_s = [], [], 0, 0.0
        start = time.perf_counter()
        deadline = start + args.seconds
        # stop at the pass boundary nearest the deadline: start another pass
        # only if at least half of it would fit
        while not latencies or time.perf_counter() + pass_s / 2 < deadline:
            pass_start = time.perf_counter()
            ref = []
            lat, bad = run_pass(cli, ops, checker, reference=ref)
            latencies.append(lat)
            reference.append(ref)
            failed += bad
            pass_s = time.perf_counter() - pass_start
        result.update(
            elapsed_s=time.perf_counter() - start,
            latencies=latencies,
            reference_s=reference,
            setup_reference_s=setup_reference,
            attempted=len(latencies) * len(ops),
            failed=failed,
        )
    else:
        # untraced, traced, untraced: the overhead is the traced pass minus
        # the mean of the passes around it, which cancels drift between passes
        times, failed = [], 0
        for traced in (False, True, False):
            if traced:
                tracer.install()
            start = time.perf_counter()
            _, bad = run_pass(cli, ops, checker, tracer if traced else None)
            times.append(time.perf_counter() - start)
            failed += bad
            if traced:
                tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        result.update(
            attempted=3 * len(ops),
            failed=failed,
            untraced_s=(times[0] + times[2]) / 2,
            traced_s=times[1],
            layers=tracer.metrics(),
            absent=tracer.absent,
            digests=checker.first,
            spans=len(tracer.spans),
        )
    result["errors"] = checker.errors[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
