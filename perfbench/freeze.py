"""Freeze the expected reports into perfbench/digests.json.

    python3 perfbench/freeze.py [--check-seeds N]

Runs one pass of every workload for the frozen seeds and records, per op, the
sha256 of its report bytes (per seed) and its verdict (exit code, certificate
verdicts and structural fields), which must agree across the frozen seeds.
With --check-seeds N it also checks that seeds 2..N-1 reach the same
verdicts, without writing anything.  Re-freezing is a benchmark change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import worker

FROZEN_SEEDS = (0, 1)  # the default seed and one held-out seed


def one_pass(cli, corpus, workload, seed):
    out = {}
    for op in corpus.build(workload, seed):
        code, body, error = worker.call_cli(cli, op.argv)
        if error is not None or code not in (0, 1):
            raise SystemExit(f"{workload} seed {seed} {op.id}: exit {code} {error or ''}")
        out[op.id] = (hashlib.sha256(body).hexdigest(), worker.verdict(code, body))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--check-seeds", type=int, default=0)
    args = parser.parse_args(argv)
    os.chdir(worker.ROOT)
    sys.path.insert(0, str(worker.ROOT / "src"))
    from mechindep import cli

    import corpus

    frozen = {}
    for workload in corpus.WORKLOADS:
        runs = {seed: one_pass(cli, corpus, workload, seed) for seed in FROZEN_SEEDS}
        verdicts = {op: v for op, (_, v) in runs[FROZEN_SEEDS[0]].items()}
        for seed in list(FROZEN_SEEDS[1:]) + list(range(2, args.check_seeds)):
            run = runs.get(seed) or one_pass(cli, corpus, workload, seed)
            differ = [op for op, (_, v) in run.items() if verdicts.get(op) != v]
            if differ:
                raise SystemExit(f"{workload}: seed {seed} changes the verdicts of {differ}")
        frozen[workload] = {
            "verdicts": verdicts,
            "sha256": {str(s): {op: d for op, (d, _) in r.items()} for s, r in runs.items()},
        }
        print(f"{workload}: {len(verdicts)} ops, verdicts agree", flush=True)
    if not args.check_seeds:
        worker.DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
