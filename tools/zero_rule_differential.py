"""Differential of the sparsity search between two checkouts, on inputs whose
rows sit near the zero threshold.

Draws 1,200 full-column-rank matrices of 3-10 x 2-6 from seed 0: 300 each of
Gaussian, small-integer and half-sparse Gaussian entries, and 300 Gaussian or
half-sparse ones with their rows scaled by 10^e, e in -4..4.  Each is split
into two blocks, and each with n >= 3 columns also into three blocks of
near-equal sizes.  `dump` writes, one JSON line per matrix, the exact bytes
(float.hex) of `minimal_supports` and `sparsity_gap`, and the
`pairwise_sparsity_gap` table of the three-block split, computed in one
request after that split's full gap, or the error each raises; `compare`
counts how two dumps differ, by kind of input.

    PYTHONPATH=src python tools/zero_rule_differential.py dump > new.jsonl
    PYTHONPATH=<other checkout>/src python tools/zero_rule_differential.py dump > old.jsonl
    python tools/zero_rule_differential.py compare old.jsonl new.jsonl
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import numpy as np

KINDS = ("gaussian", "integer", "half-sparse", "row-scaled")
PER_KIND = 300


def draws():
    """(kind, M, cut) for every input, the same on every checkout."""
    from mechindep import rank

    rng = np.random.default_rng(0)
    for kind in KINDS:
        made = 0
        while made < PER_KIND:
            m = int(rng.integers(3, 11))
            n = int(rng.integers(2, min(m, 6) + 1))
            if kind == "integer":
                M = rng.integers(-3, 4, (m, n)).astype(float)
            else:
                M = rng.standard_normal((m, n))
                if kind == "half-sparse" or (kind == "row-scaled" and made % 2):
                    M *= rng.random((m, n)) < 0.5
                if kind == "row-scaled":
                    M *= 10.0 ** rng.integers(-4, 5, (m, 1))
            cut = int(rng.integers(1, n))
            if rank(M) == n:
                made += 1
                yield kind, M, cut


def _vectors(vectors) -> list:
    return [[[x.hex() for x in v.value], [x.hex() for x in v.coeff], list(v.mask.members)] for v in vectors]


def _outcome(call):
    try:
        return {"ok": call()}
    except Exception as exc:  # the error is the outcome being compared
        return {"error": f"{type(exc).__name__}: {exc}"}


def dump(out) -> None:
    from mechindep import (
        BlockSpec, MechIndepError, minimal_supports, pairwise_sparsity_gap, sparsity_gap
    )
    from mechindep.basis import one_request

    def gap(M, cut):
        g = sparsity_gap(M, BlockSpec((cut, M.shape[1] - cut)))
        return [g.rho_plus, g.rho_minus, _vectors(g.respecting.vectors), _vectors(g.mixing.vectors)]

    def pairwise(M):
        thirds = BlockSpec(tuple(map(len, np.array_split(range(M.shape[1]), 3))))
        with one_request():
            try:
                sparsity_gap(M, thirds)
            except MechIndepError:
                pass  # the table then searches every pair
            return pairwise_sparsity_gap(M, thirds)

    for kind, M, cut in draws():
        row = {
            "kind": kind,
            "shape": list(M.shape),
            "supports": _outcome(lambda: _vectors(minimal_supports(M))),
            "gap": _outcome(lambda: gap(M, cut)),
        }
        if M.shape[1] >= 3:
            row["pairwise"] = _outcome(lambda: pairwise(M))
        out.write(json.dumps(row) + "\n")


def _what(error: str) -> str:
    """An error's type and message without its numbers and row lists."""
    return error.split(" (")[0].split(" rank ")[0]


def compare(old_path: str, new_path: str) -> None:
    with open(old_path) as f_old, open(new_path) as f_new:
        pairs = [(json.loads(a), json.loads(b)) for a, b in zip(f_old, f_new)]
    counts: Counter = Counter()
    for old, new in pairs:
        kind = "unscaled" if old["kind"] != "row-scaled" else "row-scaled"
        counts[kind, "inputs"] += 1
        counts[kind, "pairwise", "inputs"] += "pairwise" in old
        for part in ("supports", "gap", "pairwise"):
            if part not in old:
                continue
            a, b = old[part], new[part]
            if a == b:
                if "error" in a:
                    counts[kind, part, "same error, " + _what(a["error"])] += 1
                continue
            if "error" in a and "error" in b:
                counts[kind, part, "error changed"] += 1
            elif "error" in a:
                counts[kind, part, "result in place of " + _what(a["error"])] += 1
            elif "error" in b:
                counts[kind, part, "new error, " + _what(b["error"])] += 1
            elif part == "gap" and a["ok"][:2] != b["ok"][:2]:
                counts[kind, part, "rho+ or rho- changed"] += 1
            else:
                what = {"gap": "same rho, bytes changed", "pairwise": "table changed"}
                counts[kind, part, what.get(part, "bytes changed")] += 1
    for key, count in sorted(counts.items()):
        print(" / ".join(key), count)


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"]:
        dump(sys.stdout)
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        compare(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
