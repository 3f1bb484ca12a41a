"""Certificates: machine-checkable verdicts with witnesses and input digests."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Certificate:
    """Outcome of one check.

    criterion: short code ("D", "M", "S", "S-pairwise", "H2", "H3", "O",
        "separability", "supportUnion", "l0NonIncrease", "hierarchy",
        "assignment", plus "D-irreducible", "M-irreducible", "S-irreducible",
        "H2-irreducible", "H3-irreducible", "blockStructure", "premises").
    holds: the verdict.
    witness: JSON-ready evidence sufficient to re-check the verdict.
    notes: human-facing caveats and provenance remarks.
    inputs_digest: content hash of the exact inputs the verdict refers to.
    """

    criterion: str
    holds: bool
    witness: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    inputs_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "holds": self.holds,
            "witness": self.witness,
            "notes": list(self.notes),
            "inputsDigest": self.inputs_digest,
        }


@dataclass(frozen=True)
class _IntRows:
    """An (N, K) integer array, digested as its nested list arr.tolist() is:
    each row is "L" and K, then "I" and each coordinate, all int64."""
    arr: np.ndarray


def _update(h, part):
    if part is None:
        h.update(b"N")
    elif isinstance(part, _IntRows):  # the nested-list bytes in one update
        n, k = part.arr.shape
        rec = np.empty((n, k + 1), dtype=[("tag", "S1"), ("value", "<i8")])
        rec["tag"], rec["value"][:, 1:] = b"I", part.arr
        rec[:, 0] = (b"L", k)
        h.update(b"L" + struct.pack("<q", n) + rec.tobytes())
    elif isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part, dtype=float)
        h.update(b"A")
        h.update(struct.pack("<q", arr.ndim))
        for d in arr.shape:
            h.update(struct.pack("<q", d))
        h.update(arr.tobytes())
    elif isinstance(part, bool):
        h.update(b"T" if part else b"F")
    elif isinstance(part, int):
        h.update(b"I" + struct.pack("<q", part))
    elif isinstance(part, float):
        h.update(b"D" + struct.pack("<d", part))
    elif isinstance(part, str):
        raw = part.encode("utf-8")
        h.update(b"S" + struct.pack("<q", len(raw)) + raw)
    elif isinstance(part, (tuple, list)):
        h.update(b"L" + struct.pack("<q", len(part)))
        for item in part:
            _update(h, item)
    elif hasattr(part, "sizes"):  # BlockSpec without importing it here
        h.update(b"B")
        _update(h, tuple(part.sizes))
    else:
        raise TypeError(f"cannot digest {type(part).__name__}")


def inputs_digest(*parts) -> str:
    """Stable content hash of the inputs a certificate refers to.

    Arrays are hashed as float64 row-major bytes plus shape, so the library and
    the CLI produce identical digests for the same values regardless of source.
    """
    h = hashlib.sha256()
    for part in parts:
        _update(h, part)
    return h.hexdigest()
