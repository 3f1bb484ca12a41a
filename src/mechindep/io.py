"""File formats and report rendering: CSV matrices, JSON tensors and grid
regions, and certificate reports in JSON or text."""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import InvalidInput
from .topology import GridRegion


def read_matrix_csv(path) -> np.ndarray:
    """Plain CSV of numbers; parse failures point at the line and column."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            parsed = []
            for colno, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise InvalidInput(
                        f"{path}: line {lineno}, column {colno}: not a number: {cell!r}"
                    )
                if not math.isfinite(value):
                    raise InvalidInput(
                        f"{path}: line {lineno}, column {colno}: non-finite value"
                    )
                parsed.append(value)
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InvalidInput(
                    f"{path}: line {lineno}: expected {width} columns, got {len(parsed)}"
                )
            rows.append(parsed)
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in M:
            writer.writerow([repr(float(x)) for x in row])


def read_tensor_json(path) -> np.ndarray:
    """Tensor format: {"dims": [...], "entries": [row-major flat list]}.

    dims must be a nonempty list of positive integers and entries a flat list
    of JSON numbers; a scalar, bool, string, null or nested value in either
    is InvalidInput naming the dims or the first bad entry."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict) or "dims" not in data or "entries" not in data:
        raise InvalidInput(f"{path}: tensor JSON needs 'dims' and 'entries'")
    dims = data["dims"]
    entries = data["entries"]
    if (
        not isinstance(dims, list)
        or not dims
        or any(type(d) is not int or d < 1 for d in dims)
    ):
        raise InvalidInput(f"{path}: dims must be positive integers, got {dims!r}")
    if not isinstance(entries, list):
        raise InvalidInput(
            f"{path}: entries must be a flat list of numbers, got {type(entries).__name__}"
        )
    for i, e in enumerate(entries):
        if type(e) not in (int, float):
            raise InvalidInput(f"{path}: entry {i} is not a number: {e!r}")
    expected = math.prod(dims)
    if len(entries) != expected:
        raise InvalidInput(
            f"{path}: dims {dims} need {expected} entries, got {len(entries)}"
        )
    try:
        T = np.array(entries, dtype=float).reshape(dims)
    except OverflowError:
        raise InvalidInput(f"{path}: non-finite tensor entries")
    if not np.all(np.isfinite(T)):
        raise InvalidInput(f"{path}: non-finite tensor entries")
    return T


def write_tensor_json(path, T) -> None:
    T = np.asarray(T, dtype=float)
    payload = {"dims": list(T.shape), "entries": [float(x) for x in T.ravel()]}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_region_json(path) -> GridRegion:
    """Region format: {"dims": [...], "occupied": [[1-based coords], ...]}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict) or "dims" not in data or "occupied" not in data:
        raise InvalidInput(f"{path}: region JSON needs 'dims' and 'occupied'")
    return GridRegion.from_occupied(data["dims"], data["occupied"])


def write_region_json(path, region: GridRegion) -> None:
    payload = {"dims": list(region.dims), "occupied": region.occupied_1based()}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def render(fmt: str, header: dict, payload: dict, text_lines) -> bytes:
    """One report, deterministically.  JSON is {"header": header, **payload}
    (no "header" key when header is empty) and round-trips.  Text is one
    "# key: value" line per header entry, then the lines text_lines() returns;
    it is called for text output only."""
    if fmt == "json":
        doc = {"header": header} if header else {}
        doc.update(payload)
        return (json.dumps(_jsonable(doc), indent=2) + "\n").encode()
    if fmt == "text":
        lines = [f"# {key}: {value}" for key, value in (header or {}).items()]
        lines.extend(text_lines())
        return ("\n".join(lines) + "\n").encode()
    raise InvalidInput(f"unknown report format {fmt!r}")


def certificate_lines(certs) -> list[str]:
    """Each certificate as text: criterion and verdict, then its witness and
    notes, indented."""
    if not certs:
        raise InvalidInput("no certificates to report")
    lines = []
    for c in certs:
        lines.append(f"{c.criterion}: {'PASS' if c.holds else 'FAIL'}")
        witness = _jsonable(c.witness)
        if witness:
            lines.append(f"  witness: {json.dumps(witness)}")
        for note in c.notes:
            lines.append(f"  note: {note}")
    return lines


def emit_report(certs, fmt: str = "json", header: dict | None = None, text_lines=None) -> bytes:
    """The certificate case of render.  JSON lists the certificates under
    "certificates"; text gives each its criterion, verdict, witness and notes,
    in that order, unless text_lines supplies the text."""
    if not certs:
        raise InvalidInput("no certificates to report")
    payload = {"certificates": [c.to_dict() for c in certs]}
    return render(fmt, header, payload, text_lines or (lambda: certificate_lines(certs)))
