"""File formats and report rendering: CSV matrices, JSON tensors and grid
regions, and certificate reports in JSON or text.

A matrix CSV of plain numbers is read in one C parse (np.loadtxt); any other
CSV is read cell by cell, which names the first bad cell, row or byte."""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import InvalidInput
from .topology import GridRegion, _check_dims


# digits, signs, points, exponents, commas, blanks and line ends
_PLAIN = b"0123456789+-.eE, \t\r\n"


def read_matrix_csv(path) -> np.ndarray:
    """CSV of numbers: each nonblank row's cells as csv.reader splits them
    and float() parses them, finite and as many in every row.  A file of
    _PLAIN bytes with no line past csv's field size limit is one np.loadtxt
    over its lines, split at CR, LF and CRLF as csv splits them; its parser
    (PyOS_string_to_double) reads a plain cell as float() does.  Any other
    file, and one loadtxt rejects (1_0) or reads as non-finite, goes to
    _read_cells, which raises what the first bad line raises."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.translate(None, _PLAIN):
        lines = data.decode("ascii").splitlines()
        # blank lines only are no data, which loadtxt warns of; a cell fits its line
        if any(lines) and max(map(len, lines)) <= csv.field_size_limit():
            try:
                M = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if np.isfinite(M).all():
                    return M
    return _read_cells(path)


def _read_cells(path) -> np.ndarray:
    """read_matrix_csv cell by cell: the first bad cell, row or byte raises."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader, end = csv.reader(fh), 0
        try:
            for record in reader:
                # a record starts on the line after the previous record's last
                lineno, end = end + 1, reader.line_num
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
        except csv.Error as exc:
            # a record csv cannot read, such as one with a cell past csv's field size limit
            raise InvalidInput(f"{path}: line {end + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc)
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_matrix_csv(path, M) -> None:
    """M's rows of float reprs as csv.writer writes them: no repr needs quotes."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInput(f"{path}: a matrix CSV needs a 2-D array, got shape {M.shape}")
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in M.tolist()))


def _undecodable(path, exc: UnicodeDecodeError) -> InvalidInput:
    """InvalidInput naming the file's first byte that exc's codec cannot
    decode: a reader that decodes its file in chunks counts exc's offset
    from the start of the chunk."""
    with open(path, "rb") as fh:
        try:
            fh.read().decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
    return InvalidInput(f"{path}: byte offset {exc.start}: not {exc.encoding} text ({exc.reason})")


def _read_json(path, kind: str, second: str) -> dict:
    """The JSON object of a tensor or region file (kind), InvalidInput unless
    it decodes, parses and has the keys 'dims' and second."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc)
    if not isinstance(data, dict) or "dims" not in data or second not in data:
        raise InvalidInput(f"{path}: {kind} JSON needs 'dims' and '{second}'")
    return data


def read_tensor_json(path) -> np.ndarray:
    """Tensor format: {"dims": [...], "entries": [row-major flat list]}.

    dims must be a nonempty list of positive integers and entries a flat list
    of JSON numbers; a scalar, bool, string, null or nested value in either
    is InvalidInput naming the dims or the first bad entry."""
    data = _read_json(path, "tensor", "entries")
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
    if not set(map(type, entries)) <= {int, float}:
        i, e = next((i, e) for i, e in enumerate(entries) if type(e) not in (int, float))
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


# the list items _write_listing encodes at once
_PART = 1024


def _write_listing(path, dims: list, key: str, parts) -> None:
    """{"dims": dims, key: the items of the nonempty lists parts, in order}
    and a newline, byte for byte as json.dump writes it, encoding one part at
    a time on the C encoder with json.dump's separators (_LINE): a list's
    items are joined by ", " either way."""
    with open(path, "w") as fh:
        fh.write(f'{{"dims": {_LINE.encode(dims)}, "{key}": [')
        for i, part in enumerate(parts):
            fh.write((", " if i else "") + _LINE.encode(part)[1:-1])
        fh.write("]}\n")


def write_tensor_json(path, T) -> None:
    T = np.asarray(T, dtype=float)
    flat = T.ravel()
    parts = (flat[i : i + _PART].tolist() for i in range(0, flat.size, _PART))
    _write_listing(path, list(T.shape), "entries", parts)


def read_region_json(path) -> GridRegion:
    """Region format: {"dims": [...], "occupied": [[1-based coords], ...]}.

    The layout write_region_json and json.dump write is read straight into
    one int64 array (_region_cells).  Any other layout, and any coordinate
    that is not a plain integer of at most 18 digits, is read by json, which
    raises every error; both give the same region."""
    with open(path, "rb") as fh:
        cells = _region_cells(fh.read())
    if cells is None:
        data = _read_json(path, "region", "occupied")
        return GridRegion.from_occupied(data["dims"], data["occupied"])
    return GridRegion.from_occupied(*cells)


# the region file as json.dump writes it: {"dims": <list>, "occupied":
# [[a, b, ...], ...]} and at most a newline
_DIMS, _OCCUPIED = b'{"dims": ', b', "occupied": '
_DIGITS = b"0123456789"


def _region_cells(data: bytes):
    """(dims, cells) of the bytes of a region file in json.dump's layout,
    whose dims pass _check_dims: the dims text as json.loads reads it, and
    the cells as _listing reads the occupied list; None for any other text."""
    end = len(data) - data.endswith(b"\n")
    close = data.find(b"]", len(_DIMS))  # dims is the first list
    start = close + 1 + len(_OCCUPIED)
    if not (
        data.startswith(_DIMS)
        and data.startswith(_OCCUPIED, close + 1)
        and data.endswith(b"]]}", start, end)
    ):
        return None
    try:
        dims = json.loads(data[len(_DIMS) : close + 1].decode("ascii"))
        _check_dims(dims)
    except (ValueError, RecursionError, InvalidInput):
        return None
    cells = _listing(data[start : end - 1], len(dims))
    return None if cells is None else (dims, cells)


def _listing(text: bytes, K: int):
    """The (N, K) int64 array of the integers that text lists, which must be
    [[n, n, ...], ...]: N >= 1 rows of K integers, joined by ", " within a
    row and by "], [" between rows, each one JSON's int with no sign, no
    leading zero and at most 18 digits, so within int64; None for any other
    text.  The separators are checked by position: the bytes between two
    digit runs are as many as their separator's, as are the bytes after the
    last, and the bytes off the digit runs are the separators in order, so
    the bytes before the first run are "[[" too."""
    a = np.frombuffer(text, np.uint8)
    v = a - np.uint8(ord("0"))  # a digit's value, above 9 off the digits
    digit = v < 10
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    del digit
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]  # of each digit run
    M = len(ends)
    if not M or M % K or len(starts) != M or v[0] < 10 or len(a) - ends[-1] != 2:
        return None
    gaps = np.full(M - 1, 2, dtype=np.int8)
    gaps[K - 1 :: K] = 4  # a row's last number is followed by "], ["
    row = b", " * (K - 1)
    if not (
        np.array_equal(starts[1:] - ends[:-1], gaps)
        and text.translate(None, _DIGITS) == b"[[" + (row + b"], [") * (M // K - 1) + row + b"]]"
    ):
        return None
    lengths = ends - starts
    width = int(lengths.max())
    if width > 18 or ((v[starts] == 0) & (lengths > 1)).any():
        return None
    # Horner's rule over the places, one gather each, the highest first; with
    # v 0 off the digits, the two separator bytes before a number stand for
    # its missing places up to the hundreds, and starts clamps those beyond
    v *= v < 10
    del lengths
    starts -= 1  # the byte before each number
    ends -= width  # its highest place's byte
    cells = np.zeros(M, dtype=np.int64)
    for place in reversed(range(width)):
        cells *= 10
        cells += v[ends if place < 3 else np.maximum(ends, starts)]
        ends += 1
    return cells.reshape(-1, K)


def write_region_json(path, region: GridRegion) -> None:
    cells = region.coords
    parts = ((cells[i : i + _PART] + 1).tolist() for i in range(0, len(cells), _PART))
    _write_listing(path, list(region.dims), "occupied", parts)


def _default(obj):
    """The encoder's hook for numpy values: arrays as nested lists, integers
    and bools as Python's, floats as float (np.float64 is a float already)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# indent None keeps json on its C encoder; the report separators are
# indent=2's (",", ": "), the text witness line and the listing files have
# json.dump's (", ", ": ")
_COMPACT = json.JSONEncoder(separators=(",", ": "), default=_default)
_LINE = json.JSONEncoder(default=_default)

# byte -> 1 open bracket, 2 close bracket, 3 comma; code -> depth step
_CLOSE = 2
_CODE = np.zeros(256, dtype=np.int8)
_CODE[list(b"[{")] = 1
_CODE[list(b"]}")] = _CLOSE
_CODE[ord(",")] = 3
_STEP = np.array([0, 1, -1, 0])


def to_json(doc) -> bytes:
    """doc as json.dumps(doc, indent=2) writes it, plus a newline, from the C
    encoder's compact text and one numpy pass that indents it.

    indent=2 differs from the compact text by whitespace only: a newline and
    two spaces per depth after each open bracket and each comma and before
    each close bracket, except inside an empty [] or {}, and ": " in both.
    The text is ASCII (ensure_ascii), and a bracket or comma inside a string
    is masked out by the quotes around it: a byte is outside the strings iff
    an even number of unescaped quotes precede it.  A quote is escaped iff
    the run of backslashes before it is odd, since a backslash escapes the
    next byte iff it sits at an even offset in its run; str.replace pairs
    backslashes from the left, so a \\" it leaves is an escaped quote."""
    text = _COMPACT.encode(doc)
    masked = text.replace("\\\\", "__").replace('\\"', "__")
    quotes = np.flatnonzero(np.frombuffer(masked.encode(), dtype=np.uint8) == ord('"'))
    a = np.frombuffer(text.encode(), dtype=np.uint8)
    at = np.flatnonzero(_CODE[a])
    at = at[np.searchsorted(quotes, at) % 2 == 0]
    kind = _CODE[a[at]]
    depth = np.cumsum(_STEP[kind])
    before = at + (kind != _CLOSE)  # an insertion goes before this byte
    # an empty pair puts its open's and its close's insertion at one byte
    alone = np.ones(at.size + 1, dtype=bool)
    alone[1:-1] = before[1:] != before[:-1]
    keep = alone[:-1] & alone[1:]
    before, width = before[keep], 1 + 2 * depth[keep]
    # each byte moves right by the widths inserted at or before it
    place = np.zeros(a.size, dtype=np.intp)
    place[before] = width
    np.cumsum(place, out=place)
    place += np.arange(a.size)
    out = np.full(a.size + width.sum() + 1, ord(" "), dtype=np.uint8)
    out[place] = a
    out[place[before] - width] = ord("\n")
    out[-1] = ord("\n")
    return out.tobytes()


def render(fmt: str, header: dict, payload: dict, text_lines) -> bytes:
    """One report, deterministically.  JSON is {"header": header, **payload}
    (no "header" key when header is empty) and round-trips; to_json writes
    it byte for byte as json.dumps(doc, indent=2) does (to_json says why).
    Text is one "# key: value" line per header entry, then the lines
    text_lines() returns; it is called for text output only.

    Keys: every report builds str keys except SliceSpec.fixed_1based, whose
    keys are Python ints; json writes both as str(k) writes them.  Other keys
    (bool, None, numpy) follow json's own key rules."""
    if fmt == "json":
        doc = {"header": header} if header else {}
        doc.update(payload)
        return to_json(doc)
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
        if c.witness:
            lines.append(f"  witness: {_LINE.encode(c.witness)}")
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
