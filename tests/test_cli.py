"""Command-line front end: exit codes, report formats, determinism, and the
thin-adapter property (CLI verdicts equal direct library verdicts)."""

import argparse
import codecs
import hashlib
import json
import locale
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from mechindep import basis, cli, topology
from mechindep import io as mechindep_io
from mechindep.basis import BlockSpec
from mechindep.cli import _build_parser, main, run
from mechindep.criteria import check_type_d, check_type_m, check_type_s
from mechindep.graphs import block_structure_audit, build_graph, components
from mechindep.io import (
    emit_report,
    read_matrix_csv,
    read_region_json,
    read_tensor_json,
    write_matrix_csv,
    write_region_json,
    write_tensor_json,
)
from mechindep.errors import InvalidInput
from mechindep.synth import OverlapTemplate, gen_overlap_jacobian
from mechindep.topology import GridRegion, premise_report

from golden import GOLDEN
from regions import hollow_cube_mask


@pytest.fixture()
def workdir(tmp_path):
    for name in ("A", "B", "D"):
        write_matrix_csv(tmp_path / f"{name}.csv", np.array(GOLDEN[name]["matrix"], float))
    cells = [(x, 0) for x in range(5)] + [(x, 2) for x in range(5)] + [(0, 1)]
    write_region_json(tmp_path / "bracket.json", GridRegion((5, 3), frozenset(cells)))
    return tmp_path


def test_matrix_csv_round_trip(tmp_path):
    M = np.array([[1.5, -2.0], [0.0, 1e-3]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert np.array_equal(read_matrix_csv(path), M)


def test_matrix_csv_writer_needs_a_2d_array(tmp_path):
    """A 1-D or 3-D array is InvalidInput naming its shape, raised before the
    file is made; an empty 2-D array writes one line per row, as csv.writer
    does."""
    path = tmp_path / "m.csv"
    for shape in ((3,), (2, 2, 2)):
        with pytest.raises(InvalidInput, match=re.escape(f"got shape {shape}")):
            write_matrix_csv(path, np.zeros(shape))
        assert not path.exists()
    for shape, text in (((0, 3), b""), ((3, 0), b"\r\n" * 3)):
        write_matrix_csv(path, np.zeros(shape))
        assert path.read_bytes() == text


def test_matrix_csv_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(InvalidInput, match=r"line 2, column 2"):
        read_matrix_csv(path)
    path.write_text("1,2\n3\n")
    with pytest.raises(InvalidInput, match=r"line 2"):
        read_matrix_csv(path)
    path.write_text("")
    with pytest.raises(InvalidInput, match="no data"):
        read_matrix_csv(path)
    # a quoted cell spanning two lines: the next record starts on line 4
    path.write_text('1,2\n"3\n",4\nx,5\n')
    with pytest.raises(InvalidInput, match="line 4, column 1: not a number: 'x'"):
        read_matrix_csv(path)


def test_over_long_csv_cell_exits_two_naming_its_line(tmp_path, capsys):
    """A cell past csv's field size limit (131,072 characters) is invalid
    input naming the line on which its record starts, not csv.Error."""
    path = tmp_path / "long.csv"
    path.write_text('1,2\n"3\n",4\n5,' + "7" * 200_000 + "\n")
    message = f"{path}: line 4: field larger than field limit (131072)"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        read_matrix_csv(path)
    assert main(["analyze", "--criteria", "d", "--blocks", "1,1", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"mechindep: error: {message}\n"
    # a finite cell as long, in a file of plain bytes only
    path.write_text("1,2\n3,0." + "0" * 200_000 + "1\n")
    with pytest.raises(InvalidInput, match=re.escape(f"{path}: line 2: field larger than field limit")):
        read_matrix_csv(path)


def _counted_cells(monkeypatch):
    """A list that io._read_cells, the cell loop, appends each path it reads to."""
    paths, read_cells = [], mechindep_io._read_cells

    def counted(path):
        paths.append(path)
        return read_cells(path)

    monkeypatch.setattr(mechindep_io, "_read_cells", counted)
    return paths


def test_plain_csv_is_one_parse_without_csv(tmp_path, monkeypatch):
    """A file of plain bytes (digits, + - . e E, commas, blanks and CR, LF
    or CRLF line ends) is read without csv.reader and without the cell
    loop."""
    cells = _counted_cells(monkeypatch)

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(mechindep_io.csv, "reader", no_reader)
    path = tmp_path / "m.csv"
    path.write_bytes(b"1.5, -2e3\r\n\n+.25,\t0\r-0,1E-3\n")
    M = read_matrix_csv(path)
    assert M.tobytes() == np.array([[1.5, -2e3], [0.25, 0.0], [-0.0, 1e-3]]).tobytes()
    assert cells == []


@pytest.mark.parametrize("text, last", [('1,"2"\n3,4\n', 4.0), ("1,2\n3,1_0\n", 10.0)])
def test_csv_off_the_plain_parse_reads_cell_by_cell(tmp_path, monkeypatch, text, last):
    """A quoted cell (a byte off the plain alphabet) and 1_0 (plain bytes
    that float() reads and the C parse does not) are read by the cell loop."""
    cells = _counted_cells(monkeypatch)
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert read_matrix_csv(path).tolist() == [[1.0, 2.0], [3.0, last]]
    assert cells == [path]


def test_blank_csv_has_no_data_rows_and_no_warning(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"\n\r\n\r\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInput, match=re.escape(f"{path}: no data rows")):
            read_matrix_csv(path)
    assert caught == []


def test_tensor_json_round_trip(tmp_path):
    T = np.arange(12.0).reshape(2, 2, 3)
    path = tmp_path / "t.json"
    write_tensor_json(path, T)
    assert np.array_equal(read_tensor_json(path), T)
    path.write_text(json.dumps({"dims": [2, 2], "entries": [1, 2, 3]}))
    with pytest.raises(InvalidInput, match="4 entries"):
        read_tensor_json(path)


@pytest.mark.parametrize(
    "payload, words",
    [
        ({"dims": 3, "entries": [1, 2, 3]}, "dims"),
        ({"dims": [True, 2], "entries": [1, 2]}, "dims"),
        ({"dims": [2.0], "entries": [1, 2]}, "dims"),
        ({"dims": [], "entries": []}, "dims"),
        ({"dims": [0], "entries": []}, "dims"),
        ({"dims": "2", "entries": [1, 2]}, "dims"),
        ({"dims": [2], "entries": [1, "2"]}, "entry 1 is not a number: '2'"),
        ({"dims": [2], "entries": [1, True]}, "entry 1 is not a number: True"),
        ({"dims": [2], "entries": [None, 1]}, "entry 0 is not a number: None"),
        ({"dims": [2, 1], "entries": [[1], [2]]}, "entry 0 is not a number: [1]"),
        ({"dims": [2], "entries": {"0": 1, "1": 2}}, "entries must be a flat list"),
        ({"dims": [1], "entries": 5}, "entries must be a flat list"),
        ({"dims": [1], "entries": [10**400]}, "non-finite"),
    ],
)
def test_tensor_validation(tmp_path, capsys, payload, words):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidInput) as info:
        read_tensor_json(path)
    assert words in str(info.value)
    if payload["dims"] == 3:
        write_matrix_csv(tmp_path / "m.csv", np.eye(2))
        argv = ["analyze", "--criteria", "h2", "--blocks", "1,1", "--hessian", str(path)]
        assert main(argv + [str(tmp_path / "m.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mechindep: error:") and "dims" in captured.err


@pytest.mark.parametrize(
    "read, words",
    [
        (read_tensor_json, "tensor JSON needs 'dims' and 'entries'"),
        (read_region_json, "region JSON needs 'dims' and 'occupied'"),
    ],
)
def test_json_readers_share_parse_and_key_checks(tmp_path, read, words):
    path = tmp_path / "x.json"
    path.write_text('{"dims": [2],\n "entries": ')
    with pytest.raises(InvalidInput, match="line 2, column"):
        read(path)
    for payload in ([1, 2], {"dims": [2]}, {"entries": [1], "occupied": []}):
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInput, match=words):
            read(path)


def test_region_json_round_trip(tmp_path):
    r = GridRegion((2, 3), frozenset({(0, 0), (1, 2)}))
    path = tmp_path / "r.json"
    write_region_json(path, r)
    assert read_region_json(path).cells == r.cells


def test_emit_report_requires_certificates():
    with pytest.raises(InvalidInput):
        emit_report([], "json")


def _parse(*argv):
    return _build_parser().parse_args([str(a) for a in argv])


def test_analyze_exit_codes_match_verdicts(workdir):
    req = _parse("analyze", "--blocks", "2,2", "--criteria", "d,m,s", "--format", "json",
                 workdir / "D.csv")
    code, body = run(req)
    assert code == 1          # Type D fails on this matrix
    doc = json.loads(body)
    verdicts = {c["criterion"]: c["holds"] for c in doc["certificates"]}
    assert verdicts == {"D": False, "M": True, "S": True}


def test_analyze_is_thin_adapter(workdir):
    M = read_matrix_csv(workdir / "D.csv")
    blocks = BlockSpec((2, 2))
    direct = [check_type_d(M, blocks), check_type_m(M, blocks), check_type_s(M, blocks)]
    req = _parse("analyze", "--blocks", "2,2", "--criteria", "d,m,s", "--format", "json",
                 workdir / "D.csv")
    _, body = run(req)
    via_cli = json.loads(body)["certificates"]
    assert via_cli == [json.loads(json.dumps(c.to_dict())) for c in direct]


def test_decompose_prints_components(workdir, capsys):
    code = main(["decompose", str(workdir / "A.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "component 1: {1, 2}" in out
    assert out.count("component") == 1


def test_decompose_matches_library(workdir):
    req = _parse("decompose", "--format", "json", workdir / "D.csv")
    _, body = run(req)
    doc = json.loads(body)
    M = read_matrix_csv(workdir / "D.csv")
    assert doc["components"] == [list(c) for c in components(build_graph(M, "D"))]


def test_decompose_dot_output(workdir, capsys):
    code = main(["decompose", "--format", "dot", str(workdir / "A.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("graph factors {")
    assert out.count("{") == out.count("}")
    assert "v1 -- v2;" in out


def test_gap_command_text_values(workdir, capsys):
    code = main(["gap", "--blocks", "1,1,1", str(workdir / "B.csv")])
    out = capsys.readouterr().out
    assert code == 1
    assert "rhoPlus=9" in out
    assert "rhoMinus=9" in out
    assert "independent=false" in out


def test_gap_pairwise_table(workdir, capsys):
    code = main(["gap", "--blocks", "1,1,1", "--pairwise", str(workdir / "B.csv")])
    out = capsys.readouterr().out
    assert code == 1          # the full gap still fails; pairwise all pass
    assert "pairwise 1: T T T" in out


def _count_gap_searches(monkeypatch) -> list:
    """A list that grows by one matrix shape per gap searched: each gap
    search makes one forced-mixing pass over the flats, the only _flats call
    given blocks, on a stack of that one matrix."""
    searches = []
    flats = basis._flats

    def counted(M, tol, blocks=None):
        if blocks is not None:
            searches.append(M.shape[1:])
        return flats(M, tol, blocks)

    monkeypatch.setattr(basis, "_flats", counted)
    return searches


@pytest.mark.parametrize("argv, calls", [
    ("analyze --criteria d,m,s,hierarchy --blocks 2,2 D.csv", 1),
    ("gap --pairwise --blocks 2,2 D.csv", 1),
    ("gap --pairwise --blocks 1,1,1 B.csv", 4),
])
def test_one_gap_per_instance_per_request(workdir, monkeypatch, capsys, argv, calls):
    """Checkers of one request that ask for the same gap share one search;
    a second identical request searches again."""
    searches = _count_gap_searches(monkeypatch)
    monkeypatch.chdir(workdir)
    first = main(argv.split())
    out = capsys.readouterr().out
    assert len(searches) == calls
    assert main(argv.split()) == first
    assert capsys.readouterr().out == out
    assert len(searches) == 2 * calls


def test_gaps_of_one_request_share_each_block_search(tmp_path, monkeypatch, capsys):
    """gap --pairwise on an independent K = 3 instance makes 2 passes over
    the flats: one stacked pass for the ground sets of its three blocks,
    all of width 2, and one for the whole matrix's mixing strata; the full
    gap decides every pair.  The report bytes are those of searching each
    gap afresh, with no memo to read the full gap from: 2 passes for it,
    and 2 for each pair, its two blocks stacked and its mixing strata."""
    M, blocks, _ = gen_overlap_jacobian(OverlapTemplate(K=3, slot_dim=2, slot_out=3, seed=1))
    path = tmp_path / "k3.csv"
    write_matrix_csv(path, M)
    argv = ["gap", "--pairwise", "--blocks", "2,2,2", "--format", "json", str(path)]
    calls = []
    flats = basis._flats

    def counted(M, tol, blocks=None):
        calls.append((M.shape, M.tobytes(), blocks))
        return flats(M, tol, blocks)

    monkeypatch.setattr(basis, "_flats", counted)
    code = main(argv)
    out = capsys.readouterr().out
    assert json.loads(out)["certificates"][0]["holds"] is True
    assert len(calls) == len(set(calls)) == 2
    assert [(shape, blocks) for shape, _, blocks in calls] == [((3, 9, 2), None), ((1, 9, 6), blocks)]
    monkeypatch.setattr(basis, "_once", lambda key, search: search())
    assert main(argv) == code
    assert capsys.readouterr().out == out
    assert len(calls) == 2 + 2 + 3 * 2


def test_a_decided_pair_runs_only_its_input_check(tmp_path, monkeypatch, capsys):
    """gap --pairwise on an independent K = 3 instance searches the full
    gap's two sides once each; each of the three pairs it decides runs its
    input check (_search_input) and no basis search."""
    M, _, _ = gen_overlap_jacobian(OverlapTemplate(K=3, slot_dim=2, slot_out=3, seed=1))
    path = tmp_path / "k3.csv"
    write_matrix_csv(path, M)
    searches, checks = Counter(), []
    sparsest, search_input = basis.sparsest_basis, basis._search_input

    def counted_search(M, blocks, mode, tol=None):
        searches[mode] += 1
        return sparsest(M, blocks, mode, tol)

    def counted_check(M, blocks, tol):
        checks.append(M.shape)
        return search_input(M, blocks, tol)

    monkeypatch.setattr(basis, "sparsest_basis", counted_search)
    monkeypatch.setattr(basis, "_search_input", counted_check)
    assert main(["gap", "--pairwise", "--blocks", "2,2,2", "--format", "json", str(path)]) == 0
    assert [c["holds"] for c in json.loads(capsys.readouterr().out)["certificates"]] == [True, True]
    assert searches == {"blockRespecting": 1, "forceMixing": 1}
    assert checks == [M.shape] + [(M.shape[0], 4)] * 3


def test_dependent_full_gap_searches_every_pair(tmp_path, monkeypatch, capsys):
    """On a dependent planted chain of K = 3 blocks the full gap decides no
    pair: gap --pairwise searches it and then each of the three pairs."""
    M, _, _ = gen_overlap_jacobian(OverlapTemplate(K=3, slot_dim=2, slot_out=2, overlap_ratio=0.25))
    path = tmp_path / "chain.csv"
    write_matrix_csv(path, M)
    searches = _count_gap_searches(monkeypatch)
    assert main(["gap", "--pairwise", "--blocks", "2,2,2", "--format", "json", str(path)]) == 1
    table = json.loads(capsys.readouterr().out)["certificates"][1]["witness"]["table"]
    assert table == [[True, False, True], [False, True, False], [True, False, True]]
    assert searches == [(8, 6)] + [(8, 4)] * 3


def test_pairwise_alone_never_starts_the_full_gap(tmp_path, monkeypatch, capsys):
    """The full gap decides the pairs only once the request has searched it:
    on an independent planted chain, analyze --criteria s-pairwise alone
    searches every pair, and gap --pairwise the full gap only."""
    M, _, _ = gen_overlap_jacobian(OverlapTemplate(K=3, slot_dim=1, slot_out=3, overlap_ratio=0.5))
    path = tmp_path / "chain.csv"
    write_matrix_csv(path, M)
    searches = _count_gap_searches(monkeypatch)
    assert main(["analyze", "--criteria", "s-pairwise", "--blocks", "1,1,1", str(path)]) == 0
    assert searches == [(15, 2)] * 3
    assert main(["gap", "--pairwise", "--blocks", "1,1,1", str(path)]) == 0
    assert searches[3:] == [(15, 3)]
    capsys.readouterr()


def test_two_block_pairwise_checks_its_input_once(tmp_path, monkeypatch, capsys):
    """With K = 2 the one pair is the whole matrix with the same blocks:
    gap --pairwise on an independent planted instance, whose full gap
    decides the pair, checks its input (_search_input) once and reads the
    pair's block-respecting side from the request."""
    M, _, _ = gen_overlap_jacobian(OverlapTemplate(K=2, slot_dim=2, slot_out=3))
    path = tmp_path / "k2.csv"
    write_matrix_csv(path, M)
    checks = []
    search_input = basis._search_input

    def counted(M, blocks, tol):
        checks.append(M.shape)
        return search_input(M, blocks, tol)

    monkeypatch.setattr(basis, "_search_input", counted)
    assert main(["gap", "--pairwise", "--blocks", "2,2", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"][0]["holds"] is True
    assert checks == [M.shape]


@pytest.mark.parametrize("slices, orders", [("2", [2]), ("1", [2, 1])])
def test_one_slice_report_per_order_per_request(tmp_path, monkeypatch, capsys, slices, orders):
    """On a 3-D region, --slices 2 shares the premises' 2-slice report; any
    other order is computed after it."""
    region = hollow_cube_mask()
    path = tmp_path / "cube.json"
    write_region_json(path, region)
    made = []
    report = topology.SliceReport

    def counted(**fields):
        made.append(fields["k"])
        return report(**fields)

    monkeypatch.setattr(topology, "SliceReport", counted)
    assert main(["topology", "--slices", slices, "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert made == orders
    monkeypatch.undo()
    assert doc["certificates"] == [premise_report(region).to_dict()]
    rep = topology.slices_connected(region, int(slices))
    assert doc["slices"]["allConnected"] is rep.all_connected is (slices == "2")
    assert [s["cells"] for s in doc["slices"]["slices"]] == [v.cell_count for v in rep.verdicts]


def test_a_failed_request_closes_its_scope(workdir, monkeypatch, capsys):
    """A request that exits 2 after a gap search still drops its memo: the
    searches after it, outside a request, run afresh."""
    searches = _count_gap_searches(monkeypatch)
    monkeypatch.chdir(workdir)
    assert basis._searches.get() is None
    assert main(["analyze", "--criteria", "s,x", "--blocks", "2,2", "D.csv"]) == 2
    assert "unknown criterion 'x'" in capsys.readouterr().err
    assert basis._searches.get() is None
    M = read_matrix_csv(workdir / "D.csv")
    assert check_type_s(M, (2, 2)).holds is check_type_s(M, (2, 2)).holds
    assert len(searches) == 3


def test_parser_built_once_per_process(workdir, monkeypatch, capsys):
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _build_parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["topology", str(workdir / "bracket.json")]) == 1
    finally:
        _build_parser.cache_clear()
    commands = ["analyze", "decompose", "gap", "topology", "synth", "audit"]
    assert made == ["mechindep"] + [f"mechindep {c}" for c in commands]
    assert capsys.readouterr().out.count("premises: FAIL") == 2


def test_help_laid_out_for_the_width_at_print_time(monkeypatch, capsys):
    """The one parser lays --help out as a parser built for the call would,
    at the COLUMNS of that moment."""
    out = {}
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["topology", "--help"]):
            assert main(argv) == 0
            out[columns, argv[0]] = capsys.readouterr().out
            with pytest.raises(SystemExit):
                _build_parser.__wrapped__().parse_args(argv)
            assert capsys.readouterr().out == out[columns, argv[0]]
    assert out["80", "topology"] != out["120", "topology"]
    assert max(map(len, out["80", "topology"].splitlines())) <= 80


def test_main_without_argv_reads_the_command_line(workdir, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mechindep", "topology", str(workdir / "bracket.json")])
    assert main() == 1
    assert "premises: FAIL" in capsys.readouterr().out


def test_topology_command(workdir, capsys):
    code = main(["topology", "--slices", "1", str(workdir / "bracket.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "premises: FAIL" in out
    assert "DISCONNECTED" in out
    region = read_region_json(workdir / "bracket.json")
    assert premise_report(region).holds is False


def test_synth_audit_round_trip(workdir, capsys):
    out_prefix = str(workdir / "planted")
    code = main([
        "synth", "--k", "2", "--slot-dim", "2", "--slot-out", "4",
        "--overlap", "0", "--seed", "6", "--out", out_prefix,
    ])
    assert code == 0
    header = capsys.readouterr().out
    assert "# seed: 6" in header

    code = main(["audit", "--k", "2", "--seed", "1", out_prefix + ".csv"])
    audit_out = capsys.readouterr().out
    assert code == 0
    assert "blockStructure: PASS" in audit_out
    assert "# seed: 1" in audit_out

    M = read_matrix_csv(out_prefix + ".csv")
    assert block_structure_audit(M, 2, seed=1).holds

    sidecar = json.loads((workdir / "planted.json").read_text())
    assert sidecar["expectedVerdicts"]["typeD"] is True
    assert sidecar["blocks"] == [2, 2]

    code = main(["audit", "--k", "1", "--seed", "1", out_prefix + ".csv"])
    capsys.readouterr()
    assert code == 1          # claiming one block undercounts the maximum


def test_batch_mode_stable_order(workdir, capsys):
    batch = workdir / "batch"
    batch.mkdir()
    M = np.array(GOLDEN["D"]["matrix"], float)
    for name in ("zz.csv", "aa.csv", "mm.csv"):
        write_matrix_csv(batch / name, M)
    code = main(["analyze", "--criteria", "m", "--blocks", "2,2",
                 "--format", "json", "--batch", str(batch)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [f["input"] for f in doc["files"]] == ["aa.csv", "mm.csv", "zz.csv"]


@pytest.mark.parametrize("criteria", ["", ",", " , "])
@pytest.mark.parametrize("mode", [[], ["--batch"]])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_empty_criteria_list_exits_two(workdir, capsys, criteria, mode, fmt):
    """A --criteria naming no criterion is a usage error in every mode and
    format, before any input is read."""
    batch = workdir / "batch"
    batch.mkdir()
    write_matrix_csv(batch / "d.csv", np.array(GOLDEN["D"]["matrix"], float))
    path = batch if mode else batch / "d.csv"
    argv = ["analyze", "--criteria", criteria, "--blocks", "2,2", "--format", fmt, *mode, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --criteria: criteria must name at least one criterion: {criteria!r}" in captured.err


def test_reports_are_byte_identical(workdir, capsys):
    args = ["analyze", "--criteria", "d,m,s,o", "--blocks", "2,2",
            "--format", "json", str(workdir / "D.csv")]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_tol_flag_overrides_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("MECHINDEP_TOL", "0.25")
    main(["analyze", "--criteria", "d", "--blocks", "2,2", str(workdir / "D.csv")])
    out = capsys.readouterr().out
    assert "# tolRel: 0.25" in out
    main(["analyze", "--tol", "1e-6", "--criteria", "d", "--blocks", "2,2",
          str(workdir / "D.csv")])
    out = capsys.readouterr().out
    assert "# tolRel: 1e-06" in out


def test_overflowing_matrix_exits_two(workdir, capsys):
    """Entries near the float limit overflow in elimination: a usage error
    naming the overflow, not a traceback or a FAIL verdict."""
    big = np.array([[0.0, -1.7e308, 1.7e308, 1.7e308], [1.7e308, 0.0, 0.0, 8.5e307],
                    [-8.5e307, 8.5e307, 0.0, 1.7e308], [1.7e308, 8.5e307, -8.5e307, 1.7e308],
                    [8.5e307, 0.0, 0.0, 1.7e308]])
    write_matrix_csv(workdir / "big.csv", big)
    for argv in (["gap", "--blocks", "2,2"], ["analyze", "--criteria", "d,m,s,hierarchy", "--blocks", "2,2"],
                 ["analyze", "--criteria", "s", "--blocks", "2,2"], ["audit", "--k", "2"]):
        assert main(argv + [str(workdir / "big.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflowed" in captured.err


def test_usage_errors_exit_two(workdir, capsys):
    assert main(["gap", str(workdir / "B.csv")]) == 2                   # no --blocks
    capsys.readouterr()
    assert main(["analyze", "--criteria", "bogus", "--blocks", "2,2",
                 str(workdir / "D.csv")]) == 2
    capsys.readouterr()
    assert main(["analyze", "--criteria", "d", "--blocks", "9,9",
                 str(workdir / "D.csv")]) == 2
    capsys.readouterr()
    assert main(["analyze", "--criteria", "d", "--blocks", "2,2",
                 str(workdir / "missing.csv")]) == 2
    capsys.readouterr()
    assert main(["audit", "--format", "dot", "--k", "1", str(workdir / "D.csv")]) == 2
    capsys.readouterr()
    for argv in (["synth", "--k", "2", "--seed", "-1", "--out", str(workdir / "x")],
                 ["audit", "--k", "2", "--seed", "-1", str(workdir / "D.csv")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mechindep: error:") and "seed" in captured.err
    assert not (workdir / "x.csv").exists()
    assert main(["analyze", "--criteria", "h2", "--blocks", "2,2",
                 str(workdir / "D.csv")]) == 2
    capsys.readouterr()
    for tol in ("-1", "nan"):
        assert main(["analyze", "--tol", tol, "--criteria", "d", "--blocks", "2,2",
                     str(workdir / "D.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: tolerances must be nonnegative" in captured.err
    for tol in ("1", "inf"):
        assert main(["analyze", "--tol", tol, "--criteria", "d", "--blocks", "2,2",
                     str(workdir / "D.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: tolerances must be nonnegative, rel below 1" in captured.err


def test_environment_tolerance_errors_exit_two(workdir, monkeypatch, capsys):
    write_matrix_csv(workdir / "pair.csv", np.array([[1.0, 1.0], [1.0, 2.0]]))
    for value in ("1", "inf"):
        monkeypatch.setenv("MECHINDEP_TOL", value)
        assert main(["analyze", "--criteria", "d", "--blocks", "1,1",
                     str(workdir / "pair.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mechindep: error: MECHINDEP_TOL={value}: ")


def test_audit_rejects_negative_draws(workdir, capsys):
    assert main(["audit", "--k", "2", "--draws", "-5", str(workdir / "D.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mechindep: error:") and "draws" in captured.err


def test_audit_mixing_failures_exit_two(tmp_path, capsys):
    # at rel 0.99 almost every random 3x3 mixing is singular; 1e308 I is
    # finite but overflows once mixed
    write_matrix_csv(tmp_path / "eye3.csv", np.eye(3))
    write_matrix_csv(tmp_path / "huge.csv", 1e308 * np.eye(2))
    for argv, words in (
        (["audit", "--k", "3", "--tol", "0.99", str(tmp_path / "eye3.csv")], "invertible mixing"),
        (["audit", "--k", "2", str(tmp_path / "huge.csv")], "random mixing M R"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mechindep: error:") and words in captured.err


def test_topology_rejects_non_integer_region_values(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for payload in (
        {"dims": [2, 2], "occupied": [[1.7, 1]]},
        {"dims": [2, 2], "occupied": [[None, 1]]},
        {"dims": [2, 2], "occupied": [[True, 1]]},
        {"dims": 3, "occupied": [[1]]},
    ):
        path.write_text(json.dumps(payload))
        assert main(["topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mechindep: error:")


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="files are decoded in the locale's encoding, and 0xff is invalid in UTF-8",
)
@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("m.csv", b"1,2\n3,\xff\n", ["analyze", "--criteria", "d", "--blocks", "1,1"]),
        # beyond the first chunk that the streaming CSV reader decodes
        ("m.csv", b"1,2\n" * 5000 + b"\xff,1\n", ["analyze", "--criteria", "d", "--blocks", "1,1"]),
        ("t.json", b'{"dims": [2, 1, 1], "entries": [0, 0], "note": "\xff"}\n', ["analyze", "--criteria", "h2", "--blocks", "1,1", "--hessian"]),
        ("r.json", b'{"dims": [2], "occupied": [[1]], "note": "\xff"}\n', ["topology"]),
    ],
)
def test_undecodable_files_exit_two_naming_file_and_offset(tmp_path, capsys, name, text, argv):
    """A byte that UTF-8 cannot decode is invalid input (exit 2), named by
    its offset in the file, from each of the three readers."""
    path = tmp_path / name
    path.write_bytes(text)
    write_matrix_csv(tmp_path / "j.csv", np.eye(2))
    argv = argv + [str(path)] + ([str(tmp_path / "j.csv")] if name == "t.json" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    offset = text.index(b"\xff")
    message = f"{path}: byte offset {offset}: not utf-8 text (invalid start byte)"
    assert captured.out == "" and captured.err == f"mechindep: error: {message}\n"
    read = {"m.csv": read_matrix_csv, "t.json": read_tensor_json, "r.json": read_region_json}[name]
    with pytest.raises(InvalidInput, match=re.escape(message)):
        read(path)


def test_analyze_with_hessian_criteria(workdir, tmp_path):
    H = np.zeros((4, 2, 2))
    H[0, 0, 0] = 1.0
    hpath = tmp_path / "h.json"
    write_tensor_json(hpath, H)
    M = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, M)
    req = _parse("analyze", "--blocks", "1,1", "--criteria", "d,h2,hierarchy", "--format", "json",
                 "--hessian", hpath, mpath)
    code, body = run(req)
    assert code == 0
    doc = json.loads(body)
    verdicts = {c["criterion"]: c["holds"] for c in doc["certificates"]}
    assert verdicts == {"D": True, "H2": True, "hierarchy": True}


ALL = "analyze --criteria d,m,s,o,s-pairwise,contrast,hierarchy --blocks 2,2 --hessian h.json"
SYNTH = "synth --k 2 --slot-dim 2 --slot-out 4 --seed 6 --out planted"
BATCH = "analyze --criteria d,m --blocks 2,2 --batch"
H23 = "analyze --criteria h2,h3 --blocks 2,2 --hessian h.json --third t3.json"
EMPTY = hashlib.sha256(b"").hexdigest()[:32]

# (command line, exit code, sha256 prefix of stdout), recorded before the
# report renderer, the criteria table and the option map were each folded
# into one; the --help digests, laid out at 120 columns, were recorded before
# the parsed namespace became the request
PINNED_RUNS = [
    (ALL + " --format text D.csv", 1, "4c32a783db8f4eed18b65194f0eeef98"),
    (H23 + " --format text D.csv", 1, "b009d7ae293718a6fd5400b937d2af09"),
    (BATCH + " --format text batch", 1, "9e5fb9be3e0772e7386173a3dabebd7d"),
    ("decompose --format text A.csv", 0, "a48c23531f6d36b331b07588ac8e5319"),
    ("decompose --format text D.csv", 0, "71bb7959831206392d9578f6f0536981"),
    ("gap --blocks 1,1,1 --pairwise --format text B.csv", 1, "d204c6f1b601a71897ac1eaa9db1ac99"),
    ("topology --slices 1 --format text bracket.json", 1, "e7d5f061bc122c93948996f306661036"),
    (SYNTH + " --format text", 0, "bde6fe871c2d465118907541a7148b20"),
    ("audit --k 2 --draws 20 --format text planted.csv", 0, "a31d5bb2a76b31d86d4cd33a0c6e1124"),
    (ALL + " --format json D.csv", 1, "a339f957d40d20d64a6025512a0d1e6b"),
    (H23 + " --format json D.csv", 1, "d11b0d5d7dee39fe6635d462b1b0c62e"),
    (BATCH + " --format json batch", 1, "e618b896eb914d39769b7e9a8d96637e"),
    ("decompose --format json A.csv", 0, "2385db2d9cd1574643d459bffe056307"),
    ("decompose --format json D.csv", 0, "95a28b10f052e48b6d912f05e51fe52e"),
    ("gap --blocks 1,1,1 --pairwise --format json B.csv", 1, "78da2d2685acef858b34f1f5442394ba"),
    ("topology --slices 1 --format json bracket.json", 1, "d8da1931477c219a4074617e28dfbc62"),
    (SYNTH + " --format json", 0, "09114da6adfb4e36726dfac90c1fcda4"),
    ("audit --k 2 --draws 20 --format json planted.csv", 0, "429b665b20c5b59e53d7e9869d27aa0b"),
    (ALL + " --format dot D.csv", 2, EMPTY),
    (H23 + " --format dot D.csv", 2, EMPTY),
    (BATCH + " --format dot batch", 2, EMPTY),
    ("decompose --format dot A.csv", 0, "918af1fafbd8e87bf71f0ae9c2a353fd"),
    ("decompose --format dot D.csv", 0, "420286bf6f2ea67f98ff9bb195fb0694"),
    ("gap --blocks 1,1,1 --pairwise --format dot B.csv", 2, EMPTY),
    ("topology --slices 1 --format dot bracket.json", 2, EMPTY),
    (SYNTH + " --format dot", 2, EMPTY),
    ("audit --k 2 --draws 20 --format dot planted.csv", 2, EMPTY),
    ("analyze --tol 0.3 --criteria d,m --blocks 2,2 D.csv", 1, "9a28b21446450a3d6172c0523e119b71"),
    ("analyze --criteria d,bogus --blocks 2,2 D.csv", 2, EMPTY),
    ("analyze --criteria h3 --blocks 2,2 D.csv", 2, EMPTY),
    ("gap --blocks 1,1,1 B.csv", 1, "8b4f13f1a5defa8a0d3d3efb41c47daf"),
    ("gap B.csv", 2, EMPTY),
    ("topology bracket.json", 1, "67c8cf8f9eef77a56a25e4bf532a6988"),
    ("audit --k 1 planted.csv", 1, "e6f5d5119d33107cc685f34e72fbd728"),
    ("--help", 0, "8ad0d784b1212ca773105375098d6e11"),
    ("analyze --help", 0, "5f351d131681347dc0ccad1d38ccdde4"),
    ("decompose --help", 0, "2d59809ec3f302113ff2f6a355335f4d"),
    ("gap --help", 0, "c102ca9932a712fa9dfdda2cdf96318c"),
    ("topology --help", 0, "f3352c0ab2aa8890bc6230c70bafd0e2"),
    ("synth --help", 0, "9e5a9d7a58de4f6e2352f2a7369fd0cb"),
    ("audit --help", 0, "524a3c6678075a667e0360c8bc8d55b6"),
]


# (synth command line, sidecar file, sha256 prefix of the file), recorded
# while the sidecar was written by json.dump(..., indent=2)
PINNED_SIDECARS = [
    (SYNTH, "planted.json", "2577094fc0995c89313512c74026770f"),
    (
        "synth --k 3 --slot-dim 2 --slot-out 4 --overlap 0.5 --seed 3 --out olap",
        "olap.json",
        "08a486785ed2bbca634055cec911de29",
    ),
]


@pytest.mark.parametrize("line, name, digest", PINNED_SIDECARS, ids=[r[1] for r in PINNED_SIDECARS])
def test_synth_sidecar_bytes_pinned(workdir, monkeypatch, capsys, line, name, digest):
    monkeypatch.chdir(workdir)
    assert main(line.split()) == 0
    assert hashlib.sha256((workdir / name).read_bytes()).hexdigest()[:32] == digest


def _pinned_fixtures(root):
    """Beside workdir's matrices and region: a Hessian and an order-3 tensor
    for the 4-column D, and a directory of two CSVs for --batch."""
    H = np.zeros((2, 4, 4))
    H[0, 0, 1] = H[0, 1, 0] = 1.0
    H[1, 2, 3] = 2.0
    H[1, 3, 3] = -1.0
    write_tensor_json(root / "h.json", H)
    T3 = np.zeros((2, 4, 4, 4))
    T3[0, 0, 0, 2] = 1.0
    T3[1, 1, 2, 3] = -3.0
    T3[1, 3, 2, 0] = 0.5
    write_tensor_json(root / "t3.json", T3)
    (root / "batch").mkdir()
    D = np.array(GOLDEN["D"]["matrix"], float)
    write_matrix_csv(root / "batch" / "one.csv", D)
    write_matrix_csv(root / "batch" / "two.csv", 2.0 * D[:, ::-1])


@pytest.mark.parametrize("line, code, digest", PINNED_RUNS, ids=[r[0] for r in PINNED_RUNS])
def test_stdout_bytes_and_exit_codes_pinned(workdir, monkeypatch, capsysbinary, line, code, digest):
    """Every command in text, JSON and dot, and each --help.  Relative paths
    keep the temporary directory out of the headers; --help is laid out for
    120 columns: at 80, the argparse of Python 3.13 wraps the usage line of
    gap --help differently from that of 3.10 to 3.12."""
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("MECHINDEP_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", "120")
    _pinned_fixtures(workdir)
    if line.startswith("audit"):
        assert main(SYNTH.split()) == 0
        capsysbinary.readouterr()
    assert main(line.split()) == code
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest()[:32] == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [("text", "386a7bf13a56553f30cd6b4c8f2b3847"), ("json", "3b8e6792398fd942eedf2c423e98d69d")],
)
def test_batch_reads_each_tensor_once(workdir, monkeypatch, capsysbinary, fmt, digest):
    """analyze --batch over three CSVs reads --hessian and --third once per
    request, not once per CSV.  The report digests were recorded while each
    CSV read both tensors again."""
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("MECHINDEP_TOL", raising=False)
    _pinned_fixtures(workdir)
    write_matrix_csv(workdir / "batch" / "three.csv", np.array(GOLDEN["D"]["matrix"], float)[::-1])
    reads = []

    def counted(path):
        reads.append(path)
        return read_tensor_json(path)

    monkeypatch.setattr(cli, "read_tensor_json", counted)
    line = f"analyze --criteria d,h2,h3 --blocks 2,2 --hessian h.json --third t3.json --format {fmt} --batch batch"
    assert main(line.split()) == 1
    assert reads == ["h.json", "t3.json"]
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest()[:32] == digest
