"""Command-line front end: exit codes, report formats, determinism, and the
thin-adapter property (CLI verdicts equal direct library verdicts)."""

import hashlib
import json

import numpy as np
import pytest

from mechindep.basis import BlockSpec
from mechindep.cli import AnalysisRequest, main, run
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
from mechindep.topology import GridRegion, premise_report

from golden import GOLDEN


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


def test_region_json_round_trip(tmp_path):
    r = GridRegion((2, 3), frozenset({(0, 0), (1, 2)}))
    path = tmp_path / "r.json"
    write_region_json(path, r)
    assert read_region_json(path).cells == r.cells


def test_emit_report_requires_certificates():
    with pytest.raises(InvalidInput):
        emit_report([], "json")


def test_analyze_exit_codes_match_verdicts(workdir):
    req = AnalysisRequest(
        command="analyze",
        input_path=str(workdir / "D.csv"),
        blocks=(2, 2),
        criteria=("d", "m", "s"),
        fmt="json",
    )
    code, body = run(req)
    assert code == 1          # Type D fails on this matrix
    doc = json.loads(body)
    verdicts = {c["criterion"]: c["holds"] for c in doc["certificates"]}
    assert verdicts == {"D": False, "M": True, "S": True}


def test_analyze_is_thin_adapter(workdir):
    M = read_matrix_csv(workdir / "D.csv")
    blocks = BlockSpec((2, 2))
    direct = [check_type_d(M, blocks), check_type_m(M, blocks), check_type_s(M, blocks)]
    req = AnalysisRequest(
        command="analyze",
        input_path=str(workdir / "D.csv"),
        blocks=(2, 2),
        criteria=("d", "m", "s"),
        fmt="json",
    )
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
    req = AnalysisRequest(command="decompose", input_path=str(workdir / "D.csv"), fmt="json")
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
    assert main(["analyze", "--criteria", "h2", "--blocks", "2,2",
                 str(workdir / "D.csv")]) == 2
    capsys.readouterr()
    for tol in ("-1", "nan"):
        assert main(["analyze", "--tol", tol, "--criteria", "d", "--blocks", "2,2",
                     str(workdir / "D.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: tolerances must be nonnegative" in captured.err


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


def test_analyze_with_hessian_criteria(workdir, tmp_path):
    H = np.zeros((4, 2, 2))
    H[0, 0, 0] = 1.0
    hpath = tmp_path / "h.json"
    write_tensor_json(hpath, H)
    M = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, M)
    req = AnalysisRequest(
        command="analyze",
        input_path=str(mpath),
        blocks=(1, 1),
        criteria=("d", "h2", "hierarchy"),
        fmt="json",
        hessian_path=str(hpath),
    )
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
# into one; the --help digests under Python 3.11's argparse
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
    ("analyze --help", 0, "d3f3d56d2d754d6b4834fff06ee36dcd"),
    ("decompose --help", 0, "2d59809ec3f302113ff2f6a355335f4d"),
    ("gap --help", 0, "91ed3cac77bf50052a4967d4e423179b"),
    ("topology --help", 0, "317949a214512d6ca5109251b524041b"),
    ("synth --help", 0, "2ca6c72dab613bea4efa2e12da3b8305"),
    ("audit --help", 0, "6bc6d2e58d0220831a8b16bd2f7e879d"),
]


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
    80 columns."""
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("MECHINDEP_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    _pinned_fixtures(workdir)
    if line.startswith("audit"):
        assert main(SYNTH.split()) == 0
        capsysbinary.readouterr()
    assert main(line.split()) == code
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest()[:32] == digest
