"""Command-line front end: exit codes, report formats, determinism, and the
thin-adapter property (CLI verdicts equal direct library verdicts)."""

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


def test_audit_rejects_negative_draws(workdir, capsys):
    assert main(["audit", "--k", "2", "--draws", "-5", str(workdir / "D.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mechindep: error:") and "draws" in captured.err


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
