import json

import pytest

from diagram_gram.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--algebra", "signed", "--k", "3", "--s1", "1", "--s2", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 34
    assert [c["size"] for c in payload["cells"]] == [4, 6, 3, 6, 6, 6, 3]


def test_gram_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "gram", "--algebra", "signed", "--k", "3", "--s1", "1", "--s2", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 34
    assert payload["entries"][0][0] == "1"
    code, out, _ = run_cli(
        capsys, "gram", "--algebra", "partition", "--k", "2", "--s", "0", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["x,x", "x,x^2"]


def test_output_is_deterministic(capsys):
    args = ("gram", "--algebra", "z2", "--k", "2", "--s1", "1", "--s2", "0")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_reduce_json(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--algebra", "signed", "--k", "3", "--s1", "1", "--s2", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["offblock_violations"] == []
    assert [b["label"] for b in payload["blocks"]] == [
        ["cell", 0, 0], ["cell", 0, 1], ["cell", 1, 0], ["rho"],
    ]
    assert all(d["informative"] for d in payload["diffs"])
    assert payload["transform_checksum"]
    code2, out2, _ = run_cli(
        capsys, "reduce", "--algebra", "signed", "--k", "3", "--s1", "1", "--s2", "0",
        "--method", "sequential",
    )
    assert code2 == 0
    assert json.loads(out2)["transform_checksum"] == payload["transform_checksum"]


def test_det_json(capsys):
    code, out, _ = run_cli(
        capsys, "det", "--algebra", "partition", "--k", "2", "--s", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["determinant"] == "x^3-x^2"
    assert payload["consistent"]


def test_stirling_single_and_table(capsys):
    code, out, _ = run_cli(
        capsys, "stirling", "--s1", "1", "--s2", "0",
        "--r1", "1", "--r2", "0", "--p1", "0", "--p2", "0",
    )
    assert code == 0
    assert json.loads(out)["value"] == "2"
    code, out, _ = run_cli(capsys, "stirling", "--s1", "1", "--s2", "0", "--table")
    assert code == 0
    table = json.loads(out)["table"]
    assert len(table) == 9  # header plus eight rows
    code, out, _ = run_cli(
        capsys, "stirling", "--algebra", "partition", "--s", "2", "--r", "2", "--p", "1"
    )
    assert json.loads(out)["value"] == "5"


def test_semisimple_json(capsys):
    code, out, _ = run_cli(capsys, "semisimple", "--algebra", "z2", "--k", "2", "--q", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["semisimple"] is False
    code, out, _ = run_cli(capsys, "semisimple", "--algebra", "z2", "--k", "2")
    assert json.loads(out)["semisimple"] is True


def test_window_violation_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "gram", "--algebra", "partition", "--k", "2", "--s", "5"
    )
    assert code == 1
    assert "parameter error" in err


def test_missing_profile_exit_code(capsys):
    code, _, err = run_cli(capsys, "gram", "--algebra", "z2", "--k", "2")
    assert code == 1


def test_guard_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "gram", "--algebra", "z2", "--k", "6", "--s1", "0", "--s2", "0",
        "--guard", "50",
    )
    assert code == 3
    assert "resource guard" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--algebra", "partition", "--k", "2", "--s", "1",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["count"] == 3


def test_verify_honours_guard(capsys):
    code, out, err = run_cli(capsys, "verify", "--k", "1", "--guard", "1")
    assert code == 3 and out == ""
    assert "resource guard" in err


def test_semisimple_honours_guard(capsys):
    code, out, err = run_cli(
        capsys, "semisimple", "--algebra", "z2", "--k", "3", "--guard", "5"
    )
    assert code == 3 and out == ""
    assert "resource guard" in err


@pytest.mark.parametrize("k", ["0", "4"])
def test_verify_rejects_k_outside_window(capsys, k):
    code, out, err = run_cli(capsys, "verify", "--k", k)
    assert code == 1 and out == ""
    assert "parameter error" in err and "from 1 to 3" in err
