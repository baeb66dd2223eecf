import gc
import hashlib
import json
import time
import weakref
from pathlib import Path

import pytest

from diagram_gram import gram
from diagram_gram.cli import STIRLING_MAX, main
from diagram_gram.reduction import coarsening_poset, reduced_decomposition
from diagram_gram.semisimplicity import global_poly
from diagram_gram.stirling import gen_stirling_z2


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
    assert payload["method"] == "mobius"


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


def test_guard_exits_before_a_huge_enumeration(capsys):
    # the projected dimension has 141 digits; it is counted in closed form
    code, out, err = run_cli(
        capsys, "enumerate", "--algebra", "z2", "--k", "100", "--s1", "0", "--s2", "0"
    )
    assert code == 3 and out == ""
    assert "resource guard" in err


@pytest.mark.parametrize("algebra", ["z2", "signed", "partition"])
@pytest.mark.parametrize("k", ["300", "5000", "99999999999999999999"])
def test_guard_exits_at_once_for_a_large_k(capsys, algebra, k):
    # the window is tested by arithmetic and the count stops at the first
    # partial sum above the guard, so neither grows with k
    profile = ["--s", "0"] if algebra == "partition" else ["--s1", "0", "--s2", "0"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--algebra", algebra, "--k", k, *profile)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
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


# sha256 of stdout, recorded before the per-family branches were replaced by
# one family spec; the CLI output must not change
PINNED_STDOUT = {
    ("enumerate", "partition"): "27de5779c7290d485369c530e3c424bf98b1ffa6ec4392a756668453fdd2fcb3",
    ("enumerate", "z2"): "0bb3205c05b6c150de8b880213e189abcc570c7082d2e197803fbccf687d1fc1",
    ("enumerate", "signed"): "6600fd2f4de7a00c2220645ef20af4dc49c52fefc9e209bb1c587e04264637f1",
    ("gram", "partition"): "5990bd3d3d24f71714076192fc9f21a78398517282b34fc29181c8319b3ab87b",
    ("gram", "z2"): "ac9f91c776bc145bff03dc5b9a691c95c88fd964b84501d643bd1591f35c2e14",
    ("gram", "signed"): "8e1c0e9e682cd8c9d720d244c11473d3058df01d20c774f6b39b825cb994d146",
    ("reduce", "partition"): "b10167cfeab204753bc027e6297685115a267185df68a9aaf48a3086caf8e467",
    ("reduce", "z2"): "c784650b7416c6db74d92f4d0fa30d513a4f081271572723eb960e575188a975",
    ("reduce", "signed"): "8f5ca860edc8c7651977dae26b3e5ee20060b59ae423791e8a75295cd9494b6f",
    ("det", "partition"): "45da02113397fb68edc15b2fd2ac3062f28dea47f6abe475c5ad124cb43f592b",
    ("det", "z2"): "9c7c4e31cc5fd2004c843dcaf73c4d1f2ea2b3d4104b6e6f0603f671eb827f4c",
    ("det", "signed"): "6ea5161ca4e83a5c952894a94b6fd1ee3f3f4a2630a7c4338779450a3df5aec6",
}

PINNED_PROFILES = {
    "partition": ("--k", "3", "--s", "1"),
    "z2": ("--k", "2", "--s1", "1", "--s2", "0"),
    "signed": ("--k", "3", "--s1", "1", "--s2", "0"),
}


@pytest.mark.parametrize("command, algebra", sorted(PINNED_STDOUT), ids="-".join)
def test_stdout_is_pinned(capsys, command, algebra):
    code, out, _ = run_cli(capsys, command, "--algebra", algebra, *PINNED_PROFILES[algebra])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command, algebra]


def test_k4_determinant_equals_the_benchmark_reference(capsys):
    # the whole-matrix determinant goes through det_isotypic's congruence
    reference = Path(__file__).resolve().parents[1] / "perfbench/reference/det-z2-k4-s20.out"
    code, out, _ = run_cli(capsys, "det", "--algebra", "z2", "--k", "4", "--s1", "2", "--s2", "0")
    assert code == 0 and out == reference.read_text()


def test_k4_reduction_is_pinned(capsys):
    # sha256 of stdout, recorded before T'GT and Y'BY shared one kernel
    code, out, _ = run_cli(
        capsys, "reduce", "--algebra", "signed", "--k", "4", "--s1", "1", "--s2", "0"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0fe6db0a3e5b17c2c6a375e41825f6aa9352a0beb4ebbc5e8141f6b9797df2bf"
    )


def test_enumeration_visits_only_the_requested_profile(capsys):
    # a one-diagram basis of 12 and of 1000 fibres, under a guard of 10; the
    # walk's depth must not grow with k
    for k in ("12", "1000"):
        code, out, err = run_cli(
            capsys, "enumerate", "--algebra", "z2", "--k", k, "--s1", k, "--s2", "0",
            "--guard", "10",
        )
        assert code == 0 and json.loads(out)["count"] == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["semisimple", "--algebra", "signed", "--k", "3", "--q", "2"],
    ["det", "--algebra", "z2", "--k", "3", "--s1", "1", "--s2", "0"],
    ["reduce", "--algebra", "signed", "--k", "3", "--s1", "1", "--s2", "0"],
    ["verify", "--k", "1"],
], ids=lambda argv: argv[0])
def test_cli_call_keeps_no_profile(monkeypatch, capsys, argv):
    # a call asks for each profile once, so the five stages perfbench counts
    # cache nothing, and once it returns no Gram matrix it built is alive.
    # The collector is off: a matrix counts as released only once nothing
    # refers to it
    built = []
    make = gram.GramMatrix

    def recorded(*args):
        matrix = make(*args)
        built.append(weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(gram, "GramMatrix", recorded)
    counted = (gram.enumerate_diagrams, gram.build_gram, coarsening_poset,
               reduced_decomposition, global_poly)
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run_cli(capsys, *argv)
    finally:
        gc.enable()
    assert code == 0 and built
    for fn in counted:
        assert (fn.cache_info().hits, fn.cache_info().currsize) == (0, 0), fn.__name__
    assert sum(ref() is not None for ref in built) == 0


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ("--algebra", "z2", "--k", k, "--s1", k, "--s2", "0")
            for k in ("10", "30", "100", "1000")
        ),
        ("--algebra", "partition", "--k", "10", "--s", "10"),
    ],
    ids=" ".join,
)
def test_det_of_a_one_diagram_basis_does_not_list_the_group(capsys, argv):
    # the symmetrizers are applied as transposition passes, and the shapes
    # stop once they fill the basis: S_100 has 190,569,292 shapes; a
    # one-diagram basis takes det_direct and lists no transposition
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "det", *argv, "--guard", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["consistent"] is True


def test_unwritable_output_exits_with_message(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(
        capsys, "gram", "--algebra", "partition", "--k", "2", "--s", "1",
        "--output", str(target),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("argv", [
    ("--s1", "-1", "--s2", "0", "--r1", "1", "--r2", "0", "--p1", "0", "--p2", "0"),
    ("--s1", "1", "--s2", "0", "--r1", "1", "--r2", "0", "--p1", "0", "--p2", "-1"),
    ("--s1", "0", "--s2", "-2", "--table"),
    ("--algebra", "partition", "--s", "1", "--r", "-1", "--p", "0"),
], ids=str)
def test_stirling_rejects_negative_parameters(capsys, argv):
    code, out, err = run_cli(capsys, "stirling", *argv)
    assert code == 1 and out == ""
    assert "parameter error" in err and "nonnegative" in err


def test_stirling_keeps_zero_outside_the_count_window(capsys):
    # p above r is a valid query whose count is 0
    code, out, _ = run_cli(
        capsys, "stirling", "--algebra", "partition", "--s", "1", "--r", "1", "--p", "3"
    )
    assert code == 0 and json.loads(out)["value"] == "0"


@pytest.mark.parametrize("argv", [
    ("det", "--algebra", "z2", "--k", "x"),
    ("det", "--algebra", "nope", "--k", "2"),
    ("semisimple", "--k", "2"),
], ids=" ".join)
def test_argument_errors_exit_1(capsys, argv):
    # argparse itself exits 2, the code kept for a verification diff
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "q", ["1/0", "-3/0", "abc", "", "1/", "x/2", "1e10000", "1e100000000", "0.5"]
)
def test_semisimple_rejects_an_unreadable_q(capsys, q):
    # the --q=VALUE form, which also passes the empty value
    code, out, err = run_cli(capsys, "semisimple", "--algebra", "z2", "--k", "2", f"--q={q}")
    assert code == 1 and out == ""
    assert "--q" in err and "a/b with b != 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, q, semisimple", [
    (("--q", "-1/3"), "-1/3", True),
    (("--q", "-1"), "-1", False),
    (("--q=-1/3",), "-1/3", True),
], ids=["space -1/3", "space -1", "equals -1/3"])
def test_semisimple_reads_a_negative_q(capsys, argv, q, semisimple):
    # z2 k=2 is not semisimple exactly at the integers -1..2
    code, out, err = run_cli(capsys, "semisimple", "--algebra", "z2", "--k", "2", *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["q"] == q and payload["semisimple"] is semisimple


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "det", "--help")
    assert code == 0 and "--guard" in out and "--format" not in out


@pytest.mark.parametrize("argv", [
    ("reduce", "--algebra", "z2", "--k", "2", "--s1", "1", "--s2", "0", "--format", "json"),
    ("det", "--algebra", "partition", "--k", "2", "--s", "0", "--format", "csv"),
    ("semisimple", "--algebra", "z2", "--k", "2", "--format", "pretty"),
    ("verify", "--k", "1", "--format", "json"),
    ("enumerate", "--algebra", "partition", "--k", "2", "--s", "1", "--format", "csv"),
    ("stirling", "--s1", "1", "--s2", "0", "--table", "--format", "csv"),
    ("stirling", "--algebra", "partition", "--s", "2", "--r", "2", "--p", "1", "--format", "pretty"),
    ("stirling", "--algebra", "partition", "--s", "2", "--r", "2", "--p", "1", "--guard", "5"),
    ("stirling", "--algebra", "partition", "--s", "1", "--r", "2", "--p", "1", "--table",
     "--format", "pretty"),
    ("stirling", "--s1", "0", "--s2", "0", "--r1", "1", "--r2", "0", "--p1", "0", "--p2", "0",
     "--s", "5", "--r", "3"),
    ("stirling", "--s1", "0", "--s2", "0", "--table", "--r1", "3"),
    ("enumerate", "--algebra", "z2", "--k", "2", "--s1", "1", "--s2", "0", "--s", "3"),
    ("det", "--algebra", "partition", "--k", "2", "--s", "1", "--s1", "4"),
], ids=" ".join)
def test_options_no_subcommand_reads_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    # argparse rejects an unregistered option or format, the variant one it does not read
    assert "error: " in err


def test_stirling_counts_deep_parameters(capsys):
    # S(n, k) is an alternating sum, so no recursion depth grows with n; the
    # CLI takes r1 up to STIRLING_MAX, the library any r1
    assert gen_stirling_z2(0, 0, 1100, 0, 1100, 0) == 1
    code, out, _ = run_cli(
        capsys, "stirling", "--s1", "0", "--s2", "0", "--r1", str(STIRLING_MAX),
        "--r2", "0", "--p1", str(STIRLING_MAX), "--p2", "0",
    )
    assert code == 0 and json.loads(out)["value"] == "1"


@pytest.mark.parametrize("argv", [
    ("--s1", "1", "--s2", "0", "--r1", "1000000", "--r2", "0", "--p1", "0", "--p2", "0"),
    ("--s1", "1", "--s2", "0", "--r1", "0", "--r2", "101", "--p1", "0", "--p2", "0"),
    ("--s1", "1" + "0" * 4000, "--s2", "0", "--r1", "20", "--r2", "20", "--p1", "0", "--p2", "0"),
    ("--s1", "0", "--s2", "101", "--table"),
    ("--algebra", "partition", "--s", "0", "--r", "100000", "--p", "3"),
    ("--algebra", "partition", "--s", "101", "--r", "1", "--p", "0"),
], ids=lambda argv: " ".join(a[:8] for a in argv))
def test_stirling_rejects_parameters_above_the_bound(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stirling", *argv)
    assert code == 1 and out == ""
    assert err.startswith("parameter error: ") and f"at most {STIRLING_MAX}" in err
    assert time.perf_counter() - start < 1  # rejected before any arithmetic
