"""Tests of the benchmark harness itself (not of diagram_gram).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def test_self_times_of_nested_spans():
    ticks = iter([0, 10, 15, 40, 45, 50, 60, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    middle = tracer.wrap("middle", lambda: inner())

    def body():
        middle()
        inner()

    tracer.wrap("outer", body)()
    own = spans.self_times(tracer.spans)
    # outer 0..100 holds middle 10..45 and inner 50..60; middle holds inner 15..40
    assert own == {"outer": 100 - 35 - 10, "middle": 35 - 25, "inner": 25 + 10}
    assert sum(own.values()) == spans.root_time(tracer.spans) == 100


def test_counters_run_in_their_own_span_and_see_cache_misses():
    tracer = spans.Tracer()
    seen = []
    square = tracer.wrap(
        "square", lru_cache(maxsize=None)(lambda n: n * n),
        lambda t, args, result, missed: seen.append((args, result, missed)),
    )
    square(3)
    square(3)
    assert seen == [((3,), 9, True), ((3,), 9, False)]
    assert [name for name, *_ in tracer.spans] == ["square", spans.COUNTER_SPAN] * 2
    assert all(parent == -1 for _, parent, _, _ in tracer.spans)


def test_traced_cli_nests_layers_across_namespaces():
    env = run.child_env(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), "trace",
         "det", "--algebra", "signed", "--k", "2", "--s1", "0", "--s2", "0"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["exit_code"] == 0 and json.loads(report["stdout"])["consistent"]
    names = [name for name, *_ in report["spans"]]
    parent_of = {
        name: report["spans"][parent][0] for name, parent, *_ in report["spans"] if parent >= 0
    }
    # build_gram is called through the name imported into cli
    assert parent_of["gram.build_s"] == "cli.self_s"
    assert parent_of["reduction.zeta_inv_s"] == "reduction.reduce_s"
    assert parent_of["determinant.bareiss_s"] == "determinant.det_direct_s"
    assert names.count("cli.self_s") == 1
    own = spans.self_times(report["spans"])
    assert sum(own.values()) == spans.root_time(report["spans"])
    metrics = run.layer_metrics(report)
    assert set(metrics) == set(run.SPAN_METRICS + run.COUNT_METRICS + run.CHECK_METRICS)
    assert metrics["determinant.bareiss_calls"] == metrics["determinant.eval_points"] > 0


def _verify_stdout(status: dict[str, str] | None = None, slips: int = 4) -> str:
    lines = []
    for name in run.VERIFY_CHECKS:
        tail = f"hard mismatches: 0, documented slips: {slips}" if name == "published-34x34" else "ok"
        lines.append(f"{(status or {}).get(name, 'PASS')}  {name:<24} 0.01s  {tail}")
        if name == "published-34x34":
            lines.append("        suspected typo in the published table")
    return "\n".join(lines) + "\n"


def test_output_checker_rejects_corrupted_stdout():
    det = (HERE / "reference" / "det-z2-k4-s20.out").read_text()
    assert run.check_output("det-z2-k4-s20", 0, 0, det)
    assert not run.check_output("det-z2-k4-s20", 0, 2, det)
    assert not run.check_output("det-z2-k4-s20", 0, 0, det.replace("x^174-66", "x^174-67"))
    assert not run.check_output(
        "det-z2-k4-s20", 0, 0, det.replace('"consistent": true', '"consistent": false')
    )

    verdicts = json.loads((HERE / "reference" / "semisimple-z2-k4.json").read_text())
    seed = run.Q_VALUES.index("5/2")
    assert run.check_output("verdict-z2-k4", seed, 0, verdicts["5/2"])
    assert not run.check_output("verdict-z2-k4", seed, 0, verdicts["2"])
    assert not run.check_output(
        "verdict-z2-k4", seed, 0, verdicts["5/2"].replace("true", "false")
    )

    assert run.check_output("verify-k3", 0, 0, _verify_stdout())
    assert not run.check_output("verify-k3", 0, 2, _verify_stdout())
    assert not run.check_output("verify-k3", 0, 0, _verify_stdout({"poset-duality": "FAIL"}))
    assert not run.check_output("verify-k3", 0, 0, _verify_stdout(slips=3))
    assert not run.check_output("verify-k3", 0, 0, _verify_stdout().replace("PASS  gram", "PASS  gramm"))


def test_peak_rss_is_read_per_child(tmp_path):
    env = dict(os.environ)
    big = run.run_child([sys.executable, "-c", "b = b'x' * (256 << 20)"], env, tmp_path)
    small = run.run_child([sys.executable, "-c", "pass"], env, tmp_path)
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 256
    assert small.peak_rss_mb < big.peak_rss_mb / 2
    # the cumulative reading would carry the larger child over
    cumulative = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert cumulative >= big.peak_rss_mb


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
