"""Benchmark of the `diagram-gram` CLI, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. Every workload call is a fresh child process, because every
pipeline stage sits behind an `lru_cache` and a CLI call starts cold. The
load is a closed loop with one client: the next child starts when the
previous one has ended. Each child's output is checked against a recorded
reference.

`--trace 0` reports the end-to-end metrics: `setup_s` (median time of a
process that only imports `diagram_gram.cli`), and the medians of child
wall time, CPU time and peak RSS, each read from `os.wait4` for that child
alone. `--trace 1` runs the CLI in-process under the layer spans of
`spans.py`, paired with an untraced run of the same call, and reports the
per-layer metrics. The last line of stdout is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SETUP_PER_CHILD = 5
RUN_LIMIT_S = 170  # seconds after start; a child still running then is killed and fails

# q values with recorded verdicts: the first six are not semisimple at z2
# k=4, the last five are; q changes only the witness scan, not the cost.
Q_VALUES = ("2", "3", "0", "1", "-1", "4", "5/2", "7", "1/3", "12", "7/3")

WORKLOADS = {
    "verdict-z2-k4": lambda seed: [
        "semisimple", "--algebra", "z2", "--k", "4", "--q", q_for(seed)
    ],
    "det-z2-k4-s20": lambda seed: [
        "det", "--algebra", "z2", "--k", "4", "--s1", "2", "--s2", "0"
    ],
    # run_all_checks clamps any larger k to 3, so --k 3 is the largest scale
    "verify-k3": lambda seed: ["verify", "--k", "3"],
}

VERIFY_CHECKS = (
    "gram-invariants",
    "block-closed-forms",
    "poset-duality",
    "stirling-oracle",
    "stirling-recurrences",
    "phi-identities",
    "monomial-expansion",
    "zero-profile-blocks",
    "published-34x34",
    "published-reduced-blocks",
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# self time of the spans named in spans.LAYERS, charged to their layer
SPAN_METRICS = list(dict.fromkeys(span for _, _, span, _ in spans.LAYERS if span)) + [
    "cli.self_s",
    spans.COUNTER_SPAN,
]
COUNT_METRICS = [
    "gram.entries", "gram.nnz", "diagrams.multiply_calls",
    "reduction.poset_relations", "reduction.transform_nnz", "reduction.reduced_nnz",
    "reduction.hard_diffs", "determinant.eval_points", "determinant.bareiss_calls",
    "determinant.bareiss_ops", "determinant.components", "semisimplicity.profiles",
    "semisimplicity.factor_records", "stirling.bruteforce_calls",
] + [f"cache.{fn}.{kind}" for _, fn in spans.CACHED for kind in ("hits", "misses")]
# CheckResult.seconds of the eight run_all_checks lines, inclusive of the layers they call
CHECK_METRICS = [f"verify.{name.replace('-', '_')}_s" for name in VERIFY_CHECKS[:8]]
TRACE_WALL = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
PER_LAYER = SPAN_METRICS + COUNT_METRICS + CHECK_METRICS + TRACE_WALL


def q_for(seed: int) -> str:
    return Q_VALUES[seed % len(Q_VALUES)]


# -- output checks ------------------------------------------------------------


def check_output(workload: str, seed: int, exit_code: int, stdout: str) -> bool:
    """True iff one CLI call's exit code and stdout are the expected ones."""
    if exit_code != 0:
        return False
    if workload == "verdict-z2-k4":
        references = json.loads((REFERENCE / "semisimple-z2-k4.json").read_text())
        return stdout == references[q_for(seed)]
    if workload == "det-z2-k4-s20":
        if stdout != (REFERENCE / "det-z2-k4-s20.out").read_text():
            return False
        return json.loads(stdout)["consistent"] is True
    if workload == "verify-k3":
        return check_verify(stdout)
    raise ValueError(f"unknown workload {workload!r}")


def check_verify(stdout: str) -> bool:
    """Every check line PASSes; the published table keeps its 4 documented slips."""
    status = [line.split() for line in stdout.splitlines() if line and not line[0].isspace()]
    if [words[1] for words in status] != list(VERIFY_CHECKS):
        return False
    if any(words[0] != "PASS" for words in status):
        return False
    return "hard mismatches: 0, documented slips: 4" in stdout


# -- child processes ----------------------------------------------------------


@dataclass(frozen=True)
class Child:
    exit_code: int
    stdout: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env(src: Path) -> dict:
    """The caller's environment, with `src` as the only import path.

    Bytecode caching is left on, as for an installed package, so that
    `setup_s` times the import and not the compilation of the sources.
    """
    dropped = ("DIAGRAM_GRAM_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(argv: list[str], env: dict, scratch: Path, timeout: float = RUN_LIMIT_S) -> Child:
    """Run one process to its end; resources come from `wait4` for it alone.

    `getrusage(RUSAGE_CHILDREN)` would be cumulative, and its `ru_maxrss` a
    high-water mark over every child so far.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    if stderr:
        sys.stderr.write(stderr)
    return Child(
        proc.returncode,
        out_path.read_text(errors="replace"),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # KiB on Linux
    )


def closed_loop(seconds: float, step) -> list:
    """Call `step()` until the next call would end past `seconds`; at least once."""
    results, start = [], time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


# -- the two kinds of run -----------------------------------------------------


def end_to_end(args, env, scratch) -> tuple[dict, int, int]:
    python = sys.executable
    importer = [python, "-c", "import diagram_gram.cli"]
    argv = [python, "-m", "diagram_gram.cli", *WORKLOADS[args.workload](args.seed)]
    run_child(importer, env, scratch)  # fills the bytecode cache
    setup = []

    def step():
        # set-up samples spread over the whole run, not bunched at its start
        setup.extend(run_child(importer, env, scratch) for _ in range(SETUP_PER_CHILD))
        return run_child(argv, env, scratch, args.deadline - time.perf_counter())

    children = closed_loop(args.seconds, step)
    failed = sum(
        not check_output(args.workload, args.seed, c.exit_code, c.stdout) for c in children
    )
    values = {
        "setup_s": statistics.median(c.wall_s for c in setup),
        "wall_s": statistics.median(c.wall_s for c in children),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
    }
    attempted = len(children)
    print(
        f"{args.workload} seed={args.seed} python={platform.python_version()} "
        f"nproc={os.cpu_count()} children={len(children)}: "
        + " ".join(f"{k}={v:.4f}" for k, v in values.items())
        + f" error_rate={failed / attempted:.4f}"
    )
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, attempted, failed


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer values of one traced call; see README.md for their meaning."""
    own = spans.self_times(report["spans"])
    out = {name: own.get(name, 0) / 1e9 for name in SPAN_METRICS}
    counters = dict(report["counters"])
    for fn, info in report["caches"].items():
        counters.update({f"cache.{fn}.{kind}": n for kind, n in info.items()})
    out.update({name: counters.get(name, 0) for name in COUNT_METRICS})
    checks = dict(report["checks"])
    for name, metric in zip(VERIFY_CHECKS, CHECK_METRICS):
        out[metric] = checks.get(name, 0.0)
    return out


def per_layer(args, env, scratch) -> tuple[dict, int, int]:
    python = sys.executable
    cli_args = WORKLOADS[args.workload](args.seed)
    attempted = failed = 0

    def in_process(mode: str) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        child = run_child(
            [python, str(HERE / "traced.py"), mode, *cli_args],
            env, scratch, args.deadline - time.perf_counter(),
        )
        try:
            report = json.loads(child.stdout) if child.exit_code == 0 else None
        except ValueError:
            report = None
        ok = report is not None and check_output(
            args.workload, args.seed, report["exit_code"], report["stdout"]
        )
        if ok and mode == "trace":
            own = spans.self_times(report["spans"])
            # the layer self times must account for the whole traced call
            ok = sum(own.values()) == spans.root_time(report["spans"])
            ok = ok and report["counters"].get("reduction.hard_diffs", 0) == 0
        failed += not ok
        return report if ok else None

    def pair():
        plain, trace = in_process("plain"), in_process("trace")
        if plain is None or trace is None:
            return None
        row = layer_metrics(trace)
        row["trace.wall_s"] = spans.root_time(trace["spans"]) / 1e9
        row["trace.untraced_wall_s"] = spans.root_time(plain["spans"]) / 1e9
        row["trace.overhead_s"] = row["trace.wall_s"] - row["trace.untraced_wall_s"]
        return row, trace

    pairs = [p for p in closed_loop(args.seconds, pair) if p is not None]
    if not pairs:
        return {name: (0, metric_unit(name)) for name in PER_LAYER}, attempted, failed
    # the program is deterministic, so a count that does not repeat is a failure
    failed += sum(any(row[c] != pairs[0][0][c] for c in COUNT_METRICS) for row, _ in pairs)
    # report the whole pair with the median traced time, so its layers add up
    pairs.sort(key=lambda p: p[0]["trace.wall_s"])
    row, trace = pairs[(len(pairs) - 1) // 2]
    (scratch / f"trace-{args.workload}.json").write_text(json.dumps(trace))
    print(
        f"{args.workload} seed={args.seed} traced pairs={len(pairs)}: "
        f"traced {row['trace.wall_s']:.4f}s, untraced {row['trace.untraced_wall_s']:.4f}s, "
        f"overhead {row['trace.overhead_s']:.4f}s"
    )
    return {name: (row[name], metric_unit(name)) for name in PER_LAYER}, attempted, failed


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_LIMIT_S
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "diagram_gram" / "cli.py").is_file():
        print(f"perfbench: no diagram_gram sources under {src}", file=sys.stderr)
        return 2
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    env = child_env(src)
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed = run(args, env, scratch)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
