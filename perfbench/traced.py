"""Run one `diagram-gram` CLI call in this process and report it as JSON.

    python3 perfbench/traced.py {trace|plain} <diagram-gram arguments...>

`plain` records one span around `cli.main`; `trace` first installs the
layer spans from `spans.py`. The CLI's stdout is captured and returned in
the report, which is the only thing written to the real stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import spans
from diagram_gram import cli


def main(argv: list[str]) -> int:
    mode, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    cached = spans.install(tracer) if mode == "trace" else {}
    captured = io.StringIO()
    entry = tracer.wrap("cli.self_s", cli.main)
    with contextlib.redirect_stdout(captured):
        code = entry(cli_args)
    report = {
        "exit_code": code,
        "stdout": captured.getvalue(),
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "checks": tracer.checks,
        "caches": {
            name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
            for name, fn in cached.items()
        },
    }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
