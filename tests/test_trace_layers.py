"""The layer names the `perfbench` trace wraps still exist in the library,
and a traced CLI call still runs and reports its counters."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, name", sorted({layer[:2] for layer in spans.LAYERS}), ids="/".join)
def test_every_traced_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"diagram_gram.{module}"), name))


@pytest.mark.parametrize("module, name", spans.CACHED, ids="/".join)
def test_every_cached_layer_reports_its_cache(module, name):
    fn = getattr(importlib.import_module(f"diagram_gram.{module}"), name)
    assert callable(fn.cache_info)


def test_traced_cli_call_reports_its_counters():
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), "trace",
         "semisimple", "--algebra", "signed", "--k", "3", "--q", "2"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exit_code"] == 0
    assert report["counters"]["determinant.components"] == 79
    # the nonzeros of the representatives' rows of T'GT, the rows that
    # `_congruence` returns; the other rows are mapped from these
    assert report["counters"]["reduction.reduced_nnz"] == 81
