"""Smoke test of the benchmark's own code on a tiny corpus.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository
root; it takes a few seconds.
"""

import json
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def package_on_path():
    sys.path.insert(0, str(run.SRC))
    yield
    sys.path.remove(str(run.SRC))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    result, report = run.measure(workload, seed=3, seconds=0.05, trace=trace, tiny=True)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert report["failed_frac"] == 0, report["failures"]
    assert result["correct"] and result["failed"] == 0
    assert report["verified_n"] == result["attempted"] == report["inputs"]
    if trace:
        spans = run.ROOT / report["spans"]
        assert spans.is_file()
        spans.unlink()


def test_corpus_depends_only_on_the_seed():
    for name, build in run.corpus.BUILDERS.items():
        assert build(7) == build(7), name
        assert build(7) != build(8), name


def test_every_metric_has_a_reason():
    readme = (Path(run.__file__).parent / "README.md").read_text(encoding="utf-8")
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert f"`{m['name']}`" in readme, m["name"]
