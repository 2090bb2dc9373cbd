"""The gate tools in tools/ run on the suite's own seeds and counter."""

import importlib.util
import sys
from pathlib import Path

import pytest

import conftest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def tools():
    """lattice_counts and output_digest, imported from their files; the
    sys.path entries and bytecode setting they make at import are undone
    afterwards."""
    modules = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        patch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
        for name in ("lattice_counts", "output_digest"):
            spec = importlib.util.spec_from_file_location(
                name, TOOLS / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    return modules


def test_the_tools_use_the_suite_fixtures(tools):
    # A gate that kept its own copy of a seed or of the counter could
    # drift from the suite; each tool must hold conftest's objects.
    used = {"lattice_counts": ("call_counter", "poly_seed", "smooth_seed"),
            "output_digest": ("ladder_draws", "small_seeds")}
    for name, helpers in used.items():
        for helper in helpers:
            assert getattr(tools[name], helper) is getattr(conftest, helper)


def test_lattice_counts_sees_the_gcd_parity_of_iterate(tools):
    # On the GF(5)[x] seed both routes take 43 steps, and iterate, which
    # reads every state, makes run's gcd calls.
    routes = tools["lattice_counts"].count_routes([conftest.poly_seed()])
    (steps, entry_steps, ran), (steps_read, _, read) = (
        routes["run"], routes["iterate"])
    assert steps == steps_read == 43 and entry_steps == 43 * 15
    assert ran["gcd"] == read["gcd"] > 0
