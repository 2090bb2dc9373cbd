"""The gate tools in tools/: they run on the suite's own seeds and
counter, and count and hash what they say they do."""

import importlib.util
import sys
from pathlib import Path

import pytest

import conftest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def tools():
    """code_lines, lattice_counts and output_digest, imported from their
    files; the sys.path entries and bytecode setting they make at import
    are undone afterwards."""
    modules = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        patch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
        for name in ("code_lines", "lattice_counts", "output_digest"):
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


def test_the_digest_caps_the_exact_route_at_its_own_steps(tools):
    # Seed 12's full10.0 takes 1 step modulo D but 4 on the exact route,
    # so a cap read off smith_normal_form's steps would hash no capped run.
    digest = tools["output_digest"]
    raw = next(m for m in digest.corpus.dense_zz(12) if m.label == "full10.0")
    matrix = digest.DenseMatrix(digest.ZZ, raw.rows)
    assert digest.smith_normal_form(matrix).iterations < 2
    assert "no termination within 2 steps" in "\n".join(
        digest.lines("dense_zz", matrix))


def test_code_lines_counts_all_lines_and_code_lines(tools, tmp_path):
    # Docstrings of a module, a class and a function (one-line and
    # multi-line), a comment line and blank lines are not code; a string
    # that is not a docstring, and a line with a trailing comment, are.
    source = tmp_path / "sample.py"
    source.write_text('''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
class Box:
    """A one-line class docstring."""

    def size(self):
        """A function docstring
        over three lines.
        """
        text = """not a docstring"""
        return len(text) + len(os.sep)
''')
    assert tools["code_lines"].counts(source) == (16, 5)
