"""Print the line counts of the package, per module and in total.

    python3 tools/code_lines.py [PACKAGE_DIR]
    python3 tools/code_lines.py OLD_DIR NEW_DIR

For each module of src/todasnf (or of PACKAGE_DIR) it prints the
`wc -l` count and the code lines: every line that is not blank, not a
comment line (first non-space character `#`) and not part of a
docstring.  Docstrings are those of the AST: the leading string
expression of a module, class or function body.  Given two package
directories, it prints both counts before and after, and their deltas,
for every module of either and in total; a module missing on one side
counts zero there.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the docstrings of a module's AST."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(wc -l, code lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for k, line in enumerate(text.splitlines(), 1)
               if k not in docs and line.strip()
               and not line.lstrip().startswith("#"))
    return text.count("\n"), code


def package_counts(package: Path) -> dict[str, tuple[int, int]]:
    """counts of every module of a package directory, and their total."""
    table = {path.name: counts(path) for path in sorted(package.glob("*.py"))}
    table["total"] = (sum(wc for wc, _ in table.values()),
                      sum(code for _, code in table.values()))
    return table


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        old, new = (package_counts(Path(arg)) for arg in argv)
        names = sorted((set(old) | set(new)) - {"total"}) + ["total"]
        print(f"{'module':<16} {'wc -l before/after':>20} "
              f"{'code before/after':>20}")
        for name in names:
            cells = []
            for k in (0, 1):
                a, b = old.get(name, (0, 0))[k], new.get(name, (0, 0))[k]
                cells.append(f"{a:>6} {b:>6} {b - a:>+6}")
            print(f"{name:<16} {cells[0]} {cells[1]}")
        return 0
    package = Path(argv[0]) if argv else ROOT / "src" / "todasnf"
    print(f"{'module':<16} {'wc -l':>6} {'code':>6}")
    for name, (wc, code) in package_counts(package).items():
        print(f"{name:<16} {wc:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
