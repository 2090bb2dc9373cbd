"""Print the line counts of the package, per module and in total.

    python3 tools/code_lines.py [PACKAGE_DIR]

For each module of src/todasnf (or of PACKAGE_DIR) it prints the
`wc -l` count and the code lines: every line that is not blank, not a
comment line (first non-space character `#`) and not part of a
docstring.  Docstrings are those of the AST: the leading string
expression of a module, class or function body.
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


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "todasnf"
    total_wc = total_code = 0
    print(f"{'module':<16} {'wc -l':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        wc, code = counts(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16} {wc:>6} {code:>6}")
    print(f"{'total':<16} {total_wc:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
