"""Oracles that share no code with todasnf.

Invariant factors come from sympy's Smith normal form, brought to the
package's canonical form (nonnegative integers, monic polynomials as
ascending coefficient tuples, zero as 0 or ()).  The box-and-ball output
is rebuilt from the rule "each ball, leftmost first, moves to the nearest
empty box on its right", and the conserved quantities by enumerating
non-adjacent subsets.
"""

from __future__ import annotations

from itertools import combinations

from corpus import CliCall, MatrixInput, poly_mul


def sympy_version() -> str | None:
    try:
        import sympy
    except ImportError:
        return None
    return sympy.__version__


def _monic(element, p: int) -> tuple[int, ...]:
    coeffs: dict[int, int] = {}
    for (degree,), c in element.terms():
        coeffs[degree] = int(c) % p
    top = max((d for d, c in coeffs.items() if c), default=-1)
    if top < 0:
        return ()
    inv = pow(coeffs[top], -1, p)
    return tuple(coeffs.get(d, 0) * inv % p for d in range(top + 1))


def sympy_factors(matrix: MatrixInput) -> tuple:
    """Canonical invariant factors of a corpus matrix, by sympy."""
    from sympy import GF, ZZ, symbols
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    if matrix.p is None:
        grid = [[ZZ(v) for v in row] for row in matrix.rows]
        factors = invariant_factors(DomainMatrix(grid, matrix.shape, ZZ))
        return tuple(abs(int(f)) for f in factors)
    domain = GF(matrix.p)[symbols("x")]
    ring = domain.ring
    grid = [
        [ring.from_dict({(i,): ring.domain.convert(c) for i, c in enumerate(v) if c})
         for v in row]
        for row in matrix.rows
    ]
    factors = invariant_factors(DomainMatrix(grid, matrix.shape, domain))
    return tuple(_monic(f, matrix.p) for f in factors)


def render(value, p: int | None) -> str:
    """A canonical value as the CLI prints it."""
    if p is None:
        return str(value)
    return "[" + ",".join(map(str, value or (0,))) + "]"


def _is_zero(value) -> bool:
    return value in (0, ())


def divisor_chain(factors: tuple, p: int | None) -> list:
    """Running products s_1, s_1 s_2, ...: the determinantal divisors."""
    out, acc = [], (1 if p is None else (1,))
    for f in factors:
        acc = acc * f if p is None else poly_mul(acc, f, p)
        out.append(acc)
    return out


# -- box and ball ---------------------------------------------------------


def _bbs_step(balls: list[int]) -> list[int]:
    moved: set[int] = set()
    for idx, b in enumerate(balls):
        waiting = set(balls[idx + 1:])
        t = b + 1
        while t in waiting or t in moved:
            t += 1
        moved.add(t)
    return sorted(moved)


def _conserved(word: list[int], n: int) -> list[int]:
    return [
        min(sum(word[i] for i in pick)
            for pick in combinations(range(len(word)), count)
            if all(b - a >= 2 for a, b in zip(pick, pick[1:])))
        for count in range(1, n + 1)
    ]


def bbs_output(blocks, gaps, steps: int) -> str:
    """Expected stdout of ``bbs STATE --steps K``."""
    balls, site = [], 0
    for i, q in enumerate(blocks):
        if i:
            site += gaps[i - 1]
        balls.extend(range(site, site + q))
        site += q
    configs = [balls]
    for _ in range(steps):
        configs.append(_bbs_step(configs[-1]))
    start = min(c[0] for c in configs)
    stop = max(c[-1] for c in configs) + 1
    lines = [
        "".join("1" if s in set(c) else "0" for s in range(start, stop))
        for c in configs
    ]
    word = [blocks[0]]
    for g, q in zip(gaps, blocks[1:]):
        word += [g, q]
    lines.append("conserved: " + " ".join(map(str, _conserved(word, len(blocks)))))
    return "\n".join(lines) + "\n"


# -- checking outputs -----------------------------------------------------


def check_cli(call: CliCall, code: int, out: str, err: str, expected) -> str | None:
    """None when a captured CLI call matches the oracle, else the reason.

    expected is the sympy factor tuple for matrix calls, unused for bbs.
    """
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    command = call.argv[0]
    if command == "bbs":
        blocks, gaps = call.state
        return None if out == bbs_output(blocks, gaps, call.steps) else "bbs output differs"
    p = call.matrix.p
    if command == "snf":
        want = [render(f, p) for f in expected if not _is_zero(f)]
        if out.split() != want:
            return f"factors {out.split()} != oracle {want}"
        if "--verify" in call.argv and "verify: ok" not in err:
            return "verify did not report ok"
        return None
    # toda-trace: one line per state, the divisors never change.
    lines = out.splitlines()
    if len(lines) != call.steps + 1:
        return f"{len(lines)} trace lines for {call.steps} steps"
    n = call.matrix.shape[0]
    diag = " ".join(render(call.matrix.rows[i][i], p) for i in range(n))
    sub = " ".join(render(call.matrix.rows[i + 1][i], p) for i in range(n - 1))
    if not lines[0].startswith(f"q: {diag} | e: {sub}".rstrip() + " |"):
        return "trace does not start at the input"
    want = " ".join(render(d, p) for d in divisor_chain(expected, p))
    if any(not line.endswith(f"| d: {want}") for line in lines):
        return f"divisors differ from the oracle's {want}"
    return None
