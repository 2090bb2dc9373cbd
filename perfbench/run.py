"""Benchmark of the todasnf Smith-normal-form pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call runs one workload in this single-threaded process with one
closed-loop caller: an input is handed to the package only after the
previous call returned.  The corpus is built from --seed (see corpus.py);
the package sees only the generated inputs.  Every output is checked
against sympy's Smith normal form (and classical_snf / verify where they
run), and the last stdout line is the JSON result.  Exit code 1 means an
output was wrong or could not be checked, 2 that todasnf is not in this
checkout.

--trace 0 makes passes over the corpus through the user entry point and
reports the end-to-end metrics.  --trace 1 also calls each module's public
functions directly on the same inputs, keeps the spans (name, start, end,
parent) in memory, writes them to perfbench/out/ at the end and reports the
per-layer metrics.  Times are scaled by the speed of a fixed reference
loop timed between calls (HostSpeed), since other tenants of a shared host
change its speed within seconds.
perfbench/README.md says why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import corpus
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The median of this many imports-and-builds is setup_s.
SETUP_REPEATS = 15
#: Timing metrics are medians over passes, so never fewer than this.
MIN_PASSES = 5
#: latency_p90_ms needs ten calls above it.
MIN_CALLS = 100
#: Seconds between two timings of the reference loop.
SPEED_EVERY = 0.2
#: A call is scaled by the median of this many loop timings on either side.
SPEED_WINDOW = 3
#: Every reported time is for a host on which reference_loop takes this
#: long (about its fastest time on the shared 2-vCPU Xeon VM, 2.0 GHz,
#: CPython 3.11, that the benchmark was tuned on).
REFERENCE_S = 0.002

#: Seconds classical_snf may take on one input before it counts as not
#: finishing: on bidiagonal inputs its entries can grow without end (a
#: GF(7)[x] 16x16 draw ran for minutes), so it is never run on
#: lattice_smooth and elsewhere is compared and timed only where it finishes.
CLASSICAL_BUDGET_S = 3.0

#: Public calls cli.main makes, timed directly; cli.self_s is the rest.
CLI_DIRECT = (
    "cli.parse", "snf.smith_normal_form", "snf.classical_snf", "snf.verify",
    "gcd_toda.determinantal_divisors", "gcd_toda.gcd_step", "ud_toda.bbs",
    "ud_toda.conserved_quantities",
)


# -- host speed --------------------------------------------------------------


def reference_loop() -> list:
    """Fixed work in the package's idiom: big-int arithmetic and small tuples."""
    x = 3 ** 300
    acc, items = 1, []
    for i in range(1500):
        acc = (acc * x + i) % (x - 7)
        items.append((i, acc & 0xFF))
    return items


class HostSpeed:
    """How fast the host ran this process during the run.

    Other tenants of a shared VM slow this process by 1.3-2x for stretches
    of seconds to over a minute, with process time tracking wall time, so a
    run can spend all of its time in one such stretch.  The reference loop
    is timed every SPEED_EVERY seconds between calls, with the garbage
    collector off so that objects the package keeps alive do not slow it.
    A time measured in this run, multiplied by a scale, is the time on a
    host where the loop takes REFERENCE_S.
    """

    def __init__(self):
        self.at: list[float] = []  # when each timing was taken
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        """Time the loop if SPEED_EVERY seconds passed since the last time."""
        now = time.perf_counter()
        if now - self.last < SPEED_EVERY:
            return
        self.at.append(now)
        self.samples.append(time_reference())
        self.last = time.perf_counter()

    def scale_at(self, t: float) -> float:
        """For a call started at t: REFERENCE_S / the median loop around t.

        The host's speed changes within seconds, so a call is scaled by the
        SPEED_WINDOW timings on either side of it, not by the whole run.
        """
        j = bisect.bisect_left(self.at, t)
        near = self.samples[max(0, j - SPEED_WINDOW):j + SPEED_WINDOW]
        return REFERENCE_S / statistics.median(near)

    def scale_fastest(self) -> float:
        """For fastest calls over the run: REFERENCE_S / the fastest loop."""
        return REFERENCE_S / min(self.samples)


def time_reference() -> float:
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


# -- set-up ------------------------------------------------------------------


def import_package():
    """A fresh import of todasnf from this checkout, dropping earlier ones."""
    for name in [n for n in sys.modules if n == "todasnf" or n.startswith("todasnf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("todasnf")
    importlib.import_module("todasnf.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"todasnf imported from {pkg.__file__}, not {SRC}")
    return pkg


def build_matrices(pkg, raw):
    rings = {}
    out = []
    for m in raw:
        if m.p not in rings:
            rings[m.p] = pkg.ZZ if m.p is None else pkg.PolyModP(m.p)
        out.append(pkg.DenseMatrix(rings[m.p], m.rows))
    return out


class Setup:
    """The package and the corpus as package objects, built SETUP_REPEATS times."""

    def __init__(self, workload: str, raw: list, workdir: Path):
        self.workload = workload
        self.raw = raw
        self.workdir = workdir
        totals, builds, refs = [], [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pkg = import_package()
            t1 = time.perf_counter()
            matrices, argvs = self._build(pkg)
            t2 = time.perf_counter()
            totals.append(t2 - t0)
            builds.append(t2 - t1)
            refs.append(time_reference())
        self.pkg = pkg
        self.matrices = matrices  # per input; None for bbs calls
        self.inputs = argvs if workload == "cli_small" else matrices
        self.setup_s = statistics.median(totals)
        self.build_s = statistics.median(builds)
        # The repeats run back to back, so the host's speed is read beside
        # them: the scale for a median is REFERENCE_S / the median loop.
        self.scale = REFERENCE_S / statistics.median(refs)

    def _build(self, pkg):
        if self.workload != "cli_small":
            return build_matrices(pkg, self.raw), None
        built = iter(build_matrices(pkg, [c.matrix for c in self.raw if c.matrix]))
        matrices, argvs = [], []
        for i, call in enumerate(self.raw):
            argv = list(call.argv)
            matrices.append(next(built) if call.matrix else None)
            if call.matrix:
                path = self.workdir / f"input{i}.txt"
                path.write_text(corpus.render_matrix_file(call.matrix), encoding="utf-8")
                argv[argv.index("FILE")] = str(path)
            argvs.append(argv)
        return matrices, argvs


def entry_point(pkg, workload):
    """The user entry point: smith_normal_form, or cli.main with captured output."""
    if workload != "cli_small":
        return pkg.smith_normal_form
    main = pkg.cli.main

    def cli(argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    return cli


class Expired(Exception):
    pass


def within(seconds: float, fn, *args):
    """fn(*args), or None if it runs longer than seconds (an interval timer)."""
    def expire(signum, frame):
        raise Expired

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except Expired:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def classical_factors(setup: Setup) -> list:
    """Per input, classical_snf's factors, or None where it is not run or
    does not finish within CLASSICAL_BUDGET_S (untimed)."""
    if setup.workload in ("lattice_smooth", "cli_small"):
        return [None] * len(setup.inputs)
    out = []
    for matrix in setup.matrices:
        result = within(CLASSICAL_BUDGET_S, setup.pkg.classical_snf, matrix)
        out.append(None if result is None else tuple(v.payload for v in result.factors))
    return out


# -- untraced passes ---------------------------------------------------------


class Passes:
    """Closed-loop passes over the corpus; keeps every call's time and the outputs."""

    def __init__(self, solve, inputs, speed: HostSpeed):
        self.solve = solve
        self.inputs = inputs
        self.speed = speed
        self.pass_s: list[float] = []
        self.calls: list[list[float]] = [[] for _ in inputs]  # per input
        self.starts: list[list[float]] = [[] for _ in inputs]
        self.outputs: list = [None] * len(inputs)
        self.errors: dict[int, str] = {}

    def run(self, seconds: float, min_passes: int) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.pass_s) < min_passes or time.perf_counter() < deadline:
            self.one_pass()

    def one_pass(self) -> None:
        first = not self.pass_s
        total = 0.0
        for i, x in enumerate(self.inputs):
            t0 = time.perf_counter()
            try:
                y = self.solve(x)
            except Exception as exc:  # a failing input is counted, not fatal
                y = None
                self.errors.setdefault(i, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            total += dt
            self.calls[i].append(dt)
            self.starts[i].append(t0)
            if first:
                self.outputs[i] = y
            elif y != self.outputs[i]:
                self.errors.setdefault(i, "output changed between passes")
            self.speed.sample()
        self.pass_s.append(total)

    def all_calls(self) -> list[float]:
        return [t for c in self.calls for t in c]

    def scaled_calls(self) -> list[list[float]]:
        """Per input, each call's time times HostSpeed.scale_at its start."""
        return [[dt * self.speed.scale_at(t) for dt, t in zip(c, s)]
                for c, s in zip(self.calls, self.starts)]

    def fastest(self) -> list[float]:
        """Each input's fastest call, as Spans.fastest takes it."""
        return [min(c) for c in self.calls]


# -- traced passes -----------------------------------------------------------


class Spans:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.rows: list[list] = []

    def open(self, name: str, parent: int | None, index: int | None = None) -> int:
        """Start a span; index numbers the input an "input" span belongs to."""
        self.rows.append([name, time.perf_counter(), None, parent, index])
        return len(self.rows) - 1

    def close(self, sid: int) -> None:
        self.rows[sid][2] = time.perf_counter()

    def call(self, name: str, parent: int, fn, *args):
        sid = self.open(name, parent)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def passes(self) -> int:
        return sum(1 for row in self.rows if row[0] == "pass")

    def fastest(self) -> dict[str, float]:
        """Per span name, the sum over inputs of each input's fastest pass.

        The minimum over passes is taken per input and per name, so that a
        slow stretch of the host does not land in one layer and not in the
        layer it is subtracted from.
        """
        rows = self.rows
        per: dict[tuple[str, int, int], float] = {}  # (name, input, pass span)
        for name, start, end, parent, _ in rows:
            if parent is not None and rows[parent][0] == "input":
                key = (name, rows[parent][4], rows[parent][3])
                per[key] = per.get(key, 0.0) + end - start
        best: dict[tuple[str, int], float] = {}
        for (name, i, _), t in per.items():
            best[name, i] = min(best.get((name, i), t), t)
        out: dict[str, float] = {}
        for (name, _), t in best.items():
            out[name] = out.get(name, 0.0) + t
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        own = [row[2] - row[1] for row in self.rows]
        for row in self.rows:
            if row[3] is not None:
                own[row[3]] -= row[2] - row[1]
        totals: dict[str, float] = {}
        for row, t in zip(self.rows, own):
            totals[row[0]] = totals.get(row[0], 0.0) + t
        return totals

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, _) in enumerate(self.rows):
                handle.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


class Tracer:
    """Times calls into each module's public functions, from outside."""

    def __init__(self, setup: Setup, speed: HostSpeed, classical: list):
        self.setup = setup
        self.speed = speed
        self.pkg = setup.pkg
        self.spans = Spans()
        self.entry = entry_point(self.pkg, setup.workload)
        self.classical = classical  # classical_factors(setup)
        self.kept: list[tuple] = []  # (matrix, form, factors) of the first pass

    def run(self, seconds: float, untraced: Passes) -> None:
        """Traced passes, each after an untraced one, so both see the same host."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            untraced.one_pass()
            self._one_pass(first=passes == 0)
            passes += 1

    def _one_pass(self, first: bool) -> None:
        root = self.spans.open("pass", None)
        for i, x in enumerate(self.setup.inputs):
            sid = self.spans.open("input", root, i)
            if self.setup.workload == "cli_small":
                self._cli(sid, self.setup.raw[i], x, self.setup.matrices[i], first)
            else:
                self.spans.call("snf.smith_normal_form", sid, self.entry, x)
                self._pipeline(sid, x, first)
                if self.classical[i] is not None:
                    self.spans.call("snf.classical_snf", sid, self.pkg.classical_snf, x)
            self.spans.close(sid)
            self.speed.sample()
        self.spans.close(root)

    def _pipeline(self, sid: int, matrix, first: bool):
        """The lattice route step by step: pad, bidiagonalize, seed, run."""
        pkg, spans = self.pkg, self.spans
        spans.call("matrix.padded_square", sid, matrix.padded_square)
        form = spans.call("bidiagonalize.bidiagonalize", sid, pkg.bidiagonalize, matrix)
        outcome = None
        if form.k:
            state = spans.call("bidiagonalize.seed_state", sid, pkg.seed_state, form)
            outcome = spans.call("gcd_toda.run", sid, pkg.run, state)
        if first:  # not the outcome: its lattice trace would slow the GC later
            self.kept.append((matrix, form, outcome.factors if outcome else None))
        return outcome

    def _cli(self, sid: int, call, argv, matrix, first: bool) -> None:
        pkg, spans = self.pkg, self.spans
        spans.call("cli.main", sid, self.entry, argv)
        command = call.argv[0]
        if command == "bbs":
            state = spans.call("cli.parse", sid, pkg.parse_state_literal, argv[1])
            spans.call("ud_toda.bbs", sid, _evolve_bbs, pkg, state, call.steps)
            spans.call("ud_toda.conserved_quantities", sid, pkg.conserved_quantities, state)
            return
        path = argv[1]
        parsed = spans.call("cli.parse", sid, _parse_file, pkg, path)
        if command == "toda-trace":
            n = parsed.nrows
            state = pkg.GcdTodaState(tuple(parsed[i, i] for i in range(n)),
                                     tuple(parsed[i + 1, i] for i in range(n - 1)))
            for t in range(call.steps + 1):
                spans.call("gcd_toda.determinantal_divisors", sid,
                           pkg.determinantal_divisors, state)
                if t < call.steps:
                    state = spans.call("gcd_toda.gcd_step", sid, pkg.gcd_step, state)
        elif "classical" in call.argv:
            spans.call("snf.classical_snf", sid, pkg.classical_snf, parsed)
        else:
            result = spans.call("snf.smith_normal_form", sid, pkg.smith_normal_form, parsed)
            self._pipeline(sid, matrix, first)
            spans.call("snf.verify", sid, pkg.verify, parsed, result)

    def sizes(self) -> dict[str, float]:
        """Entry sizes and lattice counts, measured outside every timed span.

        The lattice is replayed with the public gcd_step, so the sizes do not
        depend on whether run() keeps a trace.
        """
        out = dict.fromkeys(("ring.input_size_max", "ring.form_size_max",
                             "ring.lattice_size_max", "ring.factor_size_max",
                             "gcd_toda.iterations", "gcd_toda.iterations_max",
                             "gcd_toda.cap_used_max"), 0)
        pkg = self.pkg
        for matrix, form, factors in self.kept:
            ring = matrix.ring
            out["ring.input_size_max"] = max(out["ring.input_size_max"],
                                             *(_largest(ring, r) for r in matrix.rows()))
            out["ring.form_size_max"] = max(out["ring.form_size_max"],
                                            *(_largest(ring, r) for r in form.matrix.rows()))
            if factors is None:
                continue
            out["ring.factor_size_max"] = max(out["ring.factor_size_max"],
                                              _largest(ring, factors))
            state = pkg.seed_state(form)
            cap = pkg.default_max_iters(state)
            steps, peak = 0, _largest(ring, state.diagonal + state.subdiagonal)
            while steps == 0 or not pkg.terminated(state):  # run() also steps once
                state = pkg.gcd_step(state)
                steps += 1
                peak = max(peak, _largest(ring, state.diagonal + state.subdiagonal))
            out["ring.lattice_size_max"] = max(out["ring.lattice_size_max"], peak)
            out["gcd_toda.iterations"] += steps
            out["gcd_toda.iterations_max"] = max(out["gcd_toda.iterations_max"], steps)
            out["gcd_toda.cap_used_max"] = max(out["gcd_toda.cap_used_max"], steps / cap)
        return out


def _largest(ring, values) -> int:
    """Largest ring.size (bits, or degree) among some ring values."""
    return max((ring.size(v.payload) for v in values), default=0)


def _parse_file(pkg, path: str):
    with open(path, encoding="utf-8") as handle:
        return pkg.cli.parse_matrix_text(handle.read())


def _evolve_bbs(pkg, state, steps: int) -> list[str]:
    configs = [pkg.to_bbs(state)]
    for _ in range(steps):
        configs.append(pkg.bbs_step(configs[-1]))
    return [pkg.render_bbs(c) for c in configs]


# -- checking ----------------------------------------------------------------


def check(setup: Setup, outputs: list, errors: dict[int, str], classical: list):
    """Compare every output with the oracles; returns (verified, failures)."""
    have_sympy = oracle.sympy_version() is not None
    pkg = setup.pkg
    failures = dict(errors)
    verified = 0
    expected_by_input = {}  # snf --verify and --method classical share a file
    for i, raw in enumerate(setup.raw):
        if i in failures:
            continue
        matrix = setup.matrices[i]
        call = raw if setup.workload == "cli_small" else None
        source = call.matrix if call else raw
        if have_sympy and source and source not in expected_by_input:
            expected_by_input[source] = oracle.sympy_factors(source)
        expected = expected_by_input.get(source)
        if call:
            if expected is None and call.matrix:
                continue
            reason = oracle.check_cli(call, *outputs[i], expected)
            if reason:
                failures[i] = reason
            else:
                verified += 1
            continue
        got = tuple(v.payload for v in outputs[i].factors)
        if classical[i] is not None and classical[i] != got:
            failures[i] = f"factors {got} != classical_snf {classical[i]}"
            continue
        if min(matrix.nrows, matrix.ncols) <= 6 and not pkg.verify(matrix, outputs[i]):
            failures[i] = "verify rejected the factors"
            continue
        if expected is None:
            continue
        if got != expected:
            failures[i] = f"factors {got} != sympy {expected}"
        else:
            verified += 1
    return verified, failures


# -- metrics -----------------------------------------------------------------


def percentile_ms(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3




def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup: Setup, passes: Passes, rss_mb: float, verified: int,
               failed: int) -> dict:
    """The end-to-end metrics, every call scaled to host speed around it."""
    attempted = len(setup.raw)
    scaled = passes.scaled_calls()
    pass_s = [sum(c[k] for c in scaled) for k in range(len(passes.pass_s))]
    calls = [t for c in scaled for t in c]
    return {
        "solve_s": metric(statistics.median(pass_s), "s"),
        "latency_p50_ms": metric(percentile_ms(calls, 50), "ms"),
        "latency_p90_ms": metric(percentile_ms(calls, 90), "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup.setup_s * setup.scale, "s"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "verified_n": metric(verified, "count"),
    }


def per_layer(setup: Setup, tracer: Tracer, untraced: Passes, scale: float) -> dict:
    """The per-layer metrics; fastest-call times are multiplied by scale."""
    fastest = tracer.spans.fastest()
    t = {name: fastest.get(name, 0.0) * scale for name in (
        "snf.smith_normal_form", "bidiagonalize.bidiagonalize", "bidiagonalize.seed_state",
        "gcd_toda.run", "snf.classical_snf", "matrix.padded_square", "cli.main",
        *CLI_DIRECT)}
    snf = t["snf.smith_normal_form"]
    cli = setup.workload == "cli_small"
    steps = sum(c.steps for c in setup.raw if c.argv[0] == "bbs") if cli else 0
    direct = sum(t[name] for name in CLI_DIRECT)
    entry = t["cli.main" if cli else "snf.smith_normal_form"]
    s = tracer.sizes()
    layers = {
        "bidiagonalize.time_s": (t["bidiagonalize.bidiagonalize"], "s"),
        "bidiagonalize.share": (t["bidiagonalize.bidiagonalize"] / snf if snf else 0.0, "ratio"),
        "gcd_toda.run_s": (t["gcd_toda.run"], "s"),
        "gcd_toda.share": (t["gcd_toda.run"] / snf if snf else 0.0, "ratio"),
        "gcd_toda.seed_s": (t["bidiagonalize.seed_state"], "s"),
        "gcd_toda.iterations": (s["gcd_toda.iterations"], "count"),
        "gcd_toda.iterations_max": (s["gcd_toda.iterations_max"], "count"),
        "gcd_toda.cap_used_max": (s["gcd_toda.cap_used_max"], "ratio"),
        "gcd_toda.divisors_s": (t["gcd_toda.determinantal_divisors"], "s"),
        "snf.self_s": (snf - t["bidiagonalize.bidiagonalize"] - t["bidiagonalize.seed_state"]
                       - t["gcd_toda.run"], "s"),
        "snf.classical_s": (t["snf.classical_snf"], "s"),
        "snf.toda_over_classical": (snf / t["snf.classical_snf"]
                                    if t["snf.classical_snf"] else 0.0, "ratio"),
        "snf.verify_s": (t["snf.verify"], "s"),
        "ring.input_size_max": (s["ring.input_size_max"], "size"),
        "ring.form_size_max": (s["ring.form_size_max"], "size"),
        "ring.lattice_size_max": (s["ring.lattice_size_max"], "size"),
        "ring.factor_size_max": (s["ring.factor_size_max"], "size"),
        "cli.main_s": (t["cli.main"], "s"),
        "cli.parse_s": (t["cli.parse"], "s"),
        "cli.self_s": (t["cli.main"] - direct if cli else 0.0, "s"),
        "ud_toda.bbs_s": (t["ud_toda.bbs"], "s"),
        "ud_toda.conserved_s": (t["ud_toda.conserved_quantities"], "s"),
        "ud_toda.steps": (steps, "count"),
        "matrix.build_s": (setup.build_s * setup.scale, "s"),
        "matrix.pad_s": (t["matrix.padded_square"], "s"),
        "trace.overhead_s": (entry - sum(untraced.fastest()) * scale, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in layers.items()}


# -- main --------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, report)."""
    raw = corpus.BUILDERS[workload](seed, tiny=tiny)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    speed = HostSpeed()
    try:
        setup = Setup(workload, raw, workdir)
        untraced = Passes(entry_point(setup.pkg, workload), setup.inputs, speed)
        if trace:
            classical = classical_factors(setup)
            tracer = Tracer(setup, speed, classical)
            tracer.run(seconds, untraced)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            untraced.run(seconds, max(MIN_PASSES, -(-MIN_CALLS // len(raw))))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            classical = classical_factors(setup)
        verified, failures = check(setup, untraced.outputs, untraced.errors, classical)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(raw)
    if trace:
        metrics = per_layer(setup, tracer, untraced, speed.scale_fastest())
        spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
        tracer.spans.write(spans_path)
    else:
        metrics = end_to_end(setup, untraced, rss_mb, verified, len(failures))
    calls = untraced.all_calls()
    p90_ms = percentile_ms(calls, 90)
    report = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "sympy": oracle.sympy_version() or "absent: outputs not checked against sympy",
        "inputs": attempted,
        "pass_s": [round(t, 4) for t in untraced.pass_s],
        "host_speed": {"reference_s": REFERENCE_S, "fastest_s": min(speed.samples),
                       "median_s": statistics.median(speed.samples),
                       "timings": len(speed.samples), "scale_fastest": speed.scale_fastest(),
                       "setup_scale": setup.scale},
        "unscaled": {"solve_s": statistics.median(untraced.pass_s),
                     "latency_p50_ms": percentile_ms(calls, 50), "latency_p90_ms": p90_ms,
                     "setup_s": setup.setup_s},
        "samples": {"latency_p50_ms": len(calls), "latency_p90_ms": len(calls),
                    "above_p90": sum(1 for t in calls if t * 1e3 > p90_ms)},
        "failed_frac": len(failures) / attempted,
        "verified_n": verified,
        "failures": {setup.raw[i].label: reason for i, reason in sorted(failures.items())},
        "classical_unfinished": [setup.raw[i].label for i, c in enumerate(classical)
                                 if c is None and workload in ("dense_zz", "poly_gfp")],
    }
    if trace:
        traced = tracer.spans.passes()
        report["traced_passes"] = traced
        report["self_s_per_pass"] = {name: t / traced
                                     for name, t in tracer.spans.self_times().items()}
        report["spans"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": not failures and verified == attempted,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "todasnf" / "__init__.py").is_file():
        print(f"error: no todasnf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
