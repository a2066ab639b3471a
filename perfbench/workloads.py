"""The three benchmark workloads.

Each workload is a closed loop in one thread: the next operation starts
only after the previous one has returned.  `setup` builds every input from
the seed; `run_pass` performs one pass over those inputs, timing only the
calls into nislie, and checks every answer outside the timed regions.

`run_pass` returns timed samples, each a complete run of one of three
parts, "small", "mid" and "large", ordered by cost; a part may run more
than once per pass.  `NAMED` maps the parts to the workload's own metric
names.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import time
import traceback
from collections import Counter

import inputs
import oracle
# nislie functions are looked up on their modules at call time, so that the
# tracer's wrappers see every call
from nislie import catalog, cli, derivations, document, forms, superalgebra

PARTS = ("small", "mid", "large")


class Tally:
    """Operations attempted, failed, and the labels of those that failed.

    An operation fails when its answer is wrong (`wrong`) or missing
    because the call raised.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.errors: dict[str, str] = {}  # label -> last exception raised
        self.counts: Counter = Counter()  # one pass; run.py clears it

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.failures[f"{label}: wrong answer"] += 1

    def raised(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures[f"{label}: {type(exc).__name__}"] += 1
        self.errors[label] = "".join(traceback.format_exception_only(exc)).strip()


def _timed(fn, *args, **kwargs):
    """(result, seconds, exception); the exception is None on success."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the benchmark records it as a failed operation
        return None, time.perf_counter() - t0, exc
    return result, time.perf_counter() - t0, None


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

# criterion 13's answers: outer dimensions of h(0|m) by degree shift
COHOMOLOGY_EXPECTED = {
    (6, 0): {-2: 1, 0: 7, 4: 1},
    (6, 1): {},
    (7, 0): {0: 7},
    (7, 1): {5: 1},
}


class Cohomology:
    name = "cohomology"
    NAMED = {"outer_h06_s": ("small",), "outer_h07_s": ("mid", "large")}
    RATES: dict = {}
    # (part, m, parity) calls.  A "small" sample is h(0|6) in both parities;
    # its two calls sit on either side of a long h(0|7) call, and it runs
    # twice per pass, so its median sees more than one spell of the host's
    # speed.
    SCHEDULE = (
        ("small", 6, 0),
        ("mid", 7, 0),
        ("small", 6, 1),
        ("small", 6, 0),
        ("large", 7, 1),
        ("small", 6, 1),
    )
    CALLS_PER_SAMPLE = {"small": 2, "mid": 1, "large": 1}

    def setup(self, seed: int, workdir: str):
        rng = random.Random(f"cohomology:{seed}")
        algebras = {}
        for m in (6, 7):
            g, form, _ = catalog.hamiltonian(m)
            algebras[m], _ = inputs.relabel(g, form, rng)
        return algebras

    def run_pass(self, algebras, tally: Tally) -> list[tuple[str, float]]:
        samples = []
        pending = {part: [] for part in PARTS}
        for part, m, parity in self.SCHEDULE:
            g = algebras[m]
            label = f"outer h(0|{m}) {'even' if parity == 0 else 'odd'}"
            got, dt, exc = _timed(derivations.outer_dimension_by_degree, g, parity)
            pending[part].append(dt)
            if len(pending[part]) == self.CALLS_PER_SAMPLE[part]:
                samples.append((part, sum(pending[part])))
                pending[part] = []
            if exc is not None:
                tally.raised(label, exc)
                continue
            tally.check(label, got == COHOMOLOGY_EXPECTED[(m, parity)])
            tally.counts[f"{label}: classes"] = sum(got.values())
            tally.counts[f"{label}: dim"] = g.dim
        return samples


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


class Axioms:
    name = "axioms"
    NAMED = {"sweep_s": ("small",), "validate_h07_s": ("mid",), "validate_h08_s": ("large",)}
    FLIPS = 1000
    RATES = {"checks_per_s": (FLIPS, "small")}
    # (part, call, input).  Every sample is two calls on either side of
    # another call: a sweep is both halves of the flips, a full check is
    # validate then check_nis.  Spread over the pass, each sample sees more
    # than one spell of the host's speed.
    SCHEDULE = (
        ("small", "sweep", 0),
        ("mid", "validate", "h(0|7)"),
        ("small", "sweep", 1),
        ("large", "validate", "h(0|8)"),
        ("small", "sweep", 0),
        ("mid", "check_nis", "h(0|7)"),
        ("small", "sweep", 1),
        ("large", "check_nis", "h(0|8)"),
    )

    def setup(self, seed: int, workdir: str):
        rng = random.Random(f"axioms:{seed}")
        pool = []
        for name in catalog.entry_names(include_defective=False):
            obj = catalog.named(name)
            if obj.form is not None and obj.algebra.dim <= 16:
                pool.append((name, obj.algebra, obj.form))
        big = catalog.named("h1-0-5")
        flips = []
        for trial in range(self.FLIPS):
            if trial % 100 == 99:
                name, g, form = "h1-0-5", big.algebra, big.form
            else:
                name, g, form = pool[rng.randrange(len(pool))]
            g2, form2, where = inputs.flip_one_bit(g, form, rng)
            flips.append((f"{name} {where}", g2, form2))
        full = {}
        for m in (7, 8):
            g, form, _ = catalog.hamiltonian(m)
            full[f"h(0|{m})"] = inputs.relabel(g, form, rng)
        # verdicts already confirmed by the oracle, by flip index
        confirmed: dict[int, tuple] = {}
        return flips, full, confirmed

    def run_pass(self, state, tally: Tally) -> list[tuple[str, float]]:
        flips, full, confirmed = state
        samples = []
        pending = {part: [] for part in PARTS}
        half = len(flips) // 2
        for part, call, which in self.SCHEDULE:
            if call == "sweep":
                begin, end = (0, half) if which == 0 else (half, len(flips))
                dt = self._sweep(flips, begin, end, confirmed, tally)
            else:
                dt = self._full_check(call, which, full[which], tally)
            pending[part].append(dt)
            if len(pending[part]) == 2:
                samples.append((part, sum(pending[part])))
                pending[part] = []
        return samples

    @staticmethod
    def _full_check(call, label, algebra_and_form, tally: Tally) -> float:
        """validate or check_nis on a large valid algebra; must pass."""
        g, form = algebra_and_form
        fn = superalgebra.validate if call == "validate" else forms.check_nis
        args = (g,) if call == "validate" else (g, form)
        report, dt, exc = _timed(fn, *args)
        if exc is not None:
            tally.raised(f"{call} {label}", exc)
        else:
            tally.check(f"{call} {label}", report.passed)
            tally.counts[f"{label}: dim"] = g.dim
        return dt

    def _sweep(self, flips, begin, end, confirmed, tally: Tally) -> float:
        elapsed = 0.0
        verdicts = Counter()
        for idx in range(begin, end):
            label, g, form = flips[idx]
            t0 = time.perf_counter()
            try:
                rep = superalgebra.validate(g, max_failures=4)
                nis = forms.check_nis(g, form, max_witnesses=4)
            except Exception as exc:  # recorded as a failed check
                elapsed += time.perf_counter() - t0
                tally.raised(f"flip {label}", exc)
                continue
            elapsed += time.perf_counter() - t0
            answer = (rep.passed, nis.passed, tuple(rep.failures), tuple(nis.witnesses))
            ok = confirmed.get(idx) == answer or self._confirm(g, form, rep, nis)
            if ok:
                confirmed[idx] = answer
            tally.check(f"flip {label}", ok)
            verdicts["flips still valid" if rep.passed and nis.passed else "flips detected"] += 1
        for key, count in verdicts.items():
            tally.counts[f"{key} ({begin}-{end - 1})"] = count
        return elapsed

    @staticmethod
    def _confirm(g, form, rep, nis) -> bool:
        """Re-check a rejection's witnesses, or an acceptance in full."""
        if rep.passed and nis.passed:
            return oracle.fully_valid(g, form)
        if not rep.failures and not nis.witnesses:
            return False
        return all(
            oracle.axiom_witness_holds(g, f.axiom, f.witness) for f in rep.failures
        ) and all(oracle.nis_witness_holds(g, form, k, w) for k, w in nis.witnesses)


def _call_cli(argv):
    """nislie.cli.main's exit code, as a shell would see it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse exits through SystemExit
        return exc.code


def _read_document(path):
    """Parse a document without a document.load span (a check, not an operation)."""
    with open(path, encoding="utf-8") as fh:
        return document.loads(fh.read())


# ---------------------------------------------------------------------------
# catalog-session
# ---------------------------------------------------------------------------

COCYCLE_TABLES = ("hei-double", "ba-double", "h1-0-4", "h1-0-5")
GENERAL_BUDGET = 500
RELABELLINGS = 8


class CatalogSession:
    name = "catalog-session"
    NAMED = {"other_cmd_s": ("small", "mid"), "isometry_cmd_s": ("large",)}
    RATES: dict = {}

    def setup(self, seed: int, workdir: str):
        rng = random.Random(f"catalog-session:{seed}")
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        relabelled: dict[str, list[str]] = {}
        for name in catalog.entry_names(include_defective=False):
            obj = catalog.named(name)
            if obj.form is None:
                continue
            for r in range(RELABELLINGS):
                g2, form2 = inputs.relabel(obj.algebra, obj.form, rng)
                path = os.path.join(workdir, f"{name}.r{r}.json")
                # dumps, not save: set-up writes stay out of the document.save spans
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(document.dumps(document.AlgebraDocument(g2, form2, {})))
                relabelled.setdefault(name, []).append(path)
        return workdir, relabelled

    def run_pass(self, state, tally: Tally) -> list[tuple[str, float]]:
        """One session: entry by entry, so every part is spread over the pass."""
        workdir, relabelled = state
        times = dict.fromkeys(PARTS, 0.0)

        def path(stem):
            return os.path.join(workdir, f"{stem}.json")

        def run(part, label, argv, expected, must_print=None):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc, dt, exc = _timed(_call_cli, argv)
            times[part] += dt
            if exc is None and isinstance(rc, int):
                tally.counts[f"{argv[0]} exit {rc}"] += 1
                ok = rc in expected and (must_print is None or must_print(rc, out.getvalue()))
                tally.check(label, ok)
                return rc
            tally.raised(label, exc if exc is not None else TypeError(repr(rc)))
            return None

        def extend_reduce_hei():
            base = _read_document(path("hei-double"))
            for cocycle in ("D6", "D7"):
                stem = f"hei-double-{cocycle}"
                run(
                    "small",
                    f"extend hei-double {cocycle}",
                    ["extend", path("hei-double"), "--case", "evenB-oddD",
                     "--derivation", cocycle, "--a0", "0", "--out", path(stem)],
                    {0},
                )
                rc = run(
                    "small",
                    f"reduce {stem}",
                    ["reduce", path(stem), "--center-element", "x", "--out", path(stem + "-red")],
                    {0},
                )
                if rc == 0:
                    tally.check(
                        f"reduce {stem} gives hei-double back",
                        oracle.same_structure(_read_document(path(stem + "-red")), base),
                    )
            run(
                "large",
                "adapted isometry hei-double D6 vs D7",
                ["isometry", path("hei-double-D6"), path("hei-double-D7"), "--mode", "adapted"],
                {0},
            )

        def report(table):
            run("small", f"report {table}", ["report", "--table", table], {0})

        # commands that need the named entry, and the ones before it, exported
        follow_ups = {
            "hei-double": extend_reduce_hei,
            "h1-0-4": lambda: report("h04"),
            "h1-0-5": lambda: report("h05p"),
            "h104-D7ext": lambda: run(
                "large",
                "isometry h104-D2ext vs h104-D7ext",
                ["isometry", path("h104-D2ext"), path("h104-D7ext"),
                 "--budget", str(GENERAL_BUDGET)],
                {1, 3},
            ),
            "po05-m1": lambda: (
                run(
                    "large",
                    "adapted isometry po05-m1 vs po05-m0",
                    ["isometry", path("po05-m1"), path("po05-m0"), "--mode", "adapted"],
                    {1},
                ),
                report("h05"),
            ),
        }
        reg = catalog.registry()
        for name in catalog.entry_names():
            entry = reg[name]
            run("small", f"catalog export {name}", ["catalog", "export", name, "--out", path(name)], {0})
            run("small", f"validate {name}", ["validate", path(name)], {0} if entry.valid else {1})
            shows_dim = None
            if entry.out_dim is not None:
                line = f"out: {entry.out_dim} classes"
                shows_dim = lambda rc, text, line=line: line in text  # noqa: E731
            # a defective entry has no derivation quotient: 1 or 2, not a traceback
            run("mid", f"outer {name}", ["outer", path(name)], {0} if entry.valid else {1, 2}, shows_dim)
            if name in COCYCLE_TABLES:
                run(
                    "mid",
                    f"outer {name} --match-paper",
                    ["outer", path(name), "--match-paper"],
                    {0},
                    lambda rc, text: "underlining discrepancies: none" in text,
                )
            for rel_path in relabelled.get(name, ()):
                run(
                    "large",
                    f"isometry {name} vs relabelling",
                    ["isometry", path(name), rel_path, "--budget", str(GENERAL_BUDGET)],
                    {0, 3},
                    lambda rc, text: rc == 3 or "verified: True" in text,
                )
            if name in follow_ups:
                follow_ups[name]()
        return [(part, times[part]) for part in PARTS]


WORKLOADS = {w.name: w for w in (Cohomology(), Axioms(), CatalogSession())}
