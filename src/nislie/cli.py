"""Command-line front end.

Exit-code contract: 0 = pass, 1 = mathematical negative (axiom failure,
condition violated, not found), 2 = input error, 3 = budget exhausted (a
search ended without a proof).  Inputs are JSON documents or catalog
references ("catalog:NAME" or a bare catalog name).  main builds the
argument parser once per process, so repeated in-process calls do not
pay for it again.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import document as doc_mod
from .catalog import (
    cocycles_for,
    entry_names,
    named,
    registry,
)
from .derivations import (
    CASES,
    Derivation,
    case_of,
    class_coordinates,
    map_degree,
    outer_derivations,
)
from .document import (
    AlgebraDocument,
    DocumentError,
    derivation_from_data,
    derivation_to_data,
    extension_meta,
    quadratic_from_data,
    recipe_to_meta,
)
from .errors import ConditionViolated, FieldNotInCase, InnerNotDerivation, NisLieError, UnknownName
from .extension import ExtensionRecipe, extend, reduce as ext_reduce, refuse_foreign_fields
from .forms import QuadraticForm, check_nis
from .gf2 import bits
from .isometry import adapted_isometry_decision, search_isometry
from .superalgebra import validate

class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _emit(args, payload: dict, human: list[str]):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in human:
            print(line)


def _load_target(target: str) -> tuple[AlgebraDocument, object]:
    """A document, plus the catalog object it was built from when the target
    names a catalog entry (None for a file)."""
    name = None
    if target.startswith("catalog:"):
        name = target.split(":", 1)[1]
    elif target in registry():
        name = target
    if name is not None:
        try:
            obj = named(name)
        except UnknownName as exc:
            raise CliError(2, str(exc))
        meta = {"catalog": name}
        if obj.extension is not None:
            meta["extension"] = extension_meta(obj.extension)
        return AlgebraDocument(obj.algebra, obj.form, meta), obj
    try:
        return doc_mod.load(target), None
    except FileNotFoundError:
        raise CliError(2, f"no such file or catalog entry: {target}")
    except DocumentError as exc:
        raise CliError(2, f"cannot read {target}: {exc}")


def _parse_element(doc: AlgebraDocument, text: str) -> int:
    if text.strip() in ("0", ""):
        return 0
    try:
        return doc.algebra.element(text)
    except ValueError as exc:
        raise CliError(2, f"unknown basis name in element {text!r}: {exc}")


def _read_spec_file(spec: str, build):
    """build(data) on the JSON of the @file argument spec; any fault of the
    file or of its fields is an input error."""
    path = spec[1:]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except FileNotFoundError:
        raise CliError(2, f"no such file: {path}") from None
    except KeyError as exc:
        raise CliError(2, f"cannot read {path}: missing field {exc}") from None
    except (OSError, ValueError, TypeError, IndexError) as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from None


def _cocycle_table(doc, obj):
    """(entry, cocycles, alphas) of the catalog entry behind the input.

    The names are written in the entry's basis, so a file is read against
    the entry its metadata names, built here, and must equal it; any other
    input is an input error.
    """
    name = doc.metadata.get("catalog")
    if name is None:
        raise CliError(
            2, "named cocycles and forms need a catalog-backed input (use @file)"
        )
    entry = registry().get(name) if isinstance(name, str) else None
    if entry is None or entry.tables is None:
        raise CliError(2, f"no cocycle table for {name!r}")
    if obj is None:
        obj = named(name)
        if (doc.algebra, doc.form) != (obj.algebra, obj.form):
            raise CliError(
                2, f"the input is not the catalog entry {name!r} its metadata"
                " names, so named cocycles and forms do not apply; pass @file"
            )
    return (entry, *entry.tables(obj))


def _resolve_derivation(args_spec: str, doc, tables) -> Derivation:
    if args_spec.startswith("@"):
        n = doc.algebra.dim
        return _read_spec_file(args_spec, lambda data: derivation_from_data(data, n))
    entry, cocycles, _ = tables()
    parts = [part.strip() for part in args_spec.split("+")]
    for part in parts:
        if part not in cocycles:
            raise CliError(2, f"unknown cocycle {part!r} for {entry.name}")
    if len({cocycles[part].parity for part in parts}) > 1:
        raise CliError(2, f"{args_spec!r} mixes parities; a sum must have one parity")
    return functools.reduce(Derivation.add, (cocycles[part] for part in parts))


def _resolve_alpha(spec: str, doc, tables) -> QuadraticForm | None:
    if spec is None:
        return None
    if spec == "zero":
        k = len(doc.algebra.odd_indices())
        return QuadraticForm.zero(k)
    if spec.startswith("@"):
        k = len(doc.algebra.odd_indices())

        def build(data):
            if data["n"] != k:
                raise ValueError(f"n must be {k}, the odd dimension")
            return quadratic_from_data(data)

        return _read_spec_file(spec, build)
    entry, _, alphas = tables()
    if spec not in alphas:
        raise CliError(2, f"unknown quadratic form {spec!r} for {entry.name}")
    return alphas[spec]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc, _ = _load_target(args.target)
    rep = validate(doc.algebra)
    payload = {
        "axioms": rep.passed,
        "jacobi_generators": rep.jacobi_generators,
        "failures": [
            {"axiom": f.axiom, "witness": list(f.witness), "detail": f.detail}
            for f in rep.failures
        ],
    }
    human = [f"axioms: {'pass' if rep.passed else 'FAIL'}"]
    if not rep.passed:
        human.append(rep.summary(doc.algebra))
    ok = rep.passed
    if doc.form is not None:
        nis = check_nis(doc.algebra, doc.form)
        payload["nis"] = {
            "passed": nis.passed,
            "symmetric": nis.symmetric,
            "invariant": nis.invariant,
            "non_degenerate": nis.non_degenerate,
            "parity_homogeneous": nis.parity_homogeneous,
            "witnesses": [
                {"kind": k, "witness": list(w)} for k, w in nis.witnesses
            ],
        }
        human.append(f"nis form: {nis.summary()}")
        ok = ok and nis.passed
    _emit(args, payload, human)
    return 0 if ok else 1


def cmd_outer(args) -> int:
    doc, obj = _load_target(args.target)
    g = doc.algebra
    try:
        oe, oo = outer_derivations(g)
    except InnerNotDerivation as exc:
        if exc.degrees_at_fault:
            raise CliError(1, str(exc)) from None
        raise CliError(
            1, f"an inner map is not a derivation ({exc}), so the input"
            " fails the axioms; run `nislie validate` on it"
        ) from None
    payload = {
        "dim_even": oe.dim,
        "dim_odd": oo.dim,
        "derivations": {
            "even": oe.derivation_dim,
            "odd": oo.derivation_dim,
        },
        "inner": {"even": oe.inner_dim, "odd": oo.inner_dim},
        "leibniz_sources": oe.leibniz_sources,
        "rows": {"even": oe.rows, "odd": oo.rows},
    }
    human = [
        f"out: {oe.dim + oo.dim} classes ({oe.dim} even, {oo.dim} odd)",
        f"der: {oe.derivation_dim} even, {oo.derivation_dim} odd;"
        f" inner: {oe.inner_dim} even, {oo.inner_dim} odd",
    ]
    reps = []
    for outer in (oe, oo):
        for d in outer.representatives:
            entry = derivation_to_data(d)
            deg = map_degree(g, d)
            if deg is not None:
                entry["degree"] = deg
            reps.append(entry)
    payload["representatives"] = reps
    if args.match_paper:
        paper_entry, cocycles, _ = _cocycle_table(doc, obj)
        rows = []
        discrepancies = []
        for label, d in cocycles.items():
            outer = oe if d.parity == 0 else oo
            mu = class_coordinates(g, outer, d)
            rows.append(
                {
                    "cocycle": label,
                    "parity": d.parity,
                    "coordinates": None if mu is None else sorted(bits(mu)),
                }
            )
            if (label in paper_entry.underlined) != (d.parity == 1):
                discrepancies.append(label)
        payload["match_paper"] = rows
        payload["underlining_discrepancies"] = discrepancies
        human.append("reference cocycles project onto the computed quotient:")
        for r in rows:
            human.append(
                f"  {r['cocycle']}: parity {r['parity']},"
                f" coordinates {r['coordinates']}"
            )
        human.append(
            "underlining discrepancies: "
            + (", ".join(discrepancies) if discrepancies else "none")
        )
    _emit(args, payload, human)
    return 0


def cmd_extend(args) -> int:
    try:
        refuse_foreign_fields(
            args.case, alpha=args.alpha, a0=args.a0, m=args.m, beta_star=args.beta_star
        )
    except FieldNotInCase as exc:
        flag = "--" + exc.field.replace("_", "-")
        raise CliError(2, f"{flag} does not apply to case {exc.case}")
    doc, obj = _load_target(args.target)
    if doc.form is None:
        raise CliError(2, "extension needs an input with a bilinear form")
    tables = functools.cache(lambda: _cocycle_table(doc, obj))
    derivation = _resolve_derivation(args.derivation, doc, tables)
    alpha = _resolve_alpha(args.alpha, doc, tables)
    a0 = _parse_element(doc, args.a0) if args.a0 is not None else None
    recipe = ExtensionRecipe(
        args.case,
        derivation,
        alpha=alpha,
        a0=a0,
        m=args.m,
        beta_star=args.beta_star,
    )
    try:
        res = extend(doc.algebra, doc.form, recipe, unchecked=args.unchecked)
    except ConditionViolated as exc:
        print(f"extension rejected: {exc}", file=sys.stderr)
        return 1
    except NisLieError as exc:
        raise CliError(2, str(exc))
    meta = dict(doc.metadata)
    meta.pop("catalog", None)
    meta["extension"] = extension_meta(res)
    out = AlgebraDocument(res.algebra, res.form, meta)
    doc_mod.save(out, args.out)
    print(f"wrote {args.out} (dim {res.algebra.dim})")
    return 0


def cmd_reduce(args) -> int:
    doc, _ = _load_target(args.target)
    if doc.form is None:
        raise CliError(2, "reduction needs an input with a bilinear form")
    x = _parse_element(doc, args.center_element)
    if not x:
        raise CliError(2, "center element must be nonzero")
    p = doc.algebra.parity_of(x)
    if p is None:
        raise CliError(2, "center element must be parity-homogeneous")
    try:
        red = ext_reduce(doc.algebra, doc.form, x, case_of(doc.form.parity, p))
    except NisLieError as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return 1
    out = AlgebraDocument(red.algebra, red.form, {})
    doc_mod.save(out, args.out)
    recipe_path = args.recipe_out or (args.out + ".recipe.json")
    with open(recipe_path, "w", encoding="utf-8") as fh:
        json.dump(
            recipe_to_meta(red.recipe), fh, indent=1, sort_keys=True
        )
        fh.write("\n")
    print(f"wrote {args.out} (dim {red.algebra.dim}) and {recipe_path}")
    return 0


# the exit code and the human line of each status of an isometry Verdict
_EXIT_CODES = {"found": 0, "not-found": 1, "budget-exhausted": 3}
_ADAPTED_LINES = {
    "found": "found: adapted isometry exists",
    "not-found": "not found (proved): {0.reason}",
    "budget-exhausted": "budget exhausted: {0.reason}",
}
_GENERAL_LINES = {
    "found": "found ({0.nodes} nodes); verified: {verified}",
    "not-found": "not found [proved] after {0.nodes} nodes",
    "budget-exhausted": "budget exhausted after {0.nodes} nodes",
}


def cmd_isometry(args) -> int:
    if args.budget < 0:
        raise CliError(2, f"--budget must be at least 0, not {args.budget}")
    doc1, _ = _load_target(args.target1)
    doc2, _ = _load_target(args.target2)
    if doc1.form is None or doc2.form is None:
        raise CliError(2, "isometry checks need forms on both inputs")
    if args.mode == "adapted":
        ext1, ext2 = (
            doc1.metadata.get("extension"),
            doc2.metadata.get("extension"),
        )
        if ext1 is None or ext2 is None:
            raise CliError(2, "adapted mode needs extension metadata")
        try:
            red1, red2 = (
                ext_reduce(
                    d.algebra,
                    d.form,
                    1 << doc_mod._index(e["x_index"], d.algebra.dim, "x_index"),
                    e["recipe"]["case"],
                )
                for d, e in ((doc1, ext1), (doc2, ext2))
            )
        except (KeyError, TypeError, ValueError, NisLieError) as exc:
            raise CliError(
                2, f"extension metadata does not reduce the input: {exc!r}"
            ) from None
        if (
            red1.algebra.bracket_table != red2.algebra.bracket_table
            or red1.algebra.squaring != red2.algebra.squaring
            or red1.form.gram != red2.form.gram
        ):
            raise CliError(
                2, "adapted mode compares extensions of the same base"
            )
        verdict = adapted_isometry_decision(
            red1.algebra, red1.form, red1.recipe, red2.recipe, budget=args.budget
        )
        _emit(args, verdict.to_data(), [_ADAPTED_LINES[verdict.status].format(verdict)])
        return _EXIT_CODES[verdict.status]
    seeds, ignored = [], []
    if args.seed:
        gens = [1 << i for i in doc1.algebra.generating_sequence]
        for chunk in args.seed.split(","):
            if chunk.count("=") != 1:
                raise CliError(2, f"--seed takes name=name pairs, not {chunk!r}")
            a, b = chunk.split("=")
            seeds.append(
                (
                    _parse_element(doc1, a.strip()),
                    _parse_element(doc2, b.strip()),
                )
            )
            if seeds[-1][0] not in gens:
                ignored.append(chunk.strip())
        if ignored:
            names = ", ".join(doc1.algebra.format_element(v) for v in gens)
            print(
                f"note: ignoring --seed {', '.join(ignored)}: only seeds on the"
                f" generators {names} steer the search",
                file=sys.stderr,
            )
    verdict = search_isometry(
        doc1.algebra,
        doc1.form,
        doc2.algebra,
        doc2.form,
        budget=args.budget,
        seed_pairs=seeds,
    )
    payload = verdict.to_data()
    if verdict.witness is not None:
        payload["verified"] = True  # a found witness has passed verify_isometry
    human = _GENERAL_LINES[verdict.status].format(verdict, **payload)
    if verdict.status == "budget-exhausted" and verdict.nodes <= args.budget:
        # an unsound table, not the node budget
        human += f": {verdict.reason}"
    _emit(args, payload, [human])
    return _EXIT_CODES[verdict.status]


def cmd_report(args) -> int:
    ok = True
    lines = []
    if args.table == "h04":
        target_names = {"D2": "tilde-po(0|4)", "D6": "gl(2|2)", "D7": "po(0|4)"}
        dims = set()
        for label, target in target_names.items():
            name = f"h104-{label}ext"
            want = registry()[name].out_dim
            obj = named(name)
            oe, oo = outer_derivations(obj.algebra)
            got = oe.dim + oo.dim
            dims.add(got)
            row_ok = got == want
            ok = ok and row_ok
            lines.append(
                f"{label} -> {target}: out = {got}"
                f" (expected {want}) {'ok' if row_ok else 'MISMATCH'}"
            )
        if len(dims) == len(target_names):
            lines.append(
                "pairwise distinct out-dimensions, hence pairwise non-isomorphic"
            )
        else:
            ok = False
            lines.append("out-dimensions coincide, so they do not separate the three")
    elif args.table == "h05p":
        try:
            ext = named("tilde-po-0-5")
            rep = validate(ext.algebra)
            nis = check_nis(ext.algebra, ext.form)
            d1_ok = rep.passed and nis.passed and ext.algebra.sdim == (16, 16)
        except ConditionViolated:
            d1_ok = False
        ok = ok and d1_ok
        lines.append(
            f"D1: compatible yes, s(x) = 0, extension tilde-po(0|5)"
            f" sdim 16|16 {'ok' if d1_ok else 'MISMATCH'}"
        )
        base, cocycles, _ = cocycles_for("h1-0-5")
        d5_rejected = False
        try:
            extend(
                base.algebra,
                base.form,
                ExtensionRecipe("oddB-evenD", cocycles["D5"]),
            )
        except ConditionViolated as exc:
            d5_rejected = exc.condition == "4D1"
        ok = ok and d5_rejected
        lines.append(
            f"D5: compatible no ((4D1) fails) {'ok' if d5_rejected else 'MISMATCH'}"
        )
    else:  # h05: argparse admits no other table
        base = named("h1-0-5")
        built = {}
        for m_param, label in [(0, "po(0|5)"), (1, "po(0|5;m), m != 0")]:
            obj = built[m_param] = named(f"po05-m{m_param}")
            # the recipes are refuted: their literal data must fail the axioms
            refuted = not validate(obj.algebra).passed
            ok = ok and refuted
            lines.append(
                f"D6, s(e) = {'0' if m_param == 0 else 'mx'} -> {label}:"
                f" built (dim {obj.algebra.dim});"
                " axioms "
                + ("FAIL (known defect: B(D6 theta, theta) = 1)" if refuted
                   else "pass MISMATCH")
            )
        dec = adapted_isometry_decision(
            base.algebra,
            base.form,
            built[1].extension.recipe,
            built[0].extension.recipe,
        )
        row_ok = dec.status == "not-found"
        ok = ok and row_ok
        lines.append(
            f"m=1 vs m=0 adapted isometry: {dec.status}"
            f" {'ok' if row_ok else 'MISMATCH'}"
        )
    for ln in lines:
        print(ln)
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in entry_names():
            e = registry()[name]
            flags = "" if e.valid else "  [defective: see note]"
            sdim = f"{e.sdim[0]}|{e.sdim[1]}" if e.sdim else "?"
            print(f"{name:18s} sdim {sdim}{flags}")
        return 0
    # export: argparse admits no other action
    if not args.name or not args.out:
        raise CliError(2, "catalog export needs NAME and --out")
    doc, _ = _load_target(f"catalog:{args.name}")
    doc_mod.save(doc, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nislie",
        description="Exact computer algebra for NIS-Lie superalgebras over GF(2)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check superalgebra axioms and the form")
    v.add_argument("target")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_validate)

    o = sub.add_parser("outer", help="outer derivations (first cohomology)")
    o.add_argument("target")
    o.add_argument("--match-paper", action="store_true")
    o.add_argument("--json", action="store_true")
    o.set_defaults(fn=cmd_outer)

    e = sub.add_parser("extend", help="build a double extension")
    e.add_argument("target")
    e.add_argument("--case", required=True, choices=CASES)
    e.add_argument("--derivation", required=True)
    e.add_argument("--alpha")
    e.add_argument("--a0")
    e.add_argument("--m", type=int, choices=[0, 1])
    e.add_argument("--beta-star", dest="beta_star", type=int, choices=[0, 1])
    e.add_argument("--unchecked", action="store_true",
                   help="skip the hypothesis checks (diagnostic builds)")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_extend)

    r = sub.add_parser("reduce", help="split off a double extension")
    r.add_argument("target")
    r.add_argument("--center-element", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--recipe-out")
    r.set_defaults(fn=cmd_reduce)

    i = sub.add_parser("isometry", help="verify or search for an isometry")
    i.add_argument("target1")
    i.add_argument("target2")
    i.add_argument("--mode", choices=["adapted", "general"], default="general")
    i.add_argument("--budget", type=int, default=200_000,
                   help="search nodes, both modes")
    i.add_argument("--seed", help="comma-separated name=name generator hints")
    i.add_argument("--json", action="store_true")
    i.set_defaults(fn=cmd_isometry)

    rep = sub.add_parser("report", help="regenerate a worked-example table")
    rep.add_argument("--table", required=True, choices=["h04", "h05", "h05p"])
    rep.set_defaults(fn=cmd_report)

    c = sub.add_parser("catalog", help="list or export catalog entries")
    c.add_argument("action", choices=["list", "export"])
    c.add_argument("name", nargs="?")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_catalog)
    return p


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # argparse reads --opt=-- as [], past choices and type
    for dest in (k for k in dir(args) if k[0] != "_" and getattr(args, k) == []):
        print(f"error: argument --{dest.replace('_', '-')}: '--' is not a value", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
