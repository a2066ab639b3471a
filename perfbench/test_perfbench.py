"""Smoke test of the benchmark: python3 -m pytest perfbench/test_perfbench.py -q"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nislie import cli, derivations, gf2  # noqa: E402
from nislie.catalog import named  # noqa: E402
from nislie.derivations import outer_dimension_by_degree  # noqa: E402
from nislie.forms import check_nis  # noqa: E402
from nislie.isometry import search_isometry  # noqa: E402
from nislie.superalgebra import validate  # noqa: E402


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_relabel_is_seeded_and_keeps_invariants():
    obj = named("h1-0-4")
    g1, b1 = inputs.relabel(obj.algebra, obj.form, random.Random(5))
    g2, _ = inputs.relabel(obj.algebra, obj.form, random.Random(5))
    assert g1 == g2 and g1 != obj.algebra
    assert validate(g1).passed and check_nis(g1, b1).passed
    for parity in (0, 1):
        assert outer_dimension_by_degree(g1, parity) == outer_dimension_by_degree(
            obj.algebra, parity
        )
    assert search_isometry(obj.algebra, obj.form, g1, b1).status == "found"


def test_flip_changes_one_structure_bit():
    obj = named("hei-double")
    g, b = obj.algebra, obj.form
    for seed in range(40):
        g2, b2, label = inputs.flip_one_bit(g, b, random.Random(seed))
        diff = sum(
            (x ^ y).bit_count()
            for r1, r2 in zip(g.bracket_table, g2.bracket_table)
            for x, y in zip(r1, r2)
        )
        diff += sum((x ^ y).bit_count() for x, y in zip(g.squaring, g2.squaring))
        diff += sum((x ^ y).bit_count() for x, y in zip(b.gram.rows, b2.gram.rows))
        kind = label.split(":")[0]
        assert diff == {"bracket-entry": 1, "squaring": 1}.get(kind, diff), label
        assert 1 <= diff <= 2, label


def test_oracle_agrees_with_library_on_catalog():
    for name in ("hei-double", "gl-2-2", "h104-D7ext"):
        obj = named(name)
        assert oracle.fully_valid(obj.algebra, obj.form), name
    bad = named("po05-m0")
    assert not oracle.fully_valid(bad.algebra, bad.form)
    rep = validate(bad.algebra)
    assert rep.failures and all(
        oracle.axiom_witness_holds(bad.algebra, f.axiom, f.witness) for f in rep.failures
    )
    nis = check_nis(bad.algebra, bad.form)
    assert all(oracle.nis_witness_holds(bad.algebra, bad.form, k, w) for k, w in nis.witnesses)


def test_tracer_wraps_importers_and_restores_them():
    originals = (cli.search_isometry, derivations.quotient_basis, gf2.GF2Matrix.kernel_basis)
    tracer = tracing.Tracer()
    tracer.phase = "pass0"
    tracer.install()
    try:
        assert cli.search_isometry is not originals[0]
        assert derivations.quotient_basis is not originals[1]
        assert gf2.GF2Matrix.kernel_basis is not originals[2]
        g = named("hei-double")
        derivations.outer_derivations(g.algebra)
    finally:
        tracer.uninstall()
    assert (cli.search_isometry, derivations.quotient_basis, gf2.GF2Matrix.kernel_basis) == originals
    tracer.phase = "setup"
    tracer.install()
    try:
        workloads.WORKLOADS["cohomology"].setup(1, "")
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    # the workloads call nislie through module attributes, so spans see them
    assert totals["catalog.hamiltonian"]["setup"]["calls"] == 2
    outer = totals["derivations.outer_derivations"]["pass0"]
    assert outer["calls"] == 3
    assert 0 <= outer["self_s"] <= outer["incl_s"]
    assert totals["gf2.kernel_basis"]["pass0"]["calls"] > 0
    assert totals["gf2.SpanBasis.add"]["pass0"]["calls"] > 0
    for idx, (_, start, end, parent, _, _) in enumerate(tracer.spans):
        assert parent < idx and start <= end


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _run_bench(str(tmp_path), "--workload", "cohomology", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert "metrics" not in res.stdout


def test_traced_catalog_session_reports_every_layer_metric():
    res = _run_bench(ROOT, "--workload", "catalog-session", "--seed", "3",
                     "--seconds", "0", "--trace", "1")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    detail = json.loads(res.stdout.strip().splitlines()[-2])
    assert set(detail["failures"]) == {
        f"outer {name}: SubspaceNotContained" for name in ("po05-m0", "po05-m1", "po-0-5")
    }
    assert result["failed"] == 3 * (detail["passes"] + detail["traced_passes"])
