"""Tests of the benchmark itself: the oracle rejects wrong outputs, traced
counts repeat exactly, and BENCHMARK.json names what the code reports.

    python -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle as orc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _perturbed(poly_like):
    """A copy of a Poly or SymFunc with one coefficient raised by 1."""
    terms = dict(poly_like.terms)
    key = next(iter(terms))
    terms[key] = terms[key] + 1
    if hasattr(poly_like, "vars"):
        return type(poly_like)(poly_like.vars, terms)
    return type(poly_like)(terms)


def test_phi_oracle_rejects_perturbed_image():
    from kpeterson.peterson import LocFrac, phi_context
    from kpeterson.toda import f_invariant

    n = 3
    ctx = phi_context(n)
    image = ctx.apply_frac(f_invariant(n, 2), reduce_result=False)
    at = orc.PhiPoint(orc.random_hpoint(random.Random(7), n), n)
    assert at.f_value(n, 2) == 3
    assert at.locfrac(image) == 3
    wrong = LocFrac(ctx, _perturbed(image.num), image.den, reduce=False)
    assert at.locfrac(wrong) != 3


def _toda_round(seed, points):
    wl = workloads.TodaRoundtrip
    inputs = wl.inputs(seed, 0)
    inputs["points"] = inputs["points"][::workloads.TODA_POINTS_PER_N][:points]
    state = dict(wl.setup(inputs), inputs=inputs, root=ROOT)
    log, outputs = wl.checks(state)
    return wl, inputs, state, log, outputs


def test_toda_oracle_rejects_perturbed_output():
    wl, inputs, state, log, outputs = _toda_round(11, 4)
    assert (log.attempted, log.failed) == (4, 0)
    made, bad = wl.oracle(inputs, state, outputs)
    assert made == 20 and bad == []
    record = outputs[-1][1]
    record["alpha"] = record["alpha"][:-1] + (record["alpha"][-1] + 1,)
    made, bad = wl.oracle(inputs, state, outputs)
    assert len(bad) == 1 and "alpha(pt)" in bad[0]


def test_symfunc_oracle_rejects_perturbed_d_value():
    from kpeterson.peterson import DSpec, d_det

    point = orc.HPoint(orc.random_rational(random.Random(5)) for _ in range(orc.H_COUNT))
    theta, a, n = (2, -1), (0, 1), 4
    value = d_det(DSpec(theta, a, n))
    assert point.symfunc(value) == point.d_value(theta, a, n)
    assert point.symfunc(_perturbed(value)) != point.d_value(theta, a, n)


def _rpp_g(lam, x):
    """g_lam(x_1..x_N) by its definition: a sum over reverse plane
    partitions, each column contributing every distinct entry once."""
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    total = Fraction(0)
    for filling in product(range(len(x)), repeat=len(cells)):
        t = dict(zip(cells, filling))
        if any((c and t[r, c - 1] > v) or (r and t[r - 1, c] > v) for (r, c), v in t.items()):
            continue
        term = Fraction(1)
        for c in range(lam[0]):
            for v in {t[r, c] for r in range(len(lam)) if lam[r] > c}:
                term *= x[v]
        total += term
    return total


def test_oracle_g_matches_reverse_plane_partitions():
    rng = random.Random(3)
    x = [orc.random_rational(rng) for _ in range(3)]
    h = [Fraction(0)] * orc.H_COUNT
    for k in range(1, orc.H_COUNT + 1):
        h[k - 1] = sum(
            (orc.eval_dict_poly({e: 1}, x) for e in product(range(k + 1), repeat=3) if sum(e) == k),
            Fraction(0),
        )
    point = orc.HPoint(h)
    for lam in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        assert point.g(lam) == _rpp_g(lam, x), lam


def _traced(seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "symfunc-combinatorics",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    first, second = _traced(4), _traced(4)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {name for name, _ in tracer.PER_LAYER}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts == again
    assert counts["symfunc.mul.calls"] > 0 and counts["grothendieck.tableaux"] > 0


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toda-roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
