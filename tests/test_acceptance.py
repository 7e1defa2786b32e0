"""Acceptance criteria, one test per criterion.

Every identity here is exact (no tolerances); the stated runtime ceilings
are asserted where the criteria give them.  Each test prints a one-line
pass/fail verdict.
"""

import time

import pytest

from kpeterson.suites import run_suite


def _run(name, bound_s=None, **kwargs):
    start = time.monotonic()
    report = run_suite(name, **kwargs)
    elapsed = time.monotonic() - start
    failures = [c for c in report.cases if c.status == "fail"]
    return report, elapsed, failures


def _verdict(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, detail


def test_criterion_01_reference_tau_sigma_values():
    report, elapsed, failures = _run("example-1-2")
    ok = not failures and elapsed < 1.0
    _verdict(
        "criterion-1 (n=3 tau/sigma table)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_binomial_images_of_invariants():
    report, elapsed, failures = _run("remarkable-identity")
    ok = not failures and len(report.cases) == 2 + 3 + 4 + 5 and elapsed < 300
    _verdict(
        "criterion-2 (F_i maps to C(n,i), n=2..5)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_03_grassmannian_images():
    report, elapsed, failures = _run("theorem-1-5")
    ok = not failures and len(report.cases) == 6 + 14 + 30 and elapsed < 600
    _verdict(
        "criterion-3 (Grassmannian images, n=3..5)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_03_grassmannian_images_n6():
    report, elapsed, failures = _run("theorem-1-5", n=6)
    ok = not failures and len(report.cases) == 62 and elapsed < 60
    _verdict(
        "criterion-3 (Grassmannian images, n=6)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_factored_numerators_n5():
    report, elapsed, failures = _run("example-7-3")
    ok = not failures and len(report.cases) == 8
    _verdict(
        "criterion-4 (eight factored numerators at n=5)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures",
    )


def test_criterion_05_lambda_and_conjugate_tables():
    report, elapsed, failures = _run("lambda-tables")
    ok = not failures and len(report.cases) == 6 + 24
    _verdict(
        "criterion-5 (lambda-map tables, n=4 and n=5)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures",
    )


def test_criterion_06_rectangle_lr_rule():
    report, elapsed, failures = _run("prop-5-1")
    ok = not failures and elapsed < 300
    _verdict(
        "criterion-6 (rectangle LR rule, n<=6, d<=3)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_07_d_recursions_and_lattice_identity():
    report1, _, failures1 = _run("d-recursions")
    report2, _, failures2 = _run("lattice-identity")
    pairs = {c.id.split("-")[0] for c in report2.cases}
    ok = (
        not failures1
        and not failures2
        and pairs == {"n3", "n4", "n5"}
        and len(report2.cases) == 8
    )
    _verdict(
        "criterion-7 (determinant recursions + lattice identity)",
        ok,
        f"{len(report1.cases)}+{len(report2.cases)} cases, "
        f"{len(failures1) + len(failures2)} failures",
    )


def test_criterion_08_quantization_chain():
    report, elapsed, failures = _run("prop-6-chain")
    # n=3: 6 shapes, n=4: 14 shapes, n=5: all 30 shapes; three identities each
    ok = not failures and len(report.cases) == 3 * (6 + 14 + 30)
    _verdict(
        "criterion-8 (quantized Schur chain)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_09_toda_round_trips():
    report, elapsed, failures = _run("toda-roundtrip")
    ok = not failures and len(report.cases) == 400 and elapsed < 120
    _verdict(
        "criterion-9 (100 exact round trips per n=2..5 with minor identities)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_10_fiber_constancy_and_divisibility():
    report, elapsed, failures = _run("conjecture2")
    statuses = {c.status for c in report.cases}
    agreements = [c.lhs.startswith("agree=true") for c in report.cases]
    ok = (
        not failures
        and statuses == {"reported"}
        and len(report.cases) == 120 + 24
        and all(agreements)
    )
    _verdict(
        "criterion-10 (reported tier: fibers and denominators at n=5)",
        ok,
        f"{len(report.cases)} reported cases, all agree: {all(agreements)}, {elapsed:.1f}s",
    )


def test_criterion_11_stable_polynomials_match_grothendieck():
    report, elapsed, failures = _run("buch-cor-5-7")
    ok = not failures and len(report.cases) == 2 + 6 + 14 + 30
    _verdict(
        "criterion-11 (stable polynomials equal Grassmannian Grothendiecks, n<=5)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures",
    )


def test_criterion_12_longest_element_factorization():
    report, elapsed, failures = _run("conjecture7-4")
    asserted = [c for c in report.cases if c.status in ("pass", "fail")]
    reported = [c for c in report.cases if c.status == "reported"]
    ok = (
        not failures
        and len(asserted) == 2
        and len(reported) == 1
        and reported[0].lhs.startswith("agree=true")
    )
    _verdict(
        "criterion-12 (longest-element factorization: asserted n=3,4; reported n=5)",
        ok,
        f"asserted={len(asserted)}, reported={len(reported)} (n=5 agrees: "
        f"{reported[0].lhs.startswith('agree=true')})",
    )


def test_criterion_13_f_images_against_substitution():
    report, elapsed, failures = _run("f-images")
    # m < n and 0 <= i <= m: 5 cases at n=3, 9 at n=4, 14 at n=5
    ok = not failures and len(report.cases) == 5 + 9 + 14 and elapsed < 30
    _verdict(
        "criterion-13 (phi(F^(m)_i) * tau_m = D(theta), n=3..5)",
        ok,
        f"{len(report.cases)} cases, {len(failures)} failures, {elapsed:.1f}s (< 30s)",
    )
