import json
import random
import time

import pytest

from kpeterson import cli
from kpeterson.cli import (
    MAX_GDUAL_LENGTH,
    MAX_GDUAL_WEIGHT,
    MAX_GROTH_N,
    MAX_GSTABLE_VARS,
    MAX_GSTABLE_WEIGHT,
    MAX_KCONJ_WEIGHT,
    MAX_KLR_LENGTH,
    MAX_KLR_WEIGHT,
    MAX_LAMBDA_MAP_N,
    MAX_PHI_CELLS,
    MAX_PHI_N,
    MAX_PHI_NESTING,
    MAX_QUANTIZE_N,
    MAX_TRIALS,
    main,
    max_phi_degree,
    parse_phi_expr,
)
from kpeterson.partitions import Partition
from kpeterson.peterson import phi_apply
from kpeterson.polynomials import Poly
from kpeterson.scalars import Rational
from kpeterson.suites import DEFAULT_SEED, SUITE_NAMES, SUITES, run_suite
from kpeterson.symfunc import SymFunc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _ones(count):
    return ",".join(["1"] * count)


def _identity(n):
    return ",".join(str(v) for v in range(1, n + 1))


def _nested(depth):
    return "(" * depth + "x1" + ")" * depth


class TestCompute:
    def test_gdual_json(self, capsys):
        code, out, _ = run_cli(capsys, "gdual", "1,1")
        assert code == 0
        h = SymFunc.h
        assert SymFunc.from_json(json.loads(out)) == h(1) ** 2 - h(2) + h(1)

    def test_klr(self, capsys):
        code, out, _ = run_cli(capsys, "klr", "1", "1", "2,1")
        assert code == 0 and json.loads(out) == 1

    def test_gstable(self, capsys):
        code, out, _ = run_cli(capsys, "gstable", "1", "2")
        assert code == 0
        poly = Poly.from_json(json.loads(out))
        v = poly.vars
        x1, x2 = Poly.variable(v, "x1"), Poly.variable(v, "x2")
        assert poly == x1 + x2 - x1 * x2

    def test_phi_x1_at_n2(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--n", "2", "--poly", "x1")
        assert code == 0
        data = json.loads(out)
        assert SymFunc.from_json(data["num"]) == SymFunc.one()
        assert SymFunc.from_json(data["den"]) == 1 + SymFunc.h(1)

    def test_phi_z1_at_n2(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--n", "2", "--poly", "z1")
        data = json.loads(out)
        assert SymFunc.from_json(data["num"]) == SymFunc.h(1)
        assert SymFunc.from_json(data["den"]) == 1 + SymFunc.h(1)

    def test_phi_output_pinned(self, capsys):
        def terms(*pairs):
            return [{"coeff": c, "monomial": m} for c, m in pairs]

        cases = [
            (
                ("2", "1-(1-x1)*(1-Q1)"),
                {"num": terms(("1", [])), "den": terms(("1", [1]))},
                "(1) / (h1)",
            ),
            (
                ("3", "z1*Q2"),
                {
                    "num": terms(("1", [2, 2])),
                    "den": terms(
                        ("1", [2, 1, 1, 1, 1]), ("-2", [2, 2, 1, 1]), ("1", [2, 2, 2]),
                        ("1", [1, 1, 1, 1, 1]), ("-1", [2, 2, 1]), ("3", [1, 1, 1, 1]),
                        ("-3", [2, 1, 1]), ("1", [2, 2]), ("3", [1, 1, 1]),
                        ("-2", [2, 1]), ("1", [1, 1]),
                    ),
                },
                "(h2^2) / (h2*h1^4 - 2*h2^2*h1^2 + h2^3 + h1^5 - h2^2*h1 + 3*h1^4"
                " - 3*h2*h1^2 + h2^2 + 3*h1^3 - 2*h2*h1 + h1^2)",
            ),
        ]
        for (n, poly), payload, text in cases:
            code, out, _ = run_cli(capsys, "phi", "--n", n, "--poly", poly)
            assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
            code, out, _ = run_cli(capsys, "phi", "--n", n, "--poly", poly, "--text")
            assert code == 0 and out == text + "\n"

    def test_lambda_map_text(self, capsys):
        code, out, _ = run_cli(capsys, "lambda-map", "1432")
        assert code == 0 and json.loads(out) == "2,1,1"

    def test_kconj(self, capsys):
        code, out, _ = run_cli(capsys, "kconj", "3,2,2", "--k", "4")
        assert code == 0 and json.loads(out) == "2,2,1,1,1"

    def test_ddet(self, capsys):
        code, out, _ = run_cli(
            capsys, "ddet", "--n", "3", "--theta", "1,0", "--a", "0,0"
        )
        assert code == 0
        from kpeterson.peterson import tau_sigma

        assert SymFunc.from_json(json.loads(out)) == tau_sigma(3).tau[2]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "gdual", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert SymFunc.from_json(json.loads(path.read_text())) == SymFunc.h(2)

    @pytest.mark.parametrize("make_target", [
        lambda tmp: tmp / "missing" / "result.json",
        lambda tmp: tmp,
    ], ids=["missing-parent", "directory"])
    def test_out_path_not_writable_is_usage_error(self, capsys, tmp_path, make_target):
        target = make_target(tmp_path)
        code, out, err = run_cli(capsys, "gdual", "2", "--out", str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: cannot write {target}: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("klr", "1", "1", "2,2,2,2,2"),
            ("klr", "", "1", "6,1,1,1,1"),
            ("groth", "21345678"),
            ("lambda-map", _identity(MAX_LAMBDA_MAP_N)),
            ("kconj", _ones(MAX_KCONJ_WEIGHT), "--k", "50"),
        ],
    )
    def test_input_at_new_limits_answers(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out


class TestExprParser:
    def test_rational_constants_and_powers(self):
        p = parse_phi_expr("3/4*z1^2 - (1 - Q1)", 2)
        v = p.vars
        z1, Q1 = Poly.variable(v, "z1"), Poly.variable(v, "Q1")
        assert p == z1 * z1 * Rational(3, 4) - 1 + Q1

    def test_parse_error_has_position(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--n", "2", "--poly", "z1 +")
        assert code == 2 and "position" in err

    @pytest.mark.parametrize("poly, position", [("", 0), ("z1 +", 4), ("(z1", 3)])
    def test_end_of_input_is_named(self, capsys, poly, position):
        code, out, err = run_cli(capsys, "phi", "--n", "2", "--poly", poly)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"end of input (at position {position})" in err and "None" not in err

    def test_out_of_range_variable(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--n", "2", "--poly", "z3")
        assert code == 2

    def test_degree_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "phi", "--n", "3", "--poly", "x1^100000")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"above the limit {max_phi_degree(3)}" in err

    def test_degree_limit_depends_on_n(self, capsys):
        code, out, err = run_cli(capsys, "phi", "--n", "5", "--poly", "x1^32")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"above the limit {max_phi_degree(5)}" in err
        code, out, err = run_cli(capsys, "phi", "--n", "3", "--poly", "x1^64")
        assert code == 0 and err == ""
        assert json.loads(out)["num"]

    @pytest.mark.parametrize(
        "n, poly",
        [(3, "(x1+x2+Q1+Q2)^72"), (4, "(x1+x2+x3+Q1)^32"), (5, "(x1+x2+x3+x4+Q1)^18")],
    )
    def test_dense_input_is_usage_error(self, capsys, n, poly):
        code, out, err = run_cli(capsys, "phi", "--n", str(n), "--poly", poly)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {MAX_PHI_CELLS}" in err

    def test_dense_sum_of_small_products_is_usage_error(self, capsys):
        # each power is small; only the sum's exponent range is too wide
        code, out, err = run_cli(capsys, "phi", "--n", "4", "--poly", "x1^16 + z2^16")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_single_variable_at_degree_limit_answers(self, capsys):
        for n in range(2, MAX_PHI_N + 1):
            code, out, err = run_cli(
                capsys, "phi", "--n", str(n), "--poly", f"x1^{max_phi_degree(n)}"
            )
            assert code == 0 and err == "", n

    def test_n_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "phi", "--n", str(MAX_PHI_N + 1), "--poly", "z1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {MAX_PHI_N}" in err

    def test_tau_n_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tau", "--n", str(MAX_PHI_N + 1))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {MAX_PHI_N}" in err


    def test_ddet_n_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "ddet", "--n", "3000", "--theta", "1", "--a", "0"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {MAX_PHI_N}" in err

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("gstable", str(MAX_GSTABLE_WEIGHT + 1), "1"), MAX_GSTABLE_WEIGHT),
            (("gstable", "2", str(MAX_GSTABLE_VARS + 1)), MAX_GSTABLE_VARS),
            (("gstable", "2", "40"), MAX_GSTABLE_VARS),
            (("gstable", "4,4,4", "9"), MAX_GSTABLE_WEIGHT),
            (("gdual", ",".join(["1"] * (MAX_GDUAL_LENGTH + 1))), MAX_GDUAL_LENGTH),
            (("gdual", ",".join(["1"] * 20)), MAX_GDUAL_LENGTH),
            (("gdual", str(MAX_GDUAL_WEIGHT + 1)), MAX_GDUAL_WEIGHT),
        ],
    )
    def test_grothendieck_input_above_limit_is_usage_error(self, capsys, argv, limit):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {limit}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gstable", str(MAX_GSTABLE_WEIGHT), "1"),
            ("gstable", "1", str(MAX_GSTABLE_VARS)),
            ("gdual", ",".join(["1"] * MAX_GDUAL_LENGTH)),
            ("gdual", ",".join(["3"] * MAX_GDUAL_LENGTH)),
            ("gdual", str(MAX_GDUAL_WEIGHT)),
            ("klr", "", "5,2,1", "4,2,2,1,1"),
            ("klr", "", "6,2", "2,2,2,2,2"),
        ],
    )
    def test_grothendieck_input_at_limit_answers(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out


# what each subcommand computes with; an absurd input must be refused before
# any of these is called
COMPUTATIONS = (
    "dual_groth",
    "klr_coeff",
    "stable_groth_vars",
    "tau_sigma",
    "d_det",
    "phi_apply",
    "groth_poly",
    "quantum_groth",
    "g_tilde",
    "lambda_map",
    "k_conjugate",
    "run_suite",
)


class TestAbsurdInput:
    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the input reached a computation")

        for name in COMPUTATIONS:
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("gdual", _ones(20)), MAX_GDUAL_LENGTH),
            (("gdual", "1000000"), MAX_GDUAL_WEIGHT),
            (("klr", "1", "4,3,2", "6,5,4,3,2,1"), MAX_KLR_LENGTH),
            (("klr", "1", "4,4,4,4", "9,9,9,9"), MAX_KLR_WEIGHT),
            (("klr", "", "1", _ones(1000)), MAX_KLR_LENGTH),
            (("gstable", "4,4,4", "9"), MAX_GSTABLE_WEIGHT),
            (("gstable", "2", "40"), MAX_GSTABLE_VARS),
            (("tau", "--n", "3000"), MAX_PHI_N),
            (("ddet", "--n", "3000", "--theta", "1", "--a", "0"), MAX_PHI_N),
            (("phi", "--n", "9", "--poly", "z1"), MAX_PHI_N),
            (("phi", "--n", "3", "--poly", "x1^100000"), max_phi_degree(3)),
            (("phi", "--n", "4", "--poly", "(x1+x2+x3+Q1)^32"), MAX_PHI_CELLS),
            (("groth", _identity(50)), MAX_GROTH_N),
            (("groth", "2,1,3,4,5,6,7,8,9,10,11,12"), MAX_GROTH_N),
            (("qgroth", "2134567"), MAX_QUANTIZE_N),
            (("gtilde", _identity(100)), MAX_QUANTIZE_N),
            (("lambda-map", _identity(4000)), MAX_LAMBDA_MAP_N),
            (("kconj", _ones(800), "--k", "2"), MAX_KCONJ_WEIGHT),
            (("kconj", "100000", "--k", "100000"), MAX_KCONJ_WEIGHT),
            (("verify", "d-recursions", "--trials", "1000000000"), MAX_TRIALS),
            (("toda-roundtrip", "--n", "3", "--trials", "1000000000"), MAX_TRIALS),
            (("phi", "--n", "3", "--poly", _nested(MAX_PHI_NESTING + 1)), MAX_PHI_NESTING),
            (("phi", "--n", "3", "--poly", _nested(10_000)), MAX_PHI_NESTING),
        ],
        # Fixed ids, the ones pytest once derived from the values: a changed
        # limit no longer renames a case.
        ids=[f"argv{i}-{limit}" for i, limit in enumerate(
            [7, 60, 5, 10, 5, 6, 6, 8, 8, 8, 72, 100000, 8, 8, 6, 6, 400, 100, 100,
             1000, 1000, 100, 100]
        )],
    )
    def test_refused_at_the_check(self, capsys, argv, limit):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"above the limit {limit}" in err
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("groth", "1", "--n", "0"), "--n 0 does not match"),
            (("qgroth", "21", "--n", "0"), "--n 0 does not match"),
            (("gtilde", "21", "--n", "0"), "--n 0 does not match"),
            (("lambda-map", "21", "--n", "-2"), "--n -2 does not match"),
            (("gstable", "1", "-3"), "d -3 is negative"),
            (("kconj", "", "--k", "-1"), "--k -1 is not positive"),
            (("kconj", "", "--k", "0"), "--k 0 is not positive"),
            (("kconj", "1", "--k", "0"), "--k 0 is not positive"),
            (("ddet", "--n", "3", "--theta", "", "--a", ""), "--theta '' is not a comma-separated"),
            (("ddet", "--n", "3", "--theta", "1", "--a", "0,x"), "--a '0,x' is not a comma-separated"),
            (("gdual", "1,,2"), "partition '1,,2' is not a comma-separated list of integers"),
            (("klr", "1", "x", "2"), "partition 'x' is not a comma-separated list of integers"),
            (("kconj", "1,,2", "--k", "2"), "partition '1,,2' is not a comma-separated"),
            (("gstable", "1,,2", "2"), "partition '1,,2' is not a comma-separated"),
            (("groth", "1,,2"), "permutation '1,,2' is not a comma-separated list of integers"),
            (("lambda-map", "1,,2"), "permutation '1,,2' is not a comma-separated"),
            (("qgroth", "1x3"), "permutation '1x3' is not a comma-separated"),
        ],
        ids=[
            "groth-n-0", "qgroth-n-0", "gtilde-n-0", "lambda-map-n-negative", "gstable-d-negative",
            "kconj-empty-k-negative", "kconj-empty-k-0", "kconj-k-0", "ddet-theta-empty",
            "ddet-a-not-integer", "gdual-empty-part", "klr-not-integer", "kconj-empty-part",
            "gstable-empty-part", "groth-empty-image", "lambda-map-empty-image",
            "qgroth-not-digit",
        ],
    )
    def test_refused_value(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and message in err

    def test_nesting_at_limit_answers(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "phi_apply", phi_apply)
        code, out, err = run_cli(
            capsys, "phi", "--n", "3", "--poly", _nested(MAX_PHI_NESTING)
        )
        assert code == 0 and err == ""
        _, expected, _ = run_cli(capsys, "phi", "--n", "3", "--poly", "x1")
        assert out == expected


class TestVerify:
    def test_suite_runs_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "example-1-2")
        assert code == 0
        data = json.loads(out)
        assert {c["status"] for c in data["cases"]} == {"pass"}

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2

    def test_toda_roundtrip_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "toda-roundtrip", "--n", "3", "--trials", "5", "--seed", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"trials": 5, "failures": 0, "seed": 7}

    def test_toda_roundtrip_seed_defaults_like_verify(self, capsys):
        # both commands run the suite from suites.DEFAULT_SEED
        argv = ("--n", "3", "--trials", "5")
        code, out, _ = run_cli(capsys, "toda-roundtrip", *argv)
        assert code == 0
        short = json.loads(out)
        code, out, _ = run_cli(capsys, "verify", "toda-roundtrip", *argv)
        assert code == 0
        full = json.loads(out)
        assert short["seed"] == full["seed"] == DEFAULT_SEED
        failed = [c for c in full["cases"] if c["status"] != "pass"]
        assert short["failures"] == len(failed) == 0
        assert short["trials"] == len(full["cases"]) == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "remarkable-identity", "--n", "0"),
            ("verify", "remarkable-identity", "--trials", "0"),
            ("verify", "d-recursions", "--n", "3", "--trials", "-1"),
            ("toda-roundtrip", "--n", "0"),
            ("toda-roundtrip", "--n", "3", "--trials", "0"),
        ],
    )
    def test_non_positive_count_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "is not positive" in err

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 1_000_000_000])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "d-recursions"),
            ("verify", "toda-roundtrip", "--n", "3"),
            ("toda-roundtrip", "--n", "3"),
        ],
    )
    def test_trials_above_limit_is_usage_error(self, capsys, argv, trials):
        code, out, err = run_cli(capsys, *argv, "--trials", str(trials))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {MAX_TRIALS}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "lattice-identity", "--n", "6"), "range 3..5"),
            (("verify", "prop-6-chain", "--n", "7"), "range 2..5"),
            (("verify", "lambda-tables", "--n", "3"), "range 4..5"),
            (("verify", "conjecture2", "--n", "9"), "range 2..5"),
            (("verify", "conjecture7-4", "--n", "1"), "range 2..5"),
            (("verify", "example-1-2", "--n", "7"), "takes no --n"),
            (("verify", "example-7-3", "--n", "5"), "takes no --n"),
            (("toda-roundtrip", "--n", "100"), "range 2..8"),
            (("verify", "f-images", "--n", "7"), "range 2..6"),
            (("verify", "theorem-1-5", "--n", "7"), "range 2..6"),
        ],
    )
    def test_n_outside_suite_range_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize("suite", ["lambda-tables", "example-1-2", "theorem-1-5"])
    def test_trials_for_a_suite_that_reads_none_is_usage_error(self, capsys, suite):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", suite, "--trials", "5")
        assert code == 2 and out == ""
        assert err == f"error: suite {suite} takes no --trials\n"
        assert time.perf_counter() - start < 1.0

    def test_report_determinism(self, capsys):
        def strip(payload):
            for case in payload["cases"]:
                case.pop("elapsed_ms")
            return payload

        code1, out1, _ = run_cli(
            capsys, "verify", "toda-roundtrip", "--n", "2", "--trials", "5", "--seed", "3"
        )
        code2, out2, _ = run_cli(
            capsys, "verify", "toda-roundtrip", "--n", "2", "--trials", "5", "--seed", "3"
        )
        assert code1 == code2 == 0
        assert strip(json.loads(out1)) == strip(json.loads(out2))

    def test_d_recursions_cases(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "d-recursions", "--n", "4", "--trials", "20")
        assert code == 0
        cases = json.loads(out)["cases"]
        assert [c["id"] for c in cases] == ["n4-recursions", "n4-base-schur", "n4-perp-shifts"]
        assert {c["status"] for c in cases} == {"pass"}
        assert cases[2]["lhs"] == "20 random specs, i = 1, 2"

    def test_report_header_names_backend_python_and_cores(self, capsys):
        import os
        import platform

        code, out, _ = run_cli(capsys, "verify", "toda-roundtrip", "--n", "2", "--trials", "1")
        assert code == 0
        data = json.loads(out)
        assert data["backend"] == "fractions.Fraction"
        assert data["python"] == platform.python_version()
        assert data["cores"] == os.cpu_count()

    def test_conjecture_tier_never_fails_process(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "conjecture7-4", "--n", "5")
        assert code == 0
        data = json.loads(out)
        assert all(c["status"] == "reported" for c in data["cases"])

    def test_conjecture2_emits_per_permutation_records(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "conjecture2", "--n", "4")
        assert code == 0
        data = json.loads(out)
        rows = [
            json.loads(c["lhs"].split("; ", 1)[1])
            for c in data["cases"]
            if c["id"].startswith("divisibility-")
        ]
        assert len(rows) == 24
        sample = {r["w"]: r for r in rows}["1432"]
        assert sample["lambda"] == "2,1,1"
        assert sample["lambda_conj"] == "2,1,1"
        assert sample["divisibility"] is True
        assert sample["gtilde"]

    def test_run_suite_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_groth_commands(self, capsys):
        code, out, _ = run_cli(capsys, "groth", "21")
        assert code == 0
        assert Poly.from_json(json.loads(out)).to_str() == "x1"
        code, out, _ = run_cli(capsys, "qgroth", "21", "--text")
        assert code == 0 and out.strip() == "-x1*Q1 + x1 + Q1"
        for command in ("groth", "qgroth"):
            code, out, err = run_cli(capsys, command, "", "--text")
            assert code == 0 and err == "" and out.strip() == "1"
        code, out, _ = run_cli(capsys, "gtilde", "12543", "--text")
        assert code == 0 and "h" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("lambda-map", ""), "permutation of length >= 1, got ''"),
            (("gtilde", ""), "permutation of length >= 2, got ''"),
            (("gtilde", "1"), "permutation of length >= 2, got '1'"),
            (("kconj", "3", "--k", "2"), "partition '3' is not 2-bounded"),
        ],
        ids=["lambda-map-empty", "gtilde-empty", "gtilde-length-1", "kconj-not-k-bounded"],
    )
    def test_refusal_names_the_input(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and message in err

    @pytest.mark.parametrize("command", ["qgroth", "gtilde"])
    def test_quantized_permutation_above_limit_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "2134567")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"above the limit {MAX_QUANTIZE_N}" in err

    def test_mismatched_n_flag(self, capsys):
        code, out, err = run_cli(capsys, "groth", "21", "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: --n 3 does not match")


class TestSuiteRecords:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_default_and_accepted_n_builds_a_case(self, name):
        suite = SUITES[name]
        for n in {*suite.ns, *suite.accepted}:
            assert suite.build(n, suite.trials, random.Random(0)), n

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_default_n_is_accepted(self, name):
        suite = SUITES[name]
        if suite.accepted:
            assert suite.ns and set(suite.ns) <= set(suite.accepted)
        else:  # a suite that takes no --n runs at its one n
            assert len(suite.ns) == 1

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_trials_refused_exactly_without_a_trial_count(self, name):
        if SUITES[name].trials is None:
            with pytest.raises(ValueError, match="takes no --trials"):
                run_suite(name, trials=1)
        else:
            report = run_suite(name, trials=1)
            assert report.cases and not report.failures
