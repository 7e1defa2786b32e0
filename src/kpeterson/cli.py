"""Command-line interface: computation subcommands and verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All numeric output is exact rational text; there is no floating point.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from math import factorial

from .grothendieck import dual_groth, klr_coeff, stable_groth_vars
from .partitions import Partition, Permutation, _ints
from .peterson import DSpec, d_det, phi_apply, phi_context, tau_sigma
from .polynomials import Poly
from .quantum import (
    g_tilde,
    groth_poly,
    k_conjugate,
    lambda_map,
    quantum_groth,
)
from .scalars import Rational
from .suites import SUITE_NAMES, run_suite
from .symfunc import SymFunc

# Largest degree * (n-1)^2 `kpet phi` accepts.  The parser expands powers
# eagerly and Phi_n numerators grow fast with both the degree and n, so one
# degree bound for every n would still admit runs of minutes at n = 5.
MAX_PHI_WEIGHT = 288

# Deepest parenthesis nesting `kpet phi --poly` accepts: the parser spends four
# frames a level, so about 250 levels exhaust Python's recursion limit.
MAX_PHI_NESTING = 100


def max_phi_degree(n: int) -> int:
    """Largest total degree `kpet phi --n n` accepts."""
    return MAX_PHI_WEIGHT // max((n - 1) ** 2, 1)

# Largest predicted size of a `kpet phi` image: the cells of its numerator and
# denominator boxes (PhiContext.box_cells) per (n-1)!.  A box in h_1..h_{n-1}
# holds about (n-1)! times more cells than a numerator under its weighted
# degree has monomials.  Dense input within the degree limit, such as
# (x1+x2+x3+x4+Q1)^18 at n = 5, predicts millions and would run for minutes;
# x1^k at the degree limit predicts at most 18,000 for every n.
MAX_PHI_CELLS = 100_000

# Largest n `kpet phi` and `kpet tau` accept.  The tau/sigma table is no bound
# (0.06 s CPU at n = 9, 2.8 s at n = 12, 12.6 s at n = 13); raising 8 waits on
# a sweep of `kpet phi` at the degree and size limits for each new n.
MAX_PHI_N = 8

# Largest permutation length `kpet qgroth` and `kpet gtilde` accept: both
# expand G_w over the n! f-monomials, whose coordinates of every staircase
# monomial are peeled in about 0.3 s at n = 6 (100,048 non-zeros; `kpet gtilde
# 654321` takes about 0.5 s in all, `kpet qgroth 654321` 1.2 s, Python 3.11,
# one core).  At n = 7 those coordinates would hold about 3.7 million
# non-zeros, kept for the life of the process.
MAX_QUANTIZE_N = 6

# Largest --trials `kpet verify` and `kpet toda-roundtrip` accept.  The suites
# build every case (one per trial and n) before the first one runs, so an
# absurd count would exhaust memory instead of running.  At the limit,
# `kpet verify toda-roundtrip --trials 1000` (4,000 cases over n = 2..5) takes
# about 8-9 s in 25 MB (Python 3.11, one core), and
# `kpet verify d-recursions --trials 1000` about 3 s.
MAX_TRIALS = 1000

# Largest |lambda| and number of variables d `kpet gstable` accepts: the
# set-valued tableaux it sums grow exponentially in both.  The slowest
# accepted input, `kpet gstable 5,1 6` (109,633 tableaux), takes about 0.5 s;
# with both at 7, `gstable 4,2,1 7` takes about 19 s.
MAX_GSTABLE_WEIGHT = 6
MAX_GSTABLE_VARS = 6

# Largest length l(lambda) and size |lambda| `kpet gdual` accepts.  Its
# determinant is l x l over the h-basis, expanded over the 2^l column
# subsets: at l = 7 the slowest shape timed, `kpet gdual 10,10,10,10,10,5,5`,
# takes about 5 s, while at l = 8 `gdual 8,8,8,8,7,7,7,7` takes 13 s and at
# l = 10 `gdual 5,...,5` 28 s.
MAX_GDUAL_LENGTH = 7
MAX_GDUAL_WEIGHT = 60

# Largest length l(nu) and size |nu| `kpet klr` accepts: the set-valued
# tableaux of shape mu grow exponentially in both.  The walk ends a branch as
# soon as its column word so far cannot build nu on lambda, so it completes
# only the fillings that count.  A sweep of every mu against every nu with
# l(nu) <= 5 and |nu| = 10 (lambda empty, the most letters) found
# `kpet klr '' 6,1,1,1,1 6,1,1,1,1` the slowest, at about 0.15 ms in
# `klr_coeff`; with start-up every input at the limits answers in 0.15-0.2 s.
# `klr '' 5,2,1 4,2,2,1,1` and `klr '' 6,2 2,2,2,2,2`, the slowest before
# that pruning at 0.6-0.7 s, are among them (Python 3.11, one core).
MAX_KLR_LENGTH = 5
MAX_KLR_WEIGHT = 10

# Largest permutation length `kpet groth` accepts: its divided differences
# recurse up to n(n-1)/2 deep over fast-growing polynomials.  The slowest
# length-8 input a local search found, `kpet groth 12543876`, takes about 1 s;
# `groth 123549876` takes 10 s, and the identity of length 50 overflows.
MAX_GROTH_N = 8

# Largest permutation length `kpet lambda-map` accepts: its partition can have
# n^2 / 2 parts.  With start-up, the slowest inputs of length 400 (every
# exponent at its largest, or random) take about 0.25-0.3 s, of which
# `lambda_map` is 0.08 s; at length 1000 `lambda_map` takes 0.55 s.
MAX_LAMBDA_MAP_N = 400

# Largest |mu| `kpet kconj` accepts: the (k+1)-core can have |mu|^2 / 2 cells.
# With start-up, the slowest input of size 100, 1,...,1 with --k 1, takes
# about 0.12 s; 200 ones 0.15 s, 800 with --k 2 0.3 s, 1000 with --k 1 0.6 s.
MAX_KCONJ_WEIGHT = 100


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "/":
            tokens.append(("/", "/", i))
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            name = text[i:j]
            if len(name) < 2 or name[0] not in "zxQ":
                raise ExprError(f"unknown name {name!r}", i)
            tokens.append(("name", name, i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _shown(tok) -> str:
    return "end of input" if tok[0] == "end" else f"token {tok[1]!r}"


class _Parser:
    """Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := ('-')* atom ('^' int)?; atom := name | int ('/' int)? | '(' expr ')'.
    Parentheses nest at most MAX_PHI_NESTING deep.

    Every product and power is checked against max_degree and, through the
    Phi_n context ctx, against the predicted size of its image before it is
    expanded, so no input builds a polynomial above that total degree or
    one whose image would be above MAX_PHI_CELLS."""

    def __init__(self, text: str, variables, max_degree: int, ctx):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = variables
        self.max_degree = max_degree
        self.ctx = ctx
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
        return tok

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        self.check_size(*self.ctx.exponent_range(value))
        return value

    def expr(self) -> Poly:
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek()[0] == "*":
            pos = self.next()[2]
            rhs = self.factor()
            self.check_degree(value.total_degree() + rhs.total_degree(), pos)
            (lo1, hi1), (lo2, hi2) = map(self.ctx.exponent_range, (value, rhs))
            self.check_size(
                [a + b for a, b in zip(lo1, lo2)], [a + b for a, b in zip(hi1, hi2)]
            )
            value = value * rhs
        return value

    def factor(self) -> Poly:
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("int")
            # a constant base counts as degree 1, so its exponent is bounded too
            self.check_degree(max(value.total_degree(), 1) * tok[1], tok[2])
            lo, hi = self.ctx.exponent_range(value)
            self.check_size([a * tok[1] for a in lo], [a * tok[1] for a in hi])
            value = value ** tok[1]
        return value * sign if sign < 0 else value

    def check_degree(self, degree: int, pos: int):
        if degree > self.max_degree:
            raise ExprError(
                f"total degree {degree} is above the limit {self.max_degree}", pos
            )

    def check_size(self, lo, hi):
        cells = self.ctx.box_cells(lo, hi) // factorial(self.ctx.n - 1)
        if cells > MAX_PHI_CELLS:
            raise ValueError(
                f"the predicted size of the Phi_{self.ctx.n} image, {cells} box "
                f"cells per {self.ctx.n - 1}!, is above the limit {MAX_PHI_CELLS}"
            )

    def atom(self) -> Poly:
        tok = self.next()
        if tok[0] == "int":
            num = tok[1]
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.expect("int")
                if den_tok[1] == 0:
                    raise ExprError("zero denominator", den_tok[2])
                return Poly.const(self.vars, Rational(num, den_tok[1]))
            return Poly.const(self.vars, num)
        if tok[0] == "name":
            if tok[1] not in self.vars:
                raise ExprError(f"variable {tok[1]!r} out of range", tok[2])
            return Poly.variable(self.vars, tok[1])
        if tok[0] == "(":
            self.depth += 1
            if self.depth > MAX_PHI_NESTING:
                raise ExprError(
                    f"parentheses nest above the limit {MAX_PHI_NESTING}", tok[2]
                )
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ExprError(f"unexpected {_shown(tok)}", tok[2])


def parse_phi_expr(text: str, n: int) -> Poly:
    variables = (
        tuple(f"z{i}" for i in range(1, n + 1))
        + tuple(f"x{i}" for i in range(1, n + 1))
        + tuple(f"Q{i}" for i in range(1, n))
    )
    return _Parser(text, variables, max_phi_degree(n), phi_context(n)).parse()


def _emit(args, payload, text: str):
    body = text if getattr(args, "text", False) else json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        print(body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpet",
        description="Exact computations around the K-theoretic Peterson map.",
    )
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", help="write output to this path instead of stdout")
    group = io.add_mutually_exclusive_group()
    group.add_argument("--json", dest="text", action="store_false", default=False)
    group.add_argument("--text", dest="text", action="store_true")
    add = partial(parser.add_subparsers(dest="command", required=True).add_parser, parents=[io])

    p = add("gdual", help="dual stable Grothendieck polynomial")
    p.add_argument("partition")

    p = add("klr", help="K-theoretic LR coefficient")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")

    p = add("gstable", help="stable Grothendieck polynomial in d variables")
    p.add_argument("partition")
    p.add_argument("d", type=int)

    p = add("tau", help="tau/sigma table")
    p.add_argument("--n", type=int, required=True)

    p = add("ddet", help="D-determinant value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True, help="comma-separated integers")
    p.add_argument("--a", required=True, help="comma-separated non-negative integers")

    p = add("phi", help="apply the Peterson map to a polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", required=True)

    p = add("groth", help="Grothendieck polynomial")
    p.add_argument("w")
    p.add_argument("--n", type=int, help="defaults to the length of w")

    p = add("qgroth", help="quantum Grothendieck polynomial")
    p.add_argument("w")
    p.add_argument("--n", type=int)

    p = add("gtilde", help="numerator of the Peterson image of GQ_w")
    p.add_argument("w")
    p.add_argument("--n", type=int)

    p = add("lambda-map", help="k-bounded partition of a permutation")
    p.add_argument("w")
    p.add_argument("--n", type=int)

    p = add("kconj", help="k-conjugate of a k-bounded partition")
    p.add_argument("partition")
    p.add_argument("--k", type=int, required=True)

    p = add("toda-roundtrip", help="randomized exact round-trip check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = add("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITE_NAMES))
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    return parser


def _bounded(value: int, limit: int, what: str) -> int:
    if value > limit:
        raise ValueError(f"{what} {value} is above the limit {limit}")
    return value


def _positive_counts(args):
    for flag in ("n", "trials", "k"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} {value} is not positive")
    if getattr(args, "trials", None) is not None:
        _bounded(args.trials, MAX_TRIALS, "--trials")


def _int_list(text: str, flag: str) -> tuple:
    return tuple(_ints(text.split(","), text, flag))


def _perm(args, limit: int) -> Permutation:
    w = Permutation.from_text(args.w)
    if args.n is not None and args.n != w.n:
        raise ValueError(f"--n {args.n} does not match the permutation length {w.n}")
    _bounded(w.n, limit, "permutation length")
    return w


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ExprError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "gdual":
        lam = Partition.from_text(args.partition)
        _bounded(len(lam), MAX_GDUAL_LENGTH, "partition length")
        _bounded(lam.weight, MAX_GDUAL_WEIGHT, "partition size")
        value = dual_groth(lam)
        _emit(args, value.to_json(), value.to_str())
    elif cmd == "klr":
        nu = Partition.from_text(args.nu)
        _bounded(len(nu), MAX_KLR_LENGTH, "length of nu")
        _bounded(nu.weight, MAX_KLR_WEIGHT, "size of nu")
        value = klr_coeff(Partition.from_text(args.lam), Partition.from_text(args.mu), nu)
        _emit(args, value, str(value))
    elif cmd == "gstable":
        lam = Partition.from_text(args.partition)
        _bounded(lam.weight, MAX_GSTABLE_WEIGHT, "partition size")
        if args.d < 0:
            raise ValueError(f"d {args.d} is negative")
        value = stable_groth_vars(lam, _bounded(args.d, MAX_GSTABLE_VARS, "d"))
        _emit(args, value.to_json(), value.to_str())
    elif cmd == "tau":
        table = tau_sigma(_bounded(args.n, MAX_PHI_N, "--n"))
        payload = {
            "n": args.n,
            "tau": [t.to_json() for t in table.tau],
            "sigma": [s.to_json() for s in table.sigma],
        }
        text = "\n".join(
            [f"tau{i} = {t.to_str()}" for i, t in enumerate(table.tau)]
            + [f"sigma{i} = {s.to_str()}" for i, s in enumerate(table.sigma)]
        )
        _emit(args, payload, text)
    elif cmd == "ddet":
        theta, avec = _int_list(args.theta, "--theta"), _int_list(args.a, "--a")
        value = d_det(DSpec(theta, avec, _bounded(args.n, MAX_PHI_N, "--n")))
        _emit(args, value.to_json(), value.to_str())
    elif cmd == "phi":
        poly = parse_phi_expr(args.poly, _bounded(args.n, MAX_PHI_N, "--n"))
        frac = phi_apply(poly, args.n)
        num = SymFunc.from_poly(frac.num)
        den = SymFunc.from_poly(frac.ctx.factor_product(frac.den))
        _emit(
            args,
            {"num": num.to_json(), "den": den.to_json()},
            f"({num.to_str()}) / ({den.to_str()})",
        )
    elif cmd == "groth":
        value = groth_poly(_perm(args, MAX_GROTH_N))
        _emit(args, value.to_json(), value.to_str())
    elif cmd == "qgroth":
        value = quantum_groth(_perm(args, MAX_QUANTIZE_N))
        _emit(args, value.to_json(), value.to_str())
    elif cmd == "gtilde":
        value = g_tilde(_perm(args, MAX_QUANTIZE_N))
        _emit(args, value.to_json(), value.to_str())
    elif cmd == "lambda-map":
        value = lambda_map(_perm(args, MAX_LAMBDA_MAP_N)).partition
        _emit(args, value.to_text(), value.to_text())
    elif cmd == "kconj":
        _positive_counts(args)
        mu = Partition.from_text(args.partition)
        _bounded(mu.weight, MAX_KCONJ_WEIGHT, "partition size")
        value = k_conjugate(mu, args.k)
        _emit(args, value.to_text(), value.to_text())
    elif cmd == "toda-roundtrip":
        _positive_counts(args)
        report = run_suite("toda-roundtrip", n=args.n, trials=args.trials, seed=args.seed)
        payload = {
            "trials": len(report.cases),
            "failures": report.failures,
            "seed": report.seed,
        }
        _emit(args, payload, json.dumps(payload))
        return report.exit_code
    elif cmd == "verify":
        _positive_counts(args)
        report = run_suite(args.suite, n=args.n, trials=args.trials, seed=args.seed)
        _emit(args, report.to_json(), report.summary())
        return report.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
