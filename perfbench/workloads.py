"""The three workloads: seeded task lists, the call each task makes into ffl,
and the oracle each output is checked against outside the timed span.

A task is (kind, call, check, prepare).  ``prepare()``, when given, builds the
task's input just before it runs, outside the timed span; ``call()`` runs the
timed work and returns the task's output; ``check(output)`` raises
``OracleError`` when the output is wrong; ``render(output)`` gives the bytes
that go into the run's digest.
A workload is a list of rounds, one task per slot in each round, so every
prefix has the same mix; no modulus repeats within a workload.
"""

import contextlib
import csv
import functools
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import ffl.cli
from ffl import chargroup, lfunc
from ffl import moments as mo
from ffl import polyring
from ffl.gf import field_of_order
from ffl.polyring import Poly, from_code, to_text
from ffl.qsqrt import QSqrt
from ffl.sieveprobe import off_diagonal_count_direct

from inputs import (Modulus, draw_spread, draw_strata, factor_table, random_poly,
                    spread_order)

REL_TOL = 1e-9


class OracleError(Exception):
    """The task finished but its output is wrong."""


class TaskFailed(Exception):
    """The CLI exited non-zero."""


@dataclass
class Task:
    kind: str
    call: Callable
    check: Callable
    prepare: Callable = None


def rounds_of(tasks, size):
    return [tasks[i:i + size] for i in range(0, len(tasks), size)]


def expect(cond, message):
    if not cond:
        raise OracleError(message)


def render(output) -> bytes:
    """Digest bytes: CLI stdout as written, exact values in their serializations."""
    if output[0] == "cli":
        return f"rc={output[1]}\n".encode() + output[2].encode()
    parts = []
    for v in output:
        if isinstance(v, QSqrt):
            parts.append(v.serialize())
        elif isinstance(v, float):
            parts.append(f"{v:.15g}")
        else:
            parts.append(str(v))
    return "\n".join(parts).encode()


def run_cli(argv):
    """One in-process ``ffl`` invocation; returns ("cli", exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ffl.cli.main(argv)
    return "cli", rc, out.getvalue()


def cli_task(kind: str, argv, check) -> Task:
    return Task(kind, lambda: run_cli(argv), check)


def cli_rows(output):
    _, rc, text = output
    if rc != 0:
        raise TaskFailed(f"exit code {rc}")
    return list(csv.DictReader(io.StringIO(text)))


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# -- moment_verify ---------------------------------------------------------

# (((q, degrees), ...), phi_lo, phi_hi, square-full): one slot per round each.
# Square-full moduli are scarce, so the four square-full slots are phi bands of
# one pool over many fields.  q = 9 stays at degree 2, where the scalar group
# builder takes about 0.1 s (at degree 3 it takes seconds).
SQUAREFULL_FIELDS = ((2, (6, 7, 8, 9, 10, 11)), (3, (4, 5, 6, 7)), (4, (3, 4, 5)),
                     (5, (3, 4)), (7, (2, 3)), (8, (2, 3)), (9, (2,)), (11, (2,)),
                     (13, (2,)), (16, (2,)), (17, (2,)), (19, (2,)), (23, (2,)),
                     (29, (2,)), (31, (2,)), (32, (2,)))
MOMENT_STRATA = [
    (SQUAREFULL_FIELDS, 32, 191, True),
    (SQUAREFULL_FIELDS, 192, 431, True),
    (SQUAREFULL_FIELDS, 432, 811, True),
    (SQUAREFULL_FIELDS, 812, 1024, True),
    (((2, (8, 9, 10)),), 128, 768, False),
    (((3, (5, 6)),), 96, 600, False),
    (((4, (4, 5)), (8, (3,))), 128, 768, False),
    (((5, (3, 4)), (7, (3,))), 80, 600, False),
    (((9, (2,)), (11, (2,)), (13, (2,)), (16, (2,)), (17, (2,)), (19, (2,)),
      (23, (2,))), 64, 600, False),
]


def moment_task(m: Modulus) -> Task:
    R = m.poly

    def call():
        c2 = mo.moment2_chars(R)
        e2 = mo.moment2_moebius_exact(R)
        f2 = mo.moment2_formula(R) if m.squarefull else None
        c4 = mo.moment4_chars(R)
        e4 = mo.moment4_moebius_exact(R)
        main = mo.moment4_main_term(R)
        return c2, e2, f2, c4, e4, main

    def check(out):
        c2, e2, f2, c4, e4, main = out
        expect(close(c2, e2.to_float()), f"m2 chars {c2} != exact {e2.to_float()}")
        expect(close(c4, e4.to_float()), f"m4 chars {c4} != exact {e4.to_float()}")
        if m.squarefull:
            expect(e2 == f2, "m2 exact != closed formula")
        expect((main > 0) == (m.phi_star > 0), "m4 main term sign")

    return Task("moment_verify", call, check)


def strata_tables(strata):
    top = {}
    for fields, *_ in strata:
        for q, degs in fields:
            top[q] = max(top.get(q, 0), *degs)
    return {q: factor_table(q, d) for q, d in top.items()}


def moment_cost(m: Modulus):
    """Cost proxy of a moment_verify task: its log time as fitted over 324 tasks
    on the reference VM (residual sd 0.31, against 0.43 for phi alone).  q = 9
    takes the scalar group builder."""
    lp = math.log(m.phi)
    return (0.54 * lp + 0.048 * lp * lp + 0.12 * m.squarefull + 0.25 * m.omega
            + 0.88 * (m.q == 9) - 0.21 * math.log(m.q), m.poly.code)


def moment_verify(rng: random.Random):
    mods = draw_strata(rng, MOMENT_STRATA, strata_tables(MOMENT_STRATA), key=moment_cost)
    return rounds_of([moment_task(m) for m in mods], len(MOMENT_STRATA))


# -- char_cli --------------------------------------------------------------

CHAR_STRATA = [
    (((2, (7, 8, 9)),), 64, 256, None),
    (((3, (4, 5, 6)),), 64, 400, None),
    (((4, (3, 4)), (16, (2,))), 48, 256, None),
    (((5, (3, 4)),), 64, 500, None),
    (((7, (2, 3)), (11, (2,))), 42, 343, None),
    (((8, (2,)), (9, (2,)), (13, (2,)), (17, (2,)), (19, (2,))), 42, 400, None),
]
CHAR_COMMANDS = ("chars", "lvalue", "fe-check")


def char_task(m: Modulus, command: str) -> Task:
    R = m.poly
    argv = ["--q", str(m.q), command, "--mod", to_text(R)]

    def check(out):
        rows = cli_rows(out)
        if command == "fe-check":
            expect(len(rows) == m.phi_star, f"{len(rows)} rows, phi* = {m.phi_star}")
        else:
            expect(len(rows) == m.phi, f"{len(rows)} rows, phi = {m.phi}")
            prim = [r for r in rows if r["primitive"] == "1"]
            expect(len(prim) == m.phi_star, f"{len(prim)} primitive, phi* = {m.phi_star}")
            even = sum(r["parity"] == "even" for r in rows)
            expect(even * (m.q - 1) == m.phi, "even characters are not an index q-1 subgroup")
        if command == "chars":
            expect(all(r["conductor"] == to_text(R) for r in prim),
                   "primitive character with a smaller conductor")
            return
        for r in rows if command == "fe-check" else prim:
            expect(abs(float(r["abs_w"]) - 1) <= REL_TOL, f"|W| = {r['abs_w']}")
            expect(float(r["fe_residual"]) <= REL_TOL, f"FE residual {r['fe_residual']}")
        if command == "lvalue":
            # an uncached group, so the oracle leaves unit_group's cache as the task left it
            table = lfunc.l_half_table(chargroup.UnitGroup(R))
            for r in rows[1:]:   # row 0 is the trivial character, evaluated in closed form
                kvec = tuple(int(k) for k in r["kvec"].split(":"))
                got = complex(float(r["re_l_half"]), float(r["im_l_half"]))
                expect(close(got, complex(table[kvec])), f"L(1/2) at kvec {kvec}")

    return cli_task(command, argv, check)


def char_cli(rng: random.Random):
    # per-character L-coefficients scan all q^deg residues
    mods = draw_strata(rng, CHAR_STRATA, strata_tables(CHAR_STRATA),
                       key=lambda m: (m.phi * m.q ** m.deg, m.poly.code))
    # the command rotates over the strata and the rounds, so every round runs
    # each command on two strata and every stratum runs each command in turn
    n = len(CHAR_STRATA)
    tasks = [char_task(m, CHAR_COMMANDS[(i // n + i % n) % len(CHAR_COMMANDS)])
             for i, m in enumerate(mods)]
    return rounds_of(tasks, n)


# -- poly_arith ------------------------------------------------------------

FACTOR_QS = (2, 3, 4, 5, 7, 9)
FACTOR_DEGS = (13, 60)
ARITH_DEGS = (12, 16)   # above every probe pool's degrees
PRIMES_ARGS = ((2, 7), (2, 8), (2, 9), (2, 10), (3, 7))
ARITH_FUNCS = ("mu", "phi", "phistar", "omega", "bigomega", "rad", "d",
               "pminus", "pplus", "squarefull", "squarefree")


def factor_task(modulus) -> Task:
    """``modulus()`` gives the input, multiplied out on first use."""
    def call():
        return run_cli(["--q", str(modulus().q), "factor", "--poly", to_text(modulus().poly)])

    def check(out):
        F, a = modulus().poly.field, modulus().poly
        rows = cli_rows(out)
        prod = Poly(F, (int(rows[0]["unit"]),))
        for r in rows:
            p = polyring.parse_poly(F, r["factor"])
            expect(p.is_monic() and polyring.is_irreducible(p),
                   f"factor {r['factor']} is not monic irreducible")
            prod = prod * p ** int(r["exponent"])
        expect(prod == a, "product of factors != input")

    return Task("factor", call, check, modulus)


def arith_value(func: str, m: Modulus):
    """Expected CLI value, from the construction's factorization."""
    exps = [e for _, e in m.factors]
    if func == "mu":
        return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)
    if func == "phi":
        return m.phi
    if func == "phistar":
        return m.phi_star
    if func == "omega":
        return len(exps)
    if func == "bigomega":
        return sum(exps)
    if func == "rad":
        out = Poly(m.poly.field, (1,))
        for p, _ in m.factors:
            out = out * p
        return to_text(out)
    if func == "d":
        return math.prod(e + 1 for e in exps)
    if func == "pminus":
        return min(p.deg for p, _ in m.factors)
    if func == "pplus":
        return max(p.deg for p, _ in m.factors)
    if func == "squarefull":
        return int(all(e >= 2 for e in exps))
    return int(all(e == 1 for e in exps))


def arith_task(func: str, modulus) -> Task:
    """``modulus()`` gives the input, multiplied out on first use."""
    def call():
        return run_cli(["--q", str(modulus().q), "arith", func, "--poly",
                        to_text(modulus().poly)])

    def check(out):
        rows = cli_rows(out)
        want = str(arith_value(func, modulus()))
        expect(rows[0]["value"] == want, f"{func} = {rows[0]['value']}, expected {want}")

    return Task("arith", call, check, modulus)


def distinct_degree_factors(rng, primes_by_deg, deg: int):
    """Factorization ((prime, exponent), ...) of a random monic of the given
    degree whose distinct prime factors have pairwise distinct degrees.
    Distinct-degree splitting then isolates every prime, so ``factor`` never
    reaches its equal-degree split, which raises TypeError on Python >= 3.11
    (the known defect, counted by ``factor_defect_probe`` instead: the
    workloads must not fail)."""
    fac, left = {}, deg
    degs = sorted(primes_by_deg)
    rng.shuffle(degs)
    for d in degs:
        if d <= left:
            fac[rng.choice(primes_by_deg[d])] = 1
            left -= d
    while left:
        fits = [p for p in fac if p.deg <= left]
        if not fits:    # every chosen prime is too big: a linear one fills the rest
            fits = [rng.choice(primes_by_deg[1])]
            fac[fits[0]] = 0
        p = rng.choice(fits)
        fac[p] += 1
        left -= p.deg
    return tuple(sorted(fac.items(), key=lambda pe: pe[0].sort_key()))


def lazy_product(factors):
    """A cached function giving the Modulus with this factorization: multiplying
    out thousands of inputs of degree up to 60 would dominate set-up."""
    def build():
        poly = Poly(factors[0][0].field, (1,))
        for p, e in factors:
            poly = poly * p ** e
        return Modulus(poly, factors)
    return functools.cache(build)


def factor_defect_probe(rng: random.Random, n: int = 24):
    """``n`` polynomials drawn naturally as ``factor`` inputs (uniform monic of
    degree 13-60), for counting the known equal-degree-split TypeError."""
    out = []
    for i in range(n):
        F = field_of_order(FACTOR_QS[i % len(FACTOR_QS)])
        out.append(random_poly(rng, F, rng.randint(*FACTOR_DEGS)))
    return out


def probe_lhs(out) -> Fraction:
    rows = cli_rows(out)
    expect(len(rows) == 1, "probe must give one row")
    return Fraction(rows[0]["lhs"])


def window(X: Poly, y: int, index):
    """The factored N = X + (anything of degree < y) that bt_sum and selberg scan."""
    F = X.field
    return [index[(X + from_code(F, c)).code] for c in range(F.q ** y)]


def bt_task(rng, tables, index) -> Task:
    q = rng.choice((2, 3))
    F = field_of_order(q)
    n = rng.randint(8, 10) if q == 2 else rng.randint(5, 6)
    y = rng.randint(n // 4 + 1, min(n, 8 if q == 2 else 5))
    G = rng.choice([m.poly for m in tables[q][1] + tables[q][2] if len(m.factors) == 1
                    and m.factors[0][1] == 1 and m.deg < 0.75 * y])
    A = from_code(F, rng.randrange(1, q ** G.deg))
    X = random_poly(rng, F, n)
    argv = ["--q", str(q), "probe", "--id", "bt_sum", "--X", to_text(X),
            "--y", str(y), "--A", to_text(A), "--G", to_text(G)]

    def check(out):
        brute = sum(math.prod(e + 1 for _, e in N.factors) for N in window(X, y, index[q])
                    if ((N.poly - A) % G).is_zero())
        expect(probe_lhs(out) == brute, "bt_sum != brute-force divisor sum")

    return cli_task("bt_sum", argv, check)


def selberg_task(rng, tables, index) -> Task:
    q = rng.choice((2, 3))
    F = field_of_order(q)
    n = rng.randint(7, 9) if q == 2 else rng.randint(4, 6)
    y = rng.randint(4, min(n, 6 if q == 2 else 4))
    K = rng.choice([m.poly for m in tables[q][1]])
    z = rng.randint(1, min(2, y - 1))
    A = from_code(F, rng.randrange(1, q))
    X = random_poly(rng, F, n)
    argv = ["--q", str(q), "probe", "--id", "selberg", "--X", to_text(X),
            "--y", str(y), "--K", to_text(K), "--A", to_text(A), "--z", str(z)]

    def check(out):
        brute = sum(1 for N in window(X, y, index[q]) if ((N.poly - A) % K).is_zero()
                    and min(p.deg for p, _ in N.factors) > z)
        expect(probe_lhs(out) == brute, "selberg count != brute-force count")

    return cli_task("selberg", argv, check)


def two_omega_task(rng) -> Task:
    q = rng.choice(FACTOR_QS)
    x = rng.randint(10, 40)
    closed = Fraction(q - 1, 2 * q) * x * x + Fraction(3 * q + 1, 2 * q) * x + 1
    argv = ["--q", str(q), "probe", "--id", "two_omega", "--x", str(x)]
    return cli_task("two_omega", argv,
                    lambda out: expect(probe_lhs(out) == closed, "two_omega != closed form"))


def weighted_two_omega_task(m: Modulus, table) -> Task:
    argv = ["--q", str(m.q), "probe", "--id", "weighted_two_omega", "--mod", to_text(m.poly)]
    primes = {p for p, _ in m.factors}
    zprime = m.deg - m.omega * math.log(9, m.q)

    def check(out):
        brute = zprime ** 2     # N = 1
        for d in range(1, int(math.floor(zprime + 1e-12)) + 1):
            for N in table[d]:
                if not primes & {p for p, _ in N.factors}:
                    brute += 2 ** N.omega / m.q ** d * (zprime - d) ** 2
        got = float(cli_rows(out)[0]["lhs"])
        expect(close(got, brute), f"weighted 2^omega sum {got} != brute force {brute}")

    return cli_task("weighted_two_omega", argv, check)


def coprime_harmonic_task(rng, m: Modulus) -> Task:
    F = m.poly.field
    x = rng.randint(2, 8 if m.q == 2 else 5)
    argv = ["--q", str(m.q), "probe", "--id", "coprime_harmonic", "--mod",
            to_text(m.poly), "--x", str(x)]
    primes = [p for p, _ in m.factors]

    def check(out):
        brute = Fraction(0)
        for d in range(x + 1):
            for c in range(m.q ** d, 2 * m.q ** d):
                A = from_code(F, c)
                if all(not (A % p).is_zero() for p in primes):
                    brute += Fraction(1, m.q ** d)
        expect(probe_lhs(out) == brute, "coprime harmonic sum != brute force")

    return cli_task("coprime_harmonic", argv, check)


def off_diagonal_task(rng, m: Modulus) -> Task:
    while True:   # keep the brute-force oracle's pair-of-pairs loop small
        z1, z2 = rng.randint(1, 3), rng.randint(1, 3)
        if (z1 + 1) * (z2 + 1) * m.q ** (z1 + z2) <= 1024:
            break
    a = rng.randrange(1, m.q)
    argv = ["--q", str(m.q), "probe", "--id", "off_diagonal", "--F", to_text(m.poly),
            "--z1", str(z1), "--z2", str(z2), "--a", str(a)]

    def check(out):
        expect(probe_lhs(out) == off_diagonal_count_direct(m.poly, z1, z2, a),
               "off-diagonal count != brute force")

    return cli_task("off_diagonal", argv, check)


def diagonal_task(m: Modulus) -> Task:
    def call():
        rep = mo.diagonal_term_check(m.poly)
        return rep.value, rep.diagnostics.get("dual_equal"), rep.diagnostics["ratio"]

    def check(out):
        expect(out[1] is True, f"dual_equal = {out[1]}")

    return Task("diagonal", call, check)


def primes_task(q: int, n: int) -> Task:
    argv = ["--q", str(q), "primes", "--deg", str(n)]

    def check(out):
        expect(len(cli_rows(out)) == polyring.count_primes_exact(q, n),
               "prime count != necklace formula")

    return cli_task("primes", argv, check)


# one pool per probe that takes a modulus: (q, degrees); the pools are disjoint.
# off_diagonal needs q <= 16 for its brute-force oracle's size limit.
PROBE_MODULI = {
    "weighted_two_omega": ((2, (11,)), (3, (7,))),
    "coprime_harmonic": ((2, (9, 10)), (3, (6,))),
    "off_diagonal": ((2, (2, 3, 4, 5, 6, 7, 8)), (3, (2, 3, 4)), (4, (2, 3)), (5, (2,)),
                     (7, (2,)), (8, (2,)), (9, (2,)), (11, (2,)), (13, (2,)), (16, (2,))),
    # fields where the direct check takes about 1-150 ms a task
    "diagonal": ((4, (4,)), (5, (3,)), (8, (3,)), (9, (3,))),
}
# prime degrees the factor and arith inputs are built from, per field
PRIME_DEGS = {2: 11, 3: 7, 4: 5, 5: 4, 7: 3, 9: 3}


def diagonal_cost(m: Modulus) -> float:
    """log of q^(2 z_R): the direct quadruple enumeration's size."""
    return (m.deg - m.omega * math.log(2, m.q)) * math.log(m.q)


def size_sweeps(rng: random.Random, lo: int, hi: int):
    """Sizes lo..hi in spread order, swept separately for each field from a
    seeded start, so every field sees the whole size range in any prefix."""
    seq = [lo + i for i in spread_order(hi - lo + 1)]
    pos = {}

    def next_size(q):
        pos[q] = pos.get(q, rng.randrange(len(seq))) + 1
        return seq[pos[q] % len(seq)]
    return next_size


def poly_arith(rng: random.Random):
    top = dict(PRIME_DEGS)
    for specs in PROBE_MODULI.values():
        for q, degs in specs:
            top[q] = max(top.get(q, 0), *degs)
    tables = {q: factor_table(q, d) for q, d in top.items()}
    index = {q: {m.poly.code: m for d in t for m in t[d]} for q, t in tables.items()}
    primes = {q: {d: [m.poly for m in tables[q][d] if m.factors == ((m.poly, 1),)]
                  for d in range(1, PRIME_DEGS[q] + 1)} for q in PRIME_DEGS}
    cands = {kind: [m for q, degs in specs for d in degs for m in tables[q][d]
                    if kind != "weighted_two_omega" or m.deg >= m.omega * math.log(9, q)]
             for kind, specs in PROBE_MODULI.items()}
    n_rounds = min(len(c) for c in cands.values())
    pools = {kind: draw_spread(rng, c, n_rounds,
                               key=diagonal_cost if kind == "diagonal"
                               else lambda m: (m.phi, m.poly.code))
             for kind, c in cands.items()}
    assert len({(m.q, m.poly.code) for pool in pools.values() for m in pool}) \
        == 4 * n_rounds, "probe pools overlap"
    assert max(d for specs in PROBE_MODULI.values() for _, degs in specs for d in degs) \
        < min(ARITH_DEGS[0], FACTOR_DEGS[0]), "products could meet a probe modulus"
    seen = set()

    def fresh(q, n):
        """An input of degree n over F_q that no other factor or arith task uses
        (by unique factorization, distinct factorizations are distinct inputs)."""
        for _ in range(1000):
            factors = distinct_degree_factors(rng, primes[q], n)
            key = (q, tuple((p.code, e) for p, e in factors))
            if key not in seen:
                seen.add(key)
                return lazy_product(factors)
        raise RuntimeError("no unused polynomial left to draw")

    factor_deg = size_sweeps(rng, *FACTOR_DEGS)
    arith_deg = size_sweeps(rng, *ARITH_DEGS)
    primes_args = list(PRIMES_ARGS)
    rng.shuffle(primes_args)
    rounds = []
    for r in range(n_rounds):
        round_tasks = []
        for s in range(3):
            q = FACTOR_QS[(3 * r + s) % len(FACTOR_QS)]
            round_tasks.append(factor_task(fresh(q, factor_deg(q))))
        for s in range(2):
            func = ARITH_FUNCS[(2 * r + s) % len(ARITH_FUNCS)]
            q = (2, 3, 5)[(2 * r + s) % 3]
            round_tasks.append(arith_task(func, fresh(q, arith_deg(q))))
        w = pools["weighted_two_omega"][r]
        round_tasks += [
            bt_task(rng, tables, index),
            selberg_task(rng, tables, index),
            two_omega_task(rng),
            weighted_two_omega_task(w, tables[w.q]),
            coprime_harmonic_task(rng, pools["coprime_harmonic"][r]),
            off_diagonal_task(rng, pools["off_diagonal"][r]),
            diagonal_task(pools["diagonal"][r]),
        ]
        if r < len(primes_args):
            round_tasks.append(primes_task(*primes_args[r]))
        rounds.append(round_tasks)
    return rounds


WORKLOADS = {
    "moment_verify": moment_verify,
    "char_cli": char_cli,
    "poly_arith": poly_arith,
}
