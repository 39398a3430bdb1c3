import random

import pytest

from ffl.cli import main
from ffl.errors import PreconditionError
from ffl.gf import field_make
from ffl.polyring import (Poly, count_primes_exact, enumerate_monic,
                          enumerate_primes, factor, from_code, is_irreducible,
                          monomial, one, parse_poly, poly_gcd, t_gen, to_pretty,
                          to_text, zero)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)


def P2(s):
    return parse_poly(F2, s)


def test_arithmetic_examples():
    T = t_gen(F2)
    assert (T + one(F2)) * (T + one(F2)) == P2("T^2+1")
    q, r = divmod(P2("T^2"), P2("T^2+T+1"))
    assert q == one(F2) and r == P2("T+1")
    a = P2("T^3+T+1")
    assert a + zero(F2) == a


def test_gcd_examples():
    T = t_gen(F2)
    assert poly_gcd(T * T, T) == T
    assert poly_gcd(P2("T^2+1"), P2("T+1")) == P2("T+1")
    assert poly_gcd(P2("T^3+T"), one(F2)) == one(F2)
    with pytest.raises(PreconditionError):
        poly_gcd(zero(F2), zero(F2))


def test_enumerate_monic():
    assert [to_pretty(p) for p in enumerate_monic(F2, 1)] == ["T", "T+1"]
    assert [to_pretty(p) for p in enumerate_monic(F3, 0)] == ["1"]
    items = [to_pretty(p) for p in enumerate_monic(F2, 2)]
    assert len(items) == 4 and items[-1] == "T^2+T+1"
    # deterministic canonical order: ascending integer code within a degree
    codes = [p.code for p in enumerate_monic(F3, 2)]
    assert codes == sorted(codes) and len(codes) == 9


def test_is_irreducible_examples():
    assert is_irreducible(P2("T^2+T+1"))
    assert not is_irreducible(P2("T^2+1"))
    assert is_irreducible(parse_poly(F3, "T^2+1"))
    with pytest.raises(PreconditionError):
        is_irreducible(one(F2))


def test_irreducible_vs_trial_division():
    for F in (F2, F3):
        maxd = 8 if F.q == 2 else 6
        for d in range(2, maxd + 1):
            small_primes = [p for dd in range(1, d // 2 + 1)
                            for p in enumerate_primes(F, dd)]
            for a in enumerate_monic(F, d):
                trial = all(not divmod(a, p)[1].is_zero() for p in small_primes)
                assert is_irreducible(a) == trial, a


def test_prime_counts_and_order():
    assert [to_pretty(p) for p in enumerate_primes(F2, 2)] == ["T^2+T+1"]
    assert len(enumerate_primes(F2, 3)) == 2
    assert len(enumerate_primes(F2, 4)) == 3
    assert [to_pretty(p) for p in enumerate_primes(F2, 3)] == ["T^3+T+1", "T^3+T^2+1"]
    assert count_primes_exact(2, 1) == 2
    assert count_primes_exact(3, 2) == 3
    assert count_primes_exact(5, 1) == 5


def test_prime_polynomial_theorem_band():
    for F, maxn in ((F2, 10), (F3, 7)):
        q = F.q
        for n in range(1, maxn + 1):
            cnt = count_primes_exact(F, n)
            assert abs(cnt - q ** n / n) <= 3 * q ** (n / 2) / n


def test_factor_examples():
    f = factor(P2("T^2+1"))
    assert f.unit == 1 and f.factors == ((P2("T+1"), 2),)
    f3 = factor(parse_poly(F3, "2T^2"))
    assert f3.unit == 2 and f3.factors == ((t_gen(F3), 2),)
    assert factor(one(F3)).factors == ()


def test_factor_cache(monkeypatch):
    import ffl.polyring as polyring
    from ffl.chargroup import _cached_unit_group, unit_group
    R = parse_poly(F3, "T^4+T^3+2T+1") * parse_poly(F3, "T^2+1")
    first = factor(R)
    assert factor(R) == first and factor(R).value() == R
    for _ in range(2):
        with pytest.raises(PreconditionError):
            factor(zero(F3))
    # a unit group built from scratch factors its modulus once: the budget
    # check, the group's own check and the unit sieve share one Factorization
    factor.cache_clear()
    _cached_unit_group.cache_clear()
    seen = []
    body = polyring._factor
    monkeypatch.setattr(polyring, "_factor", lambda a: seen.append(a) or body(a))
    assert unit_group(R).phi == 8 * 80
    assert seen.count(R) == 1


def test_factor_roundtrip_random():
    rnd = random.Random(20240810)
    for F in (F2, F3, F4):
        for _ in range(150):
            coeffs = [rnd.randrange(F.q) for _ in range(rnd.randrange(1, 10))]
            a = Poly(F, coeffs)
            if a.is_zero():
                continue
            f = factor(a)
            assert f.value() == a
            for p, e in f:
                assert p.is_monic() and e >= 1
                if p.deg >= 1:
                    assert is_irreducible(p)
            degs = [p.sort_key() for p, _ in f]
            assert degs == sorted(degs)


def test_factor_multiplicativity_sampled():
    polys = [a for d in range(1, 5) for a in enumerate_monic(F2, d)]
    rnd = random.Random(7)
    for _ in range(60):
        a, b = rnd.choice(polys), rnd.choice(polys)
        fa = {p: e for p, e in factor(a)}
        fb = {p: e for p, e in factor(b)}
        fab = {p: e for p, e in factor(a * b)}
        merged = dict(fa)
        for p, e in fb.items():
            merged[p] = merged.get(p, 0) + e
        assert fab == merged


def test_large_degree_factor():
    a = P2("T^13+T+1") * P2("T^2+T+1") ** 2
    f = factor(a)
    assert f.value() == a
    assert all(is_irreducible(p) for p, _ in f)


def _irreducibles_from(F, code, count):
    out = []
    while len(out) < count:
        a = from_code(F, code)
        if is_irreducible(a):
            out.append(a)
        code += 1
    return out


def test_factor_equal_degree_split(capsys):
    # products of same-degree primes above degree 12 take the randomised
    # equal-degree split
    a = P2("T^16+T^15+T^13+T^12+T^10+T^7+T^4+T+1")
    f = factor(a)
    assert f.value() == a and len(f) > 1
    assert all(p.is_monic() and is_irreducible(p) for p, _ in f)
    F7 = field_make(7)
    p1, p2 = _irreducibles_from(F7, 7 ** 13 + 12345, 2)
    lin = parse_poly(F7, "T+3")
    b = p1 * p2 * lin ** 2
    assert b.deg == 28
    fb = factor(b)
    assert fb.value() == b
    assert fb.factors == tuple(sorted([(p1, 1), (p2, 1), (lin, 2)],
                                      key=lambda pe: pe[0].sort_key()))
    assert main(["--q", "2", "factor", "--poly", to_pretty(a)]) == 0
    assert main(["--q", "7", "factor", "--poly", to_text(b)]) == 0
    assert capsys.readouterr().err == ""


def test_text_roundtrip():
    for F in (F2, F3):
        for d in range(0, 4):
            for a in enumerate_monic(F, d):
                assert parse_poly(F, to_text(a)) == a
    z = zero(F2)
    assert to_text(z) == "q=2;[]" and parse_poly(F2, to_text(z)) == z
    assert parse_poly(F2, "[1,0,1]") == P2("T^2+1")
    assert parse_poly(F3, "2T^2+T+1") == Poly(F3, (1, 1, 2))
    with pytest.raises(PreconditionError):
        parse_poly(F2, "q=3;[1]")
    with pytest.raises(PreconditionError):
        parse_poly(F2, "[1,0,1,0]")   # trailing zero: not canonical
    with pytest.raises(PreconditionError):
        parse_poly(F4, "T+1")         # pretty form needs a prime field


def test_divrem_gcd_random_properties():
    rnd = random.Random(99)
    for F in (F2, F3, F4):
        for _ in range(200):
            a = Poly(F, [rnd.randrange(F.q) for _ in range(rnd.randrange(0, 9))])
            b = Poly(F, [rnd.randrange(F.q) for _ in range(rnd.randrange(0, 9))])
            if not b.is_zero():
                qt, r = divmod(a, b)
                assert qt * b + r == a
                assert r.is_zero() or r.deg < b.deg
            if not (a.is_zero() and b.is_zero()):
                g = poly_gcd(a, b)
                assert g.is_monic()
                if not a.is_zero():
                    assert (a % g).is_zero()
                if not b.is_zero():
                    assert (b % g).is_zero()


def test_division_by_zero():
    with pytest.raises(PreconditionError):
        divmod(P2("T^2"), zero(F2))


def test_norm_and_degree_sentinel():
    assert zero(F2).norm() == 0
    assert zero(F2).deg == -1
    assert monomial(F2, 3).norm() == 8
    assert zero(F2) < one(F2) < t_gen(F2)


def test_mixed_field_rejected():
    with pytest.raises(PreconditionError):
        t_gen(F2) + t_gen(F3)
