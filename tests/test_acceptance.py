"""Acceptance suite: each criterion runs at its stated tolerance and prints one
pass/fail line.  Empirical probe maxima land in acceptance_out/probe_maxima.csv."""

import csv
import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np

from ffl.chargroup import UnitGroup, even_mask, primitive_mask, unit_group
from ffl.gf import field_make
from ffl.lfunc import (fe_from_coeffs, half_sum_sq_from_coeffs, l_coeff_table,
                       root_number)
from ffl.moments import (diagonal_param_sum, diagonal_quadruple_sum,
                         moment2_chars, moment2_formula, moment2_moebius_exact,
                         moment2_tamam_orthogonality, moment2_tamam_prime,
                         moment4_chars, moment4_main_term, moment4_moebius_exact,
                         z_cut_int)
from ffl.multfun import is_squarefull, phi, phi_star
from ffl.polyring import (count_primes_exact, enumerate_monic, enumerate_primes,
                          monomial, one, parse_poly, t_gen)
from ffl.qsqrt import QSqrt
from ffl.sieveprobe import (bt_sum, bt_sum_eq, coprime_harmonic,
                            musq_phi_sum, selberg_sifted_count,
                            two_omega_closed_form, two_omega_sum,
                            weighted_two_omega_sum)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)

OUT_DIR = "acceptance_out"


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


def _squarefull_grid():
    for F, dmax in ((F2, 6), (F3, 4)):
        for d in range(2, dmax + 1):
            for R in enumerate_monic(F, d):
                if is_squarefull(R):
                    yield R


def test_criterion_01_second_moment_triple_agreement():
    t0 = time.monotonic()
    ok = True
    count = 0
    for R in _squarefull_grid():
        count += 1
        exact = moment2_moebius_exact(R)
        ok &= (moment2_formula(R, "proof_final") == exact)
        ch = moment2_chars(R)
        exf = exact.to_float()
        ok &= abs(ch - exf) <= 1e-9 * max(abs(ch), abs(exf))
    ok &= (moment2_moebius_exact(parse_poly(F2, "T^2"))
           == QSqrt(2, Fraction(3, 2), -1))
    ok &= (moment2_moebius_exact(parse_poly(F2, "T^3")) == QSqrt(2, 2, -1))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    assert _verdict("criterion 1: second moment triple agreement", ok,
                    f"{count} square-full moduli, {elapsed:.1f}s")


def test_criterion_02_erratum_witnesses():
    t0 = time.monotonic()
    T2 = parse_poly(F2, "T^2")
    diff = moment2_formula(T2, "theorem_statement") - moment2_moebius_exact(T2)
    ok = diff == QSqrt(2, Fraction(-3, 4), 0)
    Q = parse_poly(F2, "T^2+T+1")
    brute = moment2_chars(Q) / phi(Q)
    ok &= abs(moment2_tamam_prime(Q, "plus").to_float() - brute) > 3.0
    minus = moment2_tamam_prime(Q, "minus")
    ok &= minus == QSqrt(2, 1, Fraction(-2, 3))
    ok &= abs(minus.to_float() - brute) <= 1e-9 * abs(brute)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _verdict("criterion 2: erratum witnesses", ok, f"{elapsed:.2f}s")


def test_criterion_03_tamam_exact_all_primes():
    t0 = time.monotonic()
    ok = True
    count = 0
    for F, dmax in ((F2, 6), (F3, 4)):
        for d in range(1, dmax + 1):
            for Q in enumerate_primes(F, d):
                count += 1
                exact = moment2_tamam_prime(Q, "minus")
                ok &= (exact == moment2_tamam_orthogonality(Q))
                avg = moment2_chars(Q) / phi(Q)
                exf = exact.to_float()
                ok &= abs(avg - exf) <= 1e-9 * max(abs(avg), abs(exf), 1e-12)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    assert _verdict("criterion 3: corrected Tamam second moment", ok,
                    f"{count} prime moduli, {elapsed:.1f}s")


def test_criterion_04_phi_star_counts():
    t0 = time.monotonic()
    ok = True
    count = 0
    for F, dmax in ((F2, 6), (F3, 6)):
        for d in range(0, dmax + 1):
            for R in enumerate_monic(F, d):
                g = UnitGroup(R)
                mask = primitive_mask(g)
                direct = int(mask.sum()) if mask.shape else int(mask)
                ok &= (direct == phi_star(R))
                count += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    assert _verdict("criterion 4: phi* equals direct primitive count", ok,
                    f"{count} moduli, {elapsed:.1f}s")


def test_criterion_05_orthogonality():
    t0 = time.monotonic()
    ok = True
    for F in (F2, F3, F4):
        for d in range(0, 5):
            for R in enumerate_monic(F, d):
                g = UnitGroup(R)
                if not g.dims:
                    continue
                q = F.q
                X = np.array([g.dlog_code(u) for u in g.unit_codes], dtype=np.int64)
                dims = np.array(g.dims, dtype=np.int64)
                L = g.lcm_order
                K = np.array(list(itertools.product(*(range(dd) for dd in g.dims))),
                             dtype=np.int64)
                P = (K * (L // dims)) @ X.T % L
                M = np.exp(2j * np.pi * P / L)
                orth = M.T @ M.conj()
                expected = np.where(np.eye(g.phi, dtype=bool), float(g.phi), 0.0)
                ok &= float(np.abs(orth - expected).max()) <= 1e-8 * g.phi
                # even-character relation
                consts = {g.dlog_code(c) for c in range(1, q)} - {None}
                diffs = (X[:, None, :] - X[None, :, :]) % dims
                const_pair = np.zeros((g.phi, g.phi), dtype=bool)
                for vec in consts:
                    const_pair |= np.all(diffs == np.array(vec), axis=2)
                em = even_mask(g).reshape(-1)
                Me = M[em]
                orth_e = Me.T @ Me.conj()
                expected_e = np.where(const_pair, g.phi / (q - 1), 0.0)
                ok &= float(np.abs(orth_e - expected_e).max()) <= 1e-8 * g.phi
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 5: orthogonality relations", ok, f"{elapsed:.1f}s")


def _fe_grid_stats():
    """Residual / |W| extrema over all primitive characters, deg R <= 5, q in {2,3}."""
    worst_res = 0.0
    worst_w = 0.0
    worst_w_deg1_odd = 0.0
    worst_pair = 0.0
    spot = 0
    for F, dmax in ((F2, 5), (F3, 5)):
        q = F.q
        for d in range(1, dmax + 1):
            for R in enumerate_monic(F, d):
                g = unit_group(R)
                table = l_coeff_table(g)
                pm = primitive_mask(g)
                em = even_mask(g)
                if not g.dims:
                    continue
                for kvec in itertools.product(*(range(dd) for dd in g.dims)):
                    if not pm[kvec]:
                        continue
                    conj_kv = tuple((-k) % dd for k, dd in zip(kvec, g.dims))
                    L = [complex(table[n][kvec]) for n in range(d)]
                    Lc = [complex(table[n][conj_kv]) for n in range(d)]
                    even = bool(em[kvec])
                    w, res = fe_from_coeffs(q, d, L, Lc, even)
                    worst_res = max(worst_res, res)
                    worst_w = max(worst_w, abs(abs(w) - 1))
                    if d == 1 and not even:
                        worst_w_deg1_odd = max(worst_w_deg1_odd, abs(w - 1))
                    # short-sum identity (criterion 7), same grid; tolerance is
                    # 1e-9 relative with a 1e-12 absolute floor because genuine
                    # central zeros occur on the grid (see decisions ledger)
                    Lp = tuple(L) + (0j,)
                    hs = half_sum_sq_from_coeffs(q, d, Lp, even)
                    lv = sum(L[n] * q ** (-n / 2) for n in range(d))
                    le2 = abs(lv) ** 2
                    margin = abs(hs - le2) - (1e-9 * max(abs(hs), le2) + 1e-12)
                    worst_pair = max(worst_pair, margin)
                    spot += 1
                    if spot % 997 == 0:
                        # spot-check the shipped per-character operation
                        from ffl.chargroup import DirichletChar
                        chi = DirichletChar(g, kvec)
                        rn = root_number(chi)
                        assert abs(rn.value - w) < 1e-9
    return worst_res, worst_w, worst_w_deg1_odd, worst_pair


FE_STATS = {}


def test_criterion_06_functional_equations():
    t0 = time.monotonic()
    worst_res, worst_w, worst_w1, worst_pair = _fe_grid_stats()
    FE_STATS["pair"] = worst_pair
    ok = worst_res < 1e-9 and worst_w < 1e-9 and worst_w1 < 1e-12
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 6: functional equations", ok,
                    f"residual {worst_res:.2e}, ||W|-1| {worst_w:.2e}, "
                    f"deg-1 odd |W-1| {worst_w1:.2e}, {elapsed:.1f}s")


def test_criterion_07_short_sum_identity():
    t0 = time.monotonic()
    if "pair" not in FE_STATS:
        FE_STATS["pair"] = _fe_grid_stats()[3]
    ok = FE_STATS["pair"] <= 0.0
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 7: |L(1/2)|^2 = 2*sum + c(chi)", ok,
                    f"worst tolerance margin {FE_STATS['pair']:.2e}, {elapsed:.1f}s")


def test_criterion_08_two_omega_and_musq():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5):
        for x in range(0, 13):
            ok &= (two_omega_sum(q, x) == two_omega_closed_form(q, x))
    for q in (2, 3):
        for x in range(0, 13):
            ok &= (musq_phi_sum(q, x) >= x)
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 8: 2^omega closed form and mu^2/phi lower bound",
                    ok, f"{elapsed:.1f}s")


def test_criterion_09_prime_counts():
    t0 = time.monotonic()
    ok = True
    for F, nmax in ((F2, 12), (F3, 8)):
        q = F.q
        for n in range(1, nmax + 1):
            cnt = len(enumerate_primes(F, n))
            ok &= (cnt == count_primes_exact(F, n))
            ok &= abs(cnt - q ** n / n) <= 3 * q ** (n / 2) / n
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 9: prime counts vs necklace oracle + PPT band",
                    ok, f"{elapsed:.1f}s")


def test_criterion_10_fourth_moment():
    t0 = time.monotonic()
    ok = True
    for F, dmax in ((F2, 5), (F3, 5)):
        for d in range(1, dmax + 1):
            for R in enumerate_monic(F, d):
                ex = moment4_moebius_exact(R).to_float()
                ch = moment4_chars(R)
                scale = max(abs(ex), abs(ch))
                ok &= (scale == 0 or abs(ex - ch) <= 1e-6 * scale)
    ratios = {}
    for n in (8, 10, 12, 14):
        R = monomial(F2, n)
        ratios[n] = moment4_chars(R) / moment4_main_term(R)
    ok &= 0.4 <= ratios[14] <= 2.5
    ok &= abs(math.log(ratios[14])) < abs(math.log(ratios[8]))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600
    assert _verdict("criterion 10: fourth moment dual paths + main-term trend",
                    ok, "ratios " + ", ".join(f"n={n}: {r:.3f}"
                                              for n, r in ratios.items())
                    + f", {elapsed:.1f}s")


def test_criterion_11_weighted_two_omega():
    t0 = time.monotonic()
    rep = weighted_two_omega_sum(monomial(F2, 20))
    ok = 0.6 <= rep.ratio <= 1.4
    for F, dmax in ((F2, 5), (F3, 4)):
        for d in range(1, dmax + 1):
            for R in enumerate_monic(F, d):
                zint = z_cut_int(R)
                ok &= (diagonal_param_sum(R, zint)
                       == diagonal_quadruple_sum(R, zint))
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 11: weighted 2^omega main term + dual identity",
                    ok, f"T^20 ratio {rep.ratio:.4f}, {elapsed:.1f}s")


def test_criterion_12_probe_bands():
    t0 = time.monotonic()
    ok = True
    maxima = []

    bt_max = 0.0
    for F in (F2, F3):
        q = F.q
        for dx in ((4, 6) if q == 2 else (3, 4)):
            X = monomial(F, dx)
            for y in (dx - 1, dx):
                for G in [one(F), t_gen(F)]:
                    if G.deg >= 0.75 * y:
                        continue
                    A = one(F)
                    rep = bt_sum(X, y, A, G)
                    bt_max = max(bt_max, rep.ratio)
                    ok &= rep.ratio <= 50
                    for a in range(1, q):
                        rep_eq = bt_sum_eq(X, y, A, G, a)
                        if rep_eq.ratio is not None:
                            bt_max = max(bt_max, rep_eq.ratio)
                            ok &= rep_eq.ratio <= 50
    maxima.append(("bt_sum_ratio", bt_max, 50.0))

    selberg_max_c = 0.0
    for F in (F2, F3):
        q = F.q
        dx = 6 if q == 2 else 4
        X = monomial(F, dx)
        for y in (dx - 1, dx):
            for K in [one(F), t_gen(F)]:
                for z in (1, 2):
                    if K.deg + z > y:
                        continue
                    A = one(F)
                    rep = selberg_sifted_count(X, y, K, A, z)
                    selberg_max_c = max(selberg_max_c, rep.empirical_const)
                    ok &= rep.lhs <= rep.rhs + 20 * q ** (2 * z)
    maxima.append(("selberg_empirical_C", selberg_max_c, 20.0))

    harm_max = 0.0
    for F, dmax in ((F2, 6), (F3, 6)):
        for d in range(0, dmax + 1):
            for R in enumerate_monic(F, d):
                for x in range(0, 13):
                    rep = coprime_harmonic(R, x)
                    slack = rep.extra["deviation"] - rep.extra["allowance"]
                    harm_max = max(harm_max, rep.extra["deviation"]
                                   / max(rep.extra["allowance"], 1e-12))
                    ok &= slack <= 0
    maxima.append(("coprime_harmonic_dev_over_allowance", harm_max, 1.0))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "probe_maxima.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "empirical_max", "band"])
        for row in maxima:
            w.writerow([row[0], f"{row[1]:.6g}", row[2]])
    elapsed = time.monotonic() - t0
    assert _verdict("criterion 12: probe bands on frozen grids", ok,
                    "; ".join(f"{n}={v:.3g}" for n, v, _ in maxima)
                    + f", CSV at {path}, {elapsed:.1f}s")
