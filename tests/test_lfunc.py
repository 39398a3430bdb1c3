import math

import numpy as np
import pytest

from ffl.chargroup import characters, unit_group
from ffl.errors import PreconditionError
from ffl.gf import field_make
from ffl.lfunc import (c_term, half_sum_sq, l_coeff_table, l_coeffs, l_eval,
                       l_half_table, l_trivial, m_coeffs, root_number, zeta_a)
from ffl.polyring import enumerate_monic, from_code, one, parse_poly, t_gen
from ffl.sieveprobe import coprime_harmonic_exact

F2 = field_make(2)
F3 = field_make(3)

SQ2 = math.sqrt(2)


def P2(s):
    return parse_poly(F2, s)


def primitive_chars(R):
    return [c for c in characters(R) if c.is_primitive() and not c.is_trivial()]


def test_l_coeffs_examples():
    chi = characters(P2("T^2"))[1]
    L = l_coeffs(chi).coeffs
    assert abs(L[0] - 1) < 1e-12 and abs(L[1] + 1) < 1e-12
    chi_p = characters(P2("T^2+T+1"))[1]
    L = l_coeffs(chi_p).coeffs
    assert abs(L[1] + 1) < 1e-12           # omega + omega^2 = -1
    for R in (P2("T^3"), parse_poly(F3, "T^2+1")):
        for c in characters(R):
            if not c.is_trivial():
                assert abs(l_coeffs(c).coeffs[0] - 1) < 1e-12


def test_top_coefficient_vanishes():
    # L_{deg R}(chi) = 0 for nontrivial chi: the finite-polynomial property.
    # A monic A of degree deg R reduces to A - R, whose code chi reads
    for F in (F2, F3):
        for d in range(1, 5):
            for R in enumerate_monic(F, d):
                reduced = [(from_code(F, code) - R).code
                           for code in range(F.q ** d, 2 * F.q ** d)]
                for c in characters(R):
                    if c.is_trivial():
                        continue
                    top = sum(c.value_code(code) for code in reduced)
                    assert abs(top) < 1e-9


def test_top_coefficient_vanishes_bulk_full_grid():
    # same property at full scale (deg R <= 5, q in {2,3,4}) through the
    # all-characters transform: monic A of degree deg R reduce to A - R, so
    # the top coefficient grid is the unit indicator and its transform is
    # phi(R) at the trivial character and 0 elsewhere
    F4 = field_make(2, 2)
    for F, dmax in ((F2, 5), (F3, 5), (F4, 5)):
        for d in range(1, dmax + 1):
            for R in enumerate_monic(F, d):
                g = unit_group(R)
                if not g.dims:
                    continue
                grid = np.zeros(g.dims)
                flat = grid.reshape(-1)
                for code in g.unit_codes:
                    flat[g.code_index[code]] += 1.0
                top = np.fft.ifftn(grid) * g.phi
                top.reshape(-1)[0] -= g.phi   # remove the trivial character
                assert float(np.abs(top).max()) < 1e-9, (F.q, R)


def test_root_numbers_extension_field():
    F4 = field_make(2, 2)
    for d in range(1, 4):
        for R in enumerate_monic(F4, d):
            for c in characters(R):
                if c.is_trivial() or not c.is_primitive():
                    continue
                rn = root_number(c)
                assert abs(abs(rn.value) - 1) < 1e-9
                assert rn.consistency_residual < 1e-9
                hs = half_sum_sq(c)
                le2 = abs(l_eval(c, 0.5)) ** 2
                assert abs(hs - le2) <= 1e-9 * max(abs(hs), le2) + 1e-12


def test_l_eval_examples():
    chi = characters(P2("T^2"))[1]
    assert abs(l_eval(chi, 0.5) - (1 - 1 / SQ2)) < 1e-12
    for c in primitive_chars(P2("T^3")):
        assert abs(abs(l_eval(c, 0.5)) ** 2 - (1 - 1 / SQ2)) < 1e-12
    with pytest.raises(PreconditionError):
        l_eval(characters(P2("T^2"))[0], 0.5)


def test_zeta_and_trivial():
    assert abs(zeta_a(2, 2) - 2) < 1e-15
    assert abs(l_trivial(2, one(F2)) - zeta_a(2, 2)) < 1e-15
    assert abs(l_trivial(2, t_gen(F2)) - 1.5) < 1e-15
    with pytest.raises(PreconditionError):
        zeta_a(2, 1)


def test_m_coeffs():
    chi = characters(P2("T^2"))[1]
    M = m_coeffs(chi)
    assert abs(M[0] + 1) < 1e-12
    assert abs(M[1] - 3) < 1e-12
    assert abs(M[2] + 2) < 1e-12
    # M_0 = -1 and M_degR = q L_{degR-1} in general
    for R in (P2("T^4"), parse_poly(F3, "T^3")):
        for c in primitive_chars(R):
            if not c.is_even():
                continue
            M = m_coeffs(c)
            L = l_coeffs(c).coeffs
            assert abs(M[0] + 1) < 1e-12
            assert abs(M[-1] - R.field.q * L[-1]) < 1e-12
    odd_chi = next(c for c in characters(parse_poly(F3, "T^2"))
                   if c.is_primitive() and not c.is_even())
    with pytest.raises(PreconditionError):
        m_coeffs(odd_chi)


def test_root_number_examples():
    for c in characters(t_gen(F3)):
        if c.is_primitive() and not c.is_even():
            rn = root_number(c)
            assert abs(rn.value - 1) < 1e-12
            assert rn.consistency_residual < 1e-12
    for R in (P2("T^2"), P2("T^3"), parse_poly(F3, "T^2"), P2("T^2+T+1")):
        for c in primitive_chars(R):
            rn = root_number(c)
            assert abs(abs(rn.value) - 1) < 1e-9
            assert rn.consistency_residual < 1e-9
            rnc = root_number(c.conj())
            assert abs(rnc.value - rn.value.conjugate()) < 1e-9
    with pytest.raises(PreconditionError):
        root_number(characters(P2("T^3"))[0])


def test_c_term_and_half_sum():
    chi = characters(P2("T^2"))[1]
    assert abs(half_sum_sq(chi) - (1 - 1 / SQ2) ** 2) < 1e-12
    for c in primitive_chars(P2("T^3")):
        assert abs(half_sum_sq(c) - (1 - 1 / SQ2)) < 1e-12
        assert abs(half_sum_sq(c).imag) < 1e-10
    # deg R = 1 odd: c_o = -1 (only the A = B = 1 pair)
    for c in characters(t_gen(F3)):
        if c.is_primitive() and not c.is_even():
            assert abs(c_term(c) + 1) < 1e-12
    # conjugation: c(conj chi) = conj c(chi)
    for c in primitive_chars(parse_poly(F3, "T^2")):
        assert abs(c_term(c.conj()) - c_term(c).conjugate()) < 1e-10


def test_half_sum_matches_l_eval_grid():
    for F in (F2, F3):
        for d in range(1, 5):
            for R in enumerate_monic(F, d):
                for c in primitive_chars(R):
                    hs = half_sum_sq(c)
                    le2 = abs(l_eval(c, 0.5)) ** 2
                    assert abs(hs - le2) <= 1e-9 * max(abs(hs), le2) + 1e-12
                    assert abs(hs.imag) < 1e-10


def test_orthogonality_collapse():
    # sum over ALL chi of |finite half-sum|^2 = phi(R) * coprime harmonic sum
    for R in (P2("T^3"), P2("T^4"), parse_poly(F3, "T^2"), P2("T^2+T+1"),
              parse_poly(F3, "T^2+1"), P2("T^2") * P2("T+1")):
        g = unit_group(R)
        table = l_half_table(g)
        lhs = float(np.sum(np.abs(np.asarray(table)) ** 2))
        rhs = g.phi * float(coprime_harmonic_exact(R, R.deg - 1))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_bulk_table_matches_direct():
    for R in (P2("T^3"), P2("T^2+T+1"), parse_poly(F3, "T^2+1"),
              parse_poly(F3, "T^3")):
        g = unit_group(R)
        tab = l_coeff_table(g)
        for c in characters(R):
            if c.is_trivial():
                continue
            direct = l_coeffs(c).coeffs
            for n in range(R.deg):
                bulk = tab[n][c.kvec] if g.dims else complex(tab[n])
                assert abs(bulk - direct[n]) < 1e-9
