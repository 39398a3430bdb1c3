import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ffl.chargroup import (DirichletChar, UnitGroup, characters, conj_grid,
                           even_mask, group_convolve, primitive_mask,
                           primitive_pair_sum, trivial_grid, unit_group)
from ffl.errors import BudgetError, PreconditionError
from ffl.gf import field_make, field_of_order
from ffl.multfun import divisors, phi, phi_star
from ffl.polyring import (enumerate_monic, from_code, one, parse_poly, poly_gcd,
                          powmod, t_gen, to_pretty, zero)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)


def P2(s):
    return parse_poly(F2, s)


def test_unit_group_examples():
    g = unit_group(P2("T^2"))
    assert g.unit_codes.tolist() == [1, 3]          # {1, 1+T}
    assert g.orders == (2,)
    assert from_code(F2, g.gens[0]) == P2("T+1")
    g3 = unit_group(P2("T^3"))
    assert g3.phi == 4 and g3.orders == (4,)
    assert from_code(F2, g3.gens[0]) == P2("T+1")
    g1 = unit_group(one(F2))
    assert g1.phi == 1 and g1.dims == ()
    for shared in (g.unit_codes, g.code_index, g.kernel_codes(P2("T"))):
        with pytest.raises(ValueError):    # cached groups are shared, so read-only
            shared[0] = 5


def mulmod(R, u, v):
    """Product of two residue codes mod R, by Poly arithmetic."""
    F = R.field
    return ((from_code(F, u) * from_code(F, v)) % R).code


def invmod(R, u):
    return powmod(from_code(R.field, u), phi(R) - 1, R).code


def test_unit_group_budget():
    with pytest.raises(BudgetError):
        UnitGroup(P2("T^8"), budget=10)


def test_unit_group_built_once_and_budget_checked(monkeypatch):
    R = P2("T^6+T")
    assert unit_group(R) is unit_group(R, None) is unit_group(R, budget=phi(R))
    with pytest.raises(BudgetError):      # cached, and still refused
        unit_group(R, budget=10)
    # extension fields multiply through q x q tables, counted against FFL_MAX_TABLE
    R4 = parse_poly(F4, "[0,0,1]")
    assert unit_group(R4).phi == 12
    monkeypatch.setenv("FFL_MAX_TABLE", "15")
    with pytest.raises(BudgetError):
        unit_group(R4)
    with pytest.raises(BudgetError):
        UnitGroup(R4)
    assert unit_group(R) is unit_group(R, None)      # prime fields need no tables


def test_dlog_additivity_exhaustive():
    mods = [P2("T^2"), P2("T^3"), P2("T^4"), P2("T^2+T+1"), P2("T^3+T+1"),
            P2("T^2") * P2("T+1"), P2("T^2") * P2("T^2+T+1"),
            parse_poly(F3, "T^2"), parse_poly(F3, "T^3"),
            parse_poly(F3, "T^2+1") * t_gen(F3), parse_poly(F4, "[0,0,1]")]
    for R in mods:
        g = unit_group(R)
        assert int((g.code_index >= 0).sum()) == g.phi == phi(R)
        prod_orders = 1
        for d in g.orders:
            prod_orders *= d
        assert prod_orders == g.phi
        for u in g.unit_codes:
            for v in g.unit_codes:
                du, dv = g.dlog_code(u), g.dlog_code(v)
                dp = g.dlog_code(mulmod(R, u, v))
                assert all((x + y) % d == z
                           for x, y, z, d in zip(du, dv, dp, g.dims))


def test_characters_count_and_indexing():
    assert len(characters(P2("T^2"))) == 2
    chs = characters(P2("T^2+T+1"))
    assert len(chs) == 3
    assert chs[0].is_trivial()
    vals = sorted(round(c.value(t_gen(F2)).real, 6) for c in chs[1:])
    assert vals == [-0.5, -0.5]            # the two cube roots of unity
    assert len(characters(one(F2))) == 1
    assert characters(one(F2))[0].value(zero(F2)) == 1


def test_multiplicativity_and_conj():
    for R in (P2("T^3"), parse_poly(F3, "T^2"), P2("T^2+T+1")):
        g = unit_group(R)
        for chi in characters(R):
            for u in g.unit_codes:
                for v in g.unit_codes:
                    lhs = chi.value_code(mulmod(R, u, v))
                    rhs = chi.value_code(u) * chi.value_code(v)
                    assert abs(lhs - rhs) < 1e-12
                # chi(A^{-1}) = conj chi(A)
                inv = invmod(R, u)
                assert abs(chi.value_code(inv) - chi.value_code(u).conjugate()) < 1e-12


def test_parity():
    assert all(c.is_even() for c in characters(P2("T^3")))
    R = parse_poly(F3, "T^2")
    chs = characters(R)
    odd = [c for c in chs if not c.is_even()]
    even = [c for c in chs if c.is_even()]
    assert len(even) == phi(R) // (F3.q - 1)
    two = parse_poly(F3, "2")
    for c in odd:
        assert abs(c.value(two) - 1) > 1e-9
    for c in even:
        assert abs(c.value(two) - 1) < 1e-12
    assert chs[0].is_even()
    # even characters form a subgroup of index q-1 across a grid
    for R in (parse_poly(F3, "T^3"), parse_poly(F4, "[0,0,1]"), parse_poly(F3, "T^2+1")):
        chs = characters(R)
        n_even = sum(1 for c in chs if c.is_even())
        assert n_even == phi(R) // (R.field.q - 1)


def test_conductor_and_primitivity_examples():
    chi = characters(P2("T^2"))[1]
    assert chi.is_primitive() and chi.conductor() == P2("T^2")
    # order-2 character mod T^3 is induced from T^2
    for c in characters(P2("T^3")):
        t = c.phase_numerator(P2("T+1"))
        if t is not None and not c.is_trivial() and t * 2 == c.group.lcm_order:
            assert c.conductor() == P2("T^2")
            assert not c.is_primitive()
    # trivial character mod R != 1 has conductor 1
    for R in (P2("T^3"), parse_poly(F3, "T^2+1")):
        chi0 = characters(R)[0]
        assert chi0.conductor() == one(R.field)
        assert not chi0.is_primitive()
    assert characters(one(F2))[0].is_primitive()


def test_primitive_count_matches_phi_star():
    for F in (F2, F3):
        maxd = 5 if F.q == 2 else 4
        for d in range(0, maxd + 1):
            for R in enumerate_monic(F, d):
                g = unit_group(R)
                mask = primitive_mask(g)
                cnt = int(mask.sum()) if mask.shape else int(mask)
                assert cnt == phi_star(R), (F.q, to_pretty(R))
                direct = sum(1 for c in characters(R) if c.is_primitive())
                assert direct == cnt


def test_primitive_pair_sum_examples():
    R = P2("T^2")
    assert primitive_pair_sum(one(F2), one(F2), R) == phi_star(R) == 1
    assert primitive_pair_sum(P2("T+1"), one(F2), R) == -1
    assert primitive_pair_sum(t_gen(F2), one(F2), R) == 0
    assert primitive_pair_sum(one(F3), one(F3), parse_poly(F3, "T^2")) == \
        phi_star(parse_poly(F3, "T^2"))


def test_primitive_pair_sum_vs_direct():
    for R in (P2("T^2"), P2("T^3"), P2("T^2+T+1"), parse_poly(F3, "T^2"),
              P2("T^2") * P2("T+1")):
        g = unit_group(R)
        chs = [c for c in characters(R) if c.is_primitive()]
        for a_code in g.unit_codes[:12].tolist():
            for b_code in g.unit_codes[:12].tolist():
                A = from_code(R.field, a_code)
                B = from_code(R.field, b_code)
                direct = sum(c.value(A) * c.value(B).conjugate() for c in chs)
                exact = primitive_pair_sum(A, B, R)
                assert abs(direct - exact) < 1e-8


def test_orthogonality_small():
    # full relation on a small grid; the acceptance suite runs the full grid
    for R in (P2("T^3"), parse_poly(F3, "T^2"), parse_poly(F4, "[0,0,1]")):
        g = unit_group(R)
        q = R.field.q
        chs = characters(R)
        M = np.array([[c.value_code(u) for u in g.unit_codes] for c in chs])
        orth = M.T @ M.conj()
        for i, u in enumerate(g.unit_codes):
            for j, v in enumerate(g.unit_codes):
                expected = g.phi if u == v else 0
                assert abs(orth[i, j] - expected) <= 1e-8 * g.phi
        emask = np.array([c.is_even() for c in chs])
        Me = M[emask]
        orth_e = Me.T @ Me.conj()
        for i, u in enumerate(g.unit_codes):
            for j, v in enumerate(g.unit_codes):
                w = mulmod(R, u, invmod(R, v))
                is_const = w < q
                expected = g.phi / (q - 1) if is_const else 0
                assert abs(orth_e[i, j] - expected) <= 1e-8 * g.phi


def test_masks_match_scalar_predicates():
    for R in (P2("T^3"), parse_poly(F3, "T^3"), parse_poly(F3, "T^2+1")):
        g = unit_group(R)
        pm = primitive_mask(g)
        em = even_mask(g)
        for c in characters(R):
            assert bool(pm[c.kvec]) == c.is_primitive()
            assert bool(em[c.kvec]) == c.is_even()


def test_kvec_stability():
    # external identification (modulus, kvec) must be stable across constructions
    R = parse_poly(F3, "T^2")
    a = UnitGroup(R)
    b = UnitGroup(R)
    assert a.gens == b.gens and a.orders == b.orders
    assert np.array_equal(a.code_index, b.code_index)


def test_dlog_additivity_large_group_exhaustive():
    # ~10^3-unit group.  dlog is a bijection onto the exponent grid with
    # dlog(1) = 0, so dlog(u g_j) = dlog(u) + e_j for every unit u and every
    # generator g_j is equivalent to additivity over all pairs.
    R = parse_poly(F2, "[" + "0," * 11 + "1]")     # T^11
    g = UnitGroup(R)
    assert g.phi == 1024
    assert np.flatnonzero(g.code_index >= 0).tolist() == g.unit_codes.tolist()
    assert len({g.dlog_code(u) for u in g.unit_codes}) == g.phi
    assert g.dlog_code(g.identity) == (0,) * len(g.dims)
    for j, gj in enumerate(g.gens):
        for u in g.unit_codes:
            expected = list(g.dlog_code(u))
            expected[j] = (expected[j] + 1) % g.dims[j]
            assert g.dlog_code(mulmod(R, u, gj)) == tuple(expected)


def test_unit_group_golden():
    # the frozen greedy basis: (gens, orders) per modulus, see data/make_unit_group_golden.py
    golden = json.loads((Path(__file__).parent / "data" / "unit_group_golden.json").read_text())
    assert len(golden) == 1413
    for q, code, gens, orders in golden:
        g = UnitGroup(from_code(field_of_order(q), code))
        assert (list(g.gens), list(g.orders)) == (gens, orders), (q, code)


def test_group_convolve_matches_direct_sum():
    rng = np.random.default_rng(5)
    for shape in ((7,), (4, 6), (2, 3, 4)):
        a = rng.integers(-5, 6, size=shape) * (rng.random(shape) < 0.6)
        b = rng.integers(-5, 6, size=shape)
        direct = np.zeros(shape, dtype=np.int64)
        for u in np.ndindex(*shape):
            for x in np.ndindex(*shape):
                y = tuple((ui - xi) % d for ui, xi, d in zip(u, x, shape))
                direct[u] += a[x] * b[y]
        assert np.array_equal(group_convolve(a, b), direct), shape
        impulse = np.zeros(shape, dtype=np.int64)
        impulse[(0,) * len(shape)] = 1
        assert np.array_equal(group_convolve(impulse, b), b)
        assert np.array_equal(group_convolve(b, impulse), b)


def test_residue_and_kernel_codes_match_poly_arithmetic():
    for R in (P2("T^6+T^3"), parse_poly(F3, "T^4+T^2"), from_code(F4, 4 ** 3 + 2 * 4 + 3),
              parse_poly(field_of_order(9), "q=9;[0,0,1]")):
        g = unit_group(R)
        units = [from_code(R.field, u) for u in g.unit_codes]
        for S in divisors(R):
            expected = [(u % S).code for u in units]
            assert g.residue_codes(S).tolist() == expected, (R, S)
            kernel = [c for c, u in zip(g.unit_codes.tolist(), units) if (u % S).is_one()]
            assert g.kernel_codes(S).tolist() == (kernel if S.deg else g.unit_codes.tolist())


def test_character_kvec_length_checked_before_reduction():
    g = unit_group(P2("T^3"))
    assert g.dims == (4,)
    assert DirichletChar(g, (5,)).kvec == (1,)
    for bad in ((1, 1, 7, 9), (), (1, 0)):
        with pytest.raises(PreconditionError):
            DirichletChar(g, bad)


def test_trivial_grids_match_phase_grid_loop():
    # the DFT test behind the masks and the conductor grid, against the AND of
    # one phase grid per subgroup element: every kernel of reduction mod a
    # divisor, and the nonzero constants
    grid = {2: 6, 3: 4, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}
    for q, maxdeg in grid.items():
        F = field_of_order(q)
        for d in range(1, maxdeg + 1):
            for R in enumerate_monic(F, d):
                g = unit_group(R)
                if not g.dims:
                    continue
                for codes in [g.kernel_codes(S) for S in divisors(R)] + [range(1, q)]:
                    want = np.ones(g.dims, dtype=bool)
                    for code in codes:
                        want &= g.phase_grid(code) == 0
                    assert np.array_equal(trivial_grid(g, codes), want), (q, R.code)


def test_index_grids_match_per_code():
    # code_index against Poly arithmetic code by code: -1 exactly at the
    # codes sharing a factor with R, and at a unit u the dlog x of
    # dlog_code(u) rebuilds u as prod g_j^{x_j} mod R; conj_grid against
    # DirichletChar.conj character by character; phi(R) = 1 groups included
    for q, maxdeg in {2: 5, 3: 3, 4: 2, 9: 2}.items():
        F = field_of_order(q)
        for d in range(maxdeg + 1):
            for R in enumerate_monic(F, d):
                g = unit_group(R)
                gens = [from_code(F, c) for c in g.gens]
                for code in range(q ** d):
                    A = from_code(F, code)
                    is_unit = poly_gcd(A, R).deg == 0
                    assert (g.code_index[code] >= 0) == is_unit, (q, R.code, code)
                    if not is_unit:
                        assert g.dlog_code(code) is None
                        continue
                    rebuilt = one(F)
                    for gj, xj in zip(gens, g.dlog_code(code)):
                        rebuilt = (rebuilt * powmod(gj, xj, R)) % R
                    assert (rebuilt % R) == A, (q, R.code, code)
                chars = characters(R)
                conj = conj_grid(g).reshape(-1)
                assert [chars[k] for k in conj] == [chi.conj() for chi in chars], (q, R.code)


def test_unit_group_memory_per_unit():
    # a built group keeps no per-unit Python objects: code_index (8 bytes per
    # residue code, two codes per unit here) and the unit codes (8 bytes per unit)
    R = parse_poly(F2, "T^12")
    UnitGroup(R)                       # warm the field, factor and module caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = UnitGroup(R)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.phi == 2048 and g.code_index.size == 2 * g.phi
    assert retained / g.phi <= 64, retained / g.phi


def test_value_code_refuses_codes_outside_residues():
    R = P2("T^3")
    g = unit_group(R)
    chi = characters(R)[1]
    assert chi.value_code(0) == 0j and g.dlog_code(2) is None      # 0 and T
    assert chi.value_code(7) != 0j
    for bad in (-1, -8, 8, 9, 1 << 40):
        with pytest.raises(PreconditionError):
            chi.value_code(bad)
        with pytest.raises(PreconditionError):
            g.dlog_code(bad)
