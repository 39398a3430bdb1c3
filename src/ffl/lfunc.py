"""Dirichlet L-functions over F_q[T]: coefficient vectors, point evaluation,
zeta and trivial-character closed forms, functional equations / root numbers,
and the short-sum decomposition of |L(1/2, chi)|^2 with its boundary term."""

import math
from dataclasses import dataclass

import numpy as np

from .chargroup import DirichletChar, UnitGroup, conj_grid
from .errors import PreconditionError
from .polyring import Poly, factor


@dataclass(frozen=True)
class LCoeffs:
    """coeffs[n] = L_n(chi) = sum over monic A of degree n of chi(A), n < deg R."""
    char: DirichletChar
    coeffs: tuple

    def padded(self):
        """Coefficients through n = deg R; the top one vanishes for nontrivial chi."""
        return self.coeffs + (0j,)


def l_coeffs(chi: DirichletChar) -> LCoeffs:
    if chi.is_trivial() and chi.modulus.deg > 0:
        raise PreconditionError("trivial character: use l_trivial")
    if chi.modulus.deg == 0:
        raise PreconditionError("modulus 1 has no nontrivial characters")
    g = chi.group
    q = g.field.q
    out = []
    for n in range(chi.modulus.deg):
        acc = 0j
        for code in range(q ** n, 2 * q ** n):
            acc += chi.value_code(code)
        out.append(acc)
    return LCoeffs(chi, tuple(out))


def l_eval(chi: DirichletChar, s) -> complex:
    """L(s, chi) = sum_n L_n(chi) q^{-ns} for nontrivial chi (finite sum)."""
    q = chi.group.field.q
    coeffs = l_coeffs(chi).coeffs
    x = q ** (-complex(s))
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def zeta_a(q: int, s) -> complex:
    """zeta_A(s) = 1/(1 - q^{1-s}); simple pole at s = 1."""
    den = 1 - q ** (1 - complex(s))
    if den == 0:
        raise PreconditionError("zeta_A has a pole at s = 1")
    return 1 / den


def l_trivial(s, R: Poly) -> complex:
    """L(s, chi_0 mod R) = zeta_A(s) * prod_{P | R} (1 - |P|^{-s})."""
    q = R.field.q
    value = zeta_a(q, s)
    for p, _ in factor(R):
        value *= 1 - p.norm() ** (-complex(s))
    return value


def m_coeffs(chi: DirichletChar):
    """M_i = q L_{i-1} - L_i for i = 0..deg R, with L_{-1} = L_{deg R} = 0 (even chi)."""
    if not chi.is_primitive():
        raise PreconditionError("M coefficients are defined for primitive characters")
    if chi.modulus.deg == 0:
        raise PreconditionError("modulus 1 excluded")
    if not chi.is_even():
        raise PreconditionError("M coefficients apply to even characters")
    q = chi.group.field.q
    L = l_coeffs(chi).padded()
    out = []
    for i in range(chi.modulus.deg + 1):
        prev = L[i - 1] if i >= 1 else 0j
        out.append(q * prev - L[i])
    return tuple(out)


@dataclass(frozen=True)
class RootNumber:
    value: complex
    parity: str                  # "even" | "odd"
    consistency_residual: float  # max deviation across the coefficient relations


def _extract_ratio(lhs, rhs):
    """Unimodular W fitted from paired coefficient lists, plus the max residual."""
    best, best_mag = None, 0.0
    for a, b in zip(lhs, rhs):
        mag = abs(a) * abs(b)
        if mag > best_mag:
            best_mag = mag
            best = a / b
    if best is None:
        raise PreconditionError("all coefficients vanish; no root number to extract")
    residual = 0.0
    for a, b in zip(lhs, rhs):
        if abs(a) < 1e-12 and abs(b) < 1e-12:
            continue
        residual = max(residual, abs(a - best * b))
    return best, residual


def fe_from_coeffs(q: int, n: int, L, Lc, even: bool):
    """(W, residual) from coefficient vectors of chi and conj chi (length n each).

    Odd chi:  L_i(chi) = W q^{i - (n-1)/2} L_{n-1-i}(conj chi).
    Even chi: M_i(chi) = -W q^{i - n/2} M_{n-i}(conj chi), M_i = q L_{i-1} - L_i.
    """
    if even:
        Lp = tuple(L) + (0j,)
        Lcp = tuple(Lc) + (0j,)
        M = [q * (Lp[i - 1] if i >= 1 else 0j) - Lp[i] for i in range(n + 1)]
        Mc = [q * (Lcp[i - 1] if i >= 1 else 0j) - Lcp[i] for i in range(n + 1)]
        lhs = M
        rhs = [-(q ** (i - n / 2)) * Mc[n - i] for i in range(n + 1)]
    else:
        lhs = list(L)
        rhs = [q ** (i - (n - 1) / 2) * Lc[n - 1 - i] for i in range(n)]
    return _extract_ratio(lhs, rhs)


def root_number(chi: DirichletChar) -> RootNumber:
    """W(chi) from the functional equation's coefficient relations."""
    if not chi.is_primitive():
        raise PreconditionError("root numbers are defined for primitive characters")
    R = chi.modulus
    if R.deg == 0:
        raise PreconditionError("modulus 1 excluded")
    q = chi.group.field.q
    n = R.deg
    even = chi.is_even()
    L = l_coeffs(chi).coeffs
    Lc = l_coeffs(chi.conj()).coeffs
    w, residual = fe_from_coeffs(q, n, L, Lc, even)
    return RootNumber(w, "even" if even else "odd", residual)


def pair_sum_from_coeffs(q: int, Lp, m: int) -> complex:
    """sum over monic A, B with deg AB = m of chi(A) conj(chi)(B) / |AB|^{1/2},
    from the padded coefficient vector Lp (length deg R + 1)."""
    if m < 0:
        return 0j
    acc = 0j
    for i in range(0, m + 1):
        j = m - i
        if i < len(Lp) and j < len(Lp):
            acc += Lp[i] * Lp[j].conjugate()
    return acc * q ** (-m / 2)


def c_term_from_coeffs(q: int, n: int, Lp, even: bool) -> complex:
    if even:
        sq = math.sqrt(q)
        return (-(q / (sq - 1) ** 2) * pair_sum_from_coeffs(q, Lp, n - 2)
                - (2 * sq / (sq - 1)) * pair_sum_from_coeffs(q, Lp, n - 1)
                + (1 / (sq - 1) ** 2) * pair_sum_from_coeffs(q, Lp, n))
    return -pair_sum_from_coeffs(q, Lp, n - 1)


def half_sum_sq_from_coeffs(q: int, n: int, Lp, even: bool) -> complex:
    total = 0j
    for m in range(n):
        total += pair_sum_from_coeffs(q, Lp, m)
    return 2 * total + c_term_from_coeffs(q, n, Lp, even)


def c_term(chi: DirichletChar) -> complex:
    """Boundary term c(chi) in the short-sum form of |L(1/2, chi)|^2."""
    if not chi.is_primitive():
        raise PreconditionError("c(chi) is defined for primitive characters")
    R = chi.modulus
    if R.deg == 0:
        raise PreconditionError("modulus 1 excluded")
    q = chi.group.field.q
    return c_term_from_coeffs(q, R.deg, l_coeffs(chi).padded(), chi.is_even())


def half_sum_sq(chi: DirichletChar) -> complex:
    """2 sum_{deg AB < deg R} chi(A) conj chi(B)/|AB|^{1/2} + c(chi) = |L(1/2,chi)|^2."""
    if not chi.is_primitive():
        raise PreconditionError("the short-sum identity holds for primitive characters")
    R = chi.modulus
    if R.deg == 0:
        raise PreconditionError("modulus 1 excluded")
    q = chi.group.field.q
    return half_sum_sq_from_coeffs(q, R.deg, l_coeffs(chi).padded(), chi.is_even())


# -- bulk paths over all characters of a modulus -----------------------------

def l_coeff_table(group: UnitGroup):
    """Array of shape (deg R, *dims): L_n over all characters at once, via group DFT."""
    q = group.field.q
    out = np.empty((group.modulus.deg, *group.dims), dtype=complex)
    for n in range(group.modulus.deg):
        layer = group.code_index[q ** n:2 * q ** n]   # the monic residues of degree n
        counts = np.bincount(layer[layer >= 0], minlength=group.phi)
        out[n] = np.fft.ifftn(counts.reshape(group.dims).astype(float)) * group.phi
    return out


def l_half_table(group: UnitGroup, table=None):
    """L(1/2, chi) for every chi (finite-sum convention), shape dims; table is
    l_coeff_table(group) when already computed."""
    q = group.field.q
    if table is None:
        table = l_coeff_table(group)
    acc = np.zeros(group.dims, dtype=complex)
    for n, layer in enumerate(table):
        acc = acc + layer * q ** (-n / 2)
    return acc


def fe_from_table(group: UnitGroup, table, even, picks):
    """(W, residual) of fe_from_coeffs for each C-order grid index in picks,
    from the l_coeff_table columns of chi and of conj chi; even is the flat
    even mask."""
    q, n = group.field.q, group.modulus.deg
    columns = table.reshape(n, group.phi)
    conj = conj_grid(group).reshape(-1)
    return [fe_from_coeffs(q, n, columns[:, k].tolist(), columns[:, conj[k]].tolist(),
                           even[k]) for k in picks]
