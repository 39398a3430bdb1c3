"""Second and fourth moments over primitive characters: brute-force character
sums, Mobius-exact evaluation in Q(sqrt(q)), closed-form/main-term assembly,
and the diagonal-term check behind the fourth-moment main term."""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .chargroup import UnitGroup, group_convolve, primitive_mask, unit_group
from .errors import BudgetError, PreconditionError
from .lfunc import l_half_table, zeta_a
from .multfun import divisors, is_squarefull, mu, omega, phi, phi_star
from .polyring import Poly, factor, from_code, to_text
from .qsqrt import QSqrt, qs_from_halfpower
from .series import monic_count_series, partial_value_at_inv_q, two_omega_series


@dataclass
class MomentReport:
    modulus: str
    method: str
    value: object                      # QSqrt for exact paths, float otherwise
    value_float: float
    terms: dict = dc_field(default_factory=dict)
    diagnostics: dict = dc_field(default_factory=dict)


# -- shared helpers -----------------------------------------------------------

def _s_grids(g: UnitGroup, scale_pow: int):
    """Integer grids of q^{scale_pow - d/2} over monic unit residues of degree d,
    split by parity of d.  Returns (Se, So) with S = (Se + So*sqrt(q)) / q^{scale_pow}.
    """
    q = g.field.q
    se = np.zeros(g.dims or (1,), dtype=np.int64)
    so = np.zeros_like(se)
    for d in range(g.modulus.deg):
        grid, value = (so if d % 2 else se), q ** (scale_pow - (d + 1) // 2)
        layer = g.code_index[q ** d:2 * q ** d]   # the monic residues of degree d
        grid.flat[layer[layer >= 0]] = value
    return se, so


def _divisor_bucket_sum(g: UnitGroup, xe, xo):
    """(a, b) with a + b sqrt(q) = sum_{F | R} mu(R/F) phi(F) sum_{r mod F} X_F(r)^2,
    X = xe + xo sqrt(q) on the unit grid and X_F(r) its sum over the units = r
    mod F: the sum of X(x) X(y) weighted by the primitive pair sum of (x, y)."""
    R, q = g.modulus, g.field.q
    pos = g.code_index[g.unit_codes]
    e_units = xe.reshape(-1)[pos]
    o_units = xo.reshape(-1)[pos]
    a = b = 0
    for F in divisors(R):
        m = mu(R // F)
        if not m:
            continue
        codes = g.residue_codes(F)
        e = np.zeros(q ** F.deg, dtype=np.int64)
        o = np.zeros_like(e)
        np.add.at(e, codes, e_units)
        np.add.at(o, codes, o_units)
        e, o = e.tolist(), o.tolist()
        weight = m * phi(F)
        a += weight * (sum(x * x for x in e) + q * sum(y * y for y in o))
        b += weight * 2 * sum(x * y for x, y in zip(e, o))
    return a, b


def _moebius_exact(R: Poly, power: int) -> QSqrt:
    """Moment `power` (2 or 4): the divisor-bucket sum of S, or of W = S*S."""
    q = R.field.q
    if R.deg == 0:
        raise PreconditionError("modulus 1 has no finite-sum representation")
    g = unit_group(R)
    scale = max(R.deg - 1, 0)
    xe, xo = _s_grids(g, scale)
    if power == 4:
        _check_convolution_bound(q, xe, xo)
        xe, xo = (group_convolve(xe, xe) + q * group_convolve(xo, xo),
                  2 * group_convolve(xe, xo))
    a_int, b_int = _divisor_bucket_sum(g, xe, xo)
    den = q ** (power * scale)
    return QSqrt(q, Fraction(a_int, den), Fraction(b_int, den))


def _check_convolution_bound(q: int, se, so):
    """Refuse S*S beyond int64: each of its entries, and each bucket sum of it,
    is at most (sum Se)^2 + q (sum So)^2."""
    bound = sum(se.reshape(-1).tolist()) ** 2 + q * sum(so.reshape(-1).tolist()) ** 2
    if bound >= 1 << 63:
        raise BudgetError(f"exact fourth moment needs sums up to {bound}, beyond int64")


def _moment_chars(R: Poly, power: int, budget: int = None) -> float:
    """Sum over primitive chi mod R of |L(1/2, chi)|^power, by direct character sums."""
    q = R.field.q
    if R.deg == 0:
        return abs(zeta_a(q, 0.5)) ** power
    g = unit_group(R, budget)
    vals = np.abs(l_half_table(g)) ** power
    mask = primitive_mask(g)
    return float(np.sum(vals, where=mask) if mask.shape else
                 (float(vals) if mask else 0.0))


def moment2_chars(R: Poly, budget: int = None) -> float:
    """Sum over primitive chi mod R of |L(1/2, chi)|^2."""
    return _moment_chars(R, 2, budget)


def moment2_moebius_exact(R: Poly) -> QSqrt:
    """Exact QSqrt via the Mobius-inverted pair sum over monic A, B of degree < deg R."""
    return _moebius_exact(R, 2)


def moment2_formula_terms(R: Poly, variant: str = "proof_final"):
    """The three closed-form terms for square-full R, each exact in Q(sqrt(q)).

    proof_final: coefficient 2 phi^3/|R|^2 on the prime sum (matches brute force).
    theorem_statement: coefficient (phi^3 - phi^2)/|R|^2 (kept for documentation).
    """
    if variant not in ("proof_final", "theorem_statement"):
        raise PreconditionError(f"unknown variant {variant!r}")
    if not is_squarefull(R):
        raise PreconditionError("closed-form second moment needs a square-full modulus")
    q = R.field.q
    ph = Fraction(phi(R))
    norm = Fraction(R.norm())
    deg = R.deg
    t1 = QSqrt(q, ph ** 3 / norm ** 2 * deg)
    psum = Fraction(0)
    for p, _ in factor(R):
        psum += Fraction(p.deg, p.norm() - 1)
    if variant == "proof_final":
        coeff = 2 * ph ** 3 / norm ** 2
    else:
        coeff = (ph ** 3 - ph ** 2) / norm ** 2
    t2 = QSqrt(q, coeff * psum)
    sq1 = qs_from_halfpower(q, 1) - 1          # sqrt(q) - 1
    inv_sq1_sq = (sq1 * sq1).inv()             # 1/(sqrt(q)-1)^2
    prod = QSqrt(q, 1)
    for p, _ in factor(R):
        term = QSqrt(q, 1) - qs_from_halfpower(q, -p.deg)
        prod = prod * (term * term)
    t3 = inv_sq1_sq * (QSqrt(q, -(ph ** 3) / norm ** 2)
                       + 2 * QSqrt(q, ph) * qs_from_halfpower(q, -deg) * prod)
    return {"degree_term": t1, "prime_sum_term": t2, "half_power_term": t3}


def moment2_formula(R: Poly, variant: str = "proof_final") -> QSqrt:
    """Closed-form second moment for square-full R (sum of the three terms)."""
    terms = moment2_formula_terms(R, variant)
    return terms["degree_term"] + terms["prime_sum_term"] + terms["half_power_term"]


def moment2_formula_report(R: Poly, variant: str = "proof_final") -> MomentReport:
    total = moment2_formula(R, variant)
    return MomentReport(to_text(R), f"moment2_formula[{variant}]", total,
                        total.to_float(), terms=moment2_formula_terms(R, variant))


def moment2_tamam_prime(Q: Poly, sign: str = "minus") -> QSqrt:
    """Average over nontrivial chi mod prime Q of |L(1/2, chi)|^2, exact.

    sign="minus" is the corrected formula (agrees with brute force);
    sign="plus" is the as-printed variant, kept as an erratum witness.
    """
    from .polyring import is_irreducible
    if Q.deg < 1 or not Q.is_monic() or not is_irreducible(Q):
        raise PreconditionError("Tamam's formula applies to monic irreducible moduli")
    if sign not in ("minus", "plus"):
        raise PreconditionError(f"unknown sign {sign!r}")
    q = Q.field.q
    sq1 = qs_from_halfpower(q, 1) - 1
    inv_sq1_sq = (sq1 * sq1).inv()
    norm_half = qs_from_halfpower(q, Q.deg)
    term = inv_sq1_sq * (QSqrt(q, 1) - 2 * (norm_half + 1).inv())
    base = QSqrt(q, Q.deg)
    return base - term if sign == "minus" else base + term


def moment2_tamam_orthogonality(Q: Poly) -> QSqrt:
    """Same average, straight from orthogonality: deg Q - (|Q|^(1/2)-1)^2 / ((sqrt q - 1)^2 phi(Q))."""
    q = Q.field.q
    sq1 = qs_from_halfpower(q, 1) - 1
    nh = qs_from_halfpower(q, Q.deg) - 1
    return QSqrt(q, Q.deg) - (nh * nh) * ((sq1 * sq1) * phi(Q)).inv()


def moment4_chars(R: Poly, budget: int = None) -> float:
    """Sum over primitive chi mod R of |L(1/2, chi)|^4."""
    return _moment_chars(R, 4, budget)


def moment4_moebius_exact(R: Poly) -> QSqrt:
    """Exact QSqrt via Mobius-inverted quadruple sums (A, B, C, D of degree < deg R)."""
    return _moebius_exact(R, 4)


def moment4_main_term(R: Poly) -> float:
    """(1 - 1/q)/12 * phi*(R) * prod_{P|R} (1-|P|^-1)^3/(1+|P|^-1) * (deg R)^4."""
    q = R.field.q
    prod = 1.0
    for p, _ in factor(R):
        x = 1.0 / p.norm()
        prod *= (1 - x) ** 3 / (1 + x)
    return (1 - 1 / q) / 12 * phi_star(R) * prod * R.deg ** 4


def moment4_report(R: Poly, budget: int = None) -> MomentReport:
    value = moment4_chars(R, budget)
    main = moment4_main_term(R)
    ratio = value / main if main else float("inf")
    om = omega(R) if R.deg >= 1 else 0
    norm_dev = (abs(ratio - 1) * math.sqrt(R.deg) / math.sqrt(om)
                if om and main else float("nan"))
    return MomentReport(to_text(R), "moment4_report", value, value,
                        terms={"main_term": main},
                        diagnostics={"ratio": ratio, "normalized_deviation": norm_dev})


# -- diagonal of the opened-up fourth moment ---------------------------------

def z_cut(R: Poly) -> float:
    """z_R = deg R - log_q 2^omega(R)."""
    q = R.field.q
    return R.deg - omega(R) * math.log(2, q) if R.deg else 0.0


def z_cut_int(R: Poly) -> int:
    """floor(z_R), exact when 2^omega is a power of q."""
    q = R.field.q
    om = omega(R) if R.deg else 0
    target = 2 ** om
    m, power = 0, 1
    while power < target:
        power *= q
        m += 1
    if power == target:
        return R.deg - m
    return int(math.floor(R.deg - om * math.log(2, q) + 1e-12))


def diagonal_quadruple_sum(R: Poly, zint: int, budget: int = None) -> Fraction:
    """Direct enumeration of sum 1/|ABCD|^{1/2} over monic A,B,C,D coprime to R
    with deg AB <= zint, deg CD <= zint and AC = BD, exact."""
    q = R.field.q
    limit = budget if budget is not None else 1 << 22
    if (zint + 1) ** 2 * q ** (2 * zint) > limit * 64:
        raise BudgetError("diagonal quadruple enumeration over budget")
    F = R.field
    from .polyring import poly_gcd
    coprime = []
    for d in range(zint + 1):
        for code in range(q ** d, 2 * q ** d):
            p = from_code(F, code)
            if R.deg == 0 or poly_gcd(p, R).deg == 0:
                coprime.append(p)
    total = Fraction(0)
    for A in coprime:
        for B in coprime:
            ab_deg = A.deg + B.deg
            if ab_deg > zint:
                continue
            for C in coprime:
                d_deg = A.deg + C.deg - B.deg
                if d_deg < 0 or C.deg + d_deg > zint:
                    continue
                dpoly, rem = divmod(A * C, B)
                if not rem.is_zero() or not dpoly.is_monic() or dpoly.deg != d_deg:
                    continue
                if R.deg > 0 and poly_gcd(dpoly, R).deg != 0:
                    continue
                total += Fraction(1, q ** ((ab_deg + C.deg + d_deg) // 2))
    return total


def diagonal_param_sum(R: Poly, zint: int) -> Fraction:
    """Same diagonal sum through the F,G,U,V parametrization:
    sum_N 2^omega(N)/|N| ( sum_{deg F <= (zint - deg N)/2, (F,R)=1} 1/|F| )^2."""
    q = R.field.q
    if zint < 0:
        return Fraction(0)
    excl = tuple(p.deg for p, _ in factor(R)) if R.deg else ()
    tw = two_omega_series(q, zint, exclude_degs=excl)
    counts = monic_count_series(q, zint, exclude_degs=excl)
    total = Fraction(0)
    for n in range(zint + 1):
        if not tw[n]:
            continue
        fmax = (zint - n) // 2
        h = partial_value_at_inv_q(counts, q, 0, fmax)
        total += Fraction(tw[n], q ** n) * h * h
    return total


def diagonal_term_check(R: Poly, budget: int = None, with_direct: bool = None) -> MomentReport:
    """Dual-enumeration diagonal sum and its ratio to the (1-1/q)/48-scale main term."""
    q = R.field.q
    if R.deg == 0:
        raise PreconditionError("diagonal check needs deg R >= 1")
    zint = z_cut_int(R)
    param = diagonal_param_sum(R, zint)
    if with_direct is None:
        with_direct = (zint + 1) ** 2 * q ** (2 * zint) <= (1 << 26)
    direct = diagonal_quadruple_sum(R, zint, budget) if with_direct else None
    prod = 1.0
    for p, _ in factor(R):
        x = 1.0 / p.norm()
        prod *= (1 - x) ** 3 / (1 + x)
    main = (1 - 1 / q) / 48 * prod * R.deg ** 4
    ratio = float(param) / main if main else float("inf")
    diag = {"z_R": z_cut(R), "z_int": zint, "ratio": ratio, "main_term": main,
            "param_exact": str(param)}
    if direct is not None:
        diag["direct_exact"] = str(direct)
        diag["dual_equal"] = (direct == param)
    return MomentReport(to_text(R), "diagonal_term_check", param, float(param),
                        diagnostics=diag)
