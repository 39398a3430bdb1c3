"""Computable probes for the Brun-Titchmarsh / Selberg-sieve bounds, the exact
2^omega identities, coprime harmonic sums, smooth and rough divisor sums, and
off-diagonal quadruple counts.  Each probe reports lhs, the bound's main term,
their ratio, and (where meaningful) an empirical constant; bounds are never
asserted at paper-exact constants."""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .chargroup import group_convolve, unit_group
from .errors import BudgetError, PreconditionError
from .multfun import divisor_count, divisors, mu, omega, p_minus, phi
from .polyring import (Poly, enumerate_monic, factor, from_code, poly_gcd,
                       to_text)
from .series import (divisor_count_series, monic_count_series,
                     partial_sum, partial_value_at_inv_q, prime_counts,
                     smooth_count_series, two_omega_series)


@dataclass
class ProbeReport:
    probe_id: str
    params: dict
    lhs: object
    rhs: object = None
    ratio: float = None
    empirical_const: float = None
    extra: dict = dc_field(default_factory=dict)

    def row(self):
        par = ";".join(f"{k}={v}" for k, v in self.params.items())
        return {"probe_id": self.probe_id, "params": par,
                "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
                "empirical_const": self.empirical_const}


def _ratio(lhs, rhs):
    if rhs is None:
        return None
    rhs = float(rhs)
    return float(lhs) / rhs if rhs else float("inf")


# -- Brun-Titchmarsh style divisor sums ---------------------------------------

def bt_sum(X: Poly, y: int, A: Poly, G: Poly, alpha: float = 0.25,
           beta: float = 0.25) -> ProbeReport:
    """sum of d(N) over monic N = X + (deg < y), N = A mod G, against q^y degX/phi(G)."""
    if not (0 < alpha < 0.5 and 0 < beta < 0.5):
        raise PreconditionError("alpha, beta must lie in (0, 1/2)")
    if not X.is_monic() or X.deg < 1:
        raise PreconditionError("X must be monic of positive degree")
    if not (beta * X.deg < y <= X.deg):
        raise PreconditionError("window must satisfy beta deg X < y <= deg X")
    if not G.is_monic():
        raise PreconditionError("G must be monic")
    if G.deg >= (1 - alpha) * y:
        raise PreconditionError("deg G must be < (1-alpha) y")
    if G.deg > 0 and poly_gcd(A, G).deg != 0:
        raise PreconditionError("(A, G) must be 1")
    q = X.field.q
    lhs = 0
    for code in range(q ** y):
        N = X + from_code(X.field, code)
        if G.deg == 0 or ((N - A) % G).is_zero():
            lhs += divisor_count(N)
    rhs = Fraction(q ** y * X.deg, phi(G))
    return ProbeReport("bt_sum",
                       {"X": to_text(X), "y": y, "A": to_text(A), "G": to_text(G)},
                       lhs, float(rhs), _ratio(lhs, rhs), _ratio(lhs, rhs))


def bt_sum_eq(X: Poly, y: int, A: Poly, G: Poly, a: int, alpha: float = 0.25,
              beta: float = 0.25) -> ProbeReport:
    """Leading-coefficient-pinned variant: N = X + a*(monic of degree y)."""
    F = X.field
    q = F.q
    if not (1 <= a < q):
        raise PreconditionError("a must be a nonzero field element")
    if y > X.deg:
        # empty window by convention
        return ProbeReport("bt_sum_eq",
                           {"X": to_text(X), "y": y, "A": to_text(A),
                            "G": to_text(G), "a": a},
                           0, None, None, None, extra={"empty_window": True})
    if not (0 < alpha < 0.5 and 0 < beta < 0.5):
        raise PreconditionError("alpha, beta must lie in (0, 1/2)")
    if not (beta * X.deg < y):
        raise PreconditionError("window must satisfy beta deg X < y")
    if G.deg >= (1 - alpha) * y:
        raise PreconditionError("deg G must be < (1-alpha) y")
    if G.deg > 0 and poly_gcd(A, G).deg != 0:
        raise PreconditionError("(A, G) must be 1")
    lhs = 0
    for M in enumerate_monic(F, y):
        N = X + M.scale(a)
        if N.is_zero():
            continue   # d(0) undefined; the single cancelling term is skipped
        if G.deg == 0 or ((N - A) % G).is_zero():
            lhs += divisor_count(N)
    rhs = Fraction(q ** y * X.deg, phi(G))
    return ProbeReport("bt_sum_eq",
                       {"X": to_text(X), "y": y, "A": to_text(A),
                        "G": to_text(G), "a": a},
                       lhs, float(rhs), _ratio(lhs, rhs), _ratio(lhs, rhs))


def selberg_sifted_count(X: Poly, y: int, K: Poly, A: Poly, z: int) -> ProbeReport:
    """Count of N in a short progression with p_-(N) > z, against q^y/(phi(K) z) + C q^{2z}."""
    F = X.field
    q = F.q
    if y > X.deg or y < 1:
        raise PreconditionError("need 1 <= y <= deg X")
    if K.deg + z > y:
        raise PreconditionError("need deg K + z <= y")
    if K.deg > 0 and poly_gcd(A, K).deg != 0:
        raise PreconditionError("(A, K) must be 1")
    lhs = 0
    for code in range(q ** y):
        N = X + from_code(F, code)
        if K.deg > 0 and not ((N - A) % K).is_zero():
            continue
        if z == 0 or N.deg == 0 or p_minus(N) > z:
            lhs += 1
    if z == 0:
        return ProbeReport("selberg_sifted_count",
                           {"X": to_text(X), "y": y, "K": to_text(K),
                            "A": to_text(A), "z": z},
                           lhs, None, None, None,
                           extra={"unsifted_progression": q ** (y - K.deg)})
    main = Fraction(q ** y, phi(K) * z)
    emp_c = max(0.0, (lhs - float(main)) / q ** (2 * z))
    return ProbeReport("selberg_sifted_count",
                       {"X": to_text(X), "y": y, "K": to_text(K),
                        "A": to_text(A), "z": z},
                       lhs, float(main), _ratio(lhs, main), emp_c)


# -- exact 2^omega sums --------------------------------------------------------

def two_omega_sum(q: int, x: int) -> Fraction:
    """sum_{deg N <= x} 2^omega(N)/|N|, exact; equals (q-1)/2q x^2 + (3q+1)/2q x + 1."""
    if x < 0:
        raise PreconditionError("x must be >= 0")
    tw = two_omega_series(q, x)
    return partial_value_at_inv_q(tw, q, 0, x)


def two_omega_closed_form(q: int, x: int) -> Fraction:
    return Fraction(q - 1, 2 * q) * x * x + Fraction(3 * q + 1, 2 * q) * x + 1


def two_omega_sum_coprime(R: Poly) -> ProbeReport:
    """sum_{deg N <= deg R, (N,R)=1} 2^omega(N)/|N| against prod 1/(1+2|P|^-1) (deg R)^2."""
    q = R.field.q
    excl = tuple(p.deg for p, _ in factor(R)) if R.deg else ()
    tw = two_omega_series(q, R.deg, exclude_degs=excl)
    lhs = partial_value_at_inv_q(tw, q, 0, R.deg)
    prod = Fraction(1)
    for p, _ in factor(R):
        prod *= Fraction(1, 1) / (1 + Fraction(2, p.norm()))
    rhs = prod * R.deg ** 2 if R.deg else None
    return ProbeReport("two_omega_sum_coprime", {"R": to_text(R)},
                       lhs, float(rhs) if rhs is not None else None,
                       _ratio(lhs, rhs) if rhs else None,
                       _ratio(lhs, rhs) if rhs else None)


def weighted_two_omega_sum(R: Poly) -> ProbeReport:
    """sum_{deg N <= z', (N,R)=1} 2^omega(N)/|N| (z' - deg N)^2 for
    z' = deg R - log_q 9^omega(R), against the (1-1/q)/12 main term."""
    q = R.field.q
    if R.deg < 1:
        raise PreconditionError("need deg R >= 1")
    om = omega(R)
    zprime = R.deg - om * math.log(9, q)
    zint = int(math.floor(zprime + 1e-12))
    if zint < 0:
        raise PreconditionError("z' < 0: modulus too small for this probe")
    excl = tuple(p.deg for p, _ in factor(R))
    tw = two_omega_series(q, zint, exclude_degs=excl)
    s0 = s1 = s2 = Fraction(0)
    for d in range(zint + 1):
        c = Fraction(tw[d], q ** d)
        s0 += c
        s1 += c * d
        s2 += c * d * d
    lhs = zprime * zprime * float(s0) - 2 * zprime * float(s1) + float(s2)
    prod = 1.0
    for p, _ in factor(R):
        x = 1.0 / p.norm()
        prod *= (1 - x) / (1 + x)
    main = (1 - 1 / q) / 12 * prod * R.deg ** 4
    dev3 = abs(lhs - main) / (prod * R.deg ** 3)
    return ProbeReport("weighted_two_omega_sum", {"R": to_text(R)},
                       lhs, main, _ratio(lhs, main), None,
                       extra={"z_prime": zprime, "deg3_deviation": dev3,
                              "moments": (str(s0), str(s1), str(s2))})


# -- harmonic sums --------------------------------------------------------------

def coprime_harmonic_exact(R: Poly, x: int) -> Fraction:
    """sum_{A monic, deg A <= x, (A,R)=1} 1/|A| via the Mobius-over-divisors identity."""
    total = Fraction(0)
    for E in divisors(R):
        if E.deg > x:
            continue
        m = mu(E)
        if m:
            total += Fraction(m * (x - E.deg + 1), E.norm())
    return total


def coprime_harmonic(R: Poly, x: int) -> ProbeReport:
    """Exact coprime harmonic sum against (phi(R)/|R|) x, with the truncation allowance."""
    if x < 0:
        raise PreconditionError("x must be >= 0")
    q = R.field.q
    lhs = coprime_harmonic_exact(R, x)
    main = Fraction(phi(R), R.norm()) * x
    om = omega(R) if R.deg else 0
    deviation = abs(float(lhs - main))
    allowance = 5 * (math.log(om + 1) + 1)
    if x < R.deg:
        allowance += 2 ** om * x * q ** (-x)
    return ProbeReport("coprime_harmonic", {"R": to_text(R), "x": x},
                       lhs, float(main), None, None,
                       extra={"deviation": deviation, "allowance": allowance})


def inv_phi_sum(q: int, x: int) -> Fraction:
    """sum_{deg N <= x} 1/phi(N), exact."""
    from .series import inv_phi_series
    if x < 0:
        raise PreconditionError("x must be >= 0")
    return partial_sum(inv_phi_series(q, x), 0, x)


def musq_phi_sum(q: int, x: int) -> Fraction:
    """sum_{deg N <= x} mu^2(N)/phi(N), exact; always >= x."""
    from .series import musq_phi_series
    if x < 0:
        raise PreconditionError("x must be >= 0")
    return partial_sum(musq_phi_series(q, x), 0, x)


def inv_degp_sum(q: int, w: int) -> ProbeReport:
    """sum_{deg P <= w} 1/deg P against q^w/w^2."""
    if w < 0:
        raise PreconditionError("w must be >= 0")
    lhs = Fraction(0)
    pc = prime_counts(q, w) if w >= 1 else (0,)
    for d in range(1, w + 1):
        lhs += Fraction(pc[d], d)
    rhs = Fraction(q ** w, w * w) if w >= 1 else None
    return ProbeReport("inv_degP_sum", {"q": q, "w": w}, lhs,
                       float(rhs) if rhs else None,
                       _ratio(lhs, rhs) if rhs else None,
                       _ratio(lhs, rhs) if rhs else None)


def w_threshold(q: int, z: int) -> int:
    """w(z) = 1 for z <= q, else floor(log_q z)."""
    if z <= q:
        return 1
    return int(math.floor(math.log(z, q) + 1e-12))


def smooth_count(q: int, z: int) -> ProbeReport:
    """Count of monic N, deg N <= z, p_+(N) <= w(z); bound shape q^{z/4} for z > q."""
    if z < 0:
        raise PreconditionError("z must be >= 0")
    w = w_threshold(q, z)
    counts = smooth_count_series(q, z, w)
    lhs = sum(counts[: z + 1])
    rhs = q ** (z / 4) if z > q else None
    return ProbeReport("smooth_count", {"q": q, "z": z},
                       lhs, rhs, _ratio(lhs, rhs) if rhs else None, None,
                       extra={"w": w})


def rough_divisor_sum(q: int, z: int, r: int) -> ProbeReport:
    """sum over monic N, deg N >= z/2, p_+(N) <= z/r of d(N)/|N| (exact, full tail),
    against z^2 exp(-r log r / 9)."""
    if r < 1 or z < 1:
        raise PreconditionError("need z, r >= 1")
    if r * math.log(r, q) > z + 1e-12:
        raise PreconditionError("need r log_q r <= z")
    bound = z // r
    lo = (z + 1) // 2
    if bound < 1:
        lhs = Fraction(0)
    else:
        total = Fraction(1)
        pc = prime_counts(q, bound)
        for d in range(1, bound + 1):
            if pc[d]:
                total *= (Fraction(1) / (1 - Fraction(1, q ** d))) ** (2 * pc[d])
        head_series = divisor_count_series(q, lo - 1, smooth_bound=bound)
        lhs = total - partial_value_at_inv_q(head_series, q, 0, lo - 1)
    rhs = z * z * math.exp(-r * math.log(r) / 9) if r > 1 else z * z
    return ProbeReport("rough_divisor_sum", {"q": q, "z": z, "r": r},
                       lhs, rhs, _ratio(lhs, rhs), None,
                       extra={"smooth_bound": bound, "tail_from_degree": lo})


# -- off-diagonal counts ---------------------------------------------------------

def _coprime_residue_counts(group, d: int):
    """Grid over dlog space of #{monic A of degree d, (A,F)=1, A = u mod F}."""
    F = group.modulus
    q = group.field.q
    shape = group.dims or (1,)
    if d >= F.deg:
        # every unit class mod F holds q^(d - deg F) monic A of degree d
        return np.full(shape, q ** (d - F.deg), dtype=np.int64)
    layer = group.code_index[q ** d:2 * q ** d]   # the monic residues of degree d
    return np.bincount(layer[layer >= 0], minlength=group.phi).reshape(shape)


def off_diagonal_count(F: Poly, z1: int, z2: int, a: int = 1,
                       budget: int = None) -> ProbeReport:
    """Exact count of monic quadruples with deg AB = z1, deg CD = z2, coprime to F,
    AC = a BD (mod F) and AC != BD, against the regime-split bounds."""
    q = F.field.q
    if z1 < 0 or z2 < 0:
        raise PreconditionError("z1, z2 must be >= 0")
    if not (1 <= a < q):
        raise PreconditionError("a must be a nonzero field element")
    limit = budget if budget is not None else 1 << 22
    if q ** (z1 + z2) > limit * 16:
        raise BudgetError("off-diagonal budget exceeded")
    g = unit_group(F)

    def pair_counts(zsum):
        acc = np.zeros(g.dims or (1,), dtype=np.int64)
        per_deg = {d: _coprime_residue_counts(g, d) for d in range(zsum + 1)}
        for i in range(zsum + 1):
            b = per_deg[zsum - i]
            inverted = b[np.ix_(*[-np.arange(d) % d for d in b.shape])]
            acc = acc + group_convolve(per_deg[i], inverted)
        return acc

    q1 = pair_counts(z1)
    q2 = pair_counts(z2)
    conv = group_convolve(q1, q2)
    # a mod F has code a, or 0 when F = 1
    congruent = int(conv.reshape(-1)[g.code_index[a % F.norm()]])
    equal = 0
    if a == 1 and (z1 - z2) % 2 == 0:
        excl = tuple(p.deg for p, _ in factor(F)) if F.deg else ()
        tw = two_omega_series(q, min(z1, z2), exclude_degs=excl)
        cnt = monic_count_series(q, max(z1, z2), exclude_degs=excl)
        for n in range(min(z1, z2) + 1):
            if (z1 - n) % 2 or not tw[n]:
                continue
            equal += tw[n] * cnt[(z1 - n) // 2] * cnt[(z2 - n) // 2]
    lhs = congruent - equal
    if z1 + z2 <= 1.9 * F.deg:
        eps = 1 / 50
        rhs = (q ** (z1 + z2)) ** (1 + eps) / F.norm()
        regime = "small"
    else:
        rhs = q ** (z1 + z2) * (z1 + z2) ** 3 / phi(F)
        regime = "large"
    return ProbeReport("off_diagonal_count",
                       {"F": to_text(F), "z1": z1, "z2": z2, "a": a},
                       lhs, rhs, _ratio(lhs, rhs), _ratio(lhs, rhs),
                       extra={"regime": regime, "congruent": congruent,
                              "equal": equal})


def off_diagonal_count_direct(F: Poly, z1: int, z2: int, a: int = 1) -> int:
    """Brute-force oracle for off_diagonal_count (small parameters only)."""
    q = F.field.q
    field = F.field
    const_a = Poly(field, (a,))

    def pairs(zsum):
        out = []
        for i in range(zsum + 1):
            for ca in range(q ** i, 2 * q ** i):
                A = from_code(field, ca)
                if F.deg > 0 and poly_gcd(A, F).deg != 0:
                    continue
                for cb in range(q ** (zsum - i), 2 * q ** (zsum - i)):
                    B = from_code(field, cb)
                    if F.deg > 0 and poly_gcd(B, F).deg != 0:
                        continue
                    out.append((A, B))
        return out

    total = 0
    for A, B in pairs(z1):
        for C, D in pairs(z2):
            ac = A * C
            bd = B * D
            if ac == bd:
                continue
            if F.deg == 0 or ((ac - const_a * bd) % F).is_zero():
                total += 1
    return total


def double_divisor_probe(F: Poly, K: Poly, x: int, a: int = 1,
                         variant: str = "scaled") -> ProbeReport:
    """Exact d(N) d(KF + aN) sums in the two regimes of the double divisor bounds."""
    field = F.field
    q = field.q
    if not (1 <= a < q):
        raise PreconditionError("a must be a nonzero field element")
    if not (F.is_monic() and K.is_monic()):
        raise PreconditionError("F and K must be monic")
    KF = K * F
    if variant == "scaled":
        if not (x / 2 < KF.deg <= 3 * x / 4):
            raise PreconditionError("need x/2 < deg KF <= 3x/4")
        n_deg = x - KF.deg
        hmax = Fraction(x - KF.deg, 2)
        scale = Fraction(1, KF.norm())
    elif variant == "plain":
        if a != 1:
            raise PreconditionError("plain variant is stated for a = 1")
        if not KF.deg < x:
            raise PreconditionError("need deg KF < x")
        n_deg = x
        hmax = Fraction(x, 2)
        scale = Fraction(1)
    else:
        raise PreconditionError(f"unknown variant {variant!r}")
    lhs = Fraction(0)
    for N in enumerate_monic(field, n_deg):
        if F.deg > 0 and poly_gcd(N, F).deg != 0:
            continue
        M = KF + N.scale(a)
        if M.is_zero():
            continue
        lhs += divisor_count(N) * divisor_count(M)
    hsum = Fraction(0)
    for H in divisors(K):
        if H.deg <= hmax:
            hsum += Fraction(divisor_count(H), H.norm())
    rhs = q ** x * x * x * scale * hsum
    return ProbeReport("double_divisor",
                       {"F": to_text(F), "K": to_text(K), "x": x, "a": a,
                        "variant": variant},
                       lhs, float(rhs), _ratio(lhs, rhs), _ratio(lhs, rhs))
