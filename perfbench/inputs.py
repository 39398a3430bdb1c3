"""Seeded input generation for the benchmark.

Every monic polynomial up to a degree cap is built together with its prime
factorization, by multiplying out primes found with a product sieve.  That
gives phi, phi* and square-fullness of every modulus by construction, so the
oracles in ``workloads.py`` do not depend on ``ffl.multfun`` or on ``factor``.
Only ``ffl.gf`` field tables and ``Poly`` ring arithmetic are used here, so the
only cache set-up fills for the tasks is ``field_of_order``'s.
"""

import random
from dataclasses import dataclass

from ffl.gf import FieldSpec, field_of_order
from ffl.polyring import Poly, from_code


@dataclass(frozen=True)
class Modulus:
    poly: Poly
    factors: tuple          # ((prime Poly, exponent), ...)

    @property
    def q(self) -> int:
        return self.poly.field.q

    @property
    def deg(self) -> int:
        return self.poly.deg

    @property
    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            n = p.norm()
            out *= n ** (e - 1) * (n - 1)
        return out

    @property
    def phi_star(self) -> int:
        """Number of primitive characters: prod over P^e of phi(P^e) - phi(P^{e-1})."""
        out = 1
        for p, e in self.factors:
            n = p.norm()
            out *= n - 2 if e == 1 else n ** (e - 2) * (n - 1) ** 2
        return out

    @property
    def squarefull(self) -> bool:
        return all(e >= 2 for _, e in self.factors)

    @property
    def omega(self) -> int:
        return len(self.factors)


def build_fields(qs):
    """Build fresh field tables for each q (uncached constructor): set-up work."""
    for q in qs:
        F = field_of_order(q)
        FieldSpec(F.p, F.e)


def factor_table(q: int, maxdeg: int):
    """{degree: [Modulus, ...]} for every monic polynomial of degree 1..maxdeg."""
    F = field_of_order(q)
    # buckets[a] holds (poly, factors) for products of the primes seen so far
    buckets = [[(from_code(F, 1), ())]] + [[] for _ in range(maxdeg)]
    for d in range(1, maxdeg + 1):
        known = {A.code for A, _ in buckets[d]}
        primes = [from_code(F, c) for c in range(q ** d, 2 * q ** d)
                  if c not in known]
        for P in primes:
            snapshot = [list(b) for b in buckets]
            Pk, k = P, 1
            while k * d <= maxdeg:
                for a in range(maxdeg - k * d + 1):
                    for A, fac in snapshot[a]:
                        buckets[a + k * d].append((A * Pk, fac + ((P, k),)))
                Pk, k = Pk * P, k + 1
    return {d: sorted((Modulus(A, fac) for A, fac in buckets[d]),
                      key=lambda m: m.poly.code)
            for d in range(1, maxdeg + 1)}


def random_poly(rng: random.Random, F, deg: int) -> Poly:
    """Monic polynomial of exact degree deg with uniform lower coefficients."""
    return Poly(F, [rng.randrange(F.q) for _ in range(deg)] + [1])


def spread_order(n: int):
    """A permutation of range(n) whose every prefix is spread evenly over the
    range (bit-reversal order), so a run that stops early still sees a
    representative sample of sizes."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def draw_spread(rng: random.Random, pool, n: int, key):
    """n items of ``pool``, one per cost bin, in ``spread_order``.

    The pool is sorted by ``key`` (a cost proxy) and cut into n contiguous
    bins, each giving one random item.  Different seeds then give different
    inputs with nearly the same cost profile in every prefix.
    """
    ranked = sorted(pool, key=key)
    picks = [rng.choice(ranked[len(ranked) * i // n:len(ranked) * (i + 1) // n])
             for i in range(n)]
    return [picks[i] for i in spread_order(n)]


def draw_strata(rng: random.Random, strata, tables, key):
    """Interleave distinct moduli from each stratum into one task order.

    ``strata`` is a list of (((q, degrees), ...), phi_lo, phi_hi, squarefull
    or None); the strata must not share a modulus.  Every round takes one
    modulus from each stratum, drawn by ``draw_spread`` with the cost proxy
    ``key``; there are as many rounds as the smallest stratum has moduli, so
    no modulus is drawn twice.
    """
    pools = [[m for q, degs in fields for d in degs for m in tables[q][d]
              if lo <= m.phi <= hi and (sf is None or m.squarefull == sf)]
             for fields, lo, hi, sf in strata]
    rounds = min(len(p) for p in pools)
    picks = [draw_spread(rng, p, rounds, key) for p in pools]
    out = [picks[s][r] for r in range(rounds) for s in range(len(pools))]
    assert len({(m.q, m.poly.code) for m in out}) == len(out), "strata overlap"
    return out
