"""The ring F_q[T]: arithmetic, enumeration, irreducibility, factorization.

Canonical ordering everywhere: ascending (degree, integer code), where the
code of a polynomial is sum(c_i * q^i).  Within one degree this compares
coefficient vectors from the highest power down, which is the order the
CLI and all deterministic listings use.
"""

import math
import os
import random
from functools import lru_cache

from .errors import PreconditionError
from .gf import FieldSpec, prime_divisors

DEFAULT_MAX_TABLE = 1 << 24


def max_table_entries() -> int:
    try:
        return int(os.environ.get("FFL_MAX_TABLE", DEFAULT_MAX_TABLE))
    except ValueError:
        return DEFAULT_MAX_TABLE


class Poly:
    """Immutable polynomial over a FieldSpec; coeffs[i] is the T^i coefficient."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            if not (0 <= c < field.q):
                raise PreconditionError(f"coefficient code {c} out of range for q={field.q}")
        self.field = field
        self.coeffs = coeffs

    # -- basic structure -------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree; -1 is the sentinel for the zero polynomial (treated as -inf)."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lc(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def norm(self) -> int:
        """|A| = q^deg A, with |0| = 0."""
        return 0 if self.is_zero() else self.field.q ** self.deg

    @property
    def code(self) -> int:
        c = 0
        for digit in reversed(self.coeffs):
            c = c * self.field.q + digit
        return c

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def sort_key(self):
        return (self.deg, self.code)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise PreconditionError("mixed-field operands")

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)]
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    def scale(self, c: int):
        F = self.field
        return Poly(F, [F.mul(c, x) for x in self.coeffs])

    def shift(self, k: int):
        """Multiply by T^k."""
        if self.is_zero() or k == 0:
            return self if k == 0 else self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise PreconditionError("division by zero polynomial")
        F = self.field
        r = list(self.coeffs)
        d = other.deg
        inv_lead = F.inv(other.lc())
        quot = [0] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            shift = len(r) - 1 - d
            factor = F.mul(r[-1], inv_lead)
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                r[shift + i] = F.sub(r[shift + i], F.mul(factor, c))
            while r and r[-1] == 0:
                r.pop()
        return Poly(F, quot), Poly(F, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.lc()))

    def __pow__(self, k: int):
        if k < 0:
            raise PreconditionError("negative polynomial power")
        result = Poly(self.field, (1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def __repr__(self):
        return f"Poly(q={self.field.q}, {to_pretty(self)!r})"


# -- constructors and text forms ------------------------------------------

def poly(field: FieldSpec, coeffs) -> Poly:
    return Poly(field, coeffs)


def zero(field: FieldSpec) -> Poly:
    return Poly(field, ())


def one(field: FieldSpec) -> Poly:
    return Poly(field, (1,))


def t_gen(field: FieldSpec) -> Poly:
    """The polynomial T."""
    return Poly(field, (0, 1))


def monomial(field: FieldSpec, n: int, c: int = 1) -> Poly:
    return Poly(field, (0,) * n + (c,))


def constant(field: FieldSpec, c: int) -> Poly:
    return Poly(field, (c,))


def from_code(field: FieldSpec, code: int) -> Poly:
    q = field.q
    coeffs = []
    while code:
        coeffs.append(code % q)
        code //= q
    return Poly(field, coeffs)


def to_text(a: Poly) -> str:
    """Canonical text form q=<q>;[c0,c1,...,cd]."""
    return f"q={a.field.q};[{','.join(str(c) for c in a.coeffs)}]"


def to_pretty(a: Poly) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for i in range(a.deg, -1, -1):
        c = a.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            coef = "" if c == 1 else str(c)
            parts.append(f"{coef}T" if i == 1 else f"{coef}T^{i}")
    return "+".join(parts)


def parse_poly(field: FieldSpec, text: str) -> Poly:
    """Parse canonical form, bare coefficient list, or pretty form (prime fields)."""
    s = text.strip()
    if s.startswith("q="):
        head, _, body = s.partition(";")
        try:
            declared = int(head[2:])
        except ValueError:
            raise PreconditionError(f"malformed polynomial text: {text!r}")
        if declared != field.q:
            raise PreconditionError(f"polynomial declares q={declared}, expected q={field.q}")
        s = body.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise PreconditionError(f"malformed polynomial text: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return Poly(field, ())
        try:
            coeffs = [int(x) for x in inner.split(",")]
        except ValueError:
            raise PreconditionError(f"malformed polynomial text: {text!r}")
        p = Poly(field, coeffs)
        if list(p.coeffs) != coeffs:
            raise PreconditionError(f"non-canonical coefficient vector: {text!r}")
        return p
    return _parse_pretty(field, s)


def _parse_pretty(field: FieldSpec, s: str) -> Poly:
    if field.e != 1:
        raise PreconditionError("pretty polynomial form is only defined for prime fields")
    s = s.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise PreconditionError("empty polynomial text")
    if s == "0":
        return Poly(field, ())
    terms = s.replace("-", "+-").split("+")
    coeffs = {}
    for term in terms:
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if "T" in term:
            coef_s, _, exp_s = term.partition("T")
            coef = int(coef_s) if coef_s else 1
            if exp_s.startswith("^"):
                exp = int(exp_s[1:])
            elif exp_s == "":
                exp = 1
            else:
                raise PreconditionError(f"malformed polynomial term: {term!r}")
        else:
            try:
                coef = int(term)
            except ValueError:
                raise PreconditionError(f"malformed polynomial term: {term!r}")
            exp = 0
        coeffs[exp] = (coeffs.get(exp, 0) + sign * coef) % field.p
    if not coeffs:
        return Poly(field, ())
    top = max(coeffs)
    return Poly(field, [coeffs.get(i, 0) for i in range(top + 1)])


# -- enumeration -----------------------------------------------------------

def enumerate_monic(field: FieldSpec, n: int):
    """All q^n monic polynomials of degree n, ascending canonical order."""
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    q = field.q
    base = q ** n
    for low in range(base):
        yield from_code(field, base + low)


def _int_mu(n: int) -> int:
    primes = prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def count_primes_exact(field_or_q, n: int) -> int:
    """Necklace count (1/n) sum_{d|n} mu(d) q^{n/d} of monic irreducibles of degree n."""
    q = field_or_q.q if isinstance(field_or_q, FieldSpec) else int(field_or_q)
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _int_mu(d) * q ** (n // d)
    assert total % n == 0
    return total // n


def powmod(a: Poly, k: int, m: Poly) -> Poly:
    result = one(a.field)
    base = a % m
    while k:
        if k & 1:
            result = (result * base) % m
        base = (base * base) % m
        k >>= 1
    return result


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; errors on gcd(0, 0)."""
    if a.is_zero() and b.is_zero():
        raise PreconditionError("gcd(0, 0) undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_irreducible(a: Poly) -> bool:
    """Rabin criterion; requires deg a >= 1."""
    if a.deg < 1:
        raise PreconditionError("irreducibility test needs degree >= 1")
    n, q = a.deg, a.field.q
    T = t_gen(a.field)
    xq = powmod(T, q ** n, a)
    if xq != T % a:
        return False
    for ell in prime_divisors(n):
        g = powmod(T, q ** (n // ell), a) - (T % a)
        if g.is_zero() or poly_gcd(g, a).deg != 0:
            return False
    return True


@lru_cache(maxsize=None)
def enumerate_primes(field: FieldSpec, n: int):
    """All monic irreducibles of degree n in canonical order (cached tuple)."""
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    out = tuple(p for p in enumerate_monic(field, n) if is_irreducible(p))
    assert len(out) == count_primes_exact(field, n)
    return out


# -- factorization ---------------------------------------------------------

class Factorization:
    """unit * prod(P_i^e_i) with monic irreducible P_i in canonical order."""

    __slots__ = ("field", "unit", "factors")

    def __init__(self, field: FieldSpec, unit: int, factors):
        self.field = field
        self.unit = unit
        self.factors = tuple(sorted(factors, key=lambda pe: pe[0].sort_key()))

    def value(self) -> Poly:
        out = constant(self.field, self.unit)
        for p, e in self.factors:
            out = out * p ** e
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def __eq__(self, other):
        return (isinstance(other, Factorization) and self.unit == other.unit
                and self.factors == other.factors)

    def __repr__(self):
        inner = " * ".join(f"({to_pretty(p)})^{e}" if e > 1 else f"({to_pretty(p)})"
                           for p, e in self.factors)
        return f"Factorization(unit={self.unit}, {inner or '1'})"


def _deterministic_rng(a: Poly) -> random.Random:
    return random.Random(f"{a.field.q}:{a.code}:5eed")


def _pth_root(a: Poly) -> Poly:
    # a = b^p exactly when only coefficients at indices divisible by p are set
    F = a.field
    p, e = F.p, F.e
    out = []
    for i in range(0, a.deg + 1, p):
        c = a.coeffs[i]
        out.append(F.pow(c, p ** (e - 1)) if c else 0)
    return Poly(F, out)


def _derivative(a: Poly) -> Poly:
    F = a.field
    out = []
    for i in range(1, a.deg + 1):
        c = a.coeffs[i]
        k = i % F.p
        acc = 0
        for _ in range(k):
            acc = F.add(acc, c)
        out.append(acc)
    return Poly(F, out)


def _edf_split(g: Poly, d: int) -> Poly:
    """Split a product of distinct irreducibles, all of degree d (deg g > d)."""
    F = g.field
    q = F.q
    rng = _deterministic_rng(g)
    while True:
        r = Poly(F, [rng.randrange(q) for _ in range(g.deg)])
        if r.is_zero():
            continue
        if F.p == 2:
            # absolute trace to F_2
            s = zero(F)
            h = r % g
            for _ in range(d * F.e):
                s = (s + h) % g
                h = powmod(h, 2, g)
            cand = poly_gcd(s, g) if not s.is_zero() else g
        else:
            s = powmod(r, (q ** d - 1) // 2, g)
            cand = poly_gcd(s - one(F), g) if not (s - one(F)).is_zero() else g
        if 0 < cand.deg < g.deg:
            return cand


def _find_irreducible_factor(g: Poly) -> Poly:
    """One monic irreducible factor of monic g, deg g >= 1."""
    F = g.field
    q = F.q
    der = _derivative(g)
    if der.is_zero():
        return _find_irreducible_factor(_pth_root(g))
    sf = g // poly_gcd(g, der)
    if sf.deg == 0:
        # exponents hidden in the derivative gcd; recurse on the strictly smaller part
        return _find_irreducible_factor(poly_gcd(g, der))
    h = sf
    T = t_gen(F)
    xq = T % h
    d = 0
    while True:
        d += 1
        if h.deg < 2 * d:
            return h
        xq = powmod(xq, q, h)
        diff = xq - (T % h)
        block = h if diff.is_zero() else poly_gcd(diff, h)
        if block.deg > 0:
            while block.deg > d:
                block = _edf_split(block, d)
            return block


@lru_cache(maxsize=256)
def factor(a: Poly) -> Factorization:
    """Unique factorization, kept for the 256 most recent polynomials, so the
    budget check, the unit sieve, the masks and the arithmetic functions of one
    modulus share one Factorization."""
    if a.is_zero():
        raise PreconditionError("cannot factor the zero polynomial")
    return _factor(a)


def _factor(a: Poly) -> Factorization:
    """Trial division at small degree, DDF/EDF splitting above."""
    F = a.field
    unit = a.lc()
    m = a.monic()
    factors = []
    if m.deg <= 12:
        d = 1
        while m.deg >= 2 * d:
            for p in enumerate_primes(F, d):
                if m.deg < 2 * d:
                    break
                e = 0
                while True:
                    qt, r = divmod(m, p)
                    if not r.is_zero():
                        break
                    m = qt
                    e += 1
                if e:
                    factors.append((p, e))
            d += 1
        if m.deg >= 1:
            factors.append((m, 1))
        return Factorization(F, unit, factors)
    while m.deg >= 1:
        p = _find_irreducible_factor(m)
        e = 0
        while True:
            qt, r = divmod(m, p)
            if not r.is_zero():
                break
            m = qt
            e += 1
        factors.append((p, e))
    return Factorization(F, unit, factors)


def code_mul_fn(field: FieldSpec):
    """Multiplication on integer codes, with a carryless fast path for F_2."""
    q = field.q
    if q == 2:
        def mul2(a, b):
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                b >>= 1
            return r
        return mul2

    def mul_generic(a, b):
        da, db = [], []
        x = a
        while x:
            da.append(x % q)
            x //= q
        x = b
        while x:
            db.append(x % q)
            x //= q
        if not da or not db:
            return 0
        out = [0] * (len(da) + len(db) - 1)
        fmul, fadd = field.mul, field.add
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        out[i + j] = fadd(out[i + j], fmul(ai, bj))
        c = 0
        for digit in reversed(out):
            c = c * q + digit
        return c
    return mul_generic
