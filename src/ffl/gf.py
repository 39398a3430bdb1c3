"""Table-driven arithmetic in F_q for prime powers q = p^e up to 2^16.

Elements are integer codes 0..q-1.  For e > 1 the base-p digits of a code
are the coordinates in the polynomial basis of F_p[x]/(m(x)), where m is
the canonically smallest monic irreducible of degree e over F_p.
"""

from functools import lru_cache

from .errors import PreconditionError

MAX_Q = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- minimal F_p[x] helpers used only to bootstrap extension-field tables --

def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _fp_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p) if m[-1] != 1 else 1
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _fp_powmod_x(k, m, p):
    # x^k mod m
    result = [1]
    base = _fp_mod([0, 1], m, p)
    while k:
        if k & 1:
            result = _fp_mod(_fp_mul(result, base, p), m, p)
        base = _fp_mod(_fp_mul(base, base, p), m, p)
        k >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _fp_mod(a, b, p)
        if b:
            inv = pow(b[-1], p - 2, p)
            b = [(c * inv) % p for c in b]
    return a


def _fp_is_irreducible(m, p):
    # Rabin test over F_p
    n = len(m) - 1
    if n == 1:
        return True
    x = [0, 1]
    xq = _fp_powmod_x(p ** n, m, p)
    if _poly_sub(xq, x, p):
        return False
    for ell in prime_divisors(n):
        g = _fp_powmod_x(p ** (n // ell), m, p)
        if len(_fp_gcd(m, _poly_sub(g, x, p), p)) != 1:
            return False
    return True


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def prime_divisors(n: int):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """Immutable description of F_q with exp/log tables for a fixed generator."""

    __slots__ = ("p", "e", "q", "modulus", "generator", "exp", "log", "_add_table")

    def __init__(self, p: int, e: int):
        if not _is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
        if e < 1:
            raise PreconditionError("extension degree must be >= 1")
        q = p ** e
        if q > MAX_Q:
            raise PreconditionError(f"q = {q} exceeds table limit 2^16")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._find_modulus() if e > 1 else (0, 1)
        self._build_tables()

    def _find_modulus(self):
        # smallest monic irreducible of degree e, codes compared as integers
        p, e = self.p, self.e
        for low in range(p ** e):
            coeffs = []
            c = low
            for _ in range(e):
                coeffs.append(c % p)
                c //= p
            m = coeffs + [1]
            if _fp_is_irreducible(m, p):
                return tuple(m)
        raise AssertionError("no irreducible modulus found")

    def _elem_mul(self, a: int, b: int) -> int:
        # direct polynomial-basis product, used only while building tables
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        da = [(a // p ** i) % p for i in range(e)]
        db = [(b // p ** i) % p for i in range(e)]
        prod = _fp_mod(_fp_mul(da, db, p), list(self.modulus), p)
        return sum(c * p ** i for i, c in enumerate(prod))

    def _order(self, a: int) -> int:
        n = self.q - 1
        order = n
        for ell in prime_divisors(n):
            while order % ell == 0:
                x, k = 1, order // ell
                g = a
                kk = k
                while kk:
                    if kk & 1:
                        x = self._elem_mul(x, g)
                    g = self._elem_mul(g, g)
                    kk >>= 1
                if x != 1:
                    break
                order //= ell
        return order

    def _build_tables(self):
        q = self.q
        gen = None
        for cand in range(1, q):
            if self._order(cand) == q - 1:
                gen = cand
                break
        self.generator = gen
        exp = [0] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._elem_mul(x, gen)
        if x != 1:
            raise AssertionError("generator order mismatch")
        self.exp = exp
        self.log = log
        if self.e > 1 and q <= 256:
            self._add_table = [[self._digit_add(a, b) for b in range(q)] for a in range(q)]
        else:
            self._add_table = None

    def _digit_add(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        out, mult = 0, 1
        for _ in range(e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._digit_add(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.e):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise PreconditionError("inverse of zero")
            return 1 if k == 0 else 0
        return self.exp[(self.log[a] * k) % (self.q - 1)]

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> FieldSpec:
    """Build (and cache) the field F_{p^e} with deterministic modulus and generator."""
    return FieldSpec(p, e)


@lru_cache(maxsize=None)
def field_of_order(q: int) -> FieldSpec:
    """Resolve q to F_q; q must be a prime power."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise PreconditionError(f"q = {q} is not a prime power")
            return field_make(p, e)
    raise PreconditionError(f"q = {q} is not a prime power")
