"""The unit group (F_q[T]/R)^*, Dirichlet characters, primitivity, and the
Mobius-weighted sum over primitive character pairs.

Generators come from greedy extraction: repeatedly take the canonically
smallest unit of maximal order in the quotient of what is already generated,
then adjust it by known generators so its absolute order equals its quotient
order.  That adjustment is what makes the discrete-log map additive, which
every character evaluation here relies on.
"""

import itertools
from functools import cached_property, lru_cache
from math import gcd as igcd, lcm as ilcm, tau as TWO_PI

import numpy as np

from .errors import BudgetError, PreconditionError
from .gf import prime_divisors
from .multfun import divisors, mu, phi
from .polyring import Poly, max_table_entries, monomial, poly_gcd

DEFAULT_GROUP_BUDGET = 10 ** 6


def _unravel(index: int, dims):
    """The exponent vector at a C-order index of the grid of shape dims."""
    vec = []
    for d in reversed(dims):
        index, x = divmod(index, d)
        vec.append(x)
    return tuple(reversed(vec))


def _reduction_rows(M: Poly, top: int):
    """Row j holds the coefficients of T^(deg M + j) mod M, for deg M + j < top."""
    rows = np.zeros((max(top - M.deg, 0), M.deg), dtype=np.int64)
    powk = monomial(M.field, M.deg) % M
    for row in rows:
        row[:powk.deg + 1] = powk.coeffs
        powk = powk.shift(1) % M
    return rows


class _Residues:
    """Batched arithmetic on residues mod R, deg R >= 1.

    A residue is a row of its deg R coefficients, low degree first; a batch is
    an (n, deg R) int64 array.  The coefficient arithmetic follows the field:
    prime fields convolve integers and reduce mod p, extension fields look
    products up in a q x q table and add with xor (p = 2) or with a q x q
    addition table (odd p).
    """

    def __init__(self, R: Poly):
        F = R.field
        q, rdeg = F.q, R.deg
        self.q, self.rdeg, self.p = q, rdeg, F.p
        self.modulus = R
        self.qpow = np.array([q ** i for i in range(rdeg)], dtype=np.int64)
        self.mul_table = self.add_table = None
        if F.e == 1:
            return
        log = np.array(F.log, dtype=np.int64)
        exp = np.array(F.exp, dtype=np.int64)
        self.mul_table = np.zeros((q, q), dtype=np.int64)
        self.mul_table[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        if F.p != 2:
            p, x = F.p, np.arange(q, dtype=np.int64)
            self.add_table = np.zeros((q, q), dtype=np.int64)
            w = 1
            for _ in range(F.e):
                self.add_table += ((x[:, None] // w) % p + (x[None, :] // w) % p) % p * w
                w *= p

    @cached_property
    def red_rows(self):
        return _reduction_rows(self.modulus, 2 * self.rdeg - 1)

    def digits(self, codes):
        out = np.empty((len(codes), self.rdeg), dtype=np.int64)
        c = np.asarray(codes, dtype=np.int64)
        for i in range(self.rdeg):
            out[:, i] = c % self.q
            c = c // self.q
        return out

    def codes(self, A):
        return A @ self.qpow[:A.shape[1]]

    def _acc(self, dst, x):
        """dst += x in place, coefficientwise in an extension field."""
        if self.add_table is None:
            dst ^= x
        else:
            dst[...] = self.add_table[dst, x]

    def fold(self, C, rows):
        """Reduce a batch of reduced coefficient rows mod a monic M of degree
        m = rows.shape[1], where rows[j] holds T^(m + j) mod M: every column
        k >= m is folded into the low m columns.  Returns a new (n, m) batch."""
        m, p, mt = rows.shape[1], self.p, self.mul_table
        low = C[:, :m].copy()
        for j in range(len(rows) - 1, -1, -1):
            if mt is None:
                low += C[:, m + j][:, None] * rows[j][None, :]
            else:
                self._acc(low, mt[C[:, m + j][:, None], rows[j][None, :]])
        return low % p if mt is None else low

    def mul(self, A, B):
        """Row-wise product of two batches; B may also be a single row."""
        rdeg, mt = self.rdeg, self.mul_table
        C = np.zeros((A.shape[0], 2 * rdeg - 1), dtype=np.int64)
        if mt is None:
            for i in range(rdeg):
                C[:, i:i + rdeg] += A[:, i][:, None] * B
            C %= self.p
        else:
            for i in range(rdeg):
                self._acc(C[:, i:i + rdeg], mt[A[:, i][:, None], B])
        return self.fold(C, self.red_rows)

    def pow(self, A, e):
        result = np.zeros_like(A)
        result[:, 0] = 1
        base = A
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result


def _checked_phi(R: Poly, budget: int = None) -> int:
    """phi(R), after refusing a modulus that is not monic, a group beyond the
    budget (default 10^6 units) or extension-field coefficient tables beyond
    FFL_MAX_TABLE entries."""
    if not R.is_monic():
        raise PreconditionError("modulus must be monic")
    limit = budget if budget is not None else DEFAULT_GROUP_BUDGET
    size = phi(R)
    if size > limit:
        raise BudgetError(f"unit group of size {size} exceeds budget {limit}")
    q, table_limit = R.field.q, max_table_entries()
    if R.field.e > 1 and R.deg >= 1 and q * q > table_limit:
        raise BudgetError(f"F_{q} coefficient tables of {q * q} entries exceed "
                          f"budget {table_limit}")
    return size


class UnitGroup:
    """(F_q[T]/R)^* with canonical unit order, generator basis and additive dlog.

    code_index is the one discrete-log map: an int64 array over all q^deg R
    residue codes holding -1 at non-units and, at a unit, the C-order index
    over dims of its exponent vector."""

    def __init__(self, R: Poly, budget: int = None):
        field = R.field
        self.field = field
        self.modulus = R
        self.phi = _checked_phi(R, budget)
        q = field.q
        if R.deg == 0:
            self.unit_codes = np.zeros(1, dtype=np.int64)
            self.identity = 0
        else:
            from .polyring import code_mul_fn, factor
            marked = bytearray(q ** R.deg)   # code 0 is marked as a multiple
            cmul = code_mul_fn(field)
            for P, _ in factor(R):
                pc = P.code
                for mcode in range(q ** (R.deg - P.deg)):
                    marked[cmul(mcode, pc)] = 1
            self.unit_codes = np.flatnonzero(np.frombuffer(marked, dtype=np.uint8) == 0)
            self.identity = 1
        assert len(self.unit_codes) == self.phi
        self._build_basis()
        # cached groups are shared by every caller
        self.unit_codes.flags.writeable = self.code_index.flags.writeable = False
        self.lcm_order = ilcm(*self.orders) if self.orders else 1
        self._kernel_cache = {}

    def _build_basis(self):
        """Greedy generator extraction, batched over all units with numpy; fills
        code_index along the way."""
        self.code_index = np.full(self.field.q ** self.modulus.deg, -1, dtype=np.int64)
        if self.phi == 1:
            self.gens = self.orders = self.dims = ()
            self.code_index[self.identity] = 0
            return
        res = _Residues(self.modulus)
        U = res.digits(self.unit_codes)
        gens, orders = [], []
        # the subgroup H generated so far, and the grid index of each element
        h_codes = np.array([self.identity], dtype=np.int64)
        h_index = np.zeros(1, dtype=np.int64)
        m = self.phi
        while len(h_codes) < self.phi:
            h_sorted = np.sort(h_codes)

            def in_h(codes):
                pos = np.searchsorted(h_sorted, codes)
                pos = np.minimum(pos, len(h_sorted) - 1)
                return h_sorted[pos] == codes

            # exponent of G/H, one prime at a time; it divides the previous
            # one because H only grows, so the search starts there
            power_in_h = {}
            for ell in prime_divisors(m):
                while m % ell == 0:
                    inside = in_h(res.codes(res.pow(U, m // ell)))
                    if inside.all():
                        m //= ell
                        power_in_h.clear()   # exponents changed; caches stale
                    else:
                        power_in_h[ell] = inside
                        break
            # canonically smallest unit achieving quotient order m
            ach = np.ones(self.phi, dtype=bool)
            for ell in prime_divisors(m):
                inside = power_in_h.get(ell)
                if inside is None:
                    inside = in_h(res.codes(res.pow(U, m // ell)))
                ach &= ~inside
            idx = np.nonzero(ach)[0]
            assert idx.size
            g = self._adjust_generator(res, U[idx[0]:idx[0] + 1], m, gens, orders,
                                       h_codes, h_index)
            # extend H by the new cyclic factor of order m: h g^e has index i*m + e
            blocks = [h_codes]
            cur = res.digits(h_codes)
            for e in range(1, m):
                cur = res.mul(cur, g)
                blocks.append(res.codes(cur))
            h_codes = np.concatenate(blocks)
            h_index = (h_index * m + np.arange(m, dtype=np.int64)[:, None]).reshape(-1)
            gens.append(int(res.codes(g)[0]))
            orders.append(m)
        self.gens = tuple(gens)
        self.orders = tuple(orders)
        self.dims = self.orders
        self.code_index[h_codes] = h_index

    def _adjust_generator(self, res, u, d, gens, orders, h_codes, h_index):
        """Rescale the coset pick u (a one-row batch) so its absolute order equals
        its quotient order d; h_codes/h_index list the subgroup H and the grid
        index of each element over orders."""
        ud = res.codes(res.pow(u, d))[0]
        cvec = _unravel(int(h_index[np.flatnonzero(h_codes == ud)[0]]), orders)
        adjusted = u
        for gj, dj, cj in zip(gens, orders, cvec):
            if cj == 0:
                continue
            g = igcd(d, dj)
            assert cj % g == 0, "basis adjustment divisibility violated"
            tj = (cj // g) * pow(d // g, -1, dj // g) % (dj // g)
            if tj:
                adjusted = res.mul(adjusted, res.pow(res.digits([gj]), dj - tj))
        assert res.codes(res.pow(adjusted, d))[0] == self.identity
        return adjusted

    def dlog_code(self, code: int):
        """Exponent vector of the unit with this residue code; None at non-units."""
        size = len(self.code_index)
        if not 0 <= code < size:
            raise PreconditionError(f"residue code {code} is outside 0..{size - 1}")
        index = int(self.code_index[code])
        return None if index < 0 else _unravel(index, self.dims)

    def dlog_of(self, a: Poly):
        """Exponent vector of a residue; None when gcd(a, R) != 1."""
        return self.dlog_code((a % self.modulus).code)

    def residue_codes(self, S: Poly):
        """Codes of the units reduced mod S, for monic S | R, in unit_codes order."""
        res = _Residues(self.modulus)
        return res.codes(res.fold(res.digits(self.unit_codes),
                                  _reduction_rows(S, self.modulus.deg)))

    def kernel_codes(self, S: Poly):
        """Units congruent to 1 mod S, for monic S | R."""
        key = S.code
        cached = self._kernel_cache.get(key)
        if cached is not None:
            return cached
        out = self.unit_codes[self.residue_codes(S) == 1] if S.deg else self.unit_codes
        out.flags.writeable = False
        self._kernel_cache[key] = out
        return out

    def phase_grid(self, code: int):
        """Grid over all kvec of (sum_i k_i x_i L/d_i) mod L for the unit's dlog x."""
        L = self.lcm_order
        vec = self.dlog_code(code)
        if not self.dims:
            return np.zeros((), dtype=np.int64)
        total = np.zeros(self.dims, dtype=np.int64)
        for axis, (x, d) in enumerate(zip(vec, self.dims)):
            shape = [1] * len(self.dims)
            shape[axis] = d
            total = total + (np.arange(d, dtype=np.int64) * (x * (L // d) % L)).reshape(shape)
        return total % L


def unit_group(R: Poly, budget: int = None) -> UnitGroup:
    """The UnitGroup of R, kept for the 64 most recent moduli; the budget is
    checked on every call, before the cache is consulted."""
    return _cached_unit_group(R, _checked_phi(R, budget))


@lru_cache(maxsize=64)   # a group holds about 24 bytes per unit
def _cached_unit_group(R: Poly, phi_r: int) -> UnitGroup:
    # phi_r is a function of R, so the cache is keyed on R alone
    return UnitGroup(R, budget=phi_r)


class DirichletChar:
    """Character of modulus R given by its exponent vector against the group basis."""

    __slots__ = ("group", "kvec")

    def __init__(self, group: UnitGroup, kvec):
        kvec = tuple(kvec)
        if len(kvec) != len(group.dims):
            raise PreconditionError("character exponent vector has wrong length")
        kvec = tuple(int(k) % d for k, d in zip(kvec, group.dims))
        self.group = group
        self.kvec = kvec

    @property
    def modulus(self) -> Poly:
        return self.group.modulus

    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.kvec)

    def conj(self):
        return DirichletChar(self.group, tuple(-k % d for k, d in zip(self.kvec, self.group.dims)))

    def __eq__(self, other):
        return (isinstance(other, DirichletChar) and self.group is other.group
                and self.kvec == other.kvec)

    def __hash__(self):
        return hash((self.group.modulus, self.kvec))

    def _phase(self, code: int):
        """t with chi = exp(2 pi i t / L) at a residue code, or None at non-units."""
        g = self.group
        vec = g.dlog_code(code)
        if vec is None:
            return None
        L = g.lcm_order
        return sum(k * x * (L // d) for k, x, d in zip(self.kvec, vec, g.dims)) % L

    def phase_numerator(self, a: Poly):
        """t with chi(a) = exp(2 pi i t / L), or None when chi(a) = 0."""
        return self._phase((a % self.modulus).code)

    def value(self, a: Poly) -> complex:
        t = self.phase_numerator(a)
        if t is None:
            return 0j
        g = self.group
        return complex(np.exp(1j * (TWO_PI * t / g.lcm_order)))

    def value_code(self, code: int) -> complex:
        """chi at a residue code; PreconditionError outside 0 <= code < q^deg R."""
        t = self._phase(code)
        if t is None:
            return 0j
        return complex(np.exp(1j * (TWO_PI * t / self.group.lcm_order)))

    # -- parity and primitivity -------------------------------------------

    def is_even(self) -> bool:
        """True when chi(a) = 1 for every nonzero constant a."""
        g = self.group
        if g.modulus.deg == 0:
            return True
        F = g.field
        for c in range(1, F.q):
            t = self.phase_numerator(Poly(F, (c,)))
            if t is None or t != 0:
                return False
        return True

    def _trivial_on(self, codes) -> bool:
        return all(self._phase(code) == 0 for code in codes)

    def conductor(self) -> Poly:
        """Smallest modulus inducing chi; asserts the inducing set is a divisor lattice."""
        g = self.group
        inducing = [S for S in divisors(g.modulus)
                    if self._trivial_on(g.kernel_codes(S))]
        smallest = inducing[0]
        for S in inducing:
            assert (S % smallest).is_zero(), "inducing moduli do not form a lattice"
        return smallest

    def is_primitive(self) -> bool:
        g = self.group
        R = g.modulus
        if R.deg == 0:
            return True
        from .polyring import factor
        for p, _ in factor(R):
            if self._trivial_on(g.kernel_codes(R // p)):
                return False
        return True

    def __repr__(self):
        from .polyring import to_pretty
        return f"DirichletChar(mod {to_pretty(self.modulus)}, kvec={self.kvec})"


def characters(R: Poly, budget: int = None):
    """All phi(R) characters mod R, kvec-lex order; index 0 is the trivial one."""
    g = unit_group(R, budget)
    return [DirichletChar(g, kvec) for kvec in itertools.product(*(range(d) for d in g.dims))]


def primitive_pair_sum(A: Poly, B: Poly, R: Poly) -> int:
    """sum over primitive chi mod R of chi(A) conj(chi)(B), via Mobius inversion.

    Equals sum_{EF=R, F | (A-B)} mu(E) phi(F) when (AB, R) = 1, else 0.
    """
    if not R.is_monic():
        raise PreconditionError("modulus must be monic")
    if R.deg == 0:
        return 1
    if poly_gcd(A * B, R).deg != 0:
        return 0
    diff = A - B
    total = 0
    for F in divisors(R):
        E = R // F
        m = mu(E)
        if m == 0:
            continue
        if diff.is_zero() or (diff % F).is_zero():
            total += m * phi(F)
    return total


# -- bulk grids for the FFT-based moment and L-value paths -------------------

def group_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[u] = sum_x a[x] b[(u - x) mod dims] on the group of the grids' shape
    (a product of cyclic axes), exact in int64.  It loops over the nonzero
    entries of a only, so the sparser grid should come first."""
    out = np.zeros(b.shape, dtype=np.result_type(a, b))
    axes = tuple(range(b.ndim))
    for x in zip(*np.nonzero(a)):
        out += a[x] * np.roll(b, x, axis=axes)
    return out


def trivial_grid(group: UnitGroup, codes):
    """Boolean grid over kvec of the characters trivial on the subgroup with
    the given unit codes (dims nonempty).

    The DFT of the subgroup's 0/1 indicator is its order at exactly those
    characters and 0 at all others; every entry is certified against the two
    values, so rounding can never flip one."""
    index = group.code_index[np.asarray(codes, dtype=np.int64)]
    indicator = np.zeros(group.dims)
    indicator.flat[index] = 1.0
    dft = np.fft.fftn(indicator)
    trivial = np.abs(dft - len(index)) < 0.25
    if not (trivial | (np.abs(dft) < 0.25)).all():
        raise ArithmeticError("subgroup indicator transform is not 0 or the order")
    return trivial


def conj_grid(group: UnitGroup):
    """Integer grid over kvec: the C-order grid index of conj chi, whose kvec
    is the negated one, as DirichletChar.conj forms it."""
    grid = np.arange(group.phi).reshape(group.dims)
    if not group.dims:
        return grid
    # flipping maps k to d-1-k, rolling by one then maps k to -k mod d
    return np.roll(np.flip(grid), 1, axis=tuple(range(grid.ndim)))


def primitive_mask(group: UnitGroup):
    """Boolean grid over kvec of which characters are primitive."""
    from .polyring import factor
    R = group.modulus
    if R.deg == 0:
        return np.ones((), dtype=bool)
    if not group.dims:
        # phi(R) = 1: the trivial character, primitive only if R = 1
        return np.zeros((), dtype=bool)
    mask = np.ones(group.dims, dtype=bool)
    for p, _ in factor(R):
        mask &= ~trivial_grid(group, group.kernel_codes(R // p))
    return mask


def conductor_grid(group: UnitGroup):
    """Integer grid over kvec: the index in divisors(R) of each character's
    conductor, the smallest S | R with the character trivial on the units
    congruent to 1 mod S.  Asserts that those S form a divisor lattice."""
    R = group.modulus
    if not group.dims:
        return np.zeros((), dtype=np.int64)
    divs = divisors(R)   # by degree, so every proper divisor of S precedes S
    cond = np.full(group.dims, -1, dtype=np.int64)
    for j, S in enumerate(divs):
        trivial = trivial_grid(group, group.kernel_codes(S))
        cond[trivial & (cond < 0)] = j
        # the smallest inducing modulus divides every other one
        assert all((S % divs[c]).is_zero() for c in np.unique(cond[trivial]).tolist()), \
            "inducing moduli do not form a lattice"
    return cond


def even_mask(group: UnitGroup):
    """Boolean grid over kvec of which characters are even."""
    if not group.dims:
        return np.ones((), dtype=bool)
    q = group.field.q
    mask = trivial_grid(group, range(1, q))   # the nonzero constants
    assert int(mask.sum()) * (q - 1) == group.phi, \
        "even characters must form an index q-1 subgroup"
    return mask
