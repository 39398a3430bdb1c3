"""Exact arithmetic in Q(sqrt(q)): values a + b*sqrt(q) with Fraction components.

When q is a perfect square the sqrt folds into the rational part at
construction, so the b component of any value is identically zero and
equality stays componentwise.
"""

import math
from fractions import Fraction

from .errors import PreconditionError

_SQRT_BITS = 128


def _perfect_sqrt(q: int):
    r = math.isqrt(q)
    return r if r * r == q else None


class QSqrt:
    """a + b*sqrt(q), exact; q is carried on the value and must match in ops."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a=0, b=0):
        if q < 2:
            raise PreconditionError("q must be >= 2")
        a = Fraction(a)
        b = Fraction(b)
        r = _perfect_sqrt(q)
        if r is not None and b:
            a += b * r
            b = Fraction(0)
        self.q = q
        self.a = a
        self.b = b

    # -- ring/field operations ------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSqrt):
            if other.q != self.q:
                raise PreconditionError("mixed sqrt(q) domains")
            return other
        return QSqrt(self.q, other, 0)

    def __add__(self, other):
        o = self._coerce(other)
        return QSqrt(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt(self.q, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QSqrt(self.q,
                     self.a * o.a + self.q * self.b * o.b,
                     self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise PreconditionError("inverse of zero")
        den = self.a * self.a - self.q * self.b * self.b
        if den == 0:
            # impossible for nonzero values since sqrt(q) is irrational here
            raise PreconditionError("inverse of zero")
        return QSqrt(self.q, self.a / den, -self.b / den)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSqrt(self.q, other, 0)
        return (isinstance(other, QSqrt) and self.q == other.q
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- output ----------------------------------------------------------

    def to_float(self) -> float:
        """Correctly-rounded-to-a-few-ulp float of a + b*sqrt(q)."""
        if self.b == 0:
            return float(self.a)
        scale = 1 << _SQRT_BITS
        sq = Fraction(math.isqrt(self.q * scale * scale), scale)
        return float(self.a + self.b * sq)

    def serialize(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.q})"

    def __repr__(self):
        return f"QSqrt({self.q}, {self.a}, {self.b})"


def qs_from_halfpower(q: int, k: int) -> QSqrt:
    """q^{k/2}: rational for even k, a sqrt(q) multiple for odd k."""
    if k % 2 == 0:
        m = k // 2
        return QSqrt(q, Fraction(q) ** m, 0)
    m = (k - 1) // 2
    return QSqrt(q, 0, Fraction(q) ** m)


def parse_qsqrt(text: str) -> QSqrt:
    """Inverse of QSqrt.serialize."""
    left, _, right = text.partition("+")
    b_part, _, q_part = right.partition("*sqrt(")
    if not q_part.endswith(")"):
        raise PreconditionError(f"malformed QSqrt text: {text!r}")
    return QSqrt(int(q_part[:-1]), Fraction(left.strip()), Fraction(b_part.strip()))
