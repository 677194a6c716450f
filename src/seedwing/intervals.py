"""Interval arithmetic and forward-mode dual numbers.

The dynamics core is written against the generic scalar functions at the
bottom of this module (sin, cos, tanh, ...), so the same code evaluates with
plain floats (simulation), Interval scalars (set enclosures) and Dual scalars
(point or interval Jacobians).

Every interval primitive widens its result outward by a few ulp so that
floating-point rounding cannot break containment.
"""

from __future__ import annotations

import math

# relative outward widening applied by _iv(); keeps enclosures sound under
# float rounding without directed-rounding support
_PAD = 4e-16
_TINY = 1e-300


class IntervalDomainError(ValueError):
    """Raised when an interval operation leaves its mathematical domain."""


def _iv(lo: float, hi: float) -> "Interval":
    pad_lo = abs(lo) * _PAD + _TINY
    pad_hi = abs(hi) * _PAD + _TINY
    return Interval(lo - pad_lo, hi + pad_hi)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalDomainError("NaN interval endpoint")
        if lo > hi:
            raise IntervalDomainError(f"empty interval [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    # -- inspection ---------------------------------------------------------
    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rad(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def encloses(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def intersect(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise IntervalDomainError("empty intersection")
        return Interval(lo, hi)

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic ---------------------------------------------------------
    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, Interval):
            return _iv(self.lo + other.lo, self.hi + other.hi)
        if isinstance(other, (int, float)):
            return _iv(self.lo + other, self.hi + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return _iv(self.lo - other.hi, self.hi - other.lo)
        if isinstance(other, (int, float)):
            return _iv(self.lo - other, self.hi - other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _iv(other - self.hi, other - self.lo)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Interval):
            p = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
            return _iv(min(p), max(p))
        if isinstance(other, (int, float)):
            if other >= 0:
                return _iv(self.lo * other, self.hi * other)
            return _iv(self.hi * other, self.lo * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Interval):
            if other.lo <= 0.0 <= other.hi:
                raise IntervalDomainError("interval division by zero-straddling interval")
            return self * _iv(1.0 / other.hi, 1.0 / other.lo)
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("interval divided by zero scalar")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            if self.lo <= 0.0 <= self.hi:
                raise IntervalDomainError("interval division by zero-straddling interval")
            return _iv(min(other / self.lo, other / self.hi),
                       max(other / self.lo, other / self.hi))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return Interval(1.0, 1.0)
        if n % 2 == 1 or self.lo >= 0:
            return _iv(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return _iv(self.hi ** n, self.lo ** n)
        return _iv(0.0, max(self.lo ** n, self.hi ** n))


def interval_sin(x: Interval) -> Interval:
    if x.width >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    slo, shi = math.sin(x.lo), math.sin(x.hi)
    lo, hi = min(slo, shi), max(slo, shi)
    # peak pi/2 + 2k*pi inside [lo, hi]?
    if math.floor((x.hi - math.pi / 2) / (2 * math.pi)) >= math.ceil((x.lo - math.pi / 2) / (2 * math.pi)):
        hi = 1.0
    if math.floor((x.hi + math.pi / 2) / (2 * math.pi)) >= math.ceil((x.lo + math.pi / 2) / (2 * math.pi)):
        lo = -1.0
    iv = _iv(lo, hi)
    return Interval(max(iv.lo, -1.0), min(iv.hi, 1.0))


def interval_cos(x: Interval) -> Interval:
    return interval_sin(x + math.pi / 2)


def interval_tanh(x: Interval) -> Interval:
    return _iv(math.tanh(x.lo), math.tanh(x.hi))


def interval_sqrt(x: Interval) -> Interval:
    if x.hi < 0:
        raise IntervalDomainError("sqrt of negative interval")
    lo = math.sqrt(max(x.lo, 0.0))
    return _iv(lo, math.sqrt(x.hi))


def interval_abs(x: Interval) -> Interval:
    if x.lo >= 0:
        return Interval(x.lo, x.hi)
    if x.hi <= 0:
        return Interval(-x.hi, -x.lo)
    return Interval(0.0, max(-x.lo, x.hi))


def interval_atan2(y: Interval, x: Interval) -> Interval:
    """Corner-based atan2 enclosure, valid when the angle arc cannot wrap.

    Covers x > 0 (right half-plane) and y >= 0 (closed upper half-plane,
    range within [0, pi]); for other boxes the arc may cross the -pi/pi seam
    and no single interval encloses it.
    """
    if x.lo <= 0.0 and y.lo < 0.0:
        raise IntervalDomainError("atan2 enclosure undefined: angle arc may wrap")
    corners = (math.atan2(y.lo, x.lo), math.atan2(y.lo, x.hi),
               math.atan2(y.hi, x.lo), math.atan2(y.hi, x.hi))
    out = _iv(min(corners), max(corners))
    return Interval(max(out.lo, -math.pi), min(out.hi, math.pi))


class Dual:
    """Forward-mode scalar: value plus a tuple of partial derivatives.

    The value and the partials may be floats or Intervals; mixing the two
    gives interval-valued Jacobian entries.
    """

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = tuple(der)

    @staticmethod
    def seed(values, kind=float):
        """One Dual per entry of `values`, seeded with unit partials."""
        n = len(values)
        zero = 0.0 if kind is float else Interval(0.0)
        one = 1.0 if kind is float else Interval(1.0)
        out = []
        for i, v in enumerate(values):
            der = [zero] * n
            der[i] = one
            out.append(Dual(v, der))
        return out

    def __repr__(self):
        return f"Dual({self.val!r}, {self.der!r})"

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, float, Interval)):
            zero = 0.0 if all(isinstance(d, float) for d in self.der) else Interval(0.0)
            return Dual(other, [zero] * len(self.der))
        return None

    def __neg__(self):
        return Dual(-self.val, [-d for d in self.der])

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val + o.val, [a + b for a, b in zip(self.der, o.der)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val - o.val, [a - b for a, b in zip(self.der, o.der)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(o.val - self.val, [b - a for a, b in zip(self.der, o.der)])

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val * o.val,
                    [a * o.val + self.val * b for a, b in zip(self.der, o.der)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        inv = 1.0 / o.val
        q = self.val * inv
        return Dual(q, [(a - q * b) * inv for a, b in zip(self.der, o.der)])

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            return NotImplemented
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def _chain(x: Dual, val, dval) -> Dual:
    return Dual(val, [dval * d for d in x.der])


# -- generic scalar functions ----------------------------------------------
# Dispatch on argument type so the dynamics core runs unchanged on floats,
# Intervals and Duals.

def sin(x):
    if isinstance(x, Dual):
        return _chain(x, sin(x.val), cos(x.val))
    if isinstance(x, Interval):
        return interval_sin(x)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _chain(x, cos(x.val), -sin(x.val))
    if isinstance(x, Interval):
        return interval_cos(x)
    return math.cos(x)


def tanh(x):
    if isinstance(x, Dual):
        t = tanh(x.val)
        return _chain(x, t, 1.0 - t * t)
    if isinstance(x, Interval):
        return interval_tanh(x)
    return math.tanh(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.val)
        return _chain(x, r, 0.5 / r)
    if isinstance(x, Interval):
        return interval_sqrt(x)
    return math.sqrt(x)


def absval(x):
    if isinstance(x, Dual):
        v = x.val
        if isinstance(v, Interval):
            if v.lo >= 0:
                return Dual(interval_abs(v), x.der)
            if v.hi <= 0:
                return -x
            # |.| is not differentiable through zero: widen the slope to [-1,1]
            s = Interval(-1.0, 1.0)
            return Dual(interval_abs(v), [s * d for d in x.der])
        return x if v >= 0 else -x
    if isinstance(x, Interval):
        return interval_abs(x)
    return abs(x)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        if not isinstance(y, Dual):
            y = x._lift(y)
        if not isinstance(x, Dual):
            x = y._lift(x)
        v = atan2(y.val, x.val)
        denom = x.val * x.val + y.val * y.val
        if isinstance(denom, Interval) and denom.lo <= 0.0:
            raise IntervalDomainError(
                "atan2 derivative unbounded: velocity box reaches the origin")
        return Dual(v, [(x.val * dy - y.val * dx) / denom
                        for dy, dx in zip(y.der, x.der)])
    if isinstance(y, Interval) or isinstance(x, Interval):
        if not isinstance(y, Interval):
            y = Interval(y)
        if not isinstance(x, Interval):
            x = Interval(x)
        return interval_atan2(y, x)
    return math.atan2(y, x)


def value_of(x):
    """Plain-float value: midpoint for Intervals, recursing through Duals."""
    if isinstance(x, Dual):
        return value_of(x.val)
    if isinstance(x, Interval):
        return x.mid
    return float(x)


def as_interval(x) -> Interval:
    if isinstance(x, Dual):
        return as_interval(x.val)
    if isinstance(x, Interval):
        return x
    return Interval(float(x))
