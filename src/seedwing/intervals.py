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

_new = object.__new__


class IntervalDomainError(ValueError):
    """Raised when an interval operation leaves its mathematical domain."""


def _interval(lo: float, hi: float) -> "Interval":
    """Interval(lo, hi) for float endpoints: one test rejects NaN and lo > hi,
    and a rejected pair goes to the checking constructor for its message."""
    if not lo <= hi:
        return Interval(lo, hi)
    out = _new(Interval)
    out.lo = lo
    out.hi = hi
    return out


def _iv(lo: float, hi: float) -> "Interval":
    return _interval(lo - (abs(lo) * _PAD + _TINY), hi + (abs(hi) * _PAD + _TINY))


def _product(al, ah, bl, bh):
    """Unpadded bounds of [al, ah] * [bl, bh], picked by sign case: two
    multiplies when b's sign is known, four when b straddles zero. The
    picked products are the min and max of all four; a NaN from 0 * inf
    counts that product as 0."""
    if bl >= 0.0:
        lo = al * bl if al >= 0.0 else al * bh
        hi = ah * bh if ah >= 0.0 else ah * bl
    elif bh <= 0.0:
        lo = ah * bl if ah >= 0.0 else ah * bh
        hi = al * bh if al >= 0.0 else al * bl
    else:
        lo = al * bh
        p = ah * bl
        if p < lo:
            lo = p
        hi = al * bl
        p = ah * bh
        if p > hi:
            hi = p
    if not lo <= hi:
        p = [0.0 if q != q else q for q in (al * bl, al * bh, ah * bl, ah * bh)]
        return min(p), max(p)
    return lo, hi


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

    # -- arithmetic ---------------------------------------------------------
    def __neg__(self):
        return _interval(-self.hi, -self.lo)

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
            return _iv(*_product(self.lo, self.hi, other.lo, other.hi))
        if isinstance(other, (int, float)):
            if other >= 0:
                lo, hi = self.lo * other, self.hi * other
            else:
                lo, hi = self.hi * other, self.lo * other
            if not lo <= hi and other == other:
                # a 0 * inf product is NaN; count it as 0, as _product does
                lo, hi = (0.0 if q != q else q for q in (lo, hi))
            return _iv(lo, hi)
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


# -- flat interval partials -------------------------------------------------
# An interval-valued Dual keeps partial k as the float pair (lo[k], hi[k]).
# These loops do per pair what the Interval operators do per object: the same
# products and sums, padded like _iv and in the same order. A pair that fails
# the one `not l <= h` test (a NaN) is redone with Interval objects, which
# either give the Interval operators' result or raise their error.

def _neg(lo, hi):
    return [-h for h in hi], [-l for l in lo]


def _sum(alo, ahi, blo, bhi):
    """Padded sums of two lists of interval partials."""
    out_lo, out_hi = [], []
    for a, b, c, d in zip(alo, ahi, blo, bhi):
        lo = a + c
        hi = b + d
        lo -= abs(lo) * _PAD + _TINY
        hi += abs(hi) * _PAD + _TINY
        if not lo <= hi:
            x = _interval(a, b) + _interval(c, d)
            lo, hi = x.lo, x.hi
        out_lo.append(lo)
        out_hi.append(hi)
    return out_lo, out_hi


def _scaled(lo, hi, f, plus=None):
    """Padded products of interval partials with one factor f, a float or an
    Interval; with `plus`, a pair of partial lists, each product is then
    added to the matching partial of `plus` and padded again.

    These are _product's sign cases with f's case picked once. A float f
    acts as [f, f], whose products are the ones Interval * float takes."""
    if isinstance(f, Interval):
        fl, fh = f.lo, f.hi
    else:
        fl = fh = f
    case = 0 if fl >= 0.0 else 1 if fh <= 0.0 else 2
    add_lo, add_hi = plus if plus is not None else (lo, hi)    # unread without plus
    out_lo, out_hi = [], []
    for a, b, c, d in zip(lo, hi, add_lo, add_hi):
        if case == 0:
            l = a * fl if a >= 0.0 else a * fh
            h = b * fh if b >= 0.0 else b * fl
        elif case == 1:
            l = b * fl if b >= 0.0 else b * fh
            h = a * fh if a >= 0.0 else a * fl
        else:
            l = a * fh
            p = b * fl
            if p < l:
                l = p
            h = a * fl
            p = b * fh
            if p > h:
                h = p
        l -= abs(l) * _PAD + _TINY
        h += abs(h) * _PAD + _TINY
        if plus is not None:
            l += c
            h += d
            l -= abs(l) * _PAD + _TINY
            h += abs(h) * _PAD + _TINY
        if not l <= h:
            x = _interval(a, b) * f
            if plus is not None:
                x = x + _interval(c, d)
            l, h = x.lo, x.hi
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _ends(x: "Dual"):
    """(lo, hi) partial lists of x; float partials are the points [d, d]."""
    return x.lo, x.lo if x.hi is None else x.hi


def _dual(val, lo, hi=None) -> "Dual":
    out = _new(Dual)
    out.val = val
    out.lo = lo
    out.hi = hi
    return out


class Dual:
    """Forward-mode scalar: a value plus partial derivatives.

    The value and the partials may be floats or Intervals. Float partials
    are the list `lo`, with `hi` None; interval partials are the two float
    lists `lo` and `hi`, partial k being [lo[k], hi[k]]. A Dual whose value
    or any partial is an Interval has interval partials, and float partials
    that meet interval ones or an Interval operand count as the points
    [d, d]. A constant operand acts as a Dual with zero partials, as if
    lifted, so each result equals the one computed with one Interval object
    per partial.
    """

    __slots__ = ("val", "lo", "hi")

    def __init__(self, val, der):
        der = list(der)
        self.val = val
        if isinstance(val, Interval) or any(isinstance(d, Interval) for d in der):
            der = [as_interval(d) for d in der]
            self.lo = [d.lo for d in der]
            self.hi = [d.hi for d in der]
        else:
            self.lo = der
            self.hi = None

    @property
    def der(self) -> tuple:
        if self.hi is None:
            return tuple(self.lo)
        return tuple(map(_interval, self.lo, self.hi))

    @staticmethod
    def seed(values, kind=float):
        """One Dual per entry of `values`, seeded with unit partials."""
        n = len(values)
        out = []
        for i, v in enumerate(values):
            der = [0.0] * n
            der[i] = 1.0
            out.append(Dual(v, der) if kind is float else _dual(v, der, der))
        return out

    def __repr__(self):
        return f"Dual({self.val!r}, {self.der!r})"

    def __neg__(self):
        if self.hi is None:
            return _dual(-self.val, [-d for d in self.lo])
        return _dual(-self.val, *_neg(self.lo, self.hi))

    def __add__(self, other):
        o = _operand(other, self)
        if o is None:
            return NotImplemented
        val = self.val + o.val
        if self.hi is None and o.hi is None:
            return _dual(val, [a + b for a, b in zip(self.lo, o.lo)])
        return _dual(val, *_sum(*_ends(self), *_ends(o)))

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other, self)
        if o is None:
            return NotImplemented
        val = self.val - o.val
        if self.hi is None and o.hi is None:
            return _dual(val, [a - b for a, b in zip(self.lo, o.lo)])
        return _dual(val, *_sum(*_ends(self), *_neg(*_ends(o))))

    def __rsub__(self, other):
        o = _operand(other, self)
        return NotImplemented if o is None else o.__sub__(self)

    def __mul__(self, other):
        if self.hi is None and isinstance(other, (int, float)):
            # the lifted constant's zero partials, folded: v * 0.0 each
            vz = self.val * 0.0
            return _dual(self.val * other, [a * other + vz for a in self.lo])
        o = _operand(other, self)
        if o is None:
            return NotImplemented
        v, w = self.val, o.val
        val = v * w
        if self.hi is None and o.hi is None:
            return _dual(val, [a * w + v * b for a, b in zip(self.lo, o.lo)])
        return _dual(val, *_scaled(*_ends(o), v, _scaled(*_ends(self), w)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other, self)
        if o is None:
            return NotImplemented
        inv = 1.0 / o.val
        q = self.val * inv
        if self.hi is None and o.hi is None:
            return _dual(q, [(a - q * b) * inv for a, b in zip(self.lo, o.lo)])
        return _dual(q, *_scaled(*_sum(*_ends(self), *_neg(*_scaled(*_ends(o), q))), inv))

    def __rtruediv__(self, other):
        o = _operand(other, self)
        return NotImplemented if o is None else o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            return NotImplemented
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def _lifted(c, like: Dual) -> Dual:
    """The constant c as a Dual with zero partials of like's kind."""
    zeros = [0.0] * len(like.lo)
    interval = like.hi is not None or isinstance(c, Interval)
    return _dual(c, zeros, zeros if interval else None)


def _operand(other, like: Dual):
    """other as a Dual: itself, a lifted constant, or None for other types."""
    if isinstance(other, Dual):
        return other
    if isinstance(other, (int, float, Interval)):
        return _lifted(other, like)
    return None


def _chain(x: Dual, val, dval) -> Dual:
    if x.hi is None:
        return _dual(val, [dval * d for d in x.lo])
    return _dual(val, *_scaled(x.lo, x.hi, dval))


# -- generic scalar functions ----------------------------------------------
# Dispatch on argument type so the dynamics core runs unchanged on floats,
# Intervals and Duals; floats are tested first, so the float path pays one
# isinstance.

def sin(x):
    if isinstance(x, float):
        return math.sin(x)
    if isinstance(x, Dual):
        return _chain(x, sin(x.val), cos(x.val))
    if isinstance(x, Interval):
        return interval_sin(x)
    return math.sin(x)


def cos(x):
    if isinstance(x, float):
        return math.cos(x)
    if isinstance(x, Dual):
        return _chain(x, cos(x.val), -sin(x.val))
    if isinstance(x, Interval):
        return interval_cos(x)
    return math.cos(x)


def tanh(x):
    if isinstance(x, float):
        return math.tanh(x)
    if isinstance(x, Dual):
        t = tanh(x.val)
        return _chain(x, t, 1.0 - t * t)
    if isinstance(x, Interval):
        return interval_tanh(x)
    return math.tanh(x)


def sqrt(x):
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, Dual):
        r = sqrt(x.val)
        return _chain(x, r, 0.5 / r)
    if isinstance(x, Interval):
        return interval_sqrt(x)
    return math.sqrt(x)


def absval(x):
    if isinstance(x, float):
        return abs(x)
    if isinstance(x, Dual):
        v = x.val
        if isinstance(v, Interval):
            if v.lo >= 0:
                return _dual(interval_abs(v), x.lo, x.hi)
            if v.hi <= 0:
                return -x
            # |.| is not differentiable through zero: widen the slope to [-1,1]
            return _dual(interval_abs(v), *_scaled(x.lo, x.hi, Interval(-1.0, 1.0)))
        return x if v >= 0 else -x
    if isinstance(x, Interval):
        return interval_abs(x)
    return abs(x)


def atan2(y, x):
    if isinstance(y, float) and isinstance(x, float):
        return math.atan2(y, x)
    if isinstance(y, Dual) or isinstance(x, Dual):
        if not isinstance(y, Dual):
            y = _lifted(y, x)
        if not isinstance(x, Dual):
            x = _lifted(x, y)
        v = atan2(y.val, x.val)
        denom = x.val * x.val + y.val * y.val
        if isinstance(denom, Interval) and denom.lo <= 0.0:
            raise IntervalDomainError(
                "atan2 derivative unbounded: velocity box reaches the origin")
        if x.hi is None and y.hi is None:
            return _dual(v, [(x.val * dy - y.val * dx) / denom
                             for dy, dx in zip(y.lo, x.lo)])
        num = _sum(*_scaled(*_ends(y), x.val), *_neg(*_scaled(*_ends(x), y.val)))
        if isinstance(denom, Interval):
            # Interval / Interval multiplies by this padded reciprocal
            recip = _iv(1.0 / denom.hi, 1.0 / denom.lo)
        elif denom == 0:
            raise ZeroDivisionError("interval divided by zero scalar")
        else:
            recip = 1.0 / denom
        return _dual(v, *_scaled(*num, recip))
    if isinstance(y, Interval) or isinstance(x, Interval):
        if not isinstance(y, Interval):
            y = Interval(y)
        if not isinstance(x, Interval):
            x = Interval(x)
        return interval_atan2(y, x)
    return math.atan2(y, x)


def as_interval(x) -> Interval:
    if isinstance(x, Dual):
        return as_interval(x.val)
    if isinstance(x, Interval):
        return x
    return Interval(float(x))
