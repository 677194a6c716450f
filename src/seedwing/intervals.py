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
    counts that product as 0, and a NaN operand gives NaN bounds."""
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
        if al != al or ah != ah or bl != bl or bh != bh:
            return math.nan, math.nan
        p = [0.0 if q != q else q for q in (al * bl, al * bh, ah * bl, ah * bh)]
        return min(p), max(p)
    return lo, hi


def _pad(l, h):
    """(l, h) widened outward as _iv widens it, as a float pair; a NaN or
    reversed pair raises the Interval error."""
    l -= (l if l >= 0.0 else -l) * _PAD + _TINY
    h += (h if h >= 0.0 else -h) * _PAD + _TINY
    if not l <= h:
        Interval(l, h)      # raises
    return l, h


def _scale(l, h, t):
    """Interval * number on a float pair: padded bounds of [l, h] * t, the
    endpoint products ordered by t's sign. A 0 * inf product counts as 0,
    as in _product; a NaN t raises."""
    l, h = (l * t, h * t) if t >= 0 else (h * t, l * t)
    if not l <= h and t == t:
        l, h = (0.0 if q != q else q for q in (l, h))
    return _pad(l, h)


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
            return _interval(*_scale(self.lo, self.hi, other))
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


def _wave(x: Interval, fn, peak: float) -> Interval:
    """Enclosure of fn, math.sin or math.cos, over x: the hull of its values
    at x's endpoints, raised to 1 if x holds a maximum peak + 2k*pi and
    lowered to -1 if it holds a minimum peak - pi + 2k*pi."""
    if x.width >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    a, b = fn(x.lo), fn(x.hi)
    lo, hi = min(a, b), max(a, b)
    if math.floor((x.hi - peak) / (2 * math.pi)) >= math.ceil((x.lo - peak) / (2 * math.pi)):
        hi = 1.0
    trough = peak - math.pi
    if math.floor((x.hi - trough) / (2 * math.pi)) >= math.ceil((x.lo - trough) / (2 * math.pi)):
        lo = -1.0
    iv = _iv(lo, hi)
    return Interval(max(iv.lo, -1.0), min(iv.hi, 1.0))


def interval_sin(x: Interval) -> Interval:
    return _wave(x, math.sin, math.pi / 2)


def interval_cos(x: Interval) -> Interval:
    return _wave(x, math.cos, 0.0)


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
    # corners at signed zeros are taken at 0.0 (x + 0.0 turns -0.0 into 0.0):
    # math.atan2(-0.0, -1.0) is -pi, across the seam from atan2(0, -1) = pi
    ylo, yhi, xlo, xhi = y.lo + 0.0, y.hi + 0.0, x.lo + 0.0, x.hi + 0.0
    corners = (math.atan2(ylo, xlo), math.atan2(ylo, xhi),
               math.atan2(yhi, xlo), math.atan2(yhi, xhi))
    out = _iv(min(corners), max(corners))
    # the corners lie in [-pi/2, pi]; math.pi is the float below pi, so the
    # cap is the float above it
    return _interval(out.lo, min(out.hi, math.nextafter(math.pi, math.inf)))


# -- flat interval partials -------------------------------------------------
# An interval-valued Dual keeps partial k as the float pair (lo[k], hi[k]).
# These loops do per pair what the Interval operators do per object, one
# pass per Dual operator: the same sums, the same products (_product is the
# one sign-case kernel, a float factor t acting as [t, t]) and the same
# padding, written inline, in the same order. Every pair lo <= hi stays
# ordered under these steps, so a pair that fails the one `not l <= h` test
# holds a NaN (from a NaN operand, inf - inf, or a lower bound of +inf
# padded) and raises the Interval error, as the Interval operators would.
# |x| is written `x if x >= 0.0 else -x`, which pads -0.0 to the same bits
# as abs(x).
#
# A constant operand's partials are exact zeros and form no term: a constant
# added or subtracted keeps the Dual's partials, a constant factor scales
# them once, and only the Dual's own terms are padded.
#
# An exact-zero partial, a pair that is exactly (0.0, 0.0) (either zero's
# sign), forms no term either: times any factor it is (0.0, 0.0), and added
# to a pair it leaves that pair as it is. Both results are exact in IEEE
# arithmetic, so neither is padded. A lane of a partial the expression never
# reads (a structural zero of the Jacobian) thus stays exactly zero, where
# padding would turn it into +-1e-300 dust. `a or b` is the test: it is
# false only for two zeros (a NaN is true, so a NaN lane still raises).


def _bounds(f):
    """Endpoints of f, an Interval or a float (the point [f, f])."""
    return (f.lo, f.hi) if isinstance(f, Interval) else (f, f)


def _neg(lo, hi):
    return [-h for h in hi], [-l for l in lo]


def _sum(alo, ahi, blo, bhi):
    """Padded sums of two lists of interval partials; an exact-zero pair
    leaves the other pair unpadded."""
    out_lo, out_hi = [], []
    for a, b, c, d in zip(alo, ahi, blo, bhi):
        if not (a or b):
            lo, hi = c, d
        elif not (c or d):
            lo, hi = a, b
        else:
            lo = a + c
            hi = b + d
            lo -= (lo if lo >= 0.0 else -lo) * _PAD + _TINY
            hi += (hi if hi >= 0.0 else -hi) * _PAD + _TINY
        if not lo <= hi:
            Interval(lo, hi)    # raises
        out_lo.append(lo)
        out_hi.append(hi)
    return out_lo, out_hi


def _scaled(lo, hi, f):
    """Padded products of interval partials with one factor f, a float or an
    Interval; an exact-zero pair gives (0.0, 0.0)."""
    fl, fh = _bounds(f)
    out_lo, out_hi = [], []
    for a, b in zip(lo, hi):
        if a or b:
            l, h = _product(a, b, fl, fh)
            l -= (l if l >= 0.0 else -l) * _PAD + _TINY
            h += (h if h >= 0.0 else -h) * _PAD + _TINY
            if not l <= h:
                Interval(l, h)      # raises
        else:
            l = h = 0.0
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _scaled_sum(alo, ahi, f, blo, bhi, g):
    """Padded sums of the padded products a * f and b * g of two lists of
    interval partials (f and g floats or Intervals): the partials of a Dual
    product, in one pass. An exact-zero pair forms no product, and a sum
    with no product on one side is the other product, unpadded."""
    fl, fh = _bounds(f)
    gl, gh = _bounds(g)
    out_lo, out_hi = [], []
    for a, b, c, d in zip(alo, ahi, blo, bhi):
        if c or d:
            l, h = _product(c, d, gl, gh)
            l -= (l if l >= 0.0 else -l) * _PAD + _TINY
            h += (h if h >= 0.0 else -h) * _PAD + _TINY
            if a or b:
                l1, h1 = _product(a, b, fl, fh)
                l1 -= (l1 if l1 >= 0.0 else -l1) * _PAD + _TINY
                h1 += (h1 if h1 >= 0.0 else -h1) * _PAD + _TINY
                l += l1
                h += h1
                l -= (l if l >= 0.0 else -l) * _PAD + _TINY
                h += (h if h >= 0.0 else -h) * _PAD + _TINY
        elif a or b:
            l, h = _product(a, b, fl, fh)
            l -= (l if l >= 0.0 else -l) * _PAD + _TINY
            h += (h if h >= 0.0 else -h) * _PAD + _TINY
        else:
            l = h = 0.0
        if not l <= h:
            Interval(l, h)      # raises
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _ends(x: "Dual"):
    """(lo, hi) partial lists of x; float partials are the points [d, d]."""
    return x.lo, x.lo if x.hi is None else x.hi


def _partials(x: "Dual", c):
    """x's partial lists beside the constant c: the points [d, d] when c is
    an Interval and x's partials are floats, else x's own."""
    return _ends(x) if isinstance(c, Interval) else (x.lo, x.hi)


def _dual(val, lo, hi=None) -> "Dual":
    out = _new(Dual)
    out.val = val
    out.lo = lo
    out.hi = hi
    return out


def _chain(x: "Dual", val, f) -> "Dual":
    """The Dual of value val whose partials are x's times f, a float or an
    Interval."""
    lo, hi = _partials(x, f)
    if hi is None:
        return _dual(val, [f * d for d in lo])
    return _dual(val, *_scaled(lo, hi, f))


class Dual:
    """Forward-mode scalar: a value plus partial derivatives.

    The value and the partials may be floats or Intervals. Float partials
    are the list `lo`, with `hi` None; interval partials are the two float
    lists `lo` and `hi`, partial k being [lo[k], hi[k]]. A Dual whose value
    or any partial is an Interval has interval partials, and float partials
    that meet interval ones or an Interval operand count as the points
    [d, d]. A float or Interval operand is a constant: its partials are
    exact zeros and form no term, so c + x keeps x's partials, c * x and
    x / c scale them once, and c / x is -(q * x') / x with q = c / x.
    Likewise an interval partial that is exactly [0, 0] forms no term: its
    product with any factor is [0, 0] and its sum with another partial is
    that partial, both unpadded, so a lane the expression never reads stays
    an exact zero.
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
        if isinstance(other, Dual):
            val = self.val + other.val
            if self.hi is None and other.hi is None:
                return _dual(val, [a + b for a, b in zip(self.lo, other.lo)])
            return _dual(val, *_sum(*_ends(self), *_ends(other)))
        if isinstance(other, (int, float, Interval)):
            return _dual(self.val + other, *_partials(self, other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            val = self.val - other.val
            if self.hi is None and other.hi is None:
                return _dual(val, [a - b for a, b in zip(self.lo, other.lo)])
            return _dual(val, *_sum(*_ends(self), *_neg(*_ends(other))))
        if isinstance(other, (int, float, Interval)):
            return _dual(self.val - other, *_partials(self, other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float, Interval)):
            return _dual(other - self.val, *_partials(-self, other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            v, w = self.val, other.val
            val = v * w
            if self.hi is None and other.hi is None:
                return _dual(val, [a * w + v * b for a, b in zip(self.lo, other.lo)])
            return _dual(val, *_scaled_sum(*_ends(self), w, *_ends(other), v))
        if isinstance(other, (int, float, Interval)):
            return _chain(self, self.val * other, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            if self.hi is None and other.hi is None:
                return _dual(q, [(a - q * b) * inv for a, b in zip(self.lo, other.lo)])
            return _dual(q, *_scaled(*_sum(*_ends(self), *_neg(*_scaled(*_ends(other), q))),
                                     inv))
        if isinstance(other, (int, float, Interval)):
            inv = 1.0 / other
            return _chain(self, self.val * inv, inv)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, Interval)):
            inv = 1.0 / self.val
            q = other * inv
            return _chain(-_chain(self, q, q), q, inv)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            return NotImplemented
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


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
        yv = y.val if isinstance(y, Dual) else y
        xv = x.val if isinstance(x, Dual) else x
        v = atan2(yv, xv)
        denom = xv * xv + yv * yv
        if isinstance(denom, Interval) and denom.lo <= 0.0:
            raise IntervalDomainError(
                "atan2 derivative unbounded: velocity box reaches the origin")
        # partials (x * dy - y * dx) / denom; a constant argument forms no term
        if not isinstance(x, Dual):
            num = _chain(y, v, xv)
        elif not isinstance(y, Dual):
            num = -_chain(x, v, yv)
        elif x.hi is None and y.hi is None:
            return _dual(v, [(xv * dy - yv * dx) / denom for dy, dx in zip(y.lo, x.lo)])
        else:
            num = _dual(v, *_sum(*_scaled(*_ends(y), xv), *_neg(*_scaled(*_ends(x), yv))))
        if num.hi is None:
            return _dual(v, [d / denom for d in num.lo])
        if isinstance(denom, Interval):
            # Interval / Interval multiplies by this padded reciprocal
            recip = _iv(1.0 / denom.hi, 1.0 / denom.lo)
        elif denom == 0:
            raise ZeroDivisionError("interval divided by zero scalar")
        else:
            recip = 1.0 / denom
        return _chain(num, v, recip)
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
