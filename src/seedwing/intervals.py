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


def _pad(l, h):
    """(l, h) widened outward as _iv widens it, as a float pair; a NaN or
    reversed pair raises the Interval error."""
    l -= (l if l >= 0.0 else -l) * _PAD + _TINY
    h += (h if h >= 0.0 else -h) * _PAD + _TINY
    if not l <= h:
        Interval(l, h)      # raises
    return l, h


def _scale(l, h, t):
    """Interval * float on a float pair: padded bounds of [l, h] * t."""
    l, h = (l * t, h * t) if t >= 0 else (h * t, l * t)
    if not l <= h and t == t:
        # a 0 * inf product counts as 0, as in Interval * float
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
# products and sums, padded like _iv and in the same order, one pass per Dual
# operator. A pair that fails the one `not l <= h` test (a NaN) is redone with
# Interval objects, which either give the Interval operators' result or raise
# their error. |x| is written `x if x >= 0.0 else -x`, which pads -0.0 and
# NaN to the same bits as abs(x).
#
# A constant operand acts as a Dual with zero partials. Such a partial times
# a finite value pads to _ZERO = [-_TINY, _TINY], so the constant paths add
# that pair instead of forming the products.

_ZERO = _interval(-_TINY, _TINY)


def _finite(v) -> bool:
    """v, a number or an Interval, has finite endpoints."""
    if isinstance(v, Interval):
        return math.isfinite(v.lo) and math.isfinite(v.hi)
    return math.isfinite(v)


def _neg(lo, hi):
    return [-h for h in hi], [-l for l in lo]


def _sum(alo, ahi, blo, bhi):
    """Padded sums of two lists of interval partials."""
    out_lo, out_hi = [], []
    for a, b, c, d in zip(alo, ahi, blo, bhi):
        lo = a + c
        hi = b + d
        lo -= (lo if lo >= 0.0 else -lo) * _PAD + _TINY
        hi += (hi if hi >= 0.0 else -hi) * _PAD + _TINY
        if not lo <= hi:
            x = _interval(a, b) + _interval(c, d)
            lo, hi = x.lo, x.hi
        out_lo.append(lo)
        out_hi.append(hi)
    return out_lo, out_hi


def _padded(lo, hi, negate=False):
    """Padded interval partials, negated with `negate`: the partials of a
    Dual plus or minus a constant (or of the constant minus the Dual), whose
    zero partials change no bit that the padding keeps (a + 0.0 differs from
    a only at -0.0, and padding rounds symmetrically)."""
    out_lo, out_hi = [], []
    for a, b in zip(lo, hi):
        l = a - ((a if a >= 0.0 else -a) * _PAD + _TINY)
        h = b + ((b if b >= 0.0 else -b) * _PAD + _TINY)
        if not l <= h:
            x = _iv(a, b)
            l, h = x.lo, x.hi
        if negate:
            l, h = -h, -l
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _cases(f):
    """f's endpoints and _product's sign case for it: 0 if f >= 0, 1 if
    f <= 0, 2 if it straddles zero. A float f acts as [f, f], whose products
    are the ones Interval * float takes."""
    fl, fh = (f.lo, f.hi) if isinstance(f, Interval) else (f, f)
    return fl, fh, 0 if fl >= 0.0 else 1 if fh <= 0.0 else 2


def _scaled(lo, hi, f, lifted=False):
    """Padded products of interval partials with one factor f, a float or an
    Interval: _product's sign cases with f's case picked once. With `lifted`
    each product then gets _ZERO added and is padded again: the partials of
    a Dual with a finite value times the constant f."""
    fl, fh, case = _cases(f)
    out_lo, out_hi = [], []
    for a, b in zip(lo, hi):
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
        l -= (l if l >= 0.0 else -l) * _PAD + _TINY
        h += (h if h >= 0.0 else -h) * _PAD + _TINY
        if lifted:
            l -= _TINY
            h += _TINY
            l -= (l if l >= 0.0 else -l) * _PAD + _TINY
            h += (h if h >= 0.0 else -h) * _PAD + _TINY
        if not l <= h:
            x = _interval(a, b) * f
            if lifted:
                x = x + _ZERO
            l, h = x.lo, x.hi
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _scaled_sum(alo, ahi, f, blo, bhi, g):
    """Padded sums of the padded products a * f and b * g of two lists of
    interval partials (f and g floats or Intervals): the partials of a Dual
    product, in one pass."""
    fl, fh, fcase = _cases(f)
    gl, gh, gcase = _cases(g)
    out_lo, out_hi = [], []
    for a, b, c, d in zip(alo, ahi, blo, bhi):
        if fcase == 0:
            l1 = a * fl if a >= 0.0 else a * fh
            h1 = b * fh if b >= 0.0 else b * fl
        elif fcase == 1:
            l1 = b * fl if b >= 0.0 else b * fh
            h1 = a * fh if a >= 0.0 else a * fl
        else:
            l1 = a * fh
            p = b * fl
            if p < l1:
                l1 = p
            h1 = a * fl
            p = b * fh
            if p > h1:
                h1 = p
        if gcase == 0:
            l = c * gl if c >= 0.0 else c * gh
            h = d * gh if d >= 0.0 else d * gl
        elif gcase == 1:
            l = d * gl if d >= 0.0 else d * gh
            h = c * gh if c >= 0.0 else c * gl
        else:
            l = c * gh
            p = d * gl
            if p < l:
                l = p
            h = c * gl
            p = d * gh
            if p > h:
                h = p
        l1 -= (l1 if l1 >= 0.0 else -l1) * _PAD + _TINY
        h1 += (h1 if h1 >= 0.0 else -h1) * _PAD + _TINY
        l -= (l if l >= 0.0 else -l) * _PAD + _TINY
        h += (h if h >= 0.0 else -h) * _PAD + _TINY
        l += l1
        h += h1
        l -= (l if l >= 0.0 else -l) * _PAD + _TINY
        h += (h if h >= 0.0 else -h) * _PAD + _TINY
        if not l <= h:
            x = _interval(c, d) * g + _interval(a, b) * f
            l, h = x.lo, x.hi
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _quotient(lo, hi, inv):
    """Padded partials of a Dual with a finite value over a constant, in one
    pass: each partial minus _ZERO, padded, then times inv, the constant's
    reciprocal, padded. The difference is checked before the product, whose
    straddling case would drop a NaN factor."""
    il, ih, icase = _cases(inv)
    out_lo, out_hi = [], []
    for a, b in zip(lo, hi):
        s, t = _pad(a - _TINY, b + _TINY)
        if icase == 0:
            l = s * il if s >= 0.0 else s * ih
            h = t * ih if t >= 0.0 else t * il
        elif icase == 1:
            l = t * il if t >= 0.0 else t * ih
            h = s * ih if s >= 0.0 else s * il
        else:
            l = s * ih
            p = t * il
            if p < l:
                l = p
            h = s * il
            p = t * ih
            if p > h:
                h = p
        l -= (l if l >= 0.0 else -l) * _PAD + _TINY
        h += (h if h >= 0.0 else -h) * _PAD + _TINY
        if not l <= h:
            x = (_interval(a, b) + _ZERO) * inv
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
        if isinstance(other, Dual):
            val = self.val + other.val
            if self.hi is None and other.hi is None:
                return _dual(val, [a + b for a, b in zip(self.lo, other.lo)])
            return _dual(val, *_sum(*_ends(self), *_ends(other)))
        if isinstance(other, (int, float)) and self.hi is None:
            return _dual(self.val + other, [a + 0.0 for a in self.lo])
        if isinstance(other, (int, float, Interval)):
            return _dual(self.val + other, *_padded(*_ends(self)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            val = self.val - other.val
            if self.hi is None and other.hi is None:
                return _dual(val, [a - b for a, b in zip(self.lo, other.lo)])
            return _dual(val, *_sum(*_ends(self), *_neg(*_ends(other))))
        if isinstance(other, (int, float)) and self.hi is None:
            return _dual(self.val - other, [a - 0.0 for a in self.lo])
        if isinstance(other, (int, float, Interval)):
            return _dual(self.val - other, *_padded(*_ends(self)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)) and self.hi is None:
            return _dual(other - self.val, [0.0 - a for a in self.lo])
        if isinstance(other, (int, float, Interval)):
            return _dual(other - self.val, *_padded(*_ends(self), negate=True))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            v, w = self.val, other.val
            val = v * w
            if self.hi is None and other.hi is None:
                return _dual(val, [a * w + v * b for a, b in zip(self.lo, other.lo)])
            return _dual(val, *_scaled_sum(*_ends(self), w, *_ends(other), v))
        if isinstance(other, (int, float)) and self.hi is None:
            # the lifted constant's zero partials, folded: v * 0.0 each
            vz = self.val * 0.0
            return _dual(self.val * other, [a * other + vz for a in self.lo])
        if isinstance(other, (int, float, Interval)):
            v = self.val
            val = v * other
            if _finite(v):
                return _dual(val, *_scaled(*_ends(self), other, lifted=True))
            zeros = [0.0] * len(self.lo)
            return _dual(val, *_scaled_sum(*_ends(self), other, zeros, zeros, v))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            if self.hi is None and other.hi is None:
                return _dual(q, [(a - q * b) * inv for a, b in zip(self.lo, other.lo)])
            o_lo, o_hi = _ends(other)
        elif isinstance(other, (int, float)) and self.hi is None:
            inv = 1.0 / other
            q = self.val * inv
            qz = q * 0.0
            return _dual(q, [(a - qz) * inv for a in self.lo])
        elif isinstance(other, (int, float, Interval)):
            inv = 1.0 / other
            q = self.val * inv
            if _finite(q):
                return _dual(q, *_quotient(*_ends(self), inv))
            o_lo = o_hi = [0.0] * len(self.lo)
        else:
            return NotImplemented
        return _dual(q, *_scaled(*_sum(*_ends(self), *_neg(*_scaled(o_lo, o_hi, q))), inv))

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
