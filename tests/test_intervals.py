import math
import operator
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seedwing import intervals as iv
from seedwing.intervals import Dual, Interval, IntervalDomainError

from oracles import (TWO_PASS_KERNELS, TWO_PASS_OPERATORS, MPDual, RefDual, ref_absval,
                     ref_atan2, ref_cos, ref_iv, ref_mul, ref_sin, ref_sqrt,
                     ref_tanh, two_pass_add, two_pass_mul, two_pass_rsub,
                     two_pass_rtruediv, two_pass_sub, two_pass_truediv)
from set_helpers import contains


def rand_interval(rng, lo=-3.0, hi=3.0):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return Interval(a, b)


def test_construction_and_validation():
    x = Interval(1.0, 2.0)
    assert x.mid == 1.5 and x.width == 1.0
    assert Interval(2.0).lo == Interval(2.0).hi == 2.0
    with pytest.raises(IntervalDomainError):
        Interval(2.0, 1.0)
    with pytest.raises(IntervalDomainError):
        Interval(float("nan"), 1.0)


def test_arithmetic_containment_sampled():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = rand_interval(rng)
        y = rand_interval(rng)
        xs = rng.uniform(x.lo, x.hi, size=8)
        ys = rng.uniform(y.lo, y.hi, size=8)
        for a, b in zip(xs, ys):
            assert contains(x + y, a + b)
            assert contains(x - y, a - b)
            assert contains(x * y, a * b)
            assert contains(-x, -a)
            assert contains(x + 1.5, a + 1.5)
            assert contains(2.5 * x, 2.5 * a)
            assert contains(x ** 2, a * a)
            assert contains(x ** 3, a ** 3)
            if y.lo > 0.1 or y.hi < -0.1:
                assert contains(x / y, a / b)


def test_division_by_zero_straddling_interval():
    with pytest.raises(IntervalDomainError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / 0.0


def test_power_overflow_raises_domain_error():
    with pytest.raises(IntervalDomainError, match="power overflows"):
        Interval(1e200, 1e201) ** 2
    with pytest.raises(IntervalDomainError, match="power overflows"):
        Interval(-1e201, 1e200) ** 4


def test_dual_power_overflow_raises_domain_error():
    x = Dual.seed([Interval(1e200, 1e201)], kind=Interval)[0]
    with pytest.raises(IntervalDomainError, match="power overflows"):
        x ** 2


def test_square_of_sign_straddling_contains_zero():
    sq = Interval(-2.0, 1.0) ** 2
    assert sq.lo <= 0.0 <= sq.hi and contains(sq, 4.0) and contains(sq, 0.25)


def test_sin_cos_envelopes():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rand_interval(rng, -7.0, 7.0)
        s = iv.interval_sin(x)
        c = iv.interval_cos(x)
        for t in np.linspace(x.lo, x.hi, 25):
            assert contains(s, math.sin(t), tol=1e-12)
            assert contains(c, math.cos(t), tol=1e-12)
    # peak capture: sin over [0, pi] must reach 1
    s = iv.interval_sin(Interval(0.0, math.pi))
    assert s.hi >= 1.0 - 1e-12 and s.lo <= 1e-12
    # cos of the float nearest -pi/2 is 6.12e-17, not 0
    assert contains(iv.interval_cos(Interval(-math.pi / 2)), math.cos(-math.pi / 2))


def test_monotone_functions():
    x = Interval(-0.5, 2.0)
    t = iv.interval_tanh(x)
    assert contains(t, math.tanh(-0.5)) and contains(t, math.tanh(2.0))
    s = iv.interval_sqrt(Interval(0.25, 4.0))
    assert contains(s, 0.5) and contains(s, 2.0)
    with pytest.raises(IntervalDomainError):
        iv.interval_sqrt(Interval(-2.0, -1.0))
    a = iv.interval_abs(Interval(-3.0, 1.0))
    assert a.lo == 0.0 and contains(a, 3.0)


def test_atan2_right_half_plane_corners():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rand_interval(rng, 0.05, 3.0)
        y = rand_interval(rng, -3.0, 3.0)
        out = iv.interval_atan2(y, x)
        for ys in np.linspace(y.lo, y.hi, 7):
            for xs in np.linspace(x.lo, x.hi, 7):
                assert contains(out, math.atan2(ys, xs), tol=1e-12)


def test_atan2_upper_half_plane_any_x():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rand_interval(rng, -3.0, 3.0)
        y = rand_interval(rng, 0.0, 3.0)
        out = iv.interval_atan2(y, x)
        for ys in np.linspace(y.lo, y.hi, 7):
            for xs in np.linspace(x.lo, x.hi, 7):
                if ys == 0.0 and xs == 0.0:
                    continue
                assert contains(out, math.atan2(ys, xs), tol=1e-12)
    with pytest.raises(IntervalDomainError):
        iv.interval_atan2(Interval(-1.0, 1.0), Interval(-1.0, 1.0))


def _fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_dual_float_derivatives_match_finite_differences():
    fns = [
        (iv.sin, math.sin), (iv.cos, math.cos), (iv.tanh, math.tanh),
        (iv.sqrt, math.sqrt),
    ]
    for x0 in (0.3, 0.9, 1.7):
        for gen, ref in fns:
            d = gen(Dual(x0, [1.0]))
            assert d.val == pytest.approx(ref(x0), rel=1e-12)
            assert d.der[0] == pytest.approx(_fd(ref, x0), rel=1e-6)
    # composite: atan2(y, x) partials
    y0, x0 = -0.4, 1.2
    dy = iv.atan2(Dual(y0, [1.0, 0.0]), Dual(x0, [0.0, 1.0]))
    assert dy.der[0] == pytest.approx(x0 / (x0 ** 2 + y0 ** 2), rel=1e-12)
    assert dy.der[1] == pytest.approx(-y0 / (x0 ** 2 + y0 ** 2), rel=1e-12)
    # quotient and power
    q = Dual(2.0, [1.0]) / Dual(4.0, [0.0])
    assert q.val == 0.5 and q.der[0] == pytest.approx(0.25)
    p = Dual(3.0, [1.0]) ** 3
    assert p.val == 27.0 and p.der[0] == pytest.approx(27.0)


def test_dual_over_interval_contains_pointwise_slopes():
    rng = np.random.default_rng(4)

    def f(x):
        return iv.sin(x) * x + iv.tanh(x * 0.5)

    for _ in range(100):
        box = rand_interval(rng, -2.0, 2.0)
        d = f(Dual(box, [Interval(1.0)]))
        slope = d.der[0]
        for t in np.linspace(box.lo, box.hi, 9):
            dp = f(Dual(t, [1.0]))
            assert contains(slope, dp.der[0], tol=1e-10)


def test_absval_dual_through_zero_widens_slope():
    d = iv.absval(Dual(Interval(-1.0, 2.0), [Interval(1.0)]))
    assert contains(d.der[0], 1.0) and contains(d.der[0], -1.0)
    d2 = iv.absval(Dual(Interval(0.5, 2.0), [Interval(1.0)]))
    assert contains(d2.der[0], 1.0) and not contains(d2.der[0], -0.5)


def test_interval_helpers():
    assert iv.as_interval(1.5).lo == 1.5
    a = Interval(0.0, 2.0)
    assert iv.as_interval(a) is a
    assert iv.as_interval(Dual(a, [Interval(1.0)])) is a


# -- flat interval partials against one Interval object per partial ------------

PROPS = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
ZEROS = st.sampled_from([0.0, -0.0])
SMALL = st.floats(-8.0, 8.0, allow_nan=False) | ZEROS | st.sampled_from([1.0, -1.0])


@st.composite
def intervals(draw, elems=SMALL):
    a, b = draw(elems), draw(elems)
    return Interval(*sorted((a, b)))


@st.composite
def dual_data(draw, n, kind):
    """(val, der) of an interval-partial or float-partial Dual."""
    if kind == "float":
        return draw(SMALL), [draw(SMALL) for _ in range(n)]
    return draw(intervals() | SMALL), [draw(intervals()) for _ in range(n)]


def _key(x):
    """Bit pattern of a float or of an Interval's endpoints (sign of zero kept)."""
    if isinstance(x, Interval):
        return ("I", x.lo.hex(), x.hi.hex())
    return ("f", float(x).hex())


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (_key(out.val), tuple(_key(d) for d in out.der))


def _both(data):
    return Dual(*data), RefDual(*data)


BINARY = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
}
UNARY = {
    "neg": lambda a: -a, "sq": lambda a: a ** 2, "cube": lambda a: a ** 3,
    "sin": (iv.sin, ref_sin), "cos": (iv.cos, ref_cos), "tanh": (iv.tanh, ref_tanh),
    "sqrt": (iv.sqrt, ref_sqrt), "abs": (iv.absval, ref_absval),
}
CONSTANTS = st.one_of(SMALL, st.integers(-3, 3), intervals())


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(["interval", "float"]),
       st.sampled_from(sorted(BINARY)))
def test_dual_dual_ops_match_reference_bit_for_bit(data, n, kind, op):
    x, rx = _both(data.draw(dual_data(n, kind)))
    y, ry = _both(data.draw(dual_data(n, kind)))
    f = BINARY[op]
    assert _outcome(f, x, y) == _outcome(f, rx, ry)


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(BINARY)))
def test_dual_constant_ops_match_reference_bit_for_bit(data, n, op):
    kind = data.draw(st.sampled_from(["interval", "float"]))
    c = data.draw(CONSTANTS if kind == "interval" else SMALL | st.integers(-3, 3))
    x, rx = _both(data.draw(dual_data(n, kind)))
    f = BINARY[op]
    assert _outcome(f, x, c) == _outcome(f, rx, c)
    assert _outcome(f, c, x) == _outcome(f, c, rx)


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(["interval", "float"]),
       st.sampled_from(sorted(UNARY)))
def test_dual_functions_match_reference_bit_for_bit(data, n, kind, op):
    x, rx = _both(data.draw(dual_data(n, kind)))
    fn = UNARY[op]
    new, ref = fn if isinstance(fn, tuple) else (fn, fn)
    assert _outcome(new, x) == _outcome(ref, rx)


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(["interval", "float"]),
       st.sampled_from(["dual", "y-const", "x-const"]))
def test_dual_atan2_matches_reference_bit_for_bit(data, n, kind, shape):
    y, ry = _both(data.draw(dual_data(n, kind)))
    x, rx = _both(data.draw(dual_data(n, kind)))
    if shape != "dual":
        c = data.draw(CONSTANTS if kind == "interval" else SMALL)
        y, ry = (c, c) if shape == "y-const" else (y, ry)
        x, rx = (c, c) if shape == "x-const" else (x, rx)
    assert _outcome(iv.atan2, y, x) == _outcome(ref_atan2, ry, rx)


def _encloses(new, ref):
    lo, hi = (ref.lo, ref.hi) if isinstance(ref, Interval) else (ref, ref)
    return new.lo <= lo and hi <= new.hi


@PROPS
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(BINARY)))
def test_mixed_partial_kinds_enclose_reference(data, n, op):
    """A float-partial Dual meeting interval partials or an Interval operand
    is widened to points [d, d]: its partials enclose the reference's."""
    x, rx = _both(data.draw(dual_data(n, "float")))
    other = data.draw(st.sampled_from(["dual", "interval"]))
    if other == "dual":
        y, ry = _both(data.draw(dual_data(n, "interval")))
    else:
        y = ry = data.draw(intervals())
    f = BINARY[op]
    for args, rargs in (((x, y), (rx, ry)), ((y, x), (ry, rx))):
        try:
            ref = f(*rargs)
        except (ArithmeticError, ValueError):
            continue
        out = f(*args)
        assert _encloses(iv.as_interval(out.val), ref.val)
        assert all(_encloses(d, r) for d, r in zip(out.der, ref.der))


EXPRESSIONS = {
    "add": lambda x, y: x + y, "sub": lambda x, y: x - y, "mul": lambda x, y: x * y,
    "div": lambda x, y: x / (y * y + 0.5), "rdiv": lambda x, y: 2.0 / (x * x + 1.0),
    "rsub": lambda x, y: 1.5 - x * y, "pow": lambda x, y: x ** 3 + y ** 2,
    "neg": lambda x, y: -(x * y), "sin": lambda x, y: iv.sin(x) * y,
    "cos": lambda x, y: iv.cos(x * y), "tanh": lambda x, y: iv.tanh(x - 2.0 * y),
    "sqrt": lambda x, y: iv.sqrt(x * x + y * y + 0.25),
    "abs": lambda x, y: iv.absval(x - y) * y,
    "atan2": lambda x, y: iv.atan2(y, x * x + 0.5),
}


@PROPS
@given(st.data(), st.sampled_from(sorted(EXPRESSIONS)))
def test_interval_partials_enclose_float_partials(data, name):
    f = EXPRESSIONS[name]
    box = [data.draw(intervals(st.floats(-2.0, 2.0))) for _ in range(2)]
    try:
        out = f(*Dual.seed(box, kind=Interval))
    except (ArithmeticError, ValueError):
        assume(False)
    for _ in range(5):
        # Interval(0.0, -0.0) is a valid box, but st.floats rejects its bounds
        point = [data.draw(st.floats(b.lo, b.hi) if b.lo < b.hi
                           else st.sampled_from([b.lo, b.hi])) for b in box]
        ref = f(*Dual.seed(point, kind=float))
        for d, r in zip(out.der, ref.der):
            assert contains(d, r, tol=1e-12 * (1.0 + abs(r)))


# -- one-pass operators against the two-pass kernels ---------------------------
# Values and partial endpoints include signed zeros, infinities and the
# largest floats, so products hit 0 * inf (the NaN fallback), overflow, and
# factors that straddle zero.

EDGE_FLOATS = SMALL | st.sampled_from([math.inf, -math.inf, 1e308, -1e308, 5e-324])


@st.composite
def edge_duals(draw, n, kind):
    if kind == "float":
        return Dual(draw(EDGE_FLOATS), [draw(EDGE_FLOATS) for _ in range(n)])
    val = draw(intervals(EDGE_FLOATS) | EDGE_FLOATS)
    return Dual(val, [draw(intervals(EDGE_FLOATS)) for _ in range(n)])


EDGE_CONSTANTS = st.one_of(EDGE_FLOATS, st.integers(-3, 3), intervals(EDGE_FLOATS))
ONE_PASS = {   # operator: (one-pass form, two-pass reference)
    "add": (lambda a, b: a + b, two_pass_add),
    "sub": (lambda a, b: a - b, two_pass_sub),
    "mul": (lambda a, b: a * b, two_pass_mul),
    "div": (lambda a, b: a / b, two_pass_truediv),
}
REVERSED = {   # constant op Dual: (one-pass form, two-pass reference on (Dual, constant))
    "radd": (lambda x, c: c + x, two_pass_add),
    "rsub": (lambda x, c: c - x, two_pass_rsub),
    "rmul": (lambda x, c: c * x, two_pass_mul),
    "rdiv": (lambda x, c: c / x, two_pass_rtruediv),
}


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(ONE_PASS)))
def test_one_pass_dual_dual_ops_equal_two_pass(data, n, op):
    x = data.draw(edge_duals(n, data.draw(st.sampled_from(["interval", "float"]))))
    y = data.draw(edge_duals(n, data.draw(st.sampled_from(["interval", "float"]))))
    new, ref = ONE_PASS[op]
    assert _outcome(new, x, y) == _outcome(ref, x, y)


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(["interval", "float"]),
       st.sampled_from(sorted(ONE_PASS) + sorted(REVERSED)))
def test_one_pass_constant_ops_equal_two_pass(data, n, kind, op):
    x = data.draw(edge_duals(n, kind))
    c = data.draw(EDGE_CONSTANTS)
    new, ref = ONE_PASS.get(op) or REVERSED[op]
    assert _outcome(new, x, c) == _outcome(ref, x, c)


def _with_two_pass(fn, *args):
    with mock.patch.multiple(Dual, **TWO_PASS_OPERATORS), \
            mock.patch.multiple(iv, **TWO_PASS_KERNELS):
        return _outcome(fn, *args)


@PROPS
@given(st.data(), st.integers(1, 4), st.sampled_from(["interval", "float"]),
       st.sampled_from(sorted(EXPRESSIONS)))
def test_expressions_equal_two_pass(data, n, kind, name):
    """Whole expressions (chain rule, |.|, atan2, powers, mixed constants)
    give the same bytes as with the two-pass operators and kernels."""
    x = data.draw(edge_duals(n, kind))
    y = data.draw(edge_duals(n, data.draw(st.sampled_from(["interval", "float"]))))
    f = EXPRESSIONS[name]
    assert _outcome(f, x, y) == _with_two_pass(f, x, y)


def test_one_pass_edge_examples():
    """Signed zeros, a zero-straddling factor and 0 * inf, by hand."""
    z = Dual(Interval(-0.0, 0.0), [Interval(-0.0, -0.0), Interval(0.0, math.inf)])
    s = Dual(Interval(-2.0, 3.0), [Interval(-1.0, 2.0), Interval(-0.0, 0.0)])
    inf_val = Dual(math.inf, [Interval(-1.0, 1.0), Interval(0.0, 0.0)])
    # an infinite partial over a divisor whose reciprocal straddles zero: the
    # padded difference is NaN before the product, which would drop it
    inf_part = Dual(0.0, [-math.inf])
    # inf / inf: the quotient q is NaN, and the partials' factor q must raise
    # rather than count as 0 like a 0 * inf product
    nan_q = Dual(math.inf, [Interval(1.0, 2.0)])
    cases = [(z, 0.0), (z, -0.0), (z, math.inf), (s, -0.0), (s, Interval(-1.0, 2.0)),
             (inf_val, 2.0), (inf_val, 0.0), (z, s), (s, z), (inf_val, s),
             (inf_part, Interval(-math.inf, -1.0)), (nan_q, nan_q)]
    for x, y in cases:
        for op, (new, ref) in ONE_PASS.items():
            assert _outcome(new, x, y) == _outcome(ref, x, y), (op, x, y)
        if not isinstance(y, Dual):
            for op, (new, ref) in REVERSED.items():
                assert _outcome(new, x, y) == _outcome(ref, x, y), (op, x, y)
    # the 0 * inf fallback: [0, inf] * 0.0 takes the Interval path and keeps no NaN
    out = z * 0.0
    assert not any(math.isnan(e) for e in out.lo + out.hi)


# -- exact-zero lanes ----------------------------------------------------------
# A lane that is exactly [0, 0] in every operand is the partial along a
# variable the expression never reads: it must stay [0, 0] through every
# operator and function, and leave the other lanes as they are without it.

ZERO_LANE_OPS = {
    "add": lambda x, c: x + c, "radd": lambda x, c: c + x,
    "sub": lambda x, c: x - c, "rsub": lambda x, c: c - x,
    "mul": lambda x, c: x * c, "rmul": lambda x, c: c * x,
    "div": lambda x, c: x / c, "rdiv": lambda x, c: c / x,
    "neg": lambda x, c: -x, "sq": lambda x, c: x ** 2, "cube": lambda x, c: x ** 3,
    "sin": lambda x, c: iv.sin(x), "cos": lambda x, c: iv.cos(x),
    "tanh": lambda x, c: iv.tanh(x), "sqrt": lambda x, c: iv.sqrt(x),
    "abs": lambda x, c: iv.absval(x),
    "atan2": lambda x, c: iv.atan2(x, c), "ratan2": lambda x, c: iv.atan2(c, x),
}


def _lane_outcome(fn, x, c):
    try:
        out = fn(x, c)
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc)), None
    return _key(out.val), [_key(d) for d in out.der]


@PROPS
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(ZERO_LANE_OPS)),
       st.sampled_from(["dual", "constant"]))
def test_exact_zero_lane_stays_zero_and_leaves_the_other_lanes(data, n, op, other):
    """x (and c, when a Dual) with an exact-zero lane k inserted, against
    the same operation with lane k deleted; n >= 1 other lanes keep both
    Duals interval-valued."""
    k = data.draw(st.integers(0, n))

    def operand():
        """The Dual without lane k, and with it."""
        val, der = data.draw(dual_data(n, "interval"))
        zero = data.draw(intervals(ZEROS))
        return Dual(val, der), Dual(val, der[:k] + [zero] + der[k:])

    x, x_full = operand()
    c, c_full = operand() if other == "dual" else (data.draw(CONSTANTS),) * 2
    fn = ZERO_LANE_OPS[op]
    val, der = _lane_outcome(fn, x, c)
    val_full, der_full = _lane_outcome(fn, x_full, c_full)
    assert val_full == val
    if der is not None:
        lane = der_full.pop(k)
        assert lane[0] == "I" and float.fromhex(lane[1]) == float.fromhex(lane[2]) == 0.0
        assert der_full == der


# -- sign-split products ------------------------------------------------------

WIDE = st.floats(-1e300, 1e300) | ZEROS | st.sampled_from([1.0, -1.0, 5e-324, -5e-324])


@settings(max_examples=1000, deadline=None)
@given(WIDE, WIDE, WIDE, WIDE)
def test_sign_split_product_equals_four_product_min_max(a, b, c, d):
    al, ah = sorted((a, b))
    bl, bh = sorted((c, d))
    p = (al * bl, al * bh, ah * bl, ah * bh)
    assert iv._product(al, ah, bl, bh) == (min(p), max(p))
    x, y = Interval(al, ah), Interval(bl, bh)
    try:
        ref = _key(ref_mul(x, y))
    except IntervalDomainError as exc:     # the padding overflowed to NaN
        ref = str(exc)
    try:
        new = _key(x * y)
    except IntervalDomainError as exc:
        new = str(exc)
    assert new == ref


def _scaled_ref(x, t):
    """Interval * float as one product per endpoint, ordered by t's sign."""
    return ref_iv(x.lo * t, x.hi * t) if t >= 0 else ref_iv(x.hi * t, x.lo * t)


def _outcome_of(fn):
    try:
        return _key(fn())
    except IntervalDomainError as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None)
@given(WIDE, WIDE, WIDE)
def test_scalar_product_keeps_finite_bits(a, b, t):
    x = Interval(*sorted((a, b)))
    ref = _outcome_of(lambda: _scaled_ref(x, t))
    assert _outcome_of(lambda: x * t) == ref
    assert _outcome_of(lambda: t * x) == ref


INF = math.inf
EDGE = (-INF, -1.0, -0.0, 0.0, 1.0, INF)
EDGE_INTERVALS = [Interval(a, b) for a in EDGE for b in EDGE if a <= b]


def _finite_points(x):
    cand = (x.lo, x.hi, 0.5 * (x.lo + x.hi), x.lo + 1.0, x.hi - 1.0, 1e300, -1e300)
    return [t for t in cand if math.isfinite(t) and x.lo <= t <= x.hi]


def _has_zero_times_inf(x, y):
    return any(s * t != s * t for s in (x.lo, x.hi) for t in (y.lo, y.hi))


def test_product_on_infinite_endpoints_encloses_finite_products():
    """On the 484 pairs of intervals with endpoints in {-inf, -1, -0, 0, 1, inf}
    the product gives no NaN endpoint and encloses every finite product. Where
    the 4-product multiply also returns, the two agree bit for bit; it raised
    on 128 pairs where this product returns, each with a 0 * inf corner,
    which counts as 0 here; this product never raises where it returned."""
    reference_only = 0
    for x in EDGE_INTERVALS:
        for y in EDGE_INTERVALS:
            try:
                ref = _key(ref_mul(x, y))
            except IntervalDomainError:
                ref = None
            px, py = _finite_points(x), _finite_points(y)
            try:
                out = x * y
            except IntervalDomainError:
                assert ref is None and not (px and py), (x, y)
                continue
            assert not (math.isnan(out.lo) or math.isnan(out.hi))
            for s in px:
                for t in py:
                    assert contains(out, s * t), (x, y, s, t)
            if ref is None:
                assert _has_zero_times_inf(x, y), (x, y)
                reference_only += 1
            else:
                assert _key(out) == ref
    assert reference_only == 128


def test_scalar_product_on_infinite_endpoints_matches_point_interval():
    """Interval * float and float * Interval, for endpoints and scalars in
    {-inf, -1, -0, 0, 1, inf}, give bit for bit the product by the point
    interval [t, t]: a 0 * inf corner counts as 0 (the per-endpoint products
    raised "NaN interval endpoint" on 46 of these 132 pairs), no endpoint is
    NaN, and every finite product is enclosed."""
    reference_only = 0
    for x in EDGE_INTERVALS:
        for t in EDGE:
            want = _outcome_of(lambda: x * Interval(t))
            assert _outcome_of(lambda: x * t) == want, (x, t)
            assert _outcome_of(lambda: t * x) == want, (x, t)
            try:
                out = x * t
            except IntervalDomainError:
                assert not (_finite_points(x) and math.isfinite(t)), (x, t)
                continue
            assert not (math.isnan(out.lo) or math.isnan(out.hi))
            if math.isfinite(t):
                for s in _finite_points(x):
                    assert contains(out, s * t), (x, t, s)
            try:
                assert _key(_scaled_ref(x, t)) == _key(out)
            except IntervalDomainError:
                assert _has_zero_times_inf(x, Interval(t)), (x, t)
                reference_only += 1
    assert reference_only == 46


# -- every Interval primitive against mpmath's 200-bit interval range ----------
# mpmath.iv rounds outward at 200 bits, so its range is the real one to within
# about 2**-200 relative: each primitive must contain it. Endpoints mix small
# floats, signed zeros, subnormals and the floats nearest k*pi/2, and half the
# boxes are thin, since thin boxes at k*pi/2 are where sin and cos turn.

mpi = mpmath.iv
mpi.prec = 200

HALF_PI_MULTIPLES = st.integers(-12, 12).map(lambda k: k * math.pi / 2)
ORACLE_FLOATS = st.floats(-1e6, 1e6) | st.floats(-8.0, 8.0) | ZEROS | HALF_PI_MULTIPLES
ORACLE = settings(max_examples=500, deadline=None)


@st.composite
def oracle_boxes(draw, elems=ORACLE_FLOATS):
    a = draw(elems)
    b = a if draw(st.booleans()) else draw(elems)
    return Interval(*sorted((a, b)))


def _mp(x):
    return mpi.mpf([x.lo, x.hi])


def _contains(out, rng):
    """The Interval out contains the mpmath interval rng."""
    return mpi.mpf(out.lo) <= rng.a and rng.b <= mpi.mpf(out.hi)


def _mp_tanh(x):
    # mpmath.iv has no tanh; tanh is increasing, so its range is its values
    # at the endpoints
    with mpmath.workprec(200):
        return mpi.mpf([mpmath.tanh(x.lo), mpmath.tanh(x.hi)])


UNARY_ORACLES = {
    "sin": (iv.interval_sin, lambda x: mpi.sin(_mp(x))),
    "cos": (iv.interval_cos, lambda x: mpi.cos(_mp(x))),
    "tanh": (iv.interval_tanh, _mp_tanh),
    "abs": (iv.interval_abs, lambda x: abs(_mp(x))),
    "sq": (lambda x: x ** 2, lambda x: _mp(x) ** 2),
    "cube": (lambda x: x ** 3, lambda x: _mp(x) ** 3),
    "pow0": (lambda x: x ** 0, lambda x: _mp(x) ** 0),
    "pow4": (lambda x: x ** 4, lambda x: _mp(x) ** 4),
    "neg": (operator.neg, lambda x: -_mp(x)),
}
BINARY_ORACLES = {"add": operator.add, "sub": operator.sub,
                  "mul": operator.mul, "div": operator.truediv}


@ORACLE
@given(oracle_boxes(), st.sampled_from(sorted(UNARY_ORACLES)))
def test_unary_primitives_contain_mpmath_range(x, name):
    new, ref = UNARY_ORACLES[name]
    assert _contains(new(x), ref(x)), (name, x)


@ORACLE
@given(oracle_boxes())
def test_sqrt_contains_mpmath_range(x):
    if x.hi < 0.0:
        with pytest.raises(IntervalDomainError):
            iv.interval_sqrt(x)
        return
    # sqrt is taken over the box's nonnegative part
    assert _contains(iv.interval_sqrt(x), mpi.sqrt(mpi.mpf([max(x.lo, 0.0), x.hi])))


@ORACLE
@given(oracle_boxes(), st.one_of(oracle_boxes(), ORACLE_FLOATS),
       st.sampled_from(sorted(BINARY_ORACLES)), st.booleans())
def test_binary_operators_contain_mpmath_range(x, y, name, swap):
    """Interval op Interval, Interval op float and float op Interval."""
    op = BINARY_ORACLES[name]
    a, b = (y, x) if swap else (x, y)
    ma, mb = (_mp(v) if isinstance(v, Interval) else mpi.mpf(v) for v in (a, b))
    if name == "div":
        d = iv.as_interval(b)
        if d.lo <= 0.0 <= d.hi:
            with pytest.raises((IntervalDomainError, ZeroDivisionError)):
                op(a, b)
            return
        # divisors this far from 0 keep every quotient below the largest float
        assume(min(abs(d.lo), abs(d.hi)) >= 1e-290)
    assert _contains(op(a, b), op(ma, mb)), (name, a, b)


@ORACLE
@given(st.data(), st.sampled_from(["right", "upper"]))
def test_atan2_contains_mpmath_range(data, plane):
    """atan2 over boxes in the right half-plane (x > 0) and the closed upper
    half-plane (y >= 0), where the angle arc cannot wrap."""
    if plane == "right":
        x = data.draw(oracle_boxes(ORACLE_FLOATS.filter(lambda t: t > 0.0)))
        y = data.draw(oracle_boxes())
    else:
        x = data.draw(oracle_boxes())
        y = data.draw(oracle_boxes(ORACLE_FLOATS.filter(lambda t: t >= 0.0)))
    assert _contains(iv.interval_atan2(y, x), mpi.atan2(_mp(y), _mp(x))), (y, x)


def test_sin_cos_contain_mpmath_range_on_thin_boxes_at_half_pi_multiples():
    for k in range(-12, 13):
        t = k * math.pi / 2
        for lo, hi in ((t, t), (math.nextafter(t, -math.inf), t),
                       (t, math.nextafter(t, math.inf))):
            x = Interval(lo, hi)
            assert _contains(iv.interval_sin(x), mpi.sin(_mp(x))), (k, x)
            assert _contains(iv.interval_cos(x), mpi.cos(_mp(x))), (k, x)


# -- Dual[Interval] against mpmath's 200-bit evaluation of the same formulas ---
# MPDual evaluates each derivative formula of Dual in mpmath interval
# arithmetic, a constant's partials forming no term: the value and every
# partial of an interval-valued Dual must contain it. Divisors and sqrt
# arguments stay at least 1e-3 from zero, and atan2 boxes in the quadrant
# x > 0, y >= 0, so no formula meets a singularity.

def _mp_abs_slope(v):
    if v.a >= 0:
        return 1
    if v.b <= 0:
        return -1
    return mpi.mpf([-1, 1])


def _mp_tanh_slope(v):
    t = _mp_tanh(Interval(float(v.a), float(v.b)))
    return t, 1 - t * t


def _mp_sqrt_slope(v):
    r = mpi.sqrt(v)
    return r, 0.5 / r


MP_CHAIN = {   # name: (generic function, value and derivative factor in mpmath)
    "sin": (iv.sin, lambda v: (mpi.sin(v), mpi.cos(v))),
    "cos": (iv.cos, lambda v: (mpi.cos(v), -mpi.sin(v))),
    "tanh": (iv.tanh, _mp_tanh_slope),
    "sqrt": (iv.sqrt, _mp_sqrt_slope),
    "abs": (iv.absval, lambda v: (abs(v), _mp_abs_slope(v))),
}
REFLECTED = {"add": "__radd__", "sub": "__rsub__", "mul": "__rmul__", "div": "__rtruediv__"}
AWAY = st.floats(1e-3, 8.0)
AWAY_FLOATS = AWAY | AWAY.map(operator.neg)


@st.composite
def away_boxes(draw):
    """Boxes of one sign, at least 1e-3 from zero."""
    box = draw(intervals(AWAY))
    return -box if draw(st.booleans()) else box


def _mp_of(a):
    """a Dual, an Interval or a float as its MPDual or mpmath interval."""
    if isinstance(a, Dual):
        return MPDual(_mp(a.val), [_mp(d) for d in a.der])
    return _mp(a) if isinstance(a, Interval) else mpi.mpf(a)


def _encloses_mp(out, ref):
    assert _contains(out.val, ref.val), ("value", out.val, ref.val)
    for k, (d, r) in enumerate(zip(out.der, ref.der)):
        assert _contains(d, r), ("partial", k, d, r)


@st.composite
def mp_duals(draw, n, values=intervals()):
    return Dual(draw(values), [draw(intervals()) for _ in range(n)])


@ORACLE
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(BINARY)),
       st.sampled_from([("dual", "dual"), ("dual", "float"), ("dual", "interval"),
                        ("float", "dual"), ("interval", "dual")]))
def test_dual_operators_contain_mpmath_formulas(data, n, op, kinds):
    """+, -, * and / with a Dual, a float or an Interval on either side."""
    operands = []
    for side, kind in enumerate(kinds):
        divisor = op == "div" and side == 1
        boxes = away_boxes() if divisor else intervals()
        if kind == "dual":
            operands.append(data.draw(mp_duals(n, boxes)))
        else:
            operands.append(data.draw(boxes if kind == "interval" else
                                      AWAY_FLOATS if divisor else SMALL))
    ma, mb = map(_mp_of, operands)
    # mpmath raises on an unknown right operand instead of deferring to it
    ref = BINARY[op](ma, mb) if isinstance(ma, MPDual) else getattr(mb, REFLECTED[op])(ma)
    _encloses_mp(BINARY[op](*operands), ref)


@ORACLE
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(MP_CHAIN) + ["pow"]))
def test_dual_functions_contain_mpmath_formulas(data, n, name):
    """The chain-rule functions, powers among them: x ** k has the value
    x^k and the slope k * x^(k - 1)."""
    if name == "pow":
        k = data.draw(st.integers(1, 4))
        new, ref = (lambda x: x ** k), (lambda v: (v ** k, k * v ** (k - 1)))
    else:
        new, ref = MP_CHAIN[name]
    x = data.draw(mp_duals(n, intervals(AWAY) if name == "sqrt" else intervals()))
    mx = _mp_of(x)
    val, slope = ref(mx.val)
    _encloses_mp(new(x), MPDual(val, [slope * d for d in mx.der]))


@ORACLE
@given(st.data(), st.integers(1, 3), st.sampled_from(["y-const", "x-const"]),
       st.booleans())
def test_dual_atan2_with_a_constant_contains_mpmath_formula(data, n, shape, interval):
    """atan2(y, x) with one constant argument, a float or an Interval: the
    partials (x * dy - y * dx) / (x * x + y * y) without the constant's term."""
    def operand(elems, dual):
        if dual:
            return data.draw(mp_duals(n, intervals(elems)))
        return data.draw(intervals(elems) if interval else elems)

    y = operand(st.floats(0.0, 8.0), shape == "x-const")
    x = operand(AWAY, shape == "y-const")
    my, mx = _mp_of(y), _mp_of(x)
    yv, xv = (a.val if isinstance(a, MPDual) else a for a in (my, mx))
    denom = xv * xv + yv * yv
    if shape == "x-const":
        der = [xv * dy / denom for dy in my.der]
    else:
        der = [-(yv * dx) / denom for dx in mx.der]
    _encloses_mp(iv.atan2(y, x), MPDual(mpi.atan2(yv, xv), der))
