import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bab_verify_always_lp, double_network, encode_robustness_doubled,
                     enumerate_verify, forward_preacts, interval_propagation)
from seedwing import mlp, verifier
from seedwing.mlp import Layer, Network, embed_normalization, \
    forward, forward_batch, init_network
from seedwing.verifier import (LP_MARGIN, Budget, LinConstraint,
                               PropertySpec, Verdict,
                               _NodeLp, bab_verify, constraint_violation,
                               encode_property, encode_robustness,
                               find_critical_ystar, input_rows,
                               interval_bounds, lp_feasible, premise_holds,
                               results_to_csv, robustness_sweep, tighten_box,
                               zonotope_violation)

RELU1 = Network((Layer(np.array([[1.0]]), np.array([0.0]), "relu"),
                 Layer(np.array([[1.0]]), np.array([0.0]), "id")))


def rand_net(rng, max_relu=8):
    n_in = int(rng.integers(1, 4))
    w1 = int(rng.integers(1, 5))
    w2 = int(rng.integers(1, max(2, max_relu - w1 + 1)))
    widths = (n_in, w1, w2, 1)
    net = init_network(widths, seed=int(rng.integers(0, 10 ** 6)))
    # undo the nonnegative bottleneck init so signs vary freely
    layers = []
    for layer in net.layers:
        w = layer.w * rng.choice([-1.0, 1.0], size=layer.w.shape)
        b = rng.normal(scale=0.3, size=layer.b.shape)
        layers.append(Layer(w, b, layer.act))
    return Network(tuple(layers))


def rand_spec(rng, net):
    n = net.n_in
    box = tuple(sorted(rng.uniform(-1.5, 1.5, size=2)) for _ in range(n))
    X = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(400)])
    prem = []
    if rng.random() < 0.6:
        a = rng.normal(size=n).round(2)
        vals = X @ a
        prem.append(LinConstraint(tuple(a), (0.0,), "<=",
                                  float(np.quantile(vals, rng.uniform(0.3, 0.95)))))
    keep = np.ones(len(X), bool)
    for c in prem:
        keep &= X @ np.array(c.in_coef) <= c.rhs
    Y = forward_batch(net, X[keep]) if keep.any() else forward_batch(net, X)
    # offset the threshold away from the sampled extremes to dodge knife edges
    q = float(np.quantile(Y, rng.uniform(0.05, 0.95)))
    off = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.3) * (np.ptp(Y) + 0.1)
    rel = "<=" if rng.random() < 0.5 else ">="
    conc = (LinConstraint((0.0,) * n, (1.0,), rel, q + off),)
    return PropertySpec("rand", box, tuple(prem), conc)


def rand_spec_relations(rng, net):
    """One or two premises of any relation, and a conclusion that is one
    `=` row or a two-row band `>=`/`<=` on the output."""
    n = net.n_in
    box = tuple(sorted(rng.uniform(-1.5, 1.5, size=2)) for _ in range(n))
    X = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(400)])
    prem = []
    for _ in range(int(rng.integers(1, 3))):
        a = rng.normal(size=n).round(2)
        a[0] = a[0] or 1.0
        rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        prem.append(LinConstraint(tuple(a), (0.0,), rel,
                                  float(np.quantile(X @ a, rng.uniform(0.3, 0.7)))))
    Y = forward_batch(net, X)
    out = (0.0,) * n, (1.0,)
    if rng.random() < 0.3:
        conc = (LinConstraint(*out, "=", float(np.quantile(Y, rng.uniform(0.1, 0.9)))),)
    else:
        lo, hi = np.quantile(Y, np.sort(rng.uniform(0.0, 1.0, size=2)))
        pad = rng.uniform(-0.1, 0.3) * (np.ptp(Y) + 0.1)
        conc = (LinConstraint(*out, ">=", float(lo - pad)),
                LinConstraint(*out, "<=", float(hi + pad)))
    return PropertySpec("rand-relations", box, tuple(prem), conc)


class TestLinConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinConstraint((0.0,), (0.0,), "<=", 1.0)
        with pytest.raises(ValueError):
            LinConstraint((1.0,), (0.0,), "<", 1.0)

    def test_as_leq_equality_expands(self):
        c = LinConstraint((1.0, 0.0), (0.0,), "=", 2.0)
        rows = c.as_leq()
        assert len(rows) == 2

    def test_premise_must_be_input_only(self):
        with pytest.raises(ValueError):
            PropertySpec("bad", ((0, 1),),
                         (LinConstraint((0.0,), (1.0,), "<=", 1.0),), ())

    @pytest.mark.parametrize("in_coef, out_coef, rhs", [
        ((1.0,), (0.0,), float("nan")), ((1.0,), (0.0,), float("inf")),
        ((float("nan"),), (0.0,), 1.0), ((1.0,), (float("-inf"),), 1.0)])
    def test_non_finite_rejected(self, in_coef, out_coef, rhs):
        with pytest.raises(ValueError, match="must be finite"):
            LinConstraint(in_coef, out_coef, "<=", rhs)


OUT_LE_1 = LinConstraint((0.0, 0.0), (1.0,), "<=", 1.0)


class TestPropertySpecValidation:
    @pytest.mark.parametrize("box", [((0.0, 1.0), (1.0, 0.0)),
                                     ((0.0, 1.0), (0.0, float("inf"))),
                                     ((0.0, 1.0), (float("nan"), 1.0))])
    def test_bad_box_rejected_by_index(self, box):
        with pytest.raises(ValueError, match=r"input_box\[1\]"):
            PropertySpec("p", box, (), (OUT_LE_1,))

    def test_point_box_accepted(self):
        assert PropertySpec("p", ((0.5, 0.5), (0.0, 1.0)), (), (OUT_LE_1,)).n_in == 2

    def test_in_length_must_match_box(self):
        short = LinConstraint((1.0,), (0.0,), "<=", 1.0)
        with pytest.raises(ValueError, match=r"premise\[0\]: 1 'in' coefficients for 2"):
            PropertySpec("p", ((0.0, 1.0), (0.0, 1.0)), (short,), (OUT_LE_1,))
        with pytest.raises(ValueError, match=r"conclusion\[1\]: 3 'in'"):
            PropertySpec("p", ((0.0, 1.0), (0.0, 1.0)), (),
                         (OUT_LE_1, LinConstraint((0.0,) * 3, (1.0,), "<=", 1.0)))

    def test_out_length_must_match_network(self):
        net = init_network((2, 3, 1), seed=0)
        spec = PropertySpec("p", ((0.0, 1.0), (0.0, 1.0)), (),
                            (LinConstraint((0.0, 0.0), (1.0, 0.0), "<=", 1.0),))
        with pytest.raises(ValueError, match=r"conclusion\[0\]: 2 'out' coefficients for 1"):
            bab_verify(net, spec)


class TestTightenBox:
    def test_line_premise_contracts(self):
        box = ((0.0, 10.0), (0.0, 10.0))
        prem = (LinConstraint((1.0, 1.0), (0.0,), "<=", 4.0),)
        lo, hi, empty = tighten_box(box, *input_rows(prem, 2))
        assert not empty
        assert hi[0] <= 4.0 + 1e-9 and hi[1] <= 4.0 + 1e-9

    def test_infeasible_detected(self):
        box = ((0.0, 1.0), (0.0, 1.0))
        prem = (LinConstraint((1.0, 1.0), (0.0,), ">=", 5.0),)
        _, _, empty = tighten_box(box, *input_rows(prem, 2))
        assert empty


class TestIntervalBounds:
    def test_constant_network_exact(self):
        net = Network((Layer(np.zeros((2, 1)), np.array([1.0, -2.0]), "relu"),
                       Layer(np.zeros((1, 2)), np.array([0.3]), "id")))
        info = interval_bounds(net, ((-1.0, 1.0),))
        p_lo, p_hi = info["pre"][0]
        assert p_lo[0] == p_hi[0] == 1.0 and p_lo[1] == p_hi[1] == -2.0

    def test_bounds_contain_sampled_preactivations(self, naive_net):
        rng = np.random.default_rng(0)
        box = tuple((0.0, 1.0) for _ in range(6))
        info = interval_bounds(naive_net, box)
        for _ in range(2000):
            x = rng.uniform(0, 1, size=6)
            pres = forward_preacts(naive_net, x)
            for (lo, hi), z in zip(info["pre"], pres):
                assert np.all(z >= lo - 1e-9) and np.all(z <= hi + 1e-9)

    def test_shrinking_box_never_widens(self, naive_net):
        big = tuple((0.0, 1.0) for _ in range(6))
        small = tuple((0.25, 0.75) for _ in range(6))
        bi = interval_bounds(naive_net, big)
        si = interval_bounds(naive_net, small)
        for (blo, bhi), (slo, shi) in zip(bi["pre"], si["pre"]):
            assert np.all(slo >= blo - 1e-12) and np.all(shi <= bhi + 1e-12)

    def test_forced_phase_conflicts_prune(self):
        # pre-activation strictly positive: forcing inactive empties the region
        net = Network((Layer(np.array([[1.0]]), np.array([5.0]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        info = interval_bounds(net, ((0.0, 1.0),), phases={(0, 0): 0})
        assert info["empty"]

    @pytest.mark.parametrize("phase, bias, empty", [
        (1, -1.0 - 1e-13, False), (1, -1.0 - 1e-11, True),
        (0, 1e-13, False), (0, 1e-11, True)])
    def test_forced_phase_contradiction_slack(self, phase, bias, empty):
        # x in [0, 1], pre = x + bias: a forced phase empties the node only
        # when the bounds contradict it by more than 1e-12
        net = Network((Layer(np.array([[1.0]]), np.array([bias]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        assert interval_bounds(net, ((0.0, 1.0),), phases={(0, 0): phase})["empty"] == empty

    def test_forced_phases_pass_or_zero_the_row(self):
        # x in [-1, 1] feeds two copies of relu(x); forced active, the first
        # keeps x's row (interval clipped at 0), forced inactive the second is 0
        net = Network((Layer(np.array([[1.0], [1.0]]), np.zeros(2), "relu"),
                       Layer(np.array([[1.0, 1.0]]), np.zeros(1), "id")))
        info = interval_bounds(net, ((-1.0, 1.0),), phases={(0, 0): 1, (0, 1): 0})
        assert info["status"][0] == "AI"
        assert info["pre"][1][0][0] == 0.0 and info["pre"][1][1][0] == 1.0


@st.composite
def phased_queries(draw):
    """A random small net (as rand_net builds them), a box with some zero
    widths, a dict of forced phases and sample points in the box."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = rand_net(rng)
    lo = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(net.n_in)])
    width = np.array([draw(st.sampled_from([0.0, 1e-3, 1.0]) | st.floats(0.0, 2.0))
                      for _ in range(net.n_in)])
    phases = {}
    for li, layer in enumerate(net.layers):
        if layer.act == "relu":
            for j in range(layer.w.shape[0]):
                phase = draw(st.sampled_from([None, None, 0, 1]))
                if phase is not None:
                    phases[(li, j)] = phase
    X = np.vstack([lo, lo + width, rng.uniform(lo, lo + width, size=(300, net.n_in))])
    return net, tuple(zip(lo, lo + width)), phases, X


def _agrees(phases, pres) -> bool:
    return all((pres[li][j] >= 0.0) if phase else (pres[li][j] <= 0.0)
               for (li, j), phase in phases.items())


class TestIntervalBoundsProperties:
    @settings(max_examples=300, deadline=None)
    @given(phased_queries())
    def test_bounds_contain_points_that_agree_with_the_phases(self, query):
        net, box, phases, X = query
        info = interval_bounds(net, box, phases)
        for x in X:
            pres = forward_preacts(net, x)
            if not _agrees(phases, pres):
                continue
            assert not info["empty"], f"node emptied but {x} agrees with {phases}"
            for (lo, hi), z in zip(info["pre"], pres):
                tol = 1e-9 * (1.0 + np.abs(z))
                assert np.all(z >= lo - tol) and np.all(z <= hi + tol)

    @settings(max_examples=300, deadline=None)
    @given(phased_queries(), st.booleans())
    def test_bounds_inside_interval_propagation(self, query, use_phases):
        net, box, phases, _ = query
        phases = phases if use_phases else {}
        info = interval_bounds(net, box, phases)
        ref = interval_propagation(net, box, phases)
        if not phases:
            assert not info["empty"] and not ref["empty"]
        # a node either routine empties has bounds up to that layer only
        for (lo, hi), (r_lo, r_hi) in zip(info["pre"], ref["pre"]):
            tol = 1e-12 * (1.0 + np.abs(r_lo) + np.abs(r_hi))
            assert np.all(lo >= r_lo - tol) and np.all(hi <= r_hi + tol)


class TestEncodings:
    def test_property_shapes_and_thresholds(self):
        box = tuple((-5.0, 5.0) for _ in range(6))
        p1 = encode_property(1, 2.0, box)
        assert p1.conclusion[0].rel == ">=" and p1.conclusion[0].rhs == 0.187
        p2 = encode_property(2, 2.0, box)
        assert p2.premise[0].rhs == -2.0 and p2.conclusion[0].rel == "<="
        p3 = encode_property(3, 1.0, box)
        assert len(p3.premise) == 4 and len(p3.conclusion) == 2
        assert {c.rhs for c in p3.conclusion} == {0.184, 0.19}
        assert {c.rhs for c in p3.premise[2:]} == {-0.786, -0.747}
        p4 = encode_property(4, 1.0, box)
        assert len(p4.premise) == 4
        assert p4.premise[2].rhs == -0.12 and p4.premise[3].rhs == -0.3
        with pytest.raises(ValueError):
            encode_property(5, 1.0, box)

    def test_json_missing_field_named(self):
        doc = json.loads(encode_property(1, 1.0, ((-5.0, 5.0),) * 6).to_json())
        del doc["input_box"]
        with pytest.raises(ValueError, match="input_box"):
            PropertySpec.from_json(json.dumps(doc))

    def test_json_round_trip(self):
        box = tuple((-5.0, 5.0) for _ in range(6))
        spec = encode_property(3, 1.5, box)
        back = PropertySpec.from_json(spec.to_json())
        assert back == spec

    def test_robustness_degenerate_ball_verifies(self, naive_net):
        box = tuple((0.0, 1.0) for _ in range(6))
        x0 = np.full(6, 0.5)
        spec = encode_robustness(naive_net, x0, 1e-300, 1.0, box)
        v = bab_verify(naive_net, spec)
        assert v.verified

    def test_constant_network_robust_for_any_lstar(self):
        net = Network((Layer(np.zeros((1, 2)), np.array([0.4]), "id"),))
        spec = encode_robustness(net, np.array([0.5, 0.5]), 0.1, 1e-6,
                                 ((0, 1), (0, 1)))
        assert bab_verify(net, spec).verified


class TestBabVerify:
    def test_relu_nonnegative(self):
        spec = PropertySpec("p", ((-1.0, 1.0),), (),
                            (LinConstraint((0.0,), (1.0,), ">=", -0.1),))
        v = bab_verify(RELU1, spec)
        assert v.verified and not v.vacuous

    def test_relu_upper_falsified_with_witness(self):
        spec = PropertySpec("p", ((-1.0, 1.0),), (),
                            (LinConstraint((0.0,), (1.0,), "<=", 0.5),))
        v = bab_verify(RELU1, spec)
        assert v.status == "falsified"
        assert v.witness[0] > 0.5
        assert forward(RELU1, v.witness) > 0.5 + 1e-9

    def test_vacuous_premise_reported(self):
        spec = PropertySpec("p", ((-1.0, 1.0),),
                            (LinConstraint((1.0,), (0.0,), ">=", 5.0),),
                            (LinConstraint((0.0,), (1.0,), "<=", -99.0),))
        v = bab_verify(RELU1, spec)
        assert v.verified and v.vacuous

    def test_relu_budget_timeout(self, naive_net):
        box = tuple((-10.0, 10.0) for _ in range(6))
        spec = PropertySpec("p", box, (),
                            (LinConstraint((0.0,) * 6, (1.0,), "<=", 1e9),))
        v = bab_verify(naive_net, spec, Budget(max_nodes=0))
        assert v.status == "timeout"

    def test_too_many_relus_rejected(self):
        net = init_network((2, 16, 16, 1), seed=0)
        spec = PropertySpec("p", ((0, 1), (0, 1)), (),
                            (LinConstraint((0.0, 0.0), (1.0,), "<=", 1e9),))
        with pytest.raises(ValueError):
            bab_verify(net, spec)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        n_falsified = 0
        for trial in range(60):
            net = rand_net(rng)
            spec = rand_spec(rng, net)
            v = bab_verify(net, spec, Budget(max_nodes=100000, max_seconds=30))
            want, _ = enumerate_verify(net, spec)
            assert v.status == want, f"trial {trial}: {v.status} != {want}"
            if v.status == "falsified":
                n_falsified += 1
                assert premise_holds(spec, v.witness)
                y = forward_batch(net, v.witness[None, :])[0]
                worst = max(constraint_violation(c, v.witness, y)
                            for c in spec.conclusion)
                assert worst > 1e-9
        assert n_falsified >= 10   # the sample must exercise both verdicts

    def test_every_relation_matches_enumeration_oracle(self):
        # premises of all three relations, `=` and two-row conclusions: each
        # case the verifier folds into <= rows, checked against the oracle
        rng = np.random.default_rng(5)
        seen = set()
        for trial in range(60):
            net = rand_net(rng)
            spec = rand_spec_relations(rng, net)
            v = bab_verify(net, spec, Budget(max_nodes=100000, max_seconds=30))
            want, _ = enumerate_verify(net, spec)
            assert v.status == want, f"trial {trial}: {v.status} != {want}"
            conc = "=" if len(spec.conclusion) == 1 else "band"
            seen |= {(c.rel, conc, v.status, v.vacuous) for c in spec.premise}
            if v.status == "falsified":
                assert premise_holds(spec, v.witness)
                y = forward_batch(net, v.witness[None, :])[0]
                assert max(constraint_violation(c, v.witness, y)
                           for c in spec.conclusion) > 1e-9
        # every premise relation reaches a node LP and both verdicts
        for rel in ("<=", ">=", "="):
            assert (rel, "band", "verified", False) in seen
            assert (rel, "band", "falsified", False) in seen
            assert (rel, "=", "falsified", False) in seen

    def test_verified_survives_sampling(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 8:
            net = rand_net(rng)
            spec = rand_spec(rng, net)
            v = bab_verify(net, spec, Budget(max_nodes=100000, max_seconds=30))
            if not v.verified or v.vacuous:
                continue
            checked += 1
            lo = np.array([b[0] for b in spec.input_box])
            hi = np.array([b[1] for b in spec.input_box])
            X = rng.uniform(lo, hi, size=(20000, len(lo)))
            keep = np.ones(len(X), bool)
            for c in spec.premise:
                keep &= X @ np.array(c.in_coef) <= c.rhs + 1e-12
            Y = forward_batch(net, X[keep])
            for c in spec.conclusion:
                vals = X[keep] @ np.array(c.in_coef) + np.outer(Y, c.out_coef)[:, 0]
                if c.rel == "<=":
                    assert vals.max() <= c.rhs + 1e-7
                else:
                    assert vals.min() >= c.rhs - 1e-7

    def test_premise_shrink_monotone(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        box = tuple(zip(norm_spec.in_min, norm_spec.in_max))
        verified_at = None
        for y in np.arange(0.0, 10.0, 0.5):
            if bab_verify(emb, encode_property(1, y, box)).verified:
                verified_at = y
                break
        if verified_at is not None:
            assert bab_verify(emb, encode_property(1, verified_at + 1.0, box)).verified


RELS = ("<=", ">=", "=")


@st.composite
def bab_queries(draw):
    """A random small net (as rand_net builds them, up to 12 ReLUs), a box,
    a premise of 0-2 rows and a conclusion of 1-2 rows, relations drawn from
    all three. Each conclusion threshold sits at a sampled quantile of its
    row's bounded side, shifted outward by -1% to 50% of the sampled spread:
    the zonotope closes the loose ones, and those just past the sampled
    extreme take splits."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = rand_net(rng, max_relu=12)
    n = net.n_in
    box = tuple(tuple(sorted(rng.uniform(-1.5, 1.5, size=2))) for _ in range(n))
    X = rng.uniform([lo for lo, _ in box], [hi for _, hi in box], size=(300, n))
    premise = []
    for _ in range(draw(st.integers(0, 2))):
        a = rng.normal(size=n).round(2)
        a[0] = a[0] or 1.0
        premise.append(LinConstraint(tuple(a), (0.0,), draw(st.sampled_from(RELS)),
                                     float(np.quantile(X @ a, draw(st.floats(0.1, 0.9))))))
    Y = forward_batch(net, X)
    conclusion = []
    for _ in range(draw(st.integers(1, 2))):
        ic = rng.normal(size=n).round(2) if draw(st.booleans()) else np.zeros(n)
        vals = X @ ic + Y
        rel = draw(st.sampled_from(RELS))
        tail = draw(st.just(0.0) | st.floats(0.0, 0.5))
        shift = draw(st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.5, -0.01])) * (np.ptp(vals) + 0.1)
        rhs = np.quantile(vals, tail) - shift if rel == ">=" else \
            np.quantile(vals, 1.0 - tail) + shift
        conclusion.append(LinConstraint(tuple(ic), (1.0,), rel, float(rhs)))
    return net, PropertySpec("rand", box, tuple(premise), tuple(conclusion))


class TestZonotopeClose:
    @settings(max_examples=200, deadline=None)
    @given(bab_queries())
    def test_matches_always_lp_oracle(self, query):
        net, spec = query
        v = bab_verify(net, spec, Budget(max_nodes=100000, max_seconds=30))
        want = bab_verify_always_lp(net, spec, Budget(max_nodes=100000, max_seconds=30))
        assert (v.status, v.vacuous, v.nodes) == (want.status, want.vacuous, want.nodes)
        assert (v.witness is None) == (want.witness is None)
        if v.witness is not None:
            assert v.witness.tobytes() == want.witness.tobytes()
        assert v.lp_calls <= want.lp_calls

    @settings(max_examples=200, deadline=None)
    @given(bab_queries(), st.data())
    def test_closed_rows_hold_on_the_node_lp(self, query, data):
        # a node of the query's tree: the contracted box under forced phases
        net, spec = query
        premise = input_rows(spec.premise, spec.n_in)
        lo, hi, empty = tighten_box(spec.input_box, *premise)
        if empty:
            return
        phases = {(li, j): data.draw(st.sampled_from([None, None, 0, 1]))
                  for li, layer in enumerate(net.layers) if layer.act == "relu"
                  for j in range(layer.w.shape[0])}
        phases = {k: p for k, p in phases.items() if p is not None}
        info = interval_bounds(net, tuple(zip(lo, hi)), phases)
        if info["empty"]:
            return
        rows = [row for c in spec.conclusion for row in c.as_leq()]
        viol = zonotope_violation(info, np.array([ic for ic, _, _ in rows]),
                                  np.array([oc for _, oc, _ in rows]),
                                  np.array([rhs for _, _, rhs in rows]))
        node = _NodeLp(net, info, phases, premise)
        for row, zv in zip(rows, viol):
            if zv <= LP_MARGIN:
                sol, lp_viol, _ = node.solve_negation(row)
                assert sol is None or lp_viol <= LP_MARGIN, (zv, lp_viol)

    def test_robustness_query_without_premise_needs_no_lp(self, naive_net, data_arrays):
        # a loose robustness bound closes at the root on the zonotope alone
        X, _ = data_arrays
        spec = encode_robustness(naive_net, X[0], 1e-3, 1e-2, tuple((0.0, 1.0) for _ in range(6)))
        v = bab_verify(naive_net, spec)
        assert v.verified and (v.nodes, v.lp_calls) == (1, 0)


class TestPinnedVsDoubled:
    def test_identical_verdicts(self):
        rng = np.random.default_rng(3)
        box = tuple((0.0, 1.0) for _ in range(3))
        agree = 0
        for trial in range(20):
            net = init_network((3, 3, 2, 1), seed=trial)
            x0 = rng.uniform(0.2, 0.8, size=3)
            eps = float(rng.choice([1e-3, 1e-2, 5e-2]))
            lstar = float(rng.choice([1e-4, 1e-3, 1e-2]))
            pinned = bab_verify(net, encode_robustness(net, x0, eps, lstar, box))
            dbl = double_network(net)
            doubled = bab_verify(dbl, encode_robustness_doubled(net, x0, eps, lstar, box))
            assert pinned.status == doubled.status, f"trial {trial}"
            agree += 1
        assert agree == 20


class TestCriticalYstar:
    def test_monotone_consistency(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        box = tuple(zip(norm_spec.in_min, norm_spec.in_max))
        res = find_critical_ystar(emb, 1, box, resolution=0.25, search_max=15.0)
        if res.failed:
            pytest.skip("property 1 never verifies for this network")
        v_at = bab_verify(emb, encode_property(1, res.value, box))
        assert v_at.verified
        if res.value >= 0.25:
            below = bab_verify(emb, encode_property(1, res.value - 0.25, box))
            assert not below.verified

    def test_p4_zero_when_premise_wide_bound_holds(self):
        # a network whose output never exceeds 0.187 in the box
        net = Network((Layer(np.zeros((1, 6)), np.array([0.1]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        box = tuple((-5.0, 5.0) for _ in range(6))
        res = find_critical_ystar(net, 4, box, resolution=1.0, search_max=10.0)
        assert res.value == 0.0

    def test_bisection_matches_linear_sweep(self):
        # 1-input surrogate checked through both search strategies
        rng = np.random.default_rng(9)
        net = init_network((6, 4, 2, 1), seed=5)
        box = tuple((-3.0, 3.0) for _ in range(6))
        resolution = 0.5
        res = find_critical_ystar(net, 1, box, resolution=resolution,
                                  search_max=12.0)
        # linear sweep oracle at the same resolution
        sweep = None
        y = 0.0
        while y <= 12.0 + 1e-9:
            if bab_verify(net, encode_property(1, y, box)).verified:
                sweep = y
                break
            y += resolution
        if res.failed:
            assert sweep is None
        else:
            assert sweep is not None and abs(res.value - sweep) <= resolution + 1e-9

    def test_failed_when_nothing_verifies(self, monkeypatch):
        # output pinned above the band makes property 3 fail at every ystar
        net = Network((Layer(np.zeros((1, 6)), np.array([5.0]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        box = tuple((-5.0, 5.0) for _ in range(6))
        self.wide_pitch_window(monkeypatch)
        res = find_critical_ystar(net, 3, box, resolution=1.0, search_max=5.0)
        assert res.failed

    @pytest.mark.parametrize("kind", [1, 3])
    def test_search_max_below_resolution_rejected(self, kind, monkeypatch):
        # kind 3 would probe ystar = resolution before any grid bound applies
        net = Network((Layer(np.zeros((1, 6)), np.array([0.187]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        box = tuple((-5.0, 5.0) for _ in range(6))
        monkeypatch.setattr(verifier, "bab_verify", None)   # no probe may run
        with pytest.raises(ValueError, match="search_max=0.1 and resolution=0.25"):
            find_critical_ystar(net, kind, box, resolution=0.25, search_max=0.1)

    @pytest.mark.parametrize("resolution, probed", [
        (0.5, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
        (1.0, [1.0, 2.0, 3.0, 4.0, 5.0]),
        (2.0, [2.0, 4.0, 5.0]),      # search_max closes the grid
    ])
    def test_kind3_probes_each_ystar_once(self, resolution, probed, monkeypatch):
        # output pinned at 0.187 inside the band: every ystar verifies, so
        # the grid runs to search_max and no bisection follows
        net = Network((Layer(np.zeros((1, 6)), np.array([0.187]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        box = tuple((-5.0, 5.0) for _ in range(6))
        self.wide_pitch_window(monkeypatch)
        seen = self.probes(monkeypatch)
        res = find_critical_ystar(net, 3, box, resolution=resolution, search_max=5.0)
        assert seen == probed
        assert res.value == probed[-1]

    @staticmethod
    def threshold_net(sign, bias=0.6):
        """Output 0.187 - sign * relu(bias - sign * (x5 + x6)): property 1
        (sign 1) or 2 (sign -1) verifies exactly when ystar >= bias."""
        return Network((Layer([[0, 0, 0, 0, -sign, -sign]], [bias], "relu"),
                        Layer([[-sign]], [0.187], "id")))

    @staticmethod
    def wide_pitch_window(monkeypatch):
        """Property 3's pitch window widened to [-1, 1]."""
        monkeypatch.setattr(verifier, "PITCH_LO", -1.0)
        monkeypatch.setattr(verifier, "PITCH_HI", 1.0)

    @staticmethod
    def probes(monkeypatch):
        """The list each ystar the search probes is appended to."""
        seen = []
        real = verifier.encode_property

        def counted(kind, y, *rest):
            seen.append(y)
            return real(kind, y, *rest)
        monkeypatch.setattr(verifier, "encode_property", counted)
        return seen

    @pytest.mark.parametrize("kind, sign, resolution, search_max, probed, value", [
        (1, 1, 0.25, 0.9, [0.0, 0.9, 0.45, 0.675], 0.675),
        (1, 1, 0.1, 0.65, [0.0, 0.65, 0.325, 0.4875, 0.56875], 0.65),
        (1, 1, 0.25, 5.0, [0.0, 1.0, 0.5, 0.75], 0.75),
        (1, 1, 1.0, 5.0, [0.0, 1.0], 1.0),
        (1, 1, 0.25, 0.5, [0.0, 0.5], None),
        (2, -1, 0.25, 0.9, [0.0, 0.9, 0.45, 0.675], 0.675),
        (2, -1, 0.25, 5.0, [0.0, 1.0, 0.5, 0.75], 0.75),
        (4, 1, 1.0, 2.5, [0.0], 0.0),                     # output never above 0.187
        (4, -1, 1.0, 2.5, [0.0, 1.0, 2.0, 2.5], None),    # output always above it
    ])
    def test_probe_sequence(self, kind, sign, resolution, search_max, probed, value,
                            monkeypatch):
        # the grid 0, 1, 2, ... closed by search_max, then bisection to resolution
        seen = self.probes(monkeypatch)
        box = tuple((-5.0, 5.0) for _ in range(6))
        res = find_critical_ystar(self.threshold_net(sign), kind, box,
                                  resolution=resolution, search_max=search_max)
        assert seen == pytest.approx(probed, abs=1e-12)
        assert res.value == pytest.approx(value) and not res.vacuous

    @pytest.mark.parametrize("bias, value, vacuous", [(0.6, 0.75, False), (0.85, 1.0, True)])
    def test_vacuous_flag_is_the_reported_probes(self, bias, value, vacuous, monkeypatch):
        # x5 + x6 <= 0.8 on this box, so ystar 1 verifies vacuously; with the
        # threshold at 0.85 no non-vacuous ystar verifies
        seen = self.probes(monkeypatch)
        box = tuple((-5.0, 5.0) for _ in range(4)) + ((0.0, 0.4), (0.0, 0.4))
        res = find_critical_ystar(self.threshold_net(1, bias), 1, box,
                                  resolution=0.25, search_max=5.0)
        assert seen == [0.0, 1.0, 0.5, 0.75]
        assert (res.value, res.vacuous) == (value, vacuous)


class TestRobustnessSweep:
    def test_loose_cell_fully_verified(self, naive_net, data_arrays):
        X, _ = data_arrays
        grid = robustness_sweep(naive_net, X, eps_list=(1e-6,), lstar_list=(1.0,),
                                n_points=20, cell_budget_s=60.0)
        cell = grid[(1e-6, 1.0)]
        assert cell.rate == 1.0

    def test_monotone_in_lstar(self, naive_net, data_arrays):
        X, _ = data_arrays
        grid = robustness_sweep(naive_net, X, eps_list=(1e-3,),
                                lstar_list=(1e-5, 1e-3, 1e-1),
                                n_points=25, cell_budget_s=120.0)
        rates = [grid[(1e-3, l)].rate for l in (1e-5, 1e-3, 1e-1)]
        assert all(r is not None for r in rates)
        assert rates[0] <= rates[1] <= rates[2]

    def test_absent_cell_on_exhausted_budget(self, naive_net, data_arrays):
        X, _ = data_arrays
        grid = robustness_sweep(naive_net, X, eps_list=(1e-2,), lstar_list=(1e-5,),
                                n_points=50, cell_budget_s=0.0)
        assert grid[(1e-2, 1e-5)].rate is None

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_no_points_rejected(self, n_points):
        net = mlp.init_network((1, 2, 1), seed=0)
        with pytest.raises(ValueError, match=f"n_points must be >= 1, got {n_points}"):
            robustness_sweep(net, np.zeros((4, 1)), eps_list=(0.1,), lstar_list=(1.0,),
                             n_points=n_points)


class TestResultsCsv:
    def test_schema(self, tmp_path):
        v = Verdict("falsified", witness=np.array([1.0, 2.0]), nodes=3,
                    lp_calls=7, seconds=0.5)
        path = tmp_path / "results.csv"
        results_to_csv([("property1", 2.0, v)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "property,param,verdict,vacuous,witness,nodes,lp_calls,seconds"
        assert lines[1].startswith("property1,2.0,falsified,0,1;2,")


class TestLpFeasibleSurface:
    def test_input_space_feasibility(self):
        box = ((0.0, 1.0), (0.0, 1.0))
        cons = (LinConstraint((1.0, 1.0), (0.0,), "<=", 1.0),
                LinConstraint((1.0, 0.0), (0.0,), ">=", 0.25),)
        sol = lp_feasible(*input_rows(cons, 2), box)
        assert sol.feasible
        x = sol.x
        assert x[0] + x[1] <= 1 + 1e-9 and x[0] >= 0.25 - 1e-9

    def test_rejects_output_terms(self):
        with pytest.raises(ValueError):
            input_rows((LinConstraint((1.0,), (1.0,), "<=", 1.0),), 1)


class TestRobustnessMonotonicity:
    def test_verified_at_lstar_implies_ten_lstar(self, naive_net, data_arrays):
        X, _ = data_arrays
        box = tuple((0.0, 1.0) for _ in range(6))
        rng = np.random.default_rng(12)
        checked = 0
        for idx in rng.integers(0, len(X), size=12):
            spec = encode_robustness(naive_net, X[idx], 1e-3, 1e-4, box)
            if bab_verify(naive_net, spec).verified:
                bigger = encode_robustness(naive_net, X[idx], 1e-3, 1e-3, box)
                assert bab_verify(naive_net, bigger).verified
                checked += 1
        assert checked > 0
