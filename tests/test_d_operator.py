import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfde_lab import (
    AtomicMeasureFamily,
    DOperatorSpec,
    GOLDEN_FREQ,
    HistoryGrid,
    MeasureAtom,
    MeasureDensity,
    SingularBError,
    TorusFlow,
    TorusPoint,
    TrigPoly,
    UnstableMarginError,
    compact_open_metric,
    constant_history,
    eval_D,
    eval_Dhat_segment,
    extract_atom_at_zero,
    from_function,
    invert_Dhat,
    stability_margin,
    sup_norm,
)
from nfde_lab.base_flow import (
    PLAN_BLOCK,
    SamplingConfig,
    advance_many,
    eval_trig_many,
    sample_thetas,
)
from nfde_lab.d_operator import eval_poly_matrix_many, identity_poly_matrix

from .conftest import random_contraction_spec, random_history, scalar_dspec
from .oracles import (
    advance,
    batch_inverse_direct,
    const_poly_matrix,
    eval_trig,
    extract_atom_at_zero_direct,
    invert_Dhat_direct,
    invert_Dhat_neumann,
    sample_at,
    stability_margin_direct,
)


@pytest.fixture(scope="module")
def half_spec(golden_flow):
    return scalar_dspec(golden_flow, 0.5, lag=1.0)


def test_eval_D_constant_history(half_spec, origin):
    hist = constant_history([2.0], 0.1, 3.0)
    assert eval_D(half_spec, origin, hist)[0] == pytest.approx(1.0, abs=1e-14)


def test_eval_D_linear_history(half_spec, origin):
    hist = from_function(lambda s: s[:, None], 0.1, 3.0)
    assert eval_D(half_spec, origin, hist)[0] == pytest.approx(0.5, abs=1e-14)


def test_eval_D_empty_measure_is_instantaneous(golden_flow, origin):
    spec = DOperatorSpec(2, identity_poly_matrix(2), AtomicMeasureFamily(), golden_flow)
    hist = from_function(lambda s: np.stack([np.cos(s), s], axis=1), 0.1, 2.0)
    assert np.allclose(eval_D(spec, origin, hist), sample_at(hist, 0.0), atol=1e-15)


def test_eval_D_with_density(golden_flow, origin):
    # density -1 on [-1, 0) against a constant history integrates exactly
    dens = MeasureDensity(np.full((10, 1, 1), -1.0), 0.1)
    spec = DOperatorSpec(
        1, identity_poly_matrix(1), AtomicMeasureFamily((), dens), golden_flow
    )
    hist = constant_history([2.0], 0.1, 3.0)
    # B x(0) - integral = 2 - (-1 * 2 * 1) = 4
    assert eval_D(spec, origin, hist)[0] == pytest.approx(4.0, abs=1e-12)


def test_dhat_segment_constant_everything(golden_flow, origin):
    spec = scalar_dspec(golden_flow, 0.25, lag=0.5)
    hist = constant_history([3.0], 0.1, 5.0)
    out = eval_Dhat_segment(spec, origin, hist, 20)
    assert np.allclose(out.samples, 3.0 * (1 - 0.25), atol=1e-14)


def test_dhat_segment_oscillating_weight(golden_flow, origin):
    # oracle: direct evaluation of the coefficient along the orbit
    c = TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)])
    spec = scalar_dspec(golden_flow, c, lag=1.0)
    hist = constant_history([1.0], 0.1, 10.0)
    out = eval_Dhat_segment(spec, origin, hist, 40)
    for j in (0, 7, 23, 40):
        cj = eval_trig(c, advance(golden_flow, origin, -j * 0.1))
        assert out.samples[j, 0] == pytest.approx(1.0 - cj, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 99999), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_dhat_linearity(golden_flow, origin, seed, a, b):
    rng = np.random.default_rng(seed)
    spec = scalar_dspec(golden_flow, TrigPoly.from_terms(0.2, [([1], 0.1, 0.15)]))
    x = HistoryGrid(0.1, rng.normal(size=(60, 1)))
    y = HistoryGrid(0.1, rng.normal(size=(60, 1)))
    combo = HistoryGrid(0.1, a * x.samples + b * y.samples)
    lhs = eval_Dhat_segment(spec, origin, combo, 30).samples
    rhs = (
        a * eval_Dhat_segment(spec, origin, x, 30).samples
        + b * eval_Dhat_segment(spec, origin, y, 30).samples
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, abs(a) + abs(b))


def _off_grid_spec(flow):
    """A scalar operator whose atom lag 0.513 and density midpoints
    0.035 .. 0.525 all fall between the nodes of the step 0.05."""
    atom = MeasureAtom(0.513, [[TrigPoly.from_terms(0.2, [([1], 0.1, 0.1)])]])
    dens = MeasureDensity(np.full((8, 1, 1), 0.3), 0.07)
    return DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily((atom,), dens), flow)


def test_dhat_compact_open_continuity(golden_flow, origin):
    # Dhat at s reads x only on [s - S, s], and an off-grid delay's stencil
    # two rows further back: a change of x before -(T + 2h) leaves the lift
    # bit-identical on [-(T - S), 0], so the two lifts are at most
    # 2^-floor(T - S) apart in the compact-open metric
    rng = np.random.default_rng(1729)
    h = 0.05
    for n in range(12):
        if n % 3:
            spec = random_contraction_spec(rng, golden_flow, h=h)
        else:
            spec = _off_grid_spec(golden_flow)
        S = spec.support
        x = random_history(rng, spec.m, h, 8.0)
        T = rng.uniform(S + 1.0, 6.0)
        old = h * np.arange(x.J + 1) > T + 2 * h + 1e-9
        moved = x.samples.copy()
        moved[old] += rng.normal(scale=rng.uniform(0.1, 2.0), size=moved[old].shape)
        depth = int(np.floor((x.horizon - S) / h))
        d0 = eval_Dhat_segment(spec, origin, x, depth)
        d1 = eval_Dhat_segment(spec, origin, HistoryGrid(h, moved), depth)
        near = h * np.arange(depth + 1) <= T - S + 1e-9
        assert d0.samples[near].tobytes() == d1.samples[near].tobytes()
        assert not np.array_equal(d0.samples, d1.samples)
        assert compact_open_metric(d0, d1) <= 2.0 ** -np.floor(T - S) + 2.0**-30


def test_dhat_segment_samples_once(golden_flow, origin, monkeypatch):
    # every (node, delay) pair of the lift, atoms and density cells alike,
    # is read in one read_back call, and node 0 is eval_D bit for bit
    spec = _off_grid_spec(golden_flow)
    hist = random_history(np.random.default_rng(5), 1, 0.05, 3.0)
    calls = []
    read_back = HistoryGrid.read_back

    def counted(self, nodes, pos):
        calls.append((np.size(nodes), np.size(pos)))
        return read_back(self, nodes, pos)

    monkeypatch.setattr(HistoryGrid, "read_back", counted)
    out = eval_Dhat_segment(spec, origin, hist, 20)
    assert calls == [(21, 2 + 8)]
    assert out.samples[0].tobytes() == eval_D(spec, origin, hist).tobytes()


def _ids(params):
    """Test ids as they read when a history could also continue past its
    grid as zeros, with the constant continuation a parameter."""
    return [f"{p}-TailPolicy.CONSTANT" for p in params]


# the lags of the read-rule cases at h = 0.05: two under h, one under 3h
# (2.4 h) and one on the grid
SHORT_LAGS = (0.03, 0.07, 0.12, 0.5)


def _short_wave(m):
    """The target of test_invert_round_trip_short_delays_every_node: on 4.0
    at h = 0.05, its first component, and the second at 0.7 s."""

    def wave(s):
        v = np.stack([s, 0.7 * s], axis=1)[:, :m]
        return 1.0 + 0.4 * np.sin(1.3 * v) + 0.2 * np.cos(3.1 * v)

    return from_function(wave, 0.05, 4.0)


def _short_delay_spec(flow, case):
    """B = 1 and an atom of weight 0.4 at SHORT_LAGS[case], or (case 4) a
    density whose midpoints 0.02, 0.06, ... start under h, or (case 5) a
    2 x 2 operator with a phase-dependent B, an atom at 0.03 and a density."""
    if case < 4:
        return scalar_dspec(flow, 0.4, lag=SHORT_LAGS[case])
    dens = MeasureDensity(np.full((6, 1, 1), 0.5), 0.04)
    if case == 4:
        return DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily((), dens), flow)
    rng = np.random.default_rng(64)
    atom = MeasureAtom(0.03, const_poly_matrix([[0.2, 0.05], [-0.1, 0.15]]))
    dens = MeasureDensity(np.tile([[0.3, -0.1], [0.1, 0.2]], (4, 1, 1)), 0.05)
    return DOperatorSpec(2, _phase_B(rng, 2), AtomicMeasureFamily((atom,), dens), flow)


@pytest.mark.parametrize("case", range(6), ids=_ids(range(6)))
def test_dhat_node_is_eval_D_on_the_cut_history(golden_flow, origin, case):
    # node j of the lift reads only the history cut at j: it is eval_D on
    # that cut bit for bit, down to cuts of two rows, whose reads are
    # clipped to linear stencils and past them take the cut's oldest row
    spec = _short_delay_spec(golden_flow, case)
    h = 0.05
    x = random_history(np.random.default_rng(40 + case), spec.m, h, 2.0)
    depth = x.J - 1
    out = eval_Dhat_segment(spec, origin, x, depth)
    thetas = advance_many(spec.flow, origin, -h * np.arange(depth + 1))
    for j in range(depth + 1):
        cut = HistoryGrid(h, x.samples[j:])
        assert out.samples[j].tobytes() == eval_D(spec, TorusPoint(thetas[j]), cut).tobytes()


@pytest.mark.parametrize("case", range(6))
def test_dhat_reads_nothing_after_its_node(golden_flow, origin, case):
    # the mirror of test_dhat_compact_open_continuity: a change of x only
    # after the node at -T leaves the lift bit-identical there and before
    rng = np.random.default_rng(7 + case)
    spec = _short_delay_spec(golden_flow, case)
    h = 0.05
    x = random_history(rng, spec.m, h, 4.0)
    depth = int(np.floor((x.horizon - spec.support) / h))
    for _ in range(5):
        j0 = int(rng.integers(1, depth))
        moved = x.samples.copy()
        moved[:j0] += rng.normal(scale=rng.uniform(0.1, 2.0), size=moved[:j0].shape)
        d0 = eval_Dhat_segment(spec, origin, x, depth)
        d1 = eval_Dhat_segment(spec, origin, HistoryGrid(h, moved), depth)
        assert d0.samples[j0:].tobytes() == d1.samples[j0:].tobytes()
        assert not np.array_equal(d0.samples[:j0], d1.samples[:j0])


@pytest.mark.parametrize("case", range(6))
def test_invert_round_trip_short_delays_every_node(golden_flow, origin, case):
    # with every read causal, each row of the inverse solves its own
    # equation, the oldest returned node included: the round trip is
    # within tol everywhere (with the centred reads the oldest node of
    # lags 0.03 and 0.07 missed it by 4.0e-4 and 8.6e-5)
    spec = _short_delay_spec(golden_flow, case)
    h, tol = 0.05, 1e-8

    def wave(s):  # the first component, and the second at 0.7 s
        v = np.stack([s, 0.7 * s], axis=1)[:, : spec.m]
        return 1.0 + 0.4 * np.sin(1.3 * v) + 0.2 * np.cos(3.1 * v)

    yhat = from_function(wave, h, 4.0)
    x = invert_Dhat(spec, origin, yhat, tol)
    back = eval_Dhat_segment(spec, origin, x, yhat.J)
    assert np.max(np.abs(back.samples - yhat.samples)) <= tol


@pytest.fixture
def nan_empty(monkeypatch):
    """np.empty, for the test, fills each new float buffer with NaN."""
    empty = np.empty

    def filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", filled)


@pytest.mark.parametrize("case", range(6), ids=_ids(range(6)))
def test_invert_is_the_direct_method_of_steps(golden_flow, origin, case, nan_empty):
    # the shared kernel's plan and read windows give the rows of the
    # method's own implementation bit for bit: its blocks of c rows, the
    # oldest reading B^-1 yhat past the grid, and the own-row taps moved to
    # the left side. x starts as NaN, and a tap of weight 0 still reads its
    # row, so a window that read a row before solving it, its own row
    # included, would leave NaN in the rows
    spec = _short_delay_spec(golden_flow, case)
    yhat = _short_wave(spec.m)
    for n_terms in (None, 0, 2):
        got = invert_Dhat(spec, origin, yhat, 1e-8, n_terms=n_terms)
        want = invert_Dhat_direct(spec, origin, yhat, 1e-8, n_terms=n_terms)
        assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("lags", [(1e-11,), (1e-11, 0.5)], ids=_ids(["lags0", "lags1"]))
def test_invert_lag_under_the_snap_reads_no_unwritten_row(golden_flow, origin, lags, nan_empty):
    # a lag under the node snap reads the row itself at all four taps: one
    # of weight 1, moved into A, and three of weight 0, which still read
    # their row. None may read a row before it is solved, the row itself,
    # the newest row past the oldest or NaN would reach the result; with an
    # atom at 0.5 the oldest rows also read past the grid
    atoms = tuple(MeasureAtom(lag, const_poly_matrix([[0.4]])) for lag in lags)
    spec = DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(atoms), golden_flow)
    yhat = _short_wave(1)
    for n_terms in (None, 0, 2):
        got = invert_Dhat(spec, origin, yhat, 1e-8, n_terms=n_terms)
        want = invert_Dhat_direct(spec, origin, yhat, 1e-8, n_terms=n_terms)
        assert got.samples.tobytes() == want.samples.tobytes()


def test_invert_is_the_direct_method_of_steps_on_the_oracle_cases(golden_flow, origin, nan_empty):
    for spec, yhat in _oracle_cases(golden_flow):
        got = invert_Dhat(spec, origin, yhat, 1e-10)
        want = invert_Dhat_direct(spec, origin, yhat, 1e-10)
        assert got.samples.tobytes() == want.samples.tobytes()


def _inverse_or_error(invert, Bv, thetas):
    try:
        return invert(Bv, thetas).tobytes()
    except SingularBError as err:
        return err.point.theta.tobytes(), err.det


def _plan_rows(n):
    """Stencils of n rows of a plan over an operator without a delayed part."""
    return np.zeros((n, 0, 4), dtype=int), np.zeros((n, 0, 4))


def test_step_plan_inverts_a_phase_free_matrix_once(golden_flow, monkeypatch):
    # B with constant entries: one inversion, at the first row's phase, that
    # serves every row bit for bit as the batch; a plan given that inverse
    # inverts nothing; a phase-dependent B is inverted as one batch
    from nfde_lab import d_operator

    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    thetas = np.linspace(0.0, 1.0, 37, endpoint=False)[:, None]
    B = const_poly_matrix([[1.2, 0.3], [-0.1, 0.9]])
    spec = DOperatorSpec(2, B, AtomicMeasureFamily(), golden_flow)
    plan = d_operator.StepPlan(spec, thetas, *_plan_rows(37))
    assert calls == [(1, 2, 2)]
    want = d_operator._batch_inverse(eval_poly_matrix_many(B, thetas), thetas)
    assert plan.Ainv.tobytes() == want.tobytes()
    again = d_operator.StepPlan(spec, thetas[:5], *_plan_rows(5), Ainv=plan.Ainv[0])
    assert len(calls) == 2 and again.Ainv.tobytes() == want[:5].tobytes()
    B = [[B[0][0], TrigPoly.from_terms(0.3, [([1], 0.1, 0.0)])], B[1]]
    d_operator.StepPlan(DOperatorSpec(2, B, spec.nu, golden_flow), thetas, *_plan_rows(37))
    assert calls[-1] == (37, 2, 2)


def test_step_plan_singular_phase_free_B_raises_at_the_first_row():
    # a constant singular B is reported at the first row's phase, as the
    # batch reports its first singular row
    from nfde_lab import d_operator

    flow = TorusFlow([GOLDEN_FREQ])
    spec = DOperatorSpec(1, const_poly_matrix([[0.0]]), AtomicMeasureFamily(), flow)
    thetas = np.array([[0.7], [0.1], [0.4]])
    with pytest.raises(SingularBError) as info:
        d_operator.StepPlan(spec, thetas, *_plan_rows(3))
    assert info.value.point.theta.tolist() == [0.7] and info.value.det == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_checked_inverse_is_the_det_gate_at_every_phase(m):
    # the determinant is skipped only where Hadamard's bound clears the
    # gate: the same inverse bytes, or the same first singular phase and
    # det, on batches with column pairs made near dependent and zero B
    from nfde_lab.d_operator import _batch_inverse

    rng = np.random.default_rng(26 + m)
    raised = 0
    for _ in range(300):
        n = int(rng.integers(1, 12))
        Bv = rng.normal(size=(n, m, m)) + 3.0 * np.eye(m)
        near = rng.random(n) < 0.2
        spread = 10.0 ** rng.uniform(-16, -9) * rng.normal(size=(int(near.sum()), m))
        if m == 1:
            Bv[near, 0, 0] = spread[:, 0]
        else:
            Bv[near, :, -1] = Bv[near, :, 0] + spread
        Bv[rng.random(n) < 0.03] = 0.0
        Bv *= 10.0 ** rng.uniform(-3, 3)
        thetas = rng.random((n, 1))
        want = _inverse_or_error(batch_inverse_direct, Bv, thetas)
        assert _inverse_or_error(_batch_inverse, Bv, thetas) == want
        raised += isinstance(want, tuple)
    assert 30 < raised < 270


def test_stability_constant_weight(half_spec):
    est = stability_margin(half_spec)
    assert est.lam == pytest.approx(0.5, abs=1e-12)
    assert est.k_bound == pytest.approx(2.0, abs=1e-12)


def test_stability_oscillating_weight(golden_flow):
    c = TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)])
    spec = scalar_dspec(golden_flow, c)
    est = stability_margin(spec)
    # the 64-point grid hits the crest of the sine exactly
    assert est.lam == pytest.approx(0.5, abs=1e-12)
    assert est.lam <= 0.5 + 1e-12


def test_stability_unstable_weight(golden_flow):
    spec = scalar_dspec(golden_flow, 1.2)
    with pytest.raises(UnstableMarginError):
        stability_margin(spec)


def test_stability_rejects_nan_margin(golden_flow):
    # weights that overflow to inf at phase 0 make B^-1 W NaN there (0 * inf):
    # a NaN lam is no contraction, and used to pass the guard
    big = TrigPoly.from_terms(1e308, [([1], 1e308, 0.0)])
    nu = AtomicMeasureFamily((MeasureAtom(1.0, [[big, big], [big, big]]),))
    spec = DOperatorSpec(2, identity_poly_matrix(2), nu, golden_flow)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(UnstableMarginError):
            stability_margin(spec)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MeasureAtom(float("nan"), [[TrigPoly.const(0.5)]]),
        lambda: MeasureAtom(float("inf"), [[TrigPoly.const(0.5)]]),
        lambda: MeasureDensity(np.full((4, 1, 1), 0.1), float("nan")),
        lambda: MeasureDensity(np.full((4, 1, 1), 0.1), float("inf")),
        lambda: MeasureDensity(np.full((4, 1, 1), np.nan), 0.1),
        lambda: TrigPoly.from_terms(0.5, [([1], float("nan"), 0.0)]),
        lambda: TrigPoly.const(float("nan")),
    ],
    ids=[
        "atom-lag-nan",
        "atom-lag-inf",
        "density-step-nan",
        "density-step-inf",
        "density-values-nan",
        "poly-coefficient-nan",
        "poly-constant-nan",
    ],
)
def test_non_finite_operator_data_is_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_stability_singular_B(golden_flow):
    spec = DOperatorSpec(
        1, const_poly_matrix([[0.0]]), AtomicMeasureFamily(), golden_flow
    )
    with pytest.raises(SingularBError):
        stability_margin(spec)


def _torus_spec(rng, flow, m):
    """A seeded operator on the flow's torus: B = I with two entries given
    two modes each, two atoms with two modes on every entry but a zero and
    a constant one, and a density; the delayed part stays a contraction."""

    def poly(constant, scale):
        k = rng.integers(-2, 3, size=(2, flow.dim))
        terms = [(k[n], *rng.uniform(-scale, scale, 2)) for n in range(2)]
        return TrigPoly.from_terms(constant, terms)

    B = [[TrigPoly.const(float(i == j)) for j in range(m)] for i in range(m)]
    B[-1][0] = poly(0.0, 0.02)
    B[0][0] = poly(1.0, 0.05)
    atoms = []
    for lag in (0.5, 1.25):
        weight = [
            [poly(rng.uniform(-0.06, 0.06) / m, 0.06 / m) for _ in range(m)] for _ in range(m)
        ]
        weight[0][-1], weight[-1][0] = TrigPoly.const(0.0), TrigPoly.const(0.05)
        atoms.append(MeasureAtom(lag, weight))
    density = MeasureDensity(rng.uniform(-0.02, 0.02, size=(3, m, m)), 0.25)
    return DOperatorSpec(m, B, AtomicMeasureFamily(tuple(atoms), density), flow)


def _same_estimate(got, want):
    assert (got.lam, got.k_bound, got.sup_Binv) == (want.lam, want.k_bound, want.sup_Binv)
    assert got.sample_count == want.sample_count
    assert got.worst_point.theta.tobytes() == want.worst_point.theta.tobytes()


@pytest.mark.parametrize(
    "freqs, plan",
    [
        ([GOLDEN_FREQ], SamplingConfig(700, 300)),
        ([GOLDEN_FREQ, 0.41421356237309515], SamplingConfig(23, 600, 0.11)),
        ([GOLDEN_FREQ, 0.41421356237309515, 0.7320508075688772], SamplingConfig(9, 513)),
    ],
    ids=["d1", "d2", "d3"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stability_by_blocks_is_the_whole_plan_estimate(freqs, plan, seed):
    # plans that are no multiple of the block: the estimate read a block at
    # a time equals the whole-plan one bit for bit, worst phase included
    flow = TorusFlow(freqs, plan)
    rng = np.random.default_rng(seed)
    spec = _torus_spec(rng, flow, int(rng.integers(1, 4)))
    assert (plan.grid_per_dim ** len(freqs)) % PLAN_BLOCK and plan.orbit_points % PLAN_BLOCK
    _same_estimate(stability_margin(spec), stability_margin_direct(spec))


def test_stability_tie_across_blocks_keeps_the_first_phase():
    # c = 0.3 + 0.2 cos(4 pi theta) is 0.5 exactly at theta 0 (row 0) and 0.5
    # (row 512, the next block's first): the first sampled phase is the witness
    flow = TorusFlow([GOLDEN_FREQ], SamplingConfig(2 * PLAN_BLOCK, 40))
    spec = scalar_dspec(flow, TrigPoly.from_terms(0.3, [([2], 0.2, 0.0)]))
    est = stability_margin(spec)
    assert est.lam == 0.5 and est.worst_point.theta.tolist() == [0.0]
    _same_estimate(est, stability_margin_direct(spec))


def test_stability_singular_B_in_a_later_block():
    # B = 1 + cos(2 pi theta) vanishes at theta = 0.5, row 512: the second
    # block raises, at the same phase and determinant as the whole plan
    flow = TorusFlow([GOLDEN_FREQ], SamplingConfig(2 * PLAN_BLOCK, 0))
    B = [[TrigPoly.from_terms(1.0, [([1], 1.0, 0.0)])]]
    spec = DOperatorSpec(1, B, scalar_dspec(flow, 0.2).nu, flow)
    errors = []
    for estimate in (stability_margin, stability_margin_direct):
        with pytest.raises(SingularBError) as info:
            estimate(spec)
        errors.append(info.value)
    assert errors[0].point.theta.tolist() == [0.5] == errors[1].point.theta.tolist()
    assert errors[0].det == errors[1].det
    assert str(errors[0]).endswith("singular at theta=[0.5] (det=0.000e+00)")


def test_stability_nan_in_a_later_block_is_not_skipped():
    # weights overflow to inf only near theta = 0.75, in the second block, where
    # B^-1 W is NaN (0 * inf); the first block's lam is finite and past one.
    # The estimate is NaN, as over the whole plan
    flow = TorusFlow([GOLDEN_FREQ], SamplingConfig(2 * PLAN_BLOCK, 0))
    big = TrigPoly.from_terms(0.9e308, [([1], 0.0, -0.9e308)])
    zero = TrigPoly.const(0.0)
    nu = AtomicMeasureFamily((MeasureAtom(1.0, [[big, zero], [zero, zero]]),))
    spec = DOperatorSpec(2, identity_poly_matrix(2), nu, flow)
    with np.errstate(over="ignore", invalid="ignore"):
        for estimate in (stability_margin, stability_margin_direct):
            with pytest.raises(UnstableMarginError) as info:
                estimate(spec)
            assert math.isnan(info.value.lam)


def test_stability_memory_does_not_grow_with_the_plan():
    # a d = 3, m = 3 operator on the default plan, 64^3 + 512 = 262,656
    # phases: the whole plan held 102 MiB, one block at a time stays under 4
    flow = TorusFlow([GOLDEN_FREQ, 0.41421356237309515, 0.7320508075688772])
    B = const_poly_matrix(np.eye(3))
    B[0][0] = TrigPoly.from_terms(1.0, [([1, 0, 0], 0.1, 0.0)])
    W = const_poly_matrix(np.full((3, 3), 0.1))
    W[2][1] = TrigPoly.from_terms(0.1, [([0, 1, 1], 0.0, 0.05)])
    spec = DOperatorSpec(3, B, AtomicMeasureFamily((MeasureAtom(1.0, W),)), flow)
    tracemalloc.start()
    try:
        est = stability_margin(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.sample_count == 262_656
    assert peak <= 4 * 2**20, peak


def test_constant_entries_are_written_not_evaluated(golden_flow):
    # an entry without terms is its constant at every phase, bit for bit as
    # eval_trig_many gives it
    thetas = sample_thetas(golden_flow)
    mat = [
        [TrigPoly.const(0.3), TrigPoly.from_terms(0.1, [([1], 0.2, 0.0)])],
        [TrigPoly.const(0.0), TrigPoly.const(-1e-300)],
    ]
    got = eval_poly_matrix_many(mat, thetas)
    for i, row in enumerate(mat):
        for j, poly in enumerate(row):
            assert got[:, i, j].tobytes() == eval_trig_many(poly, thetas).tobytes()


def test_invert_constant_geometric(half_spec, origin):
    yhat = constant_history([1.0], 0.05, 40.0)
    x = invert_Dhat(half_spec, origin, yhat, 1e-8)
    assert np.max(np.abs(x.samples - 2.0)) <= 1e-8


def test_invert_zero_is_zero(half_spec, origin):
    yhat = constant_history([0.0], 0.05, 10.0)
    x = invert_Dhat(half_spec, origin, yhat, 1e-8)
    assert np.all(x.samples == 0.0)


def test_invert_linear_target(half_spec, origin):
    # closed form: (2s-2) - 0.5*(2(s-1)-2) = s
    yhat = from_function(lambda s: s[:, None], 0.05, 40.0)
    x = invert_Dhat(half_spec, origin, yhat, 1e-8)
    s = -0.05 * np.arange(101)  # [-5, 0]
    err = np.max(np.abs(x.sample_many(s)[:, 0] - (2.0 * s - 2.0)))
    assert err <= 1e-7


def test_invert_round_trip_random_specs(golden_flow, origin):
    rng = np.random.default_rng(2024)
    h = 0.05
    for _ in range(20):
        spec = random_contraction_spec(rng, golden_flow, h=h)
        est = spec.stability
        yhat = random_history(rng, spec.m, h, 3.0)
        x = invert_Dhat(spec, origin, yhat, 1e-8)
        back = eval_Dhat_segment(spec, origin, x, yhat.J)
        resid = np.max(np.abs(back.samples - yhat.samples))
        assert resid <= 1e-8 + 1e-9
        # norm bound from the stability estimate
        assert sup_norm(x) <= est.k_bound * sup_norm(yhat) + 1e-8


def test_invert_positivity(golden_flow, origin):
    rng = np.random.default_rng(77)
    for _ in range(10):
        spec = random_contraction_spec(rng, golden_flow, nonneg=True)
        yhat = random_history(rng, spec.m, 0.05, 3.0, nonneg=True)
        x = invert_Dhat(spec, origin, yhat, 1e-8)
        assert np.min(x.samples) >= -1e-9


def test_invert_linearity(half_spec, origin):
    rng = np.random.default_rng(5)
    y1 = HistoryGrid(0.05, rng.normal(size=(200, 1)))
    y2 = HistoryGrid(0.05, rng.normal(size=(200, 1)))
    combo = HistoryGrid(0.05, 2.0 * y1.samples - 3.0 * y2.samples)
    # fix the truncation depth so the three series are comparable
    kw = dict(tol=1e-10, n_terms=60)
    xc = invert_Dhat(half_spec, origin, combo, **kw)
    x1 = invert_Dhat(half_spec, origin, y1, **kw)
    x2 = invert_Dhat(half_spec, origin, y2, **kw)
    err = np.max(np.abs(xc.samples - (2.0 * x1.samples - 3.0 * x2.samples)))
    assert err <= 1e-10


def test_monotone_truncation(half_spec, origin):
    rng = np.random.default_rng(9)
    yhat = HistoryGrid(0.05, rng.normal(size=(300, 1)))

    def resid(n):
        x = invert_Dhat(half_spec, origin, yhat, 1e-12, n_terms=n)
        back = eval_Dhat_segment(half_spec, origin, x, yhat.J)
        return np.max(np.abs(back.samples - yhat.samples))

    for n in (5, 10, 20, 35):
        assert resid(n + 5) <= resid(n) + 1e-12


def dstar(spec, p, yhat, tol=1e-8):
    """The inverse lift at offset zero."""
    return invert_Dhat(spec, p, yhat, tol).samples[0]


def test_dstar_point_values(half_spec, origin):
    yhat = constant_history([1.0], 0.05, 40.0)
    assert dstar(half_spec, origin, yhat)[0] == pytest.approx(2.0, abs=1e-8)
    zero = constant_history([0.0], 0.05, 40.0)
    assert dstar(half_spec, origin, zero)[0] == 0.0


def test_dstar_linearity(half_spec, origin):
    rng = np.random.default_rng(31)
    y1 = HistoryGrid(0.05, rng.normal(size=(400, 1)))
    y2 = HistoryGrid(0.05, rng.normal(size=(400, 1)))
    combo = HistoryGrid(0.05, y1.samples + y2.samples)
    got = dstar(half_spec, origin, combo, tol=1e-10)
    want = dstar(half_spec, origin, y1, tol=1e-10) + dstar(half_spec, origin, y2, tol=1e-10)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_extract_atom_probe_misses_lags(half_spec, origin):
    out = extract_atom_at_zero(half_spec, origin, 0.25)
    assert out[0, 0] == 1.0  # probe support [-0.5, 0] misses the lag at 1


def test_extract_atom_partial_overlap(half_spec, origin):
    out = extract_atom_at_zero(half_spec, origin, 0.75)
    want = 1.0 - 0.5 * (-1.0 / 0.75 + 2.0)
    assert out[0, 0] == pytest.approx(want, abs=1e-12)


def test_extract_atom_empty_measure(golden_flow):
    B = [[TrigPoly.from_terms(1.5, [([1], 0.2, 0.0)]), TrigPoly.const(0.1)],
         [TrigPoly.const(0.0), TrigPoly.from_terms(2.0, [([1], 0.0, -0.3)])]]
    spec = DOperatorSpec(2, B, AtomicMeasureFamily(), golden_flow)
    for th in (0.0, 0.3, 0.77):
        p = TorusPoint([th])
        want = np.array([[eval_trig(B[i][j], p) for j in range(2)] for i in range(2)])
        for rho in (0.1, 0.5, 2.0):
            got = extract_atom_at_zero(spec, p, rho)
            assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 0.0, -0.25])
def test_extract_atom_rejects_rho_not_finite_and_positive(half_spec, origin, rho):
    # a NaN or infinite rho used to pass the check and answer the probe of 1
    # everywhere: [[0.5]] here, where B is [[1.0]]
    with pytest.raises(ValueError, match="rho must be finite and positive"):
        extract_atom_at_zero(half_spec, origin, rho)


def test_extract_atom_is_the_per_column_oracle():
    # D applied to the m probe columns in one batch is, bit for bit, D
    # applied to each column at the one phase: a row of `apply` does not
    # depend on its batch. 300 seeded operators, m 1-4 on a 1- or 2-torus,
    # with atoms, a density, both or neither, rho across both atom lags
    for seed in range(300):
        rng = np.random.default_rng(seed)
        flow = TorusFlow([GOLDEN_FREQ, 0.41421356237309515][: int(rng.integers(1, 3))])
        spec = _torus_spec(rng, flow, int(rng.integers(1, 5)))
        keep_atoms, keep_density = rng.integers(0, 2, size=2)
        nu = AtomicMeasureFamily(
            spec.nu.atoms if keep_atoms else (), spec.nu.density if keep_density else None
        )
        spec = DOperatorSpec(spec.m, spec.B, nu, flow)
        p = TorusPoint(rng.uniform(0.0, 1.0, size=flow.dim))
        rho = float(rng.uniform(0.01, 1.5))
        got = extract_atom_at_zero(spec, p, rho)
        assert got.tobytes() == extract_atom_at_zero_direct(spec, p, rho).tobytes(), seed


def test_invert_requires_stability(golden_flow, origin):
    spec = scalar_dspec(golden_flow, 1.2)
    yhat = constant_history([1.0], 0.05, 10.0)
    with pytest.raises(UnstableMarginError):
        invert_Dhat(spec, origin, yhat, 1e-8)


def test_sampling_config_shapes():
    thetas = sample_thetas(TorusFlow([GOLDEN_FREQ], SamplingConfig(16, 32)))
    assert thetas.shape == (48, 1)
    flow2 = TorusFlow([GOLDEN_FREQ, 0.3], SamplingConfig(grid_per_dim=8, orbit_points=10))
    assert sample_thetas(flow2).shape == (74, 2)


@pytest.mark.parametrize(
    "plan", [{"grid_per_dim": 0}, {"orbit_points": -1}, {"orbit_step": float("nan")}]
)
def test_sampling_config_rejects_invalid_plans(plan):
    with pytest.raises(ValueError):
        SamplingConfig(**plan)
    assert SamplingConfig(grid_per_dim=1, orbit_points=0).orbit_points == 0


@pytest.mark.parametrize(
    "kw",
    [
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": 1e-8, "n_terms": -1},
        {"tol": 1e-8, "n_terms": 2.5},
    ],
    ids=["tol-nan", "tol-inf", "n_terms-negative", "n_terms-fractional"],
)
def test_invert_rejects_bad_depth_inputs(half_spec, origin, kw):
    # a NaN tol used to fail in int(nan), an infinite one to return B^-1 yhat
    # silently, and a negative n_terms to be clamped to 0
    yhat = constant_history([1.0], 0.05, 3.0)
    with pytest.raises(ValueError, match="tol|n_terms"):
        invert_Dhat(half_spec, origin, yhat, **kw)


def _oracle_cases(flow):
    """(spec, target) pairs covering each read of the sweep: seeded draws
    with lags on the grid, lags off it above 3h (blocks of rows), under 3h
    and under h (a tap on the row itself, solved row by row), and the
    density operator, whose first midpoint lies under h."""
    rng = np.random.default_rng(1606)
    h = 0.05
    cases = []
    for _ in range(8):
        spec = random_contraction_spec(rng, flow, h=h)
        cases.append((spec, random_history(rng, spec.m, h, 3.0)))
    wave = HistoryGrid(h, (1.0 + 0.4 * np.sin(1.3 * (-h * np.arange(81))))[:, None])
    for lag in (0.513, 0.12, 0.03):
        atom = MeasureAtom(lag, [[TrigPoly.from_terms(0.3, [([1], 0.1, 0.2)])]])
        spec = DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily((atom,)), flow)
        cases.append((spec, wave))
    dens = MeasureDensity(np.full((20, 1, 1), 0.4), 0.05)
    spec = DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily((), dens), flow)
    cases.append((spec, wave))
    return cases


def test_invert_matches_neumann_oracle(golden_flow, origin):
    # the method of steps at the default depth against 80 terms of the series
    tol = 1e-10
    for spec, yhat in _oracle_cases(golden_flow):
        x = invert_Dhat(spec, origin, yhat, tol)
        ref = invert_Dhat_neumann(spec, origin, yhat, tol, n_terms=80)
        assert x.samples.shape == ref.samples.shape
        assert np.max(np.abs(x.samples - ref.samples)) <= tol


@pytest.mark.parametrize("n_terms", [1, 2, 3], ids=_ids([1, 2, 3]))
def test_invert_blocks_and_tail_closed_form(half_spec, origin, n_terms):
    # x = 1 + 0.5 x(. - 1) solved from the oldest row in blocks of one lag
    # (20 rows), each block adding one term of the geometric series. The
    # target is 1 on the whole working grid of K rows, past its grid as its
    # oldest sample, and the oldest block reads the starting row
    # B^-1 yhat = 1 past it
    yhat = HistoryGrid(0.05, np.ones((61, 1)))
    x = invert_Dhat(half_spec, origin, yhat, 1e-8, n_terms=n_terms)
    K = 61 + 20 + 20 * n_terms
    j = np.arange(81)
    want = 2.0 - 0.5 ** ((K - 1 - j) // 20 + 1)
    assert np.array_equal(x.samples[:, 0], want)


def _phase_B(rng, m):
    """A phase-dependent B near 1.5 I, so B^-1 is not the identity."""
    return [
        [
            TrigPoly.from_terms(1.5 if i == j else 0.1, [([1], 0.1 * rng.normal(), 0.1)])
            for j in range(m)
        ]
        for i in range(m)
    ]


def test_invert_round_trip_on_nodes_is_rounding(golden_flow, origin):
    # every read lands on a node, so each returned row solves its own
    # equation exactly: the round trip leaves rounding only
    rng = np.random.default_rng(88)
    h = 0.05
    for n in range(12):
        spec = random_contraction_spec(rng, golden_flow, h=h)
        if n % 2:
            spec = DOperatorSpec(spec.m, _phase_B(rng, spec.m), spec.nu, spec.flow)
        yhat = random_history(rng, spec.m, h, 3.0)
        x = invert_Dhat(spec, origin, yhat, 1e-8)
        back = eval_Dhat_segment(spec, origin, x, yhat.J)
        resid = np.max(np.abs(back.samples - yhat.samples))
        assert resid <= 1e-13 * (1.0 + sup_norm(yhat))


@pytest.mark.parametrize("method", ["steps", "neumann"])
def test_invert_compact_open_continuity(golden_flow, origin, method):
    # D^-1 is uniformly continuous for the compact-open topology: a change of
    # the target before -T moves the inverse on [-T', 0] by at most
    # k_bound lam^floor((T - T') / S) sup|delta| plus the two truncations
    inv = invert_Dhat if method == "steps" else invert_Dhat_neumann
    rng = np.random.default_rng(2718)
    h, tol = 0.05, 1e-10
    for _ in range(20):
        spec = random_contraction_spec(rng, golden_flow, h=h)
        est = spec.stability
        S = spec.support
        yhat = random_history(rng, spec.m, h, 6.0)
        T = rng.uniform(S, 5.0)
        T_near = rng.uniform(0.0, T - S)
        delta = np.zeros_like(yhat.samples)
        old = h * np.arange(yhat.J + 1) > T + 1e-9
        delta[old] = rng.normal(scale=rng.uniform(0.1, 2.0), size=delta[old].shape)
        moved = HistoryGrid(h, yhat.samples + delta)
        g0, g1 = inv(spec, origin, yhat, tol), inv(spec, origin, moved, tol)
        x0, x1 = g0.samples, g1.samples

        def bound(T_near):
            q = int(np.floor((T - T_near) / S))
            return est.k_bound * est.lam**q * float(np.max(np.abs(delta))) + 2.0 * tol

        near = h * np.arange(x0.shape[0]) <= T_near + 1e-9
        move = float(np.max(np.abs(x1[near] - x0[near])))
        assert move <= bound(T_near)
        # the same bound at T' = n bounds the seminorm over [-n, 0] in the
        # compact-open metric, with the trivial bound 1 from n = T on
        b = [min(1.0, bound(n)) if n < T else 1.0 for n in range(1, 31)]
        ceiling = sum(0.5**n * b_n for n, b_n in enumerate(b, start=1)) + 2.0**-30
        assert compact_open_metric(g0, g1) <= ceiling
