import json
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfde_lab import (
    AtomicMeasureFamily,
    CompartmentalSystem,
    DOperatorSpec,
    HistoryGrid,
    GOLDEN_FREQ,
    NeutralDiagSystem,
    PipeSpec,
    SamplingConfig,
    ShapeFn,
    StructuralPreconditionError,
    TorusFlow,
    TorusPoint,
    TransportSpec,
    TrigPoly,
    check_condition,
    constant_history,
    eval_F,
    invert_Dhat,
    suggest_a,
    total_mass,
)
from nfde_lab import cli, compartment
from nfde_lab.base_flow import derivative_along_flow_many, eval_trig_many, sample_thetas
from nfde_lab.compartment import _component_margins, _mass_span, _Precomp, condition_margins
from nfde_lab.d_operator import MeasureAtom, MeasureDensity, identity_poly_matrix
from nfde_lab.history import FunctionHistory, TailPolicy

from .conftest import const_c_system, s1_system
from .oracles import (
    advance,
    c_product,
    component_margins_direct,
    eval_trig,
    lipschitz_bounds,
    pq_sequence,
    total_mass_direct,
)


def open_scalar_system(flow, inflow=0.0, outflow_gain=0.0):
    return CompartmentalSystem(
        m=1,
        transports=((TransportSpec.zero(),),),
        outflows=(TransportSpec.linear(outflow_gain),),
        inflows=(TrigPoly.const(inflow),),
        pipes=((PipeSpec.instant(),),),
        dspec=DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(), flow),
        flow=flow,
    )


def test_eval_F_equilibrium_self_loop(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3, gain=1.0)
    hist = constant_history([2.0], 0.1, 3.0)
    assert eval_F(sys, origin, hist)[0] == pytest.approx(0.0, abs=1e-14)


def test_eval_F_oscillating_gain_spot_value(golden_flow, origin):
    # oracle: two direct gain evaluations
    gain = TrigPoly.from_terms(1.0, [([1], 0.5, 0.0)])
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.0),),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec(gain),),),
        flow=golden_flow,
    )
    hist = constant_history([2.0], 0.1, 3.0)
    got = eval_F(sys, origin, hist)[0]
    k_now = eval_trig(gain, origin)
    k_del = eval_trig(gain, advance(golden_flow, origin, -1.0))
    assert got == pytest.approx(2.0 * k_del - 2.0 * k_now, abs=1e-13)


def test_eval_F_reads_its_offsets_in_one_call(golden_flow, origin):
    # the offsets 0 and minus each pipe lag, all in one sample_many call
    calls = []

    def fn(s):
        calls.append(s.tolist())
        return np.full((s.size, 1), 2.0)

    eval_F(s1_system(golden_flow), origin, FunctionHistory(fn, 1))
    assert calls == [[0.0, -1.0]]


def test_eval_F_pure_inflow(golden_flow, origin):
    sys = open_scalar_system(golden_flow, inflow=3.0)
    hist = constant_history([7.0], 0.1, 1.0)
    assert eval_F(sys, origin, hist)[0] == pytest.approx(3.0, abs=1e-14)


def test_eval_F_zero_history(golden_flow, origin):
    closed = s1_system(golden_flow)
    z0 = constant_history([0.0], 0.1, 3.0)
    assert eval_F(closed, origin, z0)[0] == 0.0
    open_sys = open_scalar_system(golden_flow, inflow=1.5)
    assert eval_F(open_sys, origin, z0)[0] == 1.5


def eval_G(sys, p, yhat, tol=1e-8):
    """Right-hand side of the transformed equation: F after inverting the lift."""
    return eval_F(sys, p, invert_Dhat(sys.dspec, p, yhat, tol))


def test_eval_G_reduces_to_F_without_neutral_part(golden_flow, origin):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.0),),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )
    rng = np.random.default_rng(2)
    yhat = HistoryGrid(0.1, rng.normal(size=(40, 1)))
    got = eval_G(sys, origin, yhat)
    want = eval_F(sys, origin, yhat)
    assert np.allclose(got, want, atol=1e-12)


def test_eval_G_equilibrium_through_inverse(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.5)
    yhat = constant_history([1.0], 0.05, 40.0)
    assert abs(eval_G(sys, origin, yhat, tol=1e-8)[0]) <= 1e-7


def test_eval_G_zero(golden_flow, origin):
    sys = s1_system(golden_flow)
    yhat = constant_history([0.0], 0.05, 40.0)
    assert eval_G(sys, origin, yhat)[0] == 0.0


def test_total_mass_closed_constant(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3, gain=1.0, alpha=1.0, rho=1.0)
    hist = constant_history([2.0], 0.1, 3.0)
    assert total_mass(sys, origin, hist) == pytest.approx(3.4, abs=1e-12)


def test_total_mass_zero_history(golden_flow, origin):
    sys = s1_system(golden_flow)
    hist = constant_history([0.0], 0.1, 3.0)
    assert total_mass(sys, origin, hist) == 0.0


def test_total_mass_zero_lag_pipe(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3, gain=1.0, rho=0.0)
    hist = constant_history([2.0], 0.1, 3.0)
    # no in-transit material: mass equals the operator sum 2 * (1 - 0.3)
    assert total_mass(sys, origin, hist) == pytest.approx(1.4, abs=1e-14)


def test_total_mass_additive_over_blocks(golden_flow, origin):
    zero = TransportSpec.zero()
    two = NeutralDiagSystem(
        m=2,
        c=(TrigPoly.const(0.2), TrigPoly.const(0.4)),
        alpha=np.array([1.0, 0.5]),
        rho=np.array([[1.0, 0.0], [0.0, 0.7]]),
        transports=((TransportSpec.linear(1.0), zero), (zero, TransportSpec.linear(0.5))),
        flow=golden_flow,
    )
    one_a = const_c_system(golden_flow, c0=0.2, gain=1.0, alpha=1.0, rho=1.0)
    one_b = const_c_system(golden_flow, c0=0.4, gain=0.5, alpha=0.5, rho=0.7)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(40, 2))
    both = HistoryGrid(0.05, vals)
    first = HistoryGrid(0.05, vals[:, :1])
    second = HistoryGrid(0.05, vals[:, 1:])
    lhs = total_mass(two, origin, both)
    rhs = total_mass(one_a, origin, first) + total_mass(one_b, origin, second)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_total_mass_linear_for_identity_shapes(golden_flow, origin):
    sys = s1_system(golden_flow)
    rng = np.random.default_rng(6)
    a = HistoryGrid(0.05, rng.normal(size=(60, 1)))
    b = HistoryGrid(0.05, rng.normal(size=(60, 1)))
    combo = HistoryGrid(0.05, 2.0 * a.samples + 0.5 * b.samples)
    lhs = total_mass(sys, origin, combo)
    rhs = 2.0 * total_mass(sys, origin, a) + 0.5 * total_mass(sys, origin, b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def _random_mass_case(rng, flow):
    """A network with off-node atom, density and pipe lags, random gains
    and shapes, and a history of random length and tail policy. Returns
    (system, history, whether a lagged pipe has a phase-dependent gain)."""
    h = float(rng.choice([0.05, 0.1]))
    m = int(rng.integers(1, 4))

    def poly(c, vary):
        return TrigPoly.from_terms(c, [([1], 0.0, 0.5 * c)]) if vary else TrigPoly.const(c)

    atoms = tuple(
        MeasureAtom(
            h * (int(rng.integers(1, 15)) + float(rng.uniform(0.05, 0.95))),
            [[poly(float(rng.uniform(-0.1, 0.1)), rng.random() < 0.5) for _ in range(m)]
             for _ in range(m)],
        )
        for _ in range(int(rng.integers(1, 3)))
    )
    density = None
    if rng.random() < 0.3:
        density = MeasureDensity(rng.uniform(-0.05, 0.05, size=(4, m, m)), 1.5 * h)
    shapes = [ShapeFn.identity(), ShapeFn.saturate(), ShapeFn.sine_bend(0.3)]
    transports, pipes, lagged_phase = [], [], False
    for _ in range(m):
        trow, prow = [], []
        for _ in range(m):
            if rng.random() < 0.3:
                trow.append(TransportSpec.zero())
                prow.append(PipeSpec.instant())
                continue
            vary = rng.random() < 0.4
            gain = poly(float(rng.uniform(0.2, 1.5)), vary)
            trow.append(TransportSpec(gain, shapes[int(rng.integers(3))]))
            n = int(rng.integers(1, 3))
            lags = [
                0.0 if rng.random() < 0.2 else h * (int(rng.integers(0, 12)) + float(rng.random()))
                for _ in range(n)
            ]
            prow.append(PipeSpec(tuple(zip(lags, rng.dirichlet(np.ones(n))))))
            lagged_phase |= vary and max(lags) > 0.0
        transports.append(tuple(trow))
        pipes.append(tuple(prow))
    dspec = DOperatorSpec(m, identity_poly_matrix(m), AtomicMeasureFamily(atoms, density), flow)
    sys = CompartmentalSystem(
        m=m,
        transports=tuple(transports),
        outflows=(TransportSpec.zero(),) * m,
        inflows=(TrigPoly.const(0.0),) * m,
        pipes=tuple(pipes),
        dspec=dspec,
        flow=flow,
    )
    W = _mass_span(sys, h)
    J = int(rng.integers(max(int(np.ceil(sys.max_pipe_lag / h - 1e-9)), 1), W + 8))
    tail = TailPolicy.ZERO if rng.random() < 0.5 else TailPolicy.CONSTANT
    return sys, HistoryGrid(h, rng.normal(size=(J + 1, m)), tail), lagged_phase


@pytest.mark.parametrize("seed", range(40))
def test_total_mass_matches_direct_on_its_window(golden_flow, seed):
    # total_mass reads the newest W + 1 nodes, padded by the tail policy;
    # the per-pipe oracle on that window as a HistoryGrid must agree bit for
    # bit, except for the phase of a lagged phase-dependent gain
    rng = np.random.default_rng(seed)
    sys, hist, lagged_phase = _random_mass_case(rng, golden_flow)
    p = TorusPoint([rng.random()])
    W = _mass_span(sys, hist.step)
    window = HistoryGrid(hist.step, hist.sample_many(-hist.step * np.arange(W + 1)), hist.tail)
    got = total_mass(sys, p, hist)
    want = total_mass_direct(sys, p, window)
    if lagged_phase:
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
    else:
        assert got == want


def test_lipschitz_bounds_linear(golden_flow, origin):
    sys = const_c_system(golden_flow, gain=1.0)
    lb = lipschitz_bounds(sys, origin)
    assert lb.l_minus[0, 0] == lb.l_plus[0, 0] == 1.0
    assert lb.L_plus[0] == 1.0


def test_lipschitz_bounds_sine_bend(golden_flow, origin):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.1),),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec(TrigPoly.const(2.0), ShapeFn.sine_bend(0.5)),),),
        flow=golden_flow,
    )
    lb = lipschitz_bounds(sys, origin)
    assert lb.l_minus[0, 0] == pytest.approx(1.0)
    assert lb.l_plus[0, 0] == pytest.approx(3.0)


def test_lipschitz_column_sums(golden_flow, origin):
    k = [[1.0, 0.3], [0.7, 0.2]]
    sys = NeutralDiagSystem(
        m=2,
        c=(TrigPoly.const(0.1), TrigPoly.const(0.1)),
        alpha=np.array([1.0, 1.0]),
        rho=np.full((2, 2), 1.0),
        transports=tuple(
            tuple(TransportSpec.linear(k[i][j]) for j in range(2)) for i in range(2)
        ),
        flow=golden_flow,
    )
    lb = lipschitz_bounds(sys, origin)
    assert lb.L_plus[0] == pytest.approx(k[0][0] + k[1][0])
    assert lb.L_plus[1] == pytest.approx(k[0][1] + k[1][1])


def test_c_product_basics(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.5)
    assert c_product(sys, origin, 0, 0) == 1.0
    assert c_product(sys, origin, 0, 3) == pytest.approx(0.125, abs=1e-15)


def test_c_product_oscillating_oracle(golden_flow, origin):
    # oracle: explicit two-factor product
    s1 = s1_system(golden_flow)
    c = s1.c[0]
    want = eval_trig(c, origin) * eval_trig(c, advance(golden_flow, origin, -1.0))
    assert c_product(s1, origin, 0, 2) == pytest.approx(want, abs=1e-15)


def test_pq_sequence_hand_values(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3, gain=1.0, alpha=1.0, rho=1.0)
    pv, qv = pq_sequence(sys, origin, 0, a=-2.0, N=6)
    assert qv[0] == pytest.approx(1.0, abs=1e-15)
    for n in range(1, 7):
        assert pv[n - 1] == pytest.approx(0.7 * 0.3 ** (n - 1), abs=1e-15)
    assert qv[1] == pytest.approx(math.exp(-2.0) + 0.7, abs=1e-15)


def test_pq_recursion_bit_exact(golden_flow):
    s1 = s1_system(golden_flow)
    p = TorusPoint([0.21])
    pv, qv = pq_sequence(s1, p, 0, a=-1.3, N=12)
    ea = math.exp(-1.3 * 1.0)
    for n in range(1, 13):
        assert qv[n] == qv[n - 1] * ea + pv[n - 1]


def test_g31_hand_margin(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, gain=1.0, alpha=1.0, rho=2.0)
    rep = check_condition(sys, "G3", [-2.0])
    sub = {s.name: s for s in rep.components[0].subs}
    want = (2.0 - 1.0) * math.exp(-2.0) - 0.1
    assert sub["G3.1"].min_margin == pytest.approx(want, abs=1e-12)
    assert sub["G3.2"].min_margin == pytest.approx(1.0 - 1.0 * 0.01, abs=1e-12)
    assert rep.passed


def test_g31_fails_at_zero_rate(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, gain=1.0, alpha=1.0, rho=2.0)
    rep = check_condition(sys, "G3", [0.0])
    sub = {s.name: s for s in rep.components[0].subs}
    assert sub["G3.1"].min_margin < 0
    assert not rep.passed


def test_g3_structural_precondition(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, gain=1.0, alpha=1.0, rho=1.0)
    with pytest.raises(StructuralPreconditionError):
        check_condition(sys, "G3", [-2.0])


def test_g5_margin_formula_everywhere(golden_flow):
    # linear shapes: margin is gain(shifted) - gain * c at every sampled phase
    s1 = s1_system(golden_flow)
    thetas = sample_thetas(golden_flow)
    margins = condition_margins(s1, "G5", [-2.0], thetas)[0]["G5"]
    cvals = eval_trig_many(s1.c[0], thetas)
    want = 1.0 - 1.0 * cvals
    assert np.max(np.abs(margins - want)) <= 1e-12
    rep = check_condition(s1, "G5", [-2.0])
    assert rep.passed
    assert rep.components[0].subs[0].min_margin == pytest.approx(0.5, abs=1e-12)


def test_g5_structural_precondition(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, rho=0.5)
    with pytest.raises(StructuralPreconditionError):
        check_condition(sys, "G5", [-1.0])


def test_g4_passes_on_s1(golden_flow):
    s1 = s1_system(golden_flow)
    rep = check_condition(s1, "G4", [-2.0])
    comp = rep.components[0]
    assert rep.passed
    assert comp.n0_max == 0
    assert comp.tail_certified


def test_g4_tail_fallback_note(golden_flow):
    # rho < alpha with oscillating c: the sound certificate does not apply
    c = TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)])
    sys = NeutralDiagSystem(
        m=1,
        c=(c,),
        alpha=np.array([1.0]),
        rho=np.array([[0.5]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )
    rep = check_condition(sys, "G4", [-2.0])
    comp = rep.components[0]
    assert comp.tail_certified is False
    assert "depth" in comp.note


def test_g8_formula_and_verdicts(golden_flow):
    thetas = sample_thetas(golden_flow)
    c = TrigPoly.from_terms(0.1, [([1], 0.0, 0.05)])
    weak = NeutralDiagSystem(
        m=1,
        c=(c,),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec.linear(0.05),),),
        flow=golden_flow,
        g6=True,
    )
    a = -1.0
    margins = condition_margins(weak, "G8", [a], thetas)[0]["G8"]
    cv = eval_trig_many(c, thetas)
    gam = derivative_along_flow_many(c, golden_flow, thetas)
    want = -0.05 - a + np.minimum(a * cv + gam, 0.0) * math.exp(-a * 1.0)
    assert np.max(np.abs(margins - want)) <= 1e-12
    assert check_condition(weak, "G8", [a]).passed
    # strong coupling defeats the strict inequality
    strong = s1_system(golden_flow)
    assert not check_condition(strong, "G8", [-2.0]).passed


def test_g9_formula_and_pass(golden_flow):
    thetas = sample_thetas(golden_flow)
    c = TrigPoly.from_terms(0.1, [([1], 0.0, 0.05)])
    sys = NeutralDiagSystem(
        m=1,
        c=(c,),
        alpha=np.array([1.0]),
        rho=np.array([[0.5]]),
        transports=((TransportSpec.linear(0.05),),),
        flow=golden_flow,
        g6=True,
    )
    a = -1.0
    out = condition_margins(sys, "G9", [a], thetas)[0]
    cv = eval_trig_many(c, thetas)
    gam = derivative_along_flow_many(c, golden_flow, thetas)
    sh = np.mod(thetas - 0.5 * golden_flow.freqs[None, :], 1.0)
    lm = 0.05 * np.ones(thetas.shape[0])
    want1 = (-a - 0.05) * np.ones(thetas.shape[0])
    want2 = (
        math.exp(a * 0.5) * (-a - 0.05)
        + lm
        + math.exp(a * (0.5 - 1.0)) * np.minimum(a * cv + gam, 0.0)
    )
    assert np.max(np.abs(out["G9.1"] - want1)) <= 1e-12
    assert np.max(np.abs(out["G9.2"] - want2)) <= 1e-12
    assert check_condition(sys, "G9", [a]).passed


def test_g9_structural_precondition(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, rho=2.0)
    with pytest.raises(StructuralPreconditionError):
        check_condition(sys, "G9", [-1.0])


def test_induced_operator_contraction_matches_coefficient(golden_flow):
    s1 = s1_system(golden_flow)
    est = s1.dspec.stability
    thetas = sample_thetas(golden_flow)
    c_max = float(np.max(eval_trig_many(s1.c[0], thetas)))
    assert abs(est.lam - c_max) <= 1e-3
    assert est.lam == pytest.approx(c_max, abs=1e-12)  # same sampling plan


def test_build_checks_read_the_flows_plan():
    # a coarse plan sees c = 0.3 + 0.2 sin at the phases 0 and 1/2 only,
    # where it is 0.3: the contraction estimate and the G4 tail certificate's
    # c_sup are taken over those phases, not over the default plan
    flow = TorusFlow([GOLDEN_FREQ], SamplingConfig(grid_per_dim=2, orbit_points=0))
    s1 = s1_system(flow)
    thetas = sample_thetas(flow)
    assert s1.dspec.stability.sample_count == thetas.shape[0] == 2
    want = np.max(np.stack([eval_trig_many(ci, thetas) for ci in s1.c], axis=1), axis=0)
    assert s1.c_sup.tolist() == want.tolist() == [0.3]
    assert s1.dspec.stability.lam == pytest.approx(0.3, abs=1e-15)


def test_coefficient_bound_validation(golden_flow):
    with pytest.raises(StructuralPreconditionError):
        const_c_system(golden_flow, c0=1.2)


def test_g6_sum_validation(golden_flow):
    c = (TrigPoly.const(0.6), TrigPoly.const(0.45))
    zero = TransportSpec.zero()
    with pytest.raises(StructuralPreconditionError):
        NeutralDiagSystem(
            m=2,
            c=c,
            alpha=np.array([1.0, 1.0]),
            rho=np.full((2, 2), 1.0),
            transports=((TransportSpec.linear(0.1), zero), (zero, TransportSpec.linear(0.1))),
            flow=golden_flow,
            g6=True,
        )


def test_suggest_a_reproduces_hand_analysis(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, gain=1.0, alpha=1.0, rho=2.0)
    report = suggest_a(sys, "G3", trial_a=np.linspace(-4.0, 0.0, 21))
    a = report.a[0]
    assert a < 0
    rep = check_condition(sys, "G3", [a])
    assert rep.passed
    # the scan includes the optimum of (-a-1)e^a - 0.1 at a = -2
    assert a == pytest.approx(-2.0, abs=1e-12)


def test_suggest_a_prescribed_for_zero_coefficient(golden_flow):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.0),),
        alpha=np.array([1.0]),
        rho=np.array([[2.0]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )
    report = suggest_a(sys, "G3", trial_a=np.linspace(-4.0, 0.0, 5))
    assert report.prescribed == (0,)
    assert report.a[0] == pytest.approx(-2.0, abs=1e-12)  # -sup L - 1


def test_suggest_a_zero_gains_ties_toward_zero(golden_flow):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.1),),
        alpha=np.array([1.0]),
        rho=np.array([[2.0]]),
        transports=((TransportSpec.zero(),),),
        flow=golden_flow,
    )
    report = suggest_a(sys, "G3", trial_a=np.linspace(-3.0, 0.0, 13))
    assert report.a[0] == 0.0


# --- the rate scan against the per-rate oracle ------------------------------

SILVER_FREQ = np.sqrt(2.0) - 1.0
ORACLE_SAMPLING = SamplingConfig(grid_per_dim=3, orbit_points=8)
ORACLE_FLOW = TorusFlow([GOLDEN_FREQ], ORACLE_SAMPLING)
ORACLE_TRIALS = np.array([-3.0, -1.5, -0.5, 0.0])
# rates handed to the scan directly: duplicates, and some with mixed feasibility
SCAN_RATES = np.array([-3.0, -1.5, -1.5, -1.0, -0.5, 0.0])


def _random_diag_system(rng, m, cond, dim, equal_lags=False, const_c=False):
    """Small system whose diagonal lags fit the structure `cond` requires.

    With equal_lags, rho_ii = alpha_i wherever the structure allows it;
    with const_c, every coefficient c_i is constant.
    """
    flow = TorusFlow([GOLDEN_FREQ, SILVER_FREQ][:dim], ORACLE_SAMPLING)

    def poly(c0, amp):
        k = rng.integers(-1, 2, dim)
        k[rng.integers(dim)] = 1
        return TrigPoly.from_terms(c0, [(k, rng.uniform(-amp, amp), rng.uniform(-amp, amp))])

    shapes = [ShapeFn.identity(), ShapeFn.sine_bend(0.3), ShapeFn.saturate()]
    alpha = rng.uniform(0.5, 1.5, m)
    rho = rng.uniform(0.1, 1.0, (m, m))
    ratio = {"G3": 2.0, "G5": 1.0, "G8": rng.uniform(0.2, 1.8)}.get(cond, rng.uniform(0.2, 1.0))
    if equal_lags and cond != "G3":
        ratio = 1.0
    rho[np.diag_indices(m)] = ratio * alpha

    def coefficient():
        if rng.random() < 0.2:
            return TrigPoly.const(0.0)
        if const_c:
            return TrigPoly.const(rng.uniform(0.08, 0.2))
        return poly(rng.uniform(0.08, 0.2), 0.04)

    c = tuple(coefficient() for _ in range(m))
    transports = tuple(
        tuple(
            TransportSpec(
                poly(rng.uniform(0.5, 1.5), 0.3)
                if i == j
                else TrigPoly.const(rng.uniform(0.0, 0.2)),
                shapes[rng.integers(3)],
            )
            for j in range(m)
        )
        for i in range(m)
    )
    return NeutralDiagSystem(m=m, c=c, alpha=alpha, rho=rho, transports=transports, flow=flow)


def _canonical_rates(sys, thetas):
    # -sup_theta sum_j l_plus[j][i] - 1, written out from the gains
    lp = np.zeros((thetas.shape[0], sys.m, sys.m))
    for i in range(sys.m):
        for j in range(sys.m):
            tr = sys.transports[i][j]
            lp[:, i, j] = eval_trig_many(tr.gain, thetas) * tr.shape.deriv_bounds()[1]
    return -np.max(lp.sum(axis=1), axis=0) - 1.0


def _worst_margin(cond, entry):
    if cond == "G4":
        marg, _, found, _ = entry["_g4"]
        return float(np.min(marg)) if np.all(found) else -np.inf
    return min(float(np.min(arr)) for arr in entry.values())


def _row(cond, entry, k):
    """Rate k of the scan's (T, n) arrays, in `condition_margins`' form."""
    if cond == "G4":
        marg, n0, found, certified = entry["_g4"]
        return {"_g4": (marg[k], n0[k], found[k], bool(certified[k]))}
    return {name: arr[k] for name, arr in entry.items()}


def _assert_same(got, want):
    """Margins, n0, found and tail_certified agree bit for bit."""
    assert list(got) == list(want)
    for name, w in want.items():
        if name != "_g4":
            assert got[name].tobytes() == w.tobytes(), name
            continue
        *g_arrays, g_cert = got[name]
        *w_arrays, w_cert = w
        for g, ww in zip(g_arrays, w_arrays):
            assert g.dtype == ww.dtype and g.tobytes() == ww.tobytes()
        assert g_cert is w_cert


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.sampled_from([1, 2, 3]),
    cond=st.sampled_from(["G3", "G4", "G5", "G8", "G9"]),
    dim=st.sampled_from([1, 2]),
    equal_lags=st.booleans(),
    const_c=st.booleans(),
    n_check=st.sampled_from([0, 1, 2, 50]),
    chunk=st.sampled_from([1, 2, 5, None]),
)
def test_rate_scan_matches_per_rate_oracle(
    seed, m, cond, dim, equal_lags, const_c, n_check, chunk
):
    sys = _random_diag_system(np.random.default_rng(seed), m, cond, dim, equal_lags, const_c)
    thetas = sample_thetas(sys.flow)
    elements = compartment._SCAN_ELEMENTS if chunk is None else chunk * thetas.shape[0]
    with patch.object(compartment, "_SCAN_ELEMENTS", elements):
        pre = _Precomp(sys, thetas)
        report = suggest_a(sys, cond, ORACLE_TRIALS, n_check)
        canon = _canonical_rates(sys, thetas)
        assert np.array_equal(pre.canonical_a(), canon)
        one_rate = condition_margins(sys, cond, SCAN_RATES[[3] * m], thetas, n_check)
        for i in range(m):
            if sys.c[i].is_zero():
                assert i in report.prescribed
                assert report.a[i] == canon[i]
                assert np.all(np.isnan(report.margins[:, i]))
                continue
            rates = np.concatenate([SCAN_RATES, [canon[i], canon[i]]])
            got = _component_margins(pre, cond, i, rates, n_check)
            for k, a in enumerate(rates):
                want = component_margins_direct(pre, cond, i, a, n_check)
                _assert_same(_row(cond, got, k), want)
            # the public one-rate path
            _assert_same(one_rate[i], component_margins_direct(pre, cond, i, SCAN_RATES[3], n_check))
            # the suggest_a surface and its choice
            cand = np.unique(np.concatenate([ORACLE_TRIALS, [canon[i]]]))
            vals = np.array(
                [_worst_margin(cond, component_margins_direct(pre, cond, i, a, n_check)) for a in cand]
            )
            assert report.margins[: cand.size, i].tobytes() == vals.tobytes()
            assert np.all(np.isnan(report.margins[cand.size :, i]))
            assert report.a[i] == cand[vals >= np.max(vals) - 1e-12].max()


def _assert_same_report(got, want):
    """Two ConditionReports agree field by field; margins and witnesses bit for bit."""
    assert got.condition == want.condition
    assert got.a.tobytes() == want.a.tobytes()
    assert got.passed is want.passed
    assert got.notes == want.notes
    assert len(got.components) == len(want.components)
    for g, w in zip(got.components, want.components):
        assert (g.index, g.skipped, g.passed, g.note) == (w.index, w.skipped, w.passed, w.note)
        assert (g.n0_max, g.tail_certified) == (w.n0_max, w.tail_certified)
        assert type(g.tail_certified) is type(w.tail_certified)
        assert np.array(g.prescribed_a, dtype=float).tobytes() == np.array(
            w.prescribed_a, dtype=float
        ).tobytes()
        assert len(g.subs) == len(w.subs)
        for gs, ws in zip(g.subs, w.subs):
            assert (gs.name, gs.strict_everywhere) == (ws.name, ws.strict_everywhere)
            assert np.float64(gs.min_margin).tobytes() == np.float64(ws.min_margin).tobytes()
            assert gs.witness.theta.tobytes() == ws.witness.theta.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.sampled_from([1, 2, 3]),
    cond=st.sampled_from(["G3", "G4", "G5", "G8", "G9"]),
    dim=st.sampled_from([1, 2]),
    equal_lags=st.booleans(),
    zero_first=st.booleans(),
    n_check=st.sampled_from([0, 1, 2, 50]),
    chunk=st.sampled_from([1, 2, 5, None]),
)
def test_suggested_report_matches_check_condition(
    seed, m, cond, dim, equal_lags, zero_first, n_check, chunk
):
    # check_condition at the suggested rates is the oracle for the report
    # suggest_a reads off its scan
    sys = _random_diag_system(np.random.default_rng(seed), m, cond, dim, equal_lags)
    if zero_first:
        sys = NeutralDiagSystem(
            m=m,
            c=(TrigPoly.const(0.0),) + sys.c[1:],
            alpha=sys.alpha,
            rho=sys.rho,
            transports=sys.transports,
            flow=sys.flow,
        )
    n = sample_thetas(sys.flow).shape[0]
    elements = compartment._SCAN_ELEMENTS if chunk is None else chunk * n
    with patch.object(compartment, "_SCAN_ELEMENTS", elements):
        got = suggest_a(sys, cond, ORACLE_TRIALS, n_check).report
    want = check_condition(sys, cond, got.a, n_check)
    _assert_same_report(got, want)


def test_check_task_evaluates_each_condition_once(tmp_path, monkeypatch):
    cfg = {
        "flow": {"freqs": [GOLDEN_FREQ, float(SILVER_FREQ)]},
        "system": {
            "kind": "neutral_diag",
            "m": 3,
            "c": [
                {"constant": 0.18, "terms": [{"k": [1, 0], "sin": 0.05}]},
                {"constant": 0.16, "terms": [{"k": [0, 1], "cos": 0.05}]},
                0.0,
            ],
            "alpha": [1.0, 0.8, 1.2],
            "rho": [[1.0, 0.5, 0.5], [0.5, 0.8, 0.5], [0.5, 0.5, 1.2]],
            "gains": [[1.0, 0.1, 0.05], [0.12, 0.95, 0.1], [0.08, 0.1, 1.05]],
        },
        "sampling": {"grid_per_dim": 6, "orbit_points": 16},
        "check": {"conditions": ["G4", "G5", "G9"], "a": "auto"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    per_call = []  # per suggest_a call: [phase data built, components evaluated]
    unwanted = []

    class Counting(_Precomp):
        def __init__(self, *args):
            per_call[-1][0] += 1
            super().__init__(*args)

    margins = compartment._component_margins

    def counting_margins(pre, cond, i, rates, n_check):
        per_call[-1][1].append(i)
        return margins(pre, cond, i, rates, n_check)

    suggest = cli.suggest_a

    def counting_suggest(*args, **kwargs):
        per_call.append([0, []])
        return suggest(*args, **kwargs)

    def forbidden(name):
        def call(*args, **kwargs):
            unwanted.append(name)

        return call

    monkeypatch.setattr(compartment, "_Precomp", Counting)
    monkeypatch.setattr(compartment, "_component_margins", counting_margins)
    monkeypatch.setattr(cli, "suggest_a", counting_suggest)
    monkeypatch.setattr(cli, "check_condition", forbidden("check_condition"))
    monkeypatch.setattr(compartment, "check_condition", forbidden("check_condition"))
    monkeypatch.setattr(compartment, "condition_margins", forbidden("condition_margins"))
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert per_call == [[1, [0, 1]]] * 3
    assert unwanted == []


@pytest.mark.parametrize("chunk", [1, 2, 5, None])
def test_g4_scan_covers_unfound_and_deep_phases(golden_flow, chunk):
    # rho < alpha with oscillating c and gain: at a = -1 the rate splits the
    # phases into feasible and infeasible ones, and at a = -3 some phases
    # only become feasible past depth 0
    c = (TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)]),)
    gain = TransportSpec(TrigPoly.from_terms(1.0, [([1], 0.3, 0.0)]), ShapeFn.sine_bend(0.3))
    sys = NeutralDiagSystem(
        m=1,
        c=c,
        alpha=np.array([1.0]),
        rho=np.array([[0.6]]),
        transports=((gain,),),
        flow=golden_flow,
    )
    thetas = sample_thetas(replace(golden_flow, sampling=SamplingConfig(16, 16)))
    rates = np.array([-3.0, -1.0, -1.0, 0.0])
    elements = compartment._SCAN_ELEMENTS if chunk is None else chunk * thetas.shape[0]
    with patch.object(compartment, "_SCAN_ELEMENTS", elements):
        pre = _Precomp(sys, thetas)
        got = _component_margins(pre, "G4", 0, rates, 20)
    for k, a in enumerate(rates):
        _assert_same(_row("G4", got, k), component_margins_direct(pre, "G4", 0, a, 20))
    _, n0, found, _ = got["_g4"]
    assert found[1].any() and not found[1].all()
    assert not found[3].any()
    assert n0[0].max() > 0


def test_g4_verdict_reads_its_margins(golden_flow):
    # s1 at a = -1: q[0] = 0, so every phase is feasible at depth 1 with a
    # least margin of exactly 0, which passes but is not strict
    rep = check_condition(s1_system(ORACLE_FLOW), "G4", [-1.0], 5)
    (comp,) = rep.components
    assert rep.passed and comp.passed and comp.n0_max == 1
    assert comp.subs[0].min_margin == 0.0 and not comp.subs[0].strict_everywhere
    # a rate at which some phases find no feasible depth: margin -inf, no n0_max
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)]),),
        alpha=np.array([1.0]),
        rho=np.array([[0.6]]),
        transports=((TransportSpec(TrigPoly.from_terms(1.0, [([1], 0.3, 0.0)])),),),
        flow=replace(golden_flow, sampling=SamplingConfig(grid_per_dim=16, orbit_points=16)),
    )
    (comp,) = check_condition(sys, "G4", [-1.0], 20).components
    assert not comp.passed and comp.n0_max is None
    assert comp.subs[0].min_margin == -np.inf


def test_g4_scan_zero_q_is_not_feasible(golden_flow):
    # L_plus = 1 and a = -1 make q[0] exactly 0: depth 0 fails q[0] > 0, depth 1 holds
    pre = _Precomp(s1_system(golden_flow), sample_thetas(ORACLE_FLOW))
    got = _component_margins(pre, "G4", 0, np.array([-1.0]), 5)
    _assert_same(_row("G4", got, 0), component_margins_direct(pre, "G4", 0, -1.0, 5))
    assert np.all(got["_g4"][1] == 1)


def test_check_condition_builds_phase_data_once(golden_flow):
    built = []

    class Counting(_Precomp):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    sys = NeutralDiagSystem(
        m=2,
        c=(TrigPoly.const(0.2), TrigPoly.const(0.0)),
        alpha=np.array([1.0, 1.0]),
        rho=np.ones((2, 2)),
        transports=(
            (TransportSpec.linear(1.0), TransportSpec.linear(0.5)),
            (TransportSpec.zero(), TransportSpec.linear(2.0)),
        ),
        flow=golden_flow,
    )
    with patch.object(compartment, "_Precomp", Counting):
        rep = check_condition(sys, "G5", [-2.0, -2.0])
    assert len(built) == 1
    assert rep.components[1].skipped
    assert rep.components[1].prescribed_a == -3.5  # -(0.5 + 2.0) - 1


def test_g4_terms_keep_no_shifted_rows(golden_flow):
    # alpha = rho = 1: the shifted product reuses all but one row of the other
    pre = _Precomp(s1_system(golden_flow), sample_thetas(ORACLE_FLOW))
    calls = []

    def counting(poly, thetas):
        calls.append(poly)
        return eval_trig_many(poly, thetas)

    with patch.object(compartment, "eval_trig_many", counting):
        neg_LC, C_sh = pre.g4_terms(0, 10)
    assert len(calls) == 11  # shifts 0, 1, ..., 10 once each
    assert neg_LC.shape == C_sh.shape == (10, pre.thetas.shape[0])
    assert not any(isinstance(v, dict) for v in vars(pre).values())  # no row memo outlives a call


@pytest.mark.parametrize("n_check", [-1, 2.5, float("nan"), "3", True, None])
@pytest.mark.parametrize("call", ["condition_margins", "check_condition", "suggest_a"])
def test_n_check_must_be_a_whole_number(golden_flow, call, n_check):
    s1 = s1_system(golden_flow)
    with pytest.raises(ValueError, match="n_check"):
        if call == "condition_margins":
            condition_margins(s1, "G4", [-2.0], sample_thetas(golden_flow), n_check)
        elif call == "check_condition":
            check_condition(s1, "G4", [-2.0], n_check=n_check)
        else:
            suggest_a(s1, "G4", n_check=n_check)


@pytest.mark.parametrize("n_check", [0, 3.0, np.int64(3)])
def test_n_check_accepts_whole_numbers(golden_flow, n_check):
    s1 = s1_system(golden_flow)
    rep = check_condition(s1, "G4", [-2.0], n_check=n_check)
    assert rep.components[0].n0_max == 0
    assert suggest_a(s1, "G4", n_check=n_check).a.shape == (1,)


def test_suggest_a_structural_precondition(golden_flow):
    sys = const_c_system(golden_flow, c0=0.1, gain=1.0, alpha=1.0, rho=1.0)
    with pytest.raises(StructuralPreconditionError):
        suggest_a(sys, "G3", trial_a=[-1.0])


@pytest.mark.parametrize("trial", [[-1.0, np.nan], [-np.inf], [0.5]])
def test_suggest_a_rejects_bad_trial_rates(golden_flow, trial):
    with pytest.raises(ValueError):
        suggest_a(s1_system(golden_flow), "G5", trial_a=trial)


@pytest.mark.parametrize("a", [np.nan, -np.inf, 0.5])
def test_condition_margins_rejects_bad_rates(golden_flow, a):
    s1 = s1_system(golden_flow)
    with pytest.raises(ValueError):
        condition_margins(s1, "G5", [a], sample_thetas(ORACLE_FLOW))


def _scalar_g4(pv, qv):
    """First admissible depth n0 and its margin, read off the scalar sequences."""
    for n0 in range(len(qv)):
        head, tail = qv[:n0], pv[n0:]  # q[0..n0-1] and p[n0+1..N]
        if np.all(head >= 0.0) and qv[n0] > 0.0 and np.all(tail >= 0.0):
            return n0, min(qv[n0], *tail, *head)
    return -1, -np.inf


@pytest.mark.parametrize("rho_frac, a", [(1.0, -1.5), (0.6, -3.0), (0.8, -2.0)])
def test_g4_margins_match_scalar_pq_sequence(golden_flow, rho_frac, a):
    c = (
        TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)]),
        TrigPoly.from_terms(0.25, [([2], 0.1, 0.0)]),
    )
    gains = (
        (TransportSpec(TrigPoly.from_terms(1.0, [([1], 0.3, 0.0)])), TransportSpec.linear(0.1)),
        (TransportSpec.linear(0.4), TransportSpec(TrigPoly.const(0.8), ShapeFn.sine_bend(0.3))),
    )
    alpha = np.array([1.0, 0.7])
    rho = np.array([[rho_frac * 1.0, 0.5], [0.5, rho_frac * 0.7]])
    sys = NeutralDiagSystem(m=2, c=c, alpha=alpha, rho=rho, transports=gains, flow=golden_flow)
    thetas = sample_thetas(replace(golden_flow, sampling=SamplingConfig(8, 4)))
    depth = 20
    out = condition_margins(sys, "G4", [a, a], thetas, depth)
    n0_seen = set()
    for i in range(2):
        marg, n0, found, _ = out[i]["_g4"]
        for r, th in enumerate(thetas):
            pv, qv = pq_sequence(sys, TorusPoint(th), i, a, depth)
            want_n0, want = _scalar_g4(pv, qv)
            assert n0[r] == want_n0
            assert found[r] == (want_n0 >= 0)
            if want_n0 >= 0:
                assert abs(marg[r] - want) <= 1e-12
            n0_seen.add(int(n0[r]))
    assert len(thetas) >= 8
    assert max(n0_seen) >= 0
    if rho_frac < 1.0:
        assert max(n0_seen) > 0  # some phases need the prefix part of the margin
