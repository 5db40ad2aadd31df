import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfde_lab import (
    GOLDEN_FREQ,
    DivergenceError,
    HistoryGrid,
    HorizonError,
    NoReturnTimesError,
    SimConfig,
    StructuralPreconditionError,
    TorusFlow,
    TorusPoint,
    TrigPoly,
    constant_history,
    covering_diagnostic,
    eval_Dhat_segment,
    eval_F,
    from_function,
    init_from_z,
    mass_balance_residual,
    reconstruct_z,
    run,
    run_ordered_pair,
    step,
)
from nfde_lab.compartment import (
    _induced_dspec,
    CompartmentalSystem,
    NeutralDiagSystem,
    PipeSpec,
    ShapeFn,
    TransportSpec,
)
from nfde_lab.d_operator import (
    AtomicMeasureFamily,
    DOperatorSpec,
    MeasureAtom,
    MeasureDensity,
    identity_poly_matrix,
    invert_Dhat,
)
from nfde_lab.integrator import required_z_horizon
from nfde_lab.ordering import ConeSpec, make_comparison_upper

from .conftest import const_c_system, s1_system
from .oracles import point_at, sample_at, zhat_segment
from .test_compartment import open_scalar_system


# Extra delay spans of stored history for the tests whose oracle inverts
# the stored zhat: one more than the depth the contraction factor
# and inv_tol = 1e-8 give (27 for s1 and any constant c = 0.5, 20 for the
# three-compartment ring, 37 for the density system), so the store is at
# least as long as the one the integrator kept when it derived that depth.
_N_TRUNC = {"s1": 28, "three_compartment": 21, "density": 38}


def make_state(sys, cfg, z_value=2.0, p0=None):
    p0 = p0 or TorusPoint([0.0])
    need = required_z_horizon(sys, cfg)
    z0 = constant_history([z_value] * sys.m, cfg.h, need + 2 * cfg.h)
    return init_from_z(sys, p0, z0, cfg), p0, z0


def test_init_identity_without_neutral_part(golden_flow, origin):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.0),),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )
    cfg = SimConfig(h=0.1, t_end=1.0)
    z0 = from_function(lambda s: np.sin(s)[:, None], 0.1, required_z_horizon(sys, cfg) + 0.2)
    state = init_from_z(sys, origin, z0, cfg)
    want = z0.sample_many(-0.1 * np.arange(state.Jh + 1))[::-1]
    assert np.allclose(state.Z[: state.Jh + 1], want, atol=1e-14)


def test_init_constant_transform(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.5)
    cfg = SimConfig(h=0.05, t_end=1.0)
    state, _, _ = make_state(sys, cfg, z_value=2.0, p0=origin)
    assert np.allclose(state.Z[: state.Jh + 1], 1.0, atol=1e-14)


def test_init_reconstruct_round_trip(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.05, t_end=1.0)
    need = required_z_horizon(s1, cfg)
    z0 = from_function(
        lambda s: (2.0 + 0.3 * np.sin(0.8 * s))[:, None], 0.05, need + 0.1
    )
    state = init_from_z(s1, origin, z0, cfg)
    got = reconstruct_z(state, 0.0)
    assert got[0] == pytest.approx(sample_at(z0, 0.0)[0], abs=1e-7)


def test_init_horizon_error(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.05, t_end=1.0)
    z0 = constant_history([2.0], 0.05, 2.0)  # 2.1 is needed
    with pytest.raises(HorizonError):
        init_from_z(s1, origin, z0, cfg)


@pytest.mark.parametrize(
    "kind, h, n_trunc, want",
    [
        ("s1", 0.01, None, 2.02),
        ("s1", 0.05, None, 2.1),
        ("s1", 0.05, 2, 4.1),
        ("ring", 0.05, None, 2.3),
    ],
)
def test_required_horizon_follows_the_delays(kind, h, n_trunc, want):
    # the longest delay (s1: 1.0; the ring: its pipe lag 1.2), two stencil
    # rows, n_trunc delay spans of 1.0, and the support 1.0 that transforming
    # the oldest stored row reads
    if kind == "ring":
        sys = three_compartment_system(TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0]))
    else:
        sys = s1_system(TorusFlow([GOLDEN_FREQ]))
    cfg = SimConfig(h=h, t_end=1.0, n_trunc=n_trunc)
    assert required_z_horizon(sys, cfg) == pytest.approx(want, rel=0.0, abs=1e-12)


def test_reconstruct_geometric(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.5)
    cfg = SimConfig(h=0.05, t_end=1.0, n_trunc=_N_TRUNC["s1"])
    state, _, _ = make_state(sys, cfg, z_value=2.0, p0=origin)
    val = reconstruct_z(state, 0.0)[0]
    tail = 0.5**cfg.n_trunc * 1.0 / 0.5
    assert abs(val - 2.0) <= tail + 1e-12


def test_reconstruct_identity_when_c_zero(golden_flow, origin):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.0),),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )
    cfg = SimConfig(h=0.1, t_end=1.0)
    need = required_z_horizon(sys, cfg)
    z0 = from_function(lambda s: np.cos(s)[:, None], 0.1, need + 0.2)
    state = init_from_z(sys, origin, z0, cfg)
    for s in (0.0, -0.5, -1.0):
        assert reconstruct_z(state, s)[0] == pytest.approx(
            sample_at(z0, s)[0], abs=1e-13
        )


def test_reconstruct_dual_path_agreement(golden_flow, origin):
    # diagonal product series vs the general inverse of the lift
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.05, t_end=1.0, n_trunc=_N_TRUNC["s1"])
    need = required_z_horizon(s1, cfg)
    z0 = from_function(
        lambda s: (1.5 + 0.4 * np.sin(0.9 * s) + 0.1 * np.cos(2.3 * s))[:, None],
        0.05,
        need + 0.1,
    )
    state = init_from_z(s1, origin, z0, cfg)
    seg = zhat_segment(state, 0.0, state.Jh)
    x = invert_Dhat(s1.dspec, origin, seg, 1e-8)
    fast = reconstruct_z(state, 0.0)[0]
    tail = 0.5 ** cfg.n_trunc * np.max(np.abs(seg.samples)) / 0.5
    assert abs(fast - x.samples[0, 0]) <= 1e-8 + tail + 1e-9


def test_step_preserves_equilibrium(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3)
    cfg = SimConfig(h=0.01, t_end=0.5)
    state, _, _ = make_state(sys, cfg, z_value=2.0, p0=origin)
    before = state.Z[state.k].copy()
    for _ in range(50):
        step(state)
    assert np.max(np.abs(state.Z[state.k] - before)) <= 1e-12


def test_step_pure_ode_constant(golden_flow, origin):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.0),),
        alpha=np.array([1.0]),
        rho=np.array([[0.0]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )
    cfg = SimConfig(h=0.01, t_end=0.2)
    state, _, _ = make_state(sys, cfg, z_value=1.7, p0=origin)
    v0 = state.Z[state.k].copy()
    for _ in range(20):
        step(state)
    assert np.array_equal(state.Z[state.k], v0)


def test_run_equilibrium_flat(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3)
    cfg = SimConfig(h=0.01, t_end=10.0, log_stride=50)
    state, p0, z0 = make_state(sys, cfg, z_value=2.0, p0=origin)
    log = run(sys, p0, z0, cfg)
    assert np.max(np.abs(log.z - 2.0)) <= 1e-10
    assert np.max(np.abs(log.M - log.M[0])) <= 1e-10


def test_run_deterministic(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.02, t_end=2.0, log_stride=10)
    need = required_z_horizon(s1, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    a = run(s1, origin, z0, cfg)
    b = run(s1, origin, z0, cfg)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.zhat, b.zhat)
    assert np.array_equal(a.M, b.M)


def test_mass_conservation_order(golden_flow, origin):
    s1 = s1_system(golden_flow)
    devs = {}
    for h in (0.02, 0.01):
        cfg = SimConfig(h=h, t_end=10.0, log_stride=int(round(0.1 / h)))
        need = required_z_horizon(s1, cfg)
        z0 = constant_history([2.0], h, need + 0.1)
        log = run(s1, origin, z0, cfg)
        devs[h] = np.max(np.abs(log.M - log.M[0]))
    assert devs[0.01] <= 1e-4 * 3.4
    assert 2.5 <= devs[0.02] / devs[0.01] <= 7.0


def test_mass_balance_residual_closed(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.01, t_end=5.0, log_stride=10)
    need = required_z_horizon(s1, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    log = run(s1, origin, z0, cfg)
    resid = mass_balance_residual(s1, log)
    assert np.max(np.abs(resid)) <= 5e-5


def test_mass_balance_residual_open_linear_growth(golden_flow, origin):
    sys = open_scalar_system(golden_flow, inflow=1.0)
    cfg = SimConfig(h=0.05, t_end=3.0, log_stride=4)
    need = required_z_horizon(sys, cfg)
    z0 = constant_history([0.5], cfg.h, need + 0.1)
    log = run(sys, origin, z0, cfg)
    assert np.max(np.abs(log.M - log.M[0] - log.t)) <= 1e-10
    resid = mass_balance_residual(sys, log)
    assert np.max(np.abs(resid)) <= 1e-10


def test_mass_balance_residual_zero_solution(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.05, t_end=2.0, log_stride=5)
    need = required_z_horizon(s1, cfg)
    z0 = constant_history([0.0], cfg.h, need + 0.1)
    log = run(s1, origin, z0, cfg)
    resid = mass_balance_residual(s1, log)
    assert np.all(resid == 0.0)


def test_defining_equation_residual_order(golden_flow, origin):
    # centered difference of the transformed state vs the balance rate
    s1 = s1_system(golden_flow)

    def worst_residual(h):
        cfg = SimConfig(h=h, t_end=3.0, log_stride=1)
        need = required_z_horizon(s1, cfg)
        z0 = from_function(
            lambda s: (2.0 + 0.2 * np.sin(0.7 * s))[:, None], h, need + 2 * h
        )
        log = run(s1, origin, z0, cfg)
        W = int(round(1.0 / h))
        worst = 0.0
        for j in range(W + 2, log.t.size - 1, 7):
            dz = (log.zhat[j + 1, 0] - log.zhat[j - 1, 0]) / (2.0 * h)
            window = HistoryGrid(h, log.z[j - W : j + 1][::-1])
            p_t = TorusPoint(np.mod(origin.theta + log.t[j] * golden_flow.freqs, 1.0))
            F = eval_F(s1, p_t, window)[0]
            worst = max(worst, abs(dz - F))
        return worst

    r1, r2 = worst_residual(0.04), worst_residual(0.02)
    assert 2.5 <= r1 / r2 <= 6.5


def test_transform_consistency_along_run(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cfg = SimConfig(h=0.05, t_end=4.0, log_stride=20)
    need = required_z_horizon(s1, cfg)
    z0 = from_function(
        lambda s: (2.0 + 0.2 * np.sin(0.5 * s))[:, None], cfg.h, need + 0.1
    )
    log = run(s1, origin, z0, cfg)
    state = log.final_state
    t_now = state.t
    depth = 40
    extra = int(round(1.0 / cfg.h))
    ts = t_now - cfg.h * np.arange(depth + extra + 1)
    zwin = HistoryGrid(cfg.h, np.stack([reconstruct_z(state, s) for s in ts]))
    p_now = point_at(state, t_now)
    lifted = eval_Dhat_segment(s1.dspec, p_now, zwin, depth)
    stored = state.Z[state.k - depth : state.k + 1][::-1]
    assert np.max(np.abs(lifted.samples - stored)) <= 1e-8 + 1e-6


def test_pair_identical_data(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cone = ConeSpec(np.array([[-2.0]]), 1.0)
    cfg = SimConfig(h=0.02, t_end=1.0, log_stride=10, cone=cone)
    need = required_z_horizon(s1, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    plog = run_ordered_pair(s1, origin, z0, z0, cfg)
    assert np.all(plog.d_gap == 0.0)
    assert np.all(plog.z_diff_sup == 0.0)
    assert np.all(plog.cone_margin >= 0.0)


def test_pair_ordered_short_run(golden_flow, origin):
    s1 = s1_system(golden_flow)
    cone = ConeSpec(np.array([[-2.0]]), 1.0)
    cfg = SimConfig(h=0.02, t_end=5.0, log_stride=10, cone=cone)
    need = required_z_horizon(s1, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    comp = make_comparison_upper(cone, 1, step=cfg.h, horizon=z0.horizon + 1.5)
    bump = invert_Dhat(s1.dspec, origin, comp.hist, 1e-8)
    rows = z0.sample_many(-cfg.h * np.arange(z0.J + 1)) + 0.2 * bump.samples[: z0.J + 1]
    z_y = HistoryGrid(cfg.h, rows)
    plog = run_ordered_pair(s1, origin, z0, z_y, cfg)
    assert np.min(plog.cone_margin) >= -1e-7
    assert np.min(plog.d_gap) >= -1e-9  # operator gap stays nonnegative
    assert np.all(plog.mass_y >= plog.mass_x - 1e-9)


def test_pair_unordered_rejected(golden_flow, origin):
    from nfde_lab import UnorderedPairError

    s1 = s1_system(golden_flow)
    cone = ConeSpec(np.array([[-2.0]]), 1.0)
    cfg = SimConfig(h=0.02, t_end=1.0, cone=cone)
    need = required_z_horizon(s1, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    z_bad = from_function(
        lambda s: (2.0 + 0.5 * np.sin(40.0 * s))[:, None], cfg.h, need + 0.1
    )
    with pytest.raises(UnorderedPairError):
        run_ordered_pair(s1, origin, z0, z_bad, cfg)


def test_unordered_pair_witness_is_where_the_margin_is_attained(golden_flow, origin):
    # the transformed gap is 0.3 before -1.5, 1.0 up to -0.5 and 0.6 after:
    # positive everywhere, and each step decays no faster than exp(-2 h)
    # except the drop from 1.0 to 0.6, which ends at -0.48. The margin is
    # that step's decay slack, so the witness is there, not at the least
    # gap, which lies outside the cone window
    from nfde_lab import UnorderedPairError

    from .oracles import run_ordered_pair_direct

    s1 = s1_system(golden_flow)
    cone = ConeSpec(np.array([[-2.0]]), 1.0)
    cfg = SimConfig(h=0.02, t_end=0.2, cone=cone)
    k = np.arange(151)[:, None]  # rows back from time 0
    gap = HistoryGrid(cfg.h, np.where(k < 25, 0.6, np.where(k <= 75, 1.0, 0.3)))
    bump = invert_Dhat(s1.dspec, origin, gap, 1e-12)
    z_x = constant_history([2.0], cfg.h, bump.horizon)
    z_y = HistoryGrid(cfg.h, z_x.samples + bump.samples)
    want = 0.6 - math.exp(-2.0 * cfg.h)
    for runner in (run_ordered_pair, run_ordered_pair_direct):
        with pytest.raises(UnorderedPairError) as err:
            runner(s1, origin, z_x, z_y, cfg)
        assert err.value.witness == (pytest.approx(-0.48, abs=1e-12), 0)
        assert err.value.margin == pytest.approx(want, abs=1e-9)


def test_unordered_pair_witness_is_the_oldest_row_on_ties(golden_flow, origin):
    # D is the identity, so the transformed gap is -0.5 at every node back to
    # -1.0; each step's slack -0.5 (1 - exp(-2 h)) is above it, so the margin
    # is the sign part, attained at every node, and the witness the oldest
    from nfde_lab import UnorderedPairError

    sys = open_scalar_system(golden_flow)
    cfg = SimConfig(h=0.02, t_end=0.2, cone=ConeSpec(np.array([[-2.0]]), 1.0))
    z_x = constant_history([1.0], cfg.h, 1.0)
    z_y = constant_history([0.5], cfg.h, 1.0)
    with pytest.raises(UnorderedPairError) as err:
        run_ordered_pair(sys, origin, z_x, z_y, cfg)
    assert (err.value.witness, err.value.margin) == ((-50 * cfg.h, 0), -0.5)


def test_covering_constant_equilibrium(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3)
    cfg = SimConfig(h=0.02, t_end=40.0, log_stride=5)
    need = required_z_horizon(sys, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    log = run(sys, origin, z0, cfg)
    rep = covering_diagnostic(log, golden_flow, origin, return_tol=0.05, window=5.0)
    assert len(rep.entries) >= 3
    assert rep.e_max <= 1e-10


def test_covering_needs_returns(golden_flow, origin):
    sys = const_c_system(golden_flow, c0=0.3)
    cfg = SimConfig(h=0.02, t_end=4.0, log_stride=5)
    need = required_z_horizon(sys, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    log = run(sys, origin, z0, cfg)
    with pytest.raises(NoReturnTimesError):
        covering_diagnostic(log, golden_flow, origin, return_tol=1e-6, window=1.0)


def test_non_aligned_delays_self_converge(golden_flow, origin):
    # alpha/h = 9.3 and 18.6: exercises the fractional interpolation path
    c = TrigPoly.from_terms(0.25, [([1], 0.0, 0.15)])
    sys = NeutralDiagSystem(
        m=1,
        c=(c,),
        alpha=np.array([0.93]),
        rho=np.array([[0.93]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=golden_flow,
    )

    def final_z(h):
        cfg = SimConfig(h=h, t_end=4.0, log_stride=10**9)
        need = required_z_horizon(sys, cfg)
        z0 = from_function(
            lambda s: (1.5 + 0.3 * np.sin(0.6 * s))[:, None], h, need + 2 * h
        )
        return run(sys, origin, z0, cfg).zhat[-1, 0]

    a, b, c2 = final_z(0.1), final_z(0.05), final_z(0.025)
    assert abs(a - b) <= 5e-4
    assert abs(b - c2) < abs(a - b)  # refining the step keeps converging


def test_half_integral_delay_ratio(golden_flow, origin):
    # alpha/h = 15.5: positions alternate between nodes and cell midpoints
    sys = const_c_system(golden_flow, c0=0.4, alpha=1.55, rho=1.55)

    def final_z(h):
        cfg = SimConfig(h=h, t_end=3.0, log_stride=10**9)
        need = required_z_horizon(sys, cfg)
        z0 = from_function(
            lambda s: (1.0 + 0.2 * np.cos(0.5 * s))[:, None], h, need + 2 * h
        )
        return run(sys, origin, z0, cfg).zhat[-1, 0]

    assert abs(final_z(0.1) - final_z(0.05)) <= 5e-4


def test_two_compartment_ring_mass_conserved(golden_flow, origin):
    zero = TransportSpec.zero()
    ring = NeutralDiagSystem(
        m=2,
        c=(TrigPoly.from_terms(0.2, [([1], 0.0, 0.1)]), TrigPoly.const(0.35)),
        alpha=np.array([1.0, 0.5]),
        rho=np.array([[0.0, 0.6], [0.8, 0.0]]),
        transports=(
            (zero, TransportSpec.linear(0.7)),
            (TransportSpec.linear(1.2), zero),
        ),
        flow=golden_flow,
    )
    cfg = SimConfig(h=0.02, t_end=8.0, log_stride=10)
    need = required_z_horizon(ring, cfg)
    z0 = from_function(
        lambda s: np.stack([2.0 + 0.2 * np.sin(0.4 * s), 1.0 + 0.1 * np.cos(s)], axis=1),
        cfg.h,
        need + 0.1,
    )
    log = run(ring, origin, z0, cfg)
    assert np.max(np.abs(log.M - log.M[0])) <= 5e-4
    resid = mass_balance_residual(ring, log)
    assert np.max(np.abs(resid)) <= 5e-4


def test_open_system_with_outflow_residual(golden_flow, origin):
    sys = open_scalar_system(golden_flow, inflow=1.0, outflow_gain=0.8)
    devs = {}
    for h in (0.1, 0.05):
        cfg = SimConfig(h=h, t_end=4.0, log_stride=2)
        need = required_z_horizon(sys, cfg)
        z0 = constant_history([0.2], h, need + 2 * h)
        log = run(sys, origin, z0, cfg)
        resid = mass_balance_residual(sys, log)
        devs[h] = float(np.max(np.abs(resid)))
    # trapezoid-limited second-order decay (the log grid scales with h here)
    assert devs[0.05] <= 2e-3
    assert devs[0.1] / devs[0.05] >= 2.5


def test_two_frequency_flow_mass_conserved():
    from nfde_lab import GOLDEN_FREQ, TorusFlow

    flow2 = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
    c = TrigPoly.from_terms(0.3, [([1, 0], 0.0, 0.1), ([0, 1], 0.1, 0.0)])
    sys = NeutralDiagSystem(
        m=1,
        c=(c,),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec.linear(1.0),),),
        flow=flow2,
    )
    p0 = TorusPoint([0.2, 0.7])
    cfg = SimConfig(h=0.02, t_end=8.0, log_stride=10)
    need = required_z_horizon(sys, cfg)
    z0 = constant_history([2.0], cfg.h, need + 0.1)
    log = run(sys, p0, z0, cfg)
    assert np.max(np.abs(log.M - log.M[0])) <= 5e-4


def test_divergence_guard(golden_flow, origin):
    sys = open_scalar_system(golden_flow, inflow=1e12)
    cfg = SimConfig(h=0.05, t_end=2.0)
    need = required_z_horizon(sys, cfg)
    z0 = constant_history([0.0], cfg.h, need + 0.1)
    with pytest.raises(DivergenceError):
        run(sys, origin, z0, cfg)


def three_compartment_system(flow2, constant_B=False):
    """Ring of three compartments: phase-dependent B, atoms at lags 0.5 and 1;
    with constant_B, B is a constant matrix that is not the identity."""
    def poly(c, k, cos=0.0, sin=0.0):
        return TrigPoly.from_terms(c, [(k, cos, sin)])

    zero = TrigPoly.const(0.0)
    B = [
        [poly(1.0, [1, 0], cos=0.15), TrigPoly.const(0.05), zero],
        [zero, poly(1.0, [0, 1], sin=0.1), TrigPoly.const(0.05)],
        [TrigPoly.const(0.05), zero, TrigPoly.const(1.0)],
    ]
    if constant_B:
        rows = ((1.15, 0.05, 0.0), (0.0, 0.9, 0.05), (0.05, 0.0, 1.0))
        B = [[TrigPoly.const(v) for v in row] for row in rows]
    w1 = [
        [poly(0.2, [1, 0], sin=0.05), zero, zero],
        [zero, TrigPoly.const(0.15), zero],
        [zero, zero, TrigPoly.const(0.1)],
    ]
    w2 = [
        [TrigPoly.const(0.1), zero, zero],
        [zero, poly(0.1, [0, 1], cos=0.05), zero],
        [zero, zero, TrigPoly.const(0.2)],
    ]
    nu = AtomicMeasureFamily((MeasureAtom(0.5, w1), MeasureAtom(1.0, w2)))
    none = TransportSpec.zero()
    transports = (
        (none, none, TransportSpec(poly(0.6, [0, 1], sin=0.2))),
        (TransportSpec.linear(0.5), none, none),
        (none, TransportSpec(TrigPoly.const(0.8), ShapeFn.saturate()), none),
    )
    inst = PipeSpec.instant()
    pipes = (
        (inst, inst, inst),
        (PipeSpec.delta(0.6), inst, inst),
        (inst, PipeSpec(((0.4, 0.5), (1.2, 0.5))), inst),
    )
    return CompartmentalSystem(
        m=3,
        transports=transports,
        outflows=(none, none, TransportSpec.linear(0.3)),
        inflows=(poly(0.4, [1, 0], sin=0.1), zero, zero),
        pipes=pipes,
        dspec=DOperatorSpec(3, B, nu, flow2),
        flow=flow2,
    )


def density_system(flow):
    """Scalar self-loop whose delayed part is a density on [-1, 0) plus an atom."""
    dens = MeasureDensity(np.full((10, 1, 1), 0.3), 0.1)
    atom = MeasureAtom(1.5, [[TrigPoly.from_terms(0.2, [([1], 0.0, 0.1)])]])
    return CompartmentalSystem(
        m=1,
        transports=((TransportSpec.linear(1.0),),),
        outflows=(TransportSpec.zero(),),
        inflows=(TrigPoly.const(0.0),),
        pipes=((PipeSpec.delta(0.5),),),
        dspec=DOperatorSpec(
            1, identity_poly_matrix(1), AtomicMeasureFamily((atom,), dens), flow
        ),
        flow=flow,
    )


def _interp_bound(state) -> float:
    """Allowance for cubic interpolation between the two reconstructions.

    Zero when every delay is a whole number of steps, since both sides
    then read grid nodes only; otherwise the contraction bound times the
    largest fourth difference of the stored z over the stretch the
    delays read.
    """
    steps = state.delays.lags / state.h
    if np.all(np.abs(steps - np.rint(steps)) <= 1e-9):
        return 0.0
    W = int(np.ceil(steps.max())) + 4
    d4 = np.diff(state.X[state.k - W : state.k + 1], 4, axis=0)
    return state.general.dspec.stability.k_bound * float(np.max(np.abs(d4)))


@pytest.mark.parametrize("kind", ["s1", "three_compartment", "density"])
@settings(max_examples=8, deadline=None)
@given(
    phase=st.floats(0.0, 1.0),
    amp=st.floats(0.0, 0.5),
    freq=st.floats(0.2, 2.0),
    h=st.sampled_from([0.05, 0.04, 0.03, 0.025]),
)
def test_stored_z_matches_neumann_inversion(kind, phase, amp, freq, h):
    # slow oracle: invert the lift on the stored zhat segment at each check
    if kind == "three_compartment":
        flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
        sys, p0 = three_compartment_system(flow), TorusPoint([phase, 1.0 - phase])
    else:
        flow = TorusFlow([GOLDEN_FREQ])
        sys = s1_system(flow) if kind == "s1" else density_system(flow)
        p0 = TorusPoint([phase])
    cfg = SimConfig(h=h, t_end=round(2.0 / h) * h, n_trunc=_N_TRUNC[kind])
    offsets = np.arange(sys.m)[None, :]
    z0 = from_function(
        lambda s: 1.0 + amp * np.sin(freq * s[:, None] + offsets),
        h,
        required_z_horizon(sys, cfg) + 2 * h,
    )
    state = init_from_z(sys, p0, z0, cfg)
    every = int(round(0.5 / h))
    for n in range(cfg.nsteps + 1):
        if n % every == 0:
            seg = zhat_segment(state, state.t, state.Jh)
            x = invert_Dhat(sys.dspec, point_at(state, state.t), seg, 1e-8)
            gap = float(np.max(np.abs(x.samples[0] - reconstruct_z(state, state.t))))
            assert gap <= 1e-8 + _interp_bound(state)
        if n < cfg.nsteps:
            step(state)


@pytest.mark.parametrize(
    "build, h",
    [
        (lambda flow: const_c_system(flow, alpha=0.03, rho=1.0), 0.05),  # atom lag
        (lambda flow: const_c_system(flow, alpha=1.0, rho=0.02), 0.05),  # pipe lag
        (density_system, 0.12),  # first density midpoint at 0.05
    ],
)
def test_delay_below_step_rejected(golden_flow, origin, build, h):
    sys = build(golden_flow)
    cfg = SimConfig(h=h, t_end=12 * h)
    z0 = constant_history([1.0], h, required_z_horizon(sys, cfg) + 2 * h)
    with pytest.raises(StructuralPreconditionError):
        init_from_z(sys, origin, z0, cfg)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _floats(values) -> bool:
    return type(values) is list and all(type(v) is float for v in values)


def _assert_same_stage(fast, slow, z_only=False):
    # every field a stage's arithmetic reads is a list of Python floats; the
    # end stage of a linear law's step is read for z alone
    for name in ("Binv", "rest") if z_only else ("Binv", "rest", "c"):
        got = getattr(fast, name)
        assert _floats(got) and _bits(got) == _bits(getattr(slow, name))
    if z_only:
        return
    assert type(fast.zr) is list and len(fast.zr) == len(slow.zr)
    for got, want in zip(fast.zr, slow.zr):
        assert _floats(got) and _bits(got) == _bits(want)


def multi_term_system(flow2):
    """Two compartments on the 2-torus whose B, atom weight, gain and inflow
    each have two terms, one of wave vector (1, 3); the gain is read at the
    off-grid pipe lag 0.55."""
    def poly(c, a, b):
        return TrigPoly.from_terms(c, [([1, 3], a, 0.5 * b), ([0, 1], 0.5 * a, b)])

    zero = TrigPoly.const(0.0)
    B = [[poly(1.0, 0.1, 0.05), TrigPoly.const(0.05)], [zero, poly(1.0, 0.05, 0.1)]]
    weight = [[poly(0.2, 0.05, 0.03), zero], [zero, poly(0.15, 0.04, 0.02)]]
    none = TransportSpec.zero()
    inst = PipeSpec.instant()
    return CompartmentalSystem(
        m=2,
        transports=((none, TransportSpec.linear(0.5)), (TransportSpec(poly(0.6, 0.1, 0.1)), none)),
        outflows=(none, none),
        inflows=(poly(0.4, 0.1, 0.05), zero),
        pipes=((inst, inst), (PipeSpec.delta(0.55), inst)),
        dspec=DOperatorSpec(2, B, AtomicMeasureFamily((MeasureAtom(0.5, weight),)), flow2),
        flow=flow2,
    )


def ring_system(flow2, m):
    """Ring of m compartments with a diagonal B = 1 + 0.1 cos 2 pi theta_1:
    one atom at lag 0.5 of weight 0.2 I, transport i-1 -> i of gain
    0.5 + 0.1 cos 2 pi theta_2 through a pipe of lag 0.4, and an inflow
    0.3 + 0.1 cos 2 pi theta_1 into compartment 0."""
    zero = TrigPoly.const(0.0)

    def diag(poly):
        return [[poly if i == j else zero for j in range(m)] for i in range(m)]

    gain = TransportSpec(TrigPoly.from_terms(0.5, [([0, 1], 0.1, 0.0)]))
    none = TransportSpec.zero()
    inst, pipe = PipeSpec.instant(), PipeSpec.delta(0.4)
    B = diag(TrigPoly.from_terms(1.0, [([1, 0], 0.1, 0.0)]))
    nu = AtomicMeasureFamily((MeasureAtom(0.5, diag(TrigPoly.const(0.2))),))
    return CompartmentalSystem(
        m=m,
        transports=tuple(
            tuple(gain if j == (i - 1) % m else none for j in range(m)) for i in range(m)
        ),
        outflows=(none,) * m,
        inflows=(TrigPoly.from_terms(0.3, [([1, 0], 0.1, 0.0)]),) + (zero,) * (m - 1),
        pipes=tuple(tuple(pipe if j == (i - 1) % m else inst for j in range(m)) for i in range(m)),
        dspec=DOperatorSpec(m, B, nu, flow2),
        flow=flow2,
    )


# s1 with both delays at a few steps: read windows of one and two steps
S1_LAG_STEPS = {"s1_lag_h": 1, "s1_lag_2h": 2, "s1_lag_3h": 3}


def _plan_case(kind, phase, h):
    """A fixture system, start phase and step; `s1_lag_h`, `s1_lag_2h` and
    `s1_lag_3h` put s1's delays at h, 2h and 3h, `mixed_lags` runs the
    ring (lags 0.4, 0.5, 0.6, 1.0 and 1.2) at h = 0.02, `constant_B` the
    ring with a constant B that is not the identity, `multi_term` has
    coefficients of two terms, and `diagonal_ring` is `ring_system` at
    m = 3."""
    if kind in ("three_compartment", "mixed_lags", "constant_B", "multi_term", "diagonal_ring"):
        flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
        h = 0.02 if kind == "mixed_lags" else h
        if kind == "multi_term":
            return multi_term_system(flow), TorusPoint([phase, 1.0 - phase]), h
        if kind == "diagonal_ring":
            return ring_system(flow, 3), TorusPoint([phase, 1.0 - phase]), h
        sys = three_compartment_system(flow, constant_B=kind == "constant_B")
        return sys, TorusPoint([phase, 1.0 - phase]), h
    flow = TorusFlow([GOLDEN_FREQ])
    if kind == "density":
        return density_system(flow), TorusPoint([phase]), h
    if kind == "phase_gain":
        return phase_gain_system(flow), TorusPoint([phase]), h
    lag = S1_LAG_STEPS[kind] * h if kind in S1_LAG_STEPS else 1.0
    base = s1_system(flow)
    sys = NeutralDiagSystem(
        m=1,
        c=base.c,
        alpha=np.array([lag]),
        rho=np.array([[lag]]),
        transports=base.transports,
        flow=flow,
    )
    return sys, TorusPoint([phase]), h


@pytest.mark.parametrize("block", [1, 8, 30, None])
def test_plan_builds_only_the_runs_stages(block):
    # 30 steps have 61 stages: the plan builds each once, however the
    # blocks fall, and none past the run's end
    from unittest import mock

    from nfde_lab import integrator

    sys, p0, h = _plan_case("three_compartment", 0.3, 0.05)
    cfg = SimConfig(h=h, t_end=30 * h)
    rows = []

    class Counted(integrator._PlanBlock):
        def __init__(self, *args):
            super().__init__(*args)
            rows.append(self.theta.shape[0])

    with mock.patch.object(integrator, "_PLAN_STEPS", block or integrator._PLAN_STEPS):
        with mock.patch.object(integrator, "_PlanBlock", Counted):
            run(sys, p0, _plan_history(sys, cfg, 0.2), cfg)
    assert sum(rows) == 2 * cfg.nsteps + 1


def test_state_stores_exactly_its_run(golden_flow, origin):
    # the buffers hold the run's rows; a step past its end names the end and
    # leaves the state as it was
    cfg = SimConfig(h=0.05, t_end=0.5)
    state = init_from_z(
        s1_system(golden_flow), origin, _plan_history(s1_system(golden_flow), cfg, 0.2), cfg
    )
    assert state.Z.shape[0] == state.X.shape[0] == state.Jh + cfg.nsteps + 1
    for _ in range(cfg.nsteps):
        step(state)
    Z = state.Z.copy()
    with pytest.raises(HorizonError, match="t_end = 0.5"):
        step(state)
    assert state.k == state.Jh + cfg.nsteps and np.array_equal(state.Z, Z)


def _plan_history(sys, cfg, amp):
    """A smooth initial history, different in each component, as long as
    the run needs."""
    offsets = np.arange(sys.m)[None, :]
    return from_function(
        lambda s: 1.0 + amp * np.sin(3.0 * s[:, None] + offsets),
        cfg.h,
        required_z_horizon(sys, cfg) + 2 * cfg.h,
    )


PLAN_KINDS = [
    "s1",
    "s1_lag_h",
    "s1_lag_2h",
    "s1_lag_3h",
    "three_compartment",
    "mixed_lags",
    "constant_B",
    "density",
    "phase_gain",
    "multi_term",
]


@pytest.mark.parametrize("kind", PLAN_KINDS)
@settings(max_examples=10, deadline=None)
@given(
    phase=st.floats(0.0, 1.0),
    amp=st.floats(0.0, 0.5),
    h=st.sampled_from([0.05, 0.03, 0.045, 0.0375]),
    block=st.sampled_from([1, 2, 5, None]),
    steps=st.integers(1, 150),
)
def test_stage_plan_matches_direct_stage(kind, phase, amp, h, block, steps):
    # the plan's stages against stages computed from scratch at each time:
    # phase, B^-1, the delayed part of D, the coefficient row (each gain
    # and inflow at its own lag's phase) and z at the pipe lags, bit for
    # bit. h = 0.03, 0.045, 0.0375 put lags off the half-step grid (4-point
    # stencils); a lag of h (s1_lag_h, density at h = 0.05) reads the newest
    # rows one-sided; phase_gain reads a phase-dependent gain at the
    # off-grid pipe lags 0.55 and 0.8; small blocks cross many block
    # boundaries and cut read windows short, and the run's end cuts its last
    # block short. The rows not yet stored hold NaN at every query, so a window
    # that reads one fails. constant_B inverts its constant B in the plan's
    # batch like a varying one, bit for bit with one inversion, and
    # multi_term's two-term coefficients evaluate in the plan's batch as in
    # one row.
    from unittest import mock

    from nfde_lab import integrator

    from .oracles import stage_direct

    sys, p0, h = _plan_case(kind, phase, h)
    cfg = SimConfig(h=h, t_end=steps * h)
    z0 = _plan_history(sys, cfg, amp)

    def stage(j, t_s):
        state.X[state.k + 1 :] = np.nan
        fast = state.stage(j)
        blk = state._block
        assert _bits(blk.theta[j - blk.lo]) == _bits(point_at(state, t_s).theta)
        return fast

    with mock.patch.object(integrator, "_PLAN_STEPS", block or integrator._PLAN_STEPS):
        state = init_from_z(sys, p0, z0, cfg)
        _assert_same_stage(stage(0, state.t), stage_direct(state, state.t))
        for n in range(steps):
            t = state.t
            _assert_same_stage(stage(2 * n + 1, t + 0.5 * h), stage_direct(state, t + 0.5 * h))
            end = stage_direct(state, t + h)
            _assert_same_stage(stage(2 * n + 2, t + h), end)
            state.X[state.k + 1 :] = np.nan
            step(state)
            _assert_same_stage(state._ahead[0], end, z_only=state.linear)


# Kinds with a diagonal B: there the float stage arithmetic rounds as the
# NumPy one does, bit for bit.
DIAGONAL_B_KINDS = {
    "s1",
    "s1_lag_h",
    "s1_lag_2h",
    "s1_lag_3h",
    "density",
    "phase_gain",
    "diagonal_ring",
}

# Kinds whose every active shape is the identity: they step by affine maps.
LINEAR_KINDS = {
    "s1", "s1_lag_h", "s1_lag_2h", "s1_lag_3h", "density", "multi_term", "diagonal_ring"
}

# Allowed gap between `step` and `step_direct` over 10 steps of a nonlinear
# law with a full B, in units of eps times the largest entry of the compared
# row of Z or X: a row of a full B^-1 sums in Python order, not the BLAS
# one. 200 seeded runs of each such kind differ by at most 2.4 of these units.
_STEP_ULPS = 8

# The same allowance for a linear law, whose step is one affine map composed
# in NumPy: it rounds differently from the stage arithmetic, each step and
# each stored z. 30 seeded 10-step runs of each linear kind of PLAN_KINDS
# and diagonal_ring differ by at most 1.8 of these units, and 1,000
# networks of `_linear_networks` over 6-24 steps by at most 2.9.
_AFFINE_STEP_ULPS = 8


def _assert_steps_match(fast, slow, ulps):
    assert fast.k == slow.k
    for got, want in ((fast.Z, slow.Z), (fast.X, slow.X)):
        got, want = got[: fast.k + 1], want[: slow.k + 1]
        if ulps == 0:
            assert _bits(got) == _bits(want)
        else:
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * scale)


@pytest.mark.parametrize("kind", PLAN_KINDS + ["diagonal_ring"])
@settings(max_examples=10, deadline=None)
@given(
    phase=st.floats(0.0, 1.0),
    amp=st.floats(0.0, 0.5),
    h=st.sampled_from([0.05, 0.03, 0.045, 0.0375]),
)
def test_step_matches_direct_step(kind, phase, amp, h):
    # 10 steps of `step` against NumPy arithmetic on stages built from
    # scratch: the float stage arithmetic of a nonlinear law bit for bit
    # with a diagonal B, and the affine map of a linear law by rounding
    from .oracles import step_direct

    sys, p0, h = _plan_case(kind, phase, h)
    cfg = SimConfig(h=h, t_end=10 * h)
    z0 = _plan_history(sys, cfg, amp)
    fast, slow = init_from_z(sys, p0, z0, cfg), init_from_z(sys, p0, z0, cfg)
    diagonal = fast.diagonal_B
    assert diagonal == (kind in DIAGONAL_B_KINDS)
    assert fast.linear == (kind in LINEAR_KINDS)
    now = None
    for _ in range(cfg.nsteps):
        step(fast)
        now = step_direct(slow, now)
    ulps = _AFFINE_STEP_ULPS if fast.linear else 0 if diagonal else _STEP_ULPS
    _assert_steps_match(fast, slow, ulps)


@st.composite
def _linear_networks(draw):
    """A linear network and its step: m = 1-3 on a 1- or 2-torus, a diagonal
    or a full B, atoms and pipes at lags of h, 2h, 3h or off the grid, and
    maybe a density whose first midpoint is h; hypothesis picks the
    structure, a seeded generator the values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0][:dim])
    h = draw(st.sampled_from([0.05, 0.04]))
    lag = st.sampled_from([h, 2 * h, 3 * h, 0.37, 0.61])

    def poly(c0, amp):
        if draw(st.booleans()):
            return TrigPoly.const(c0)
        return TrigPoly.from_terms(c0, [(rng.integers(-2, 3, size=dim), *rng.uniform(0, amp, 2))])

    zero = TrigPoly.const(0.0)
    full = draw(st.booleans())
    B = [
        [poly(1.0, 0.1) if i == j else poly(0.05, 0.02) if full else zero for j in range(m)]
        for i in range(m)
    ]
    lags = draw(st.lists(lag, min_size=1, max_size=2, unique=True))
    weight = [[poly(0.15, 0.05) if i == j else zero for j in range(m)] for i in range(m)]
    atoms = tuple(MeasureAtom(r, weight) for r in lags)
    density = None
    if draw(st.booleans()):
        density = MeasureDensity(rng.uniform(0.0, 0.1, (3, m, m)), 2 * h)
    none = TransportSpec.zero()

    def transport():
        return TransportSpec(poly(rng.uniform(0.2, 1.0), 0.1)) if draw(st.booleans()) else none

    def pipe():
        lag = st.sampled_from([0.0, h, 2 * h, 3 * h, 0.37])
        lags = draw(st.lists(lag, min_size=1, max_size=2, unique=True))
        return PipeSpec(tuple((r, 1.0 / len(lags)) for r in lags))

    sys = CompartmentalSystem(
        m=m,
        transports=tuple(tuple(transport() for _ in range(m)) for _ in range(m)),
        outflows=tuple(transport() for _ in range(m)),
        inflows=tuple(zero if draw(st.booleans()) else poly(0.3, 0.1) for _ in range(m)),
        pipes=tuple(tuple(pipe() for _ in range(m)) for _ in range(m)),
        dspec=DOperatorSpec(m, B, AtomicMeasureFamily(atoms, density), flow),
        flow=flow,
    )
    p0 = TorusPoint(rng.uniform(0.0, 1.0, size=dim))
    return sys, p0, SimConfig(h=h, t_end=draw(st.integers(6, 24)) * h), rng.uniform(0.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(case=_linear_networks())
def test_affine_step_matches_direct_step(case):
    # the affine step of generated linear networks against the stages built
    # from scratch in NumPy: both round, neither is exact, and the gap stays
    # within _AFFINE_STEP_ULPS over every stored row of Z and X
    from .oracles import step_direct

    sys, p0, cfg, amp = case
    z0 = _plan_history(sys, cfg, amp)
    fast, slow = init_from_z(sys, p0, z0, cfg), init_from_z(sys, p0, z0, cfg)
    assert fast.linear
    now = None
    for _ in range(cfg.nsteps):
        step(fast)
        now = step_direct(slow, now)
    _assert_steps_match(fast, slow, _AFFINE_STEP_ULPS)


def _poly_matrix(rows):
    """TrigPoly matrix from numbers and TrigPolys."""
    return [[v if isinstance(v, TrigPoly) else TrigPoly.const(v) for v in row] for row in rows]


@pytest.mark.parametrize("block", [2, 5, None])
def test_constant_B_plan_is_the_per_block_batch(block):
    # the constant_B fixture's B is inverted by the first block alone and
    # passed on: every block's B^-1 equals, bit for bit, the checked
    # inverse of B evaluated at each of its stages
    from unittest import mock

    from nfde_lab import integrator
    from nfde_lab.d_operator import _batch_inverse, eval_poly_matrix_many

    sys, p0, h = _plan_case("constant_B", 0.3, 0.05)
    cfg = SimConfig(h=h, t_end=30 * h)
    blocks = []

    class Kept(integrator._PlanBlock):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    with mock.patch.object(integrator, "_PLAN_STEPS", block or integrator._PLAN_STEPS):
        with mock.patch.object(integrator, "_PlanBlock", Kept):
            run(sys, p0, _plan_history(sys, cfg, 0.2), cfg)
    assert len(blocks) == -(-cfg.nsteps // (block or integrator._PLAN_STEPS))
    for blk in blocks:
        B = eval_poly_matrix_many(sys.dspec.B, blk.theta)
        assert blk.Ainv.tobytes() == _batch_inverse(B, blk.theta).tobytes()


def test_s1_run_inverts_B_once(golden_flow, origin, monkeypatch):
    # s1's B = 1 does not depend on the phase: a run of 2,000 steps over 32
    # plan blocks calls np.linalg.inv once, on one matrix
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    sys = s1_system(golden_flow)
    cfg = SimConfig(h=0.01, t_end=20.0)
    z0 = constant_history([2.0], cfg.h, required_z_horizon(sys, cfg) + 0.1)
    calls.clear()
    run(sys, origin, z0, cfg)
    assert calls == [(1, 1, 1)]


def test_plan_keeps_diagonal_or_full_inverse(golden_flow):
    # a B with zero off-diagonal entries keeps the diagonal of B^-1, whose
    # off-diagonal entries are then exactly 0.0 at every phase; any other B,
    # triangular, cyclic or pivoting, keeps all of B^-1 row by row, bit for
    # bit with the batched inversion
    import dataclasses

    from nfde_lab.d_operator import DOperatorSpec, eval_poly_matrix_many

    def wave(c, k, a):
        return TrigPoly.from_terms(c, [(k, a, 0.5 * a)])

    p, q = wave(1.0, [1, 0], 0.1), wave(0.5, [0, 1], 0.1)
    cases = {
        "diagonal": [[p, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, q]],
        "upper_triangular": [[p, 0.3, 0.0], [0.0, 0.8, q], [0.0, 0.0, 1.0]],
        "cyclic": [
            [wave(1.0, [1, 0], 0.15), 0.05, 0.0],
            [0.0, wave(1.0, [0, 1], 0.1), 0.05],
            [0.05, 0.0, 1.0],
        ],
        "reducible_pivoting": [
            [TrigPoly.from_terms(0.01, [([1, 0], 0.001, 0.0)]), 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ],
    }
    flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
    ring = ring_system(flow, 3)
    # an atom weight small enough for the pivoting B's inverse of size 100
    nu = AtomicMeasureFamily((MeasureAtom(0.5, _poly_matrix(0.001 * np.eye(3))),))
    cfg = SimConfig(h=0.05, t_end=0.5)
    for name, rows in cases.items():
        B = _poly_matrix(rows)
        sys = dataclasses.replace(ring, dspec=dataclasses.replace(ring.dspec, B=B, nu=nu))
        state = init_from_z(sys, TorusPoint([0.3, 0.7]), _plan_history(sys, cfg, 0.2), cfg)
        assert state.diagonal_B == (name == "diagonal"), name
        state.stage(0)
        blk = state._block
        inv = np.linalg.inv(eval_poly_matrix_many(B, blk.theta))
        if state.diagonal_B:
            assert np.all(inv[:, ~np.eye(3, dtype=bool)] == 0.0), name
            assert _bits(blk.Binv) == _bits(np.diagonal(inv, axis1=1, axis2=2)), name
        else:
            assert _bits(blk.Binv) == _bits(inv.reshape(len(inv), 9)), name


BAD_COMPONENTS = pytest.mark.parametrize(
    "bad",
    [{0: np.nan}, {2: np.nan}, {0: np.inf}, {2: -np.inf}, {0: np.inf, 2: np.nan}],
    ids=["nan_first", "nan_last", "inf_first", "inf_last", "inf_then_nan"],
)


def _corrupt_balance(monkeypatch, bad):
    """Make the fourth balance rate, k4 of the first step of step_direct or
    of the float stage, NaN or inf in the given components."""
    from nfde_lab.compartment import _BalanceTerms

    balance = _BalanceTerms.balance
    calls = [0]

    def corrupted(self, c, zs):
        F = balance(self, c, zs)
        calls[0] += 1
        if calls[0] == 4:  # k4 of the first step
            for i, v in bad.items():
                F[i] = v
        return F

    monkeypatch.setattr(_BalanceTerms, "balance", corrupted)
    return calls


def _guard_errors(sys, p0, cfg, advance, calls):
    """The DivergenceError of the first step of each of `advance`."""
    z0 = _plan_history(sys, cfg, 0.2)
    errors = []
    for stepper in advance:
        calls[0] = 0
        state = init_from_z(sys, p0, z0, cfg)
        with pytest.raises(DivergenceError) as err:
            stepper(state)
        errors.append(err.value)
    return errors


def _assert_same_guard(got, want, bad, h):
    # the guard must report what NumPy's max of |zhat| reports: NaN wherever
    # a NaN sits, which Python's max skips unless it comes first, else the
    # largest entry
    assert got.t == want.t == h
    assert str(got) == str(want)
    if any(np.isnan(v) for v in bad.values()):
        assert np.isnan(got.value) and np.isnan(want.value)
    else:
        assert got.value == want.value == np.inf


@BAD_COMPONENTS
def test_step_guard_sees_any_bad_component(monkeypatch, bad):
    # the affine step of the linear m = 3 ring: the end stage's rate offset
    # of the first step, and with it that step's q, is made NaN or inf in
    # the given components, as step_direct's last rate is, and so is the
    # new zhat there in both
    from nfde_lab.compartment import _BalanceTerms

    from .oracles import step_direct

    calls = _corrupt_balance(monkeypatch, bad)  # counts the offsets too
    offset = _BalanceTerms.rate_offset

    def corrupted(self, c, zr):
        e = offset(self, c, zr)
        calls[0] += 1
        if calls[0] == 1:  # the first window, from stage 0: row 2 ends step 0
            for i, v in bad.items():
                e[2, i] = v
        return e

    monkeypatch.setattr(_BalanceTerms, "rate_offset", corrupted)
    flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
    sys = ring_system(flow, 3)
    cfg = SimConfig(h=0.05, t_end=0.5)
    got, want = _guard_errors(sys, TorusPoint([0.3, 0.6]), cfg, (step, step_direct), calls)
    _assert_same_guard(got, want, bad, cfg.h)


@BAD_COMPONENTS
def test_step_guard_sees_any_bad_component_nonlinear(monkeypatch, bad):
    # the float stage of the nonlinear three-compartment system: the last
    # stage's rate is made NaN or inf in the given components, and so is
    # the new zhat there
    from .oracles import step_direct

    calls = _corrupt_balance(monkeypatch, bad)
    flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0])
    sys = three_compartment_system(flow)
    cfg = SimConfig(h=0.05, t_end=0.5)
    got, want = _guard_errors(sys, TorusPoint([0.3, 0.6]), cfg, (step, step_direct), calls)
    _assert_same_guard(got, want, bad, cfg.h)


@st.composite
def _networks(draw):
    # hypothesis picks the structure, a seeded generator the values, so that
    # sums of three or more rates depend on their order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    flow = TorusFlow([GOLDEN_FREQ, np.sqrt(2.0) - 1.0][:dim])

    def gain():
        c0 = rng.uniform(0.1, 2.0)
        if draw(st.booleans()):
            return TrigPoly.const(c0)
        k = rng.integers(-2, 3, size=dim)
        return TrigPoly.from_terms(c0, [(k, *(c0 * rng.uniform(0.0, 0.5, size=2)))])

    def transport():
        kind = draw(st.sampled_from(["zero", "identity", "saturate", "sine_bend"]))
        if kind == "zero":
            return TransportSpec.zero()
        shape = ShapeFn.sine_bend(rng.uniform(0.0, 0.9)) if kind == "sine_bend" else ShapeFn(kind)
        return TransportSpec(gain(), shape)

    def pipe():
        lag = st.sampled_from([0.0, 0.3, 0.7, 1.1])
        lags = draw(st.lists(lag, min_size=1, max_size=3, unique=True))
        return PipeSpec(tuple((r, 1.0 / len(lags)) for r in lags))

    sys = CompartmentalSystem(
        m=m,
        transports=tuple(tuple(transport() for _ in range(m)) for _ in range(m)),
        outflows=tuple(transport() for _ in range(m)),
        inflows=tuple(TrigPoly.const(0.0) if draw(st.booleans()) else gain() for _ in range(m)),
        pipes=tuple(tuple(pipe() for _ in range(m)) for _ in range(m)),
        dspec=DOperatorSpec(m, identity_poly_matrix(m), AtomicMeasureFamily(()), flow),
        flow=flow,
    )
    hist = HistoryGrid(0.1, rng.uniform(-2.0, 2.0, size=(16, m)))
    return sys, TorusPoint(rng.uniform(0.0, 1.0, size=dim)), hist


@settings(max_examples=60, deadline=None)
@given(case=_networks())
def test_eval_F_term_table_matches_grid_walk(case):
    # eval_F walks the term table built with the system; the oracle walks
    # the whole transport grid: zero outflows and transports, saturate and
    # sine_bend shapes, phase-dependent gains on lagged pipes
    from .oracles import eval_F_direct

    sys, p, hist = case
    assert _bits(eval_F(sys, p, hist)) == _bits(eval_F_direct(sys, p, hist))


def phase_gain_system(flow):
    """Scalar self-loop whose lagged pipes carry a phase-dependent gain and a
    sine_bend shape; the pipe lags 0.55 and 0.8 are off the step grid for
    h = 0.045 and 0.03."""
    gain = TrigPoly.from_terms(1.0, [([1], 0.1, 0.3)])
    return CompartmentalSystem(
        m=1,
        transports=((TransportSpec(gain, ShapeFn.sine_bend(0.4)),),),
        outflows=(TransportSpec.zero(),),
        inflows=(TrigPoly.const(0.0),),
        pipes=((PipeSpec(((0.55, 0.5), (0.8, 0.5))),),),
        dspec=DOperatorSpec(
            1,
            identity_poly_matrix(1),
            AtomicMeasureFamily((MeasureAtom(1.0, [[TrigPoly.const(0.3)]]),)),
            flow,
        ),
        flow=flow,
    )


def _log_case(kind, phase, h, amp, shift=0.0):
    """A system, start phase and initial history for the log tests."""
    if kind == "phase_gain":
        flow = TorusFlow([GOLDEN_FREQ])
        sys, p0 = phase_gain_system(flow), TorusPoint([phase])
    else:
        sys, p0, _ = _plan_case(kind, phase, h)
    offsets = np.arange(sys.m)[None, :]
    need = required_z_horizon(sys, SimConfig(h=h, t_end=h))
    z0 = from_function(
        lambda s: 1.0 + shift + amp * np.sin(3.0 * s[:, None] + offsets + shift), h, need + 2 * h
    )
    return sys, p0, z0


def _assert_same_fields(fast, slow, names, loose=(), rtol=0.0):
    for name in names:
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.shape == b.shape, name
        if name in loose:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0, err_msg=name)
        else:
            assert _bits(a) == _bits(b), name


# With a phase-dependent gain on a lagged pipe the fast mass takes the
# in-transit rate's phase from p0 + t_j freqs at each stored row, where the
# oracle steps back from the phase at the log time: equal up to rounding.
_PHASE_GAIN_RTOL = 1e-13

_LOG_KINDS = ["s1", "three_compartment", "density", "phase_gain"]


@pytest.mark.parametrize("kind", _LOG_KINDS)
@settings(max_examples=10, deadline=None)
@given(
    phase=st.floats(0.0, 1.0),
    amp=st.floats(0.0, 0.5),
    h=st.sampled_from([0.05, 0.045, 0.03]),
    stride=st.sampled_from([1, 3, 7]),
    nsteps=st.integers(1, 30),
    chunk=st.sampled_from([1, 4, None]),
)
def test_run_log_matches_per_point_oracle(kind, phase, amp, h, stride, nsteps, chunk):
    # every field of the log derived after the run against the log taken at
    # each point while stepping; strides 3 and 7 mostly leave a short last
    # interval, h = 0.045 and 0.03 put pipe lags off the step grid, small
    # chunks split the mass pass
    from unittest import mock

    from nfde_lab import compartment

    from .oracles import run_direct

    sys, p0, z0 = _log_case(kind, phase, h, amp)
    cfg = SimConfig(h=h, t_end=nsteps * h, log_stride=stride)
    with mock.patch.object(compartment, "_MASS_CHUNK", chunk or compartment._MASS_CHUNK):
        fast = run(sys, p0, z0, cfg)
    slow = run_direct(sys, p0, z0, cfg)
    loose = ("M",) if kind == "phase_gain" else ()
    _assert_same_fields(fast, slow, ("t", "z", "zhat", "M"), loose, _PHASE_GAIN_RTOL)


@pytest.mark.parametrize("kind", _LOG_KINDS)
@settings(max_examples=10, deadline=None)
@given(
    phase=st.floats(0.0, 1.0),
    amp=st.floats(0.0, 0.5),
    shift=st.floats(-0.2, 0.4),
    h=st.sampled_from([0.05, 0.045, 0.03]),
    stride=st.sampled_from([1, 3, 7]),
    nsteps=st.integers(1, 30),
    horizon=st.sampled_from([0.02, 0.3, 1.0, 1e3, np.inf]),
    chunk=st.sampled_from([1, 4, None]),
)
def test_pair_log_matches_per_point_oracle(
    kind, phase, amp, shift, h, stride, nsteps, horizon, chunk
):
    # the pair need not be ordered (tol_cone is infinite), so the margins
    # take either sign; horizon 0.02 leaves no decay window, 1e3 one longer
    # than the stored history, inf the whole buffer
    from unittest import mock

    from nfde_lab import compartment

    from .oracles import run_ordered_pair_direct

    sys, p0, z_x = _log_case(kind, phase, h, amp)
    _, _, z_y = _log_case(kind, phase, h, amp, shift)
    cone = ConeSpec(np.diag(-np.linspace(1.0, 2.0, sys.m)), horizon)
    cfg = SimConfig(h=h, t_end=nsteps * h, log_stride=stride, cone=cone, tol_cone=np.inf)
    with mock.patch.object(compartment, "_MASS_CHUNK", chunk or compartment._MASS_CHUNK):
        fast = run_ordered_pair(sys, p0, z_x, z_y, cfg)
    slow = run_ordered_pair_direct(sys, p0, z_x, z_y, cfg)
    names = ("t", "z_x", "z_y", "zhat_x", "zhat_y", "d_gap", "mass_x", "mass_y")
    loose = ("mass_x", "mass_y") if kind == "phase_gain" else ()
    _assert_same_fields(fast, slow, names + ("cone_margin", "z_diff_sup"), loose, _PHASE_GAIN_RTOL)


def test_log_makes_no_call_per_log_point(golden_flow, origin, monkeypatch):
    # the log is derived after the run: no total_mass and no HistoryGrid
    # window per log point, and a number of vectorised mass passes that
    # does not grow with the run
    from nfde_lab import compartment, history, integrator

    counts = {}

    def count(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("total_mass", "_total_mass_many"):
        fn = getattr(compartment, name, None)
        for mod in (compartment, integrator):
            if fn is not None and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, count(name, fn))
    post_init = count("HistoryGrid", history.HistoryGrid.__post_init__)
    monkeypatch.setattr(history.HistoryGrid, "__post_init__", post_init)
    lift = integrator._lift

    def lift_then_reset(*args, **kwargs):
        lifted = lift(*args, **kwargs)
        counts.pop("HistoryGrid", None)  # the initial transform builds grids
        return lifted

    monkeypatch.setattr(integrator, "_lift", lift_then_reset)
    sys = s1_system(golden_flow)
    seen = []
    for nsteps in (100, 200):
        cfg = SimConfig(h=0.05, t_end=nsteps * 0.05, log_stride=1)
        z0 = constant_history([2.0], cfg.h, required_z_horizon(sys, cfg) + 0.1)
        counts.clear()
        run(sys, origin, z0, cfg)
        seen.append(("run", dict(counts)))
        cone = ConeSpec(np.array([[-2.0]]), 1.0)
        pcfg = SimConfig(h=0.05, t_end=nsteps // 2 * 0.05, log_stride=1, cone=cone)
        counts.clear()
        run_ordered_pair(sys, origin, z0, z0, pcfg)
        seen.append(("pair", dict(counts)))
    for what, c in seen:
        assert c.get("total_mass", 0) == 0, what
        assert c.get("HistoryGrid", 0) == 0, what
    assert seen[0][1].get("_total_mass_many", 0) >= 1
    assert seen[0][1] == seen[2][1] and seen[1][1] == seen[3][1]


def _pair_case(kind):
    """A system, start phase, pair config and two initial histories that
    reach past the stored rows, z_y the shorter; the pair need not be
    ordered (tol_cone is infinite)."""
    sys, p0, h = _plan_case(kind, 0.3, 0.05)
    cone = ConeSpec(np.diag(-np.linspace(1.0, 2.0, sys.m)), 1.0)
    cfg = SimConfig(h=h, t_end=40 * h, log_stride=3, cone=cone, tol_cone=np.inf)
    need = required_z_horizon(sys, cfg)
    offsets = np.arange(sys.m)[None, :]
    z_x = from_function(lambda s: 1.0 + 0.3 * np.sin(3.0 * s[:, None] + offsets), h, need + 3.0)
    z_y = from_function(lambda s: 1.5 + 0.2 * np.cos(2.0 * s[:, None] + offsets), h, need + 1.5)
    return sys, p0, cfg, z_x, z_y


def test_pair_lifts_each_history_once(monkeypatch):
    # the order check's lift of each history also starts its member
    from nfde_lab import d_operator, integrator

    sys, p0, cfg, z_x, z_y = _pair_case("s1")
    calls = []
    lift = d_operator.eval_Dhat_segment

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return lift(*args, **kwargs)

    for mod in (d_operator, integrator):
        monkeypatch.setattr(mod, "eval_Dhat_segment", counted)
    run_ordered_pair(sys, p0, z_x, z_y, cfg)
    assert len(calls) == 2
    assert calls[0] == calls[1] > integrator._history_rows(sys, cfg)


@pytest.mark.parametrize("kind", ["s1", "three_compartment"])
def test_pair_members_match_plain_runs(kind):
    # each member starts from the newest rows of a deeper lift than `run`
    # makes, and must still step, store and log as `run` does, bit for bit
    sys, p0, cfg, z_x, z_y = _pair_case(kind)
    plog = run_ordered_pair(sys, p0, z_x, z_y, cfg)
    for z_hist, tag in ((z_x, "x"), (z_y, "y")):
        log = run(sys, p0, z_hist, cfg)
        assert _bits(getattr(plog, f"z_{tag}")) == _bits(log.z)
        assert _bits(getattr(plog, f"zhat_{tag}")) == _bits(log.zhat)
        assert _bits(getattr(plog, f"mass_{tag}")) == _bits(log.M)
    assert _bits(plog.t) == _bits(log.t)


def _network_by_hand(sys):
    """The network a NeutralDiagSystem is, built from its parts: its
    transports, no outflow or inflow, a delta pipe of lag rho_ij per pair
    and the operator its c and alpha induce."""
    m = sys.m
    return CompartmentalSystem(
        m=m,
        transports=sys.transports,
        outflows=(TransportSpec.zero(),) * m,
        inflows=(TrigPoly.const(0.0),) * m,
        pipes=tuple(tuple(PipeSpec.delta(sys.rho[i][j]) for j in range(m)) for i in range(m)),
        dspec=_induced_dspec(m, sys.c, sys.alpha, sys.flow),
        flow=sys.flow,
    )


def _diag_zero_c(flow):
    """m = 3: c_1 identically zero, compartments 0 and 2 share alpha = 1,
    a phase-dependent gain, a saturating shape and an instant pipe."""
    c = (TrigPoly.from_terms(0.3, [([1], 0.1, 0.05)]), TrigPoly.const(0.0), TrigPoly.const(0.2))
    gain = TransportSpec(TrigPoly.from_terms(0.2, [([1], 0.05, 0.0)]))
    sat = TransportSpec(TrigPoly.const(0.1), ShapeFn.saturate())
    zero = TransportSpec.zero()
    return NeutralDiagSystem(
        m=3,
        c=c,
        alpha=np.array([1.0, 0.7, 1.0]),
        rho=np.array([[1.0, 0.5, 0.0], [0.4, 0.7, 0.5], [0.0, 0.3, 1.0]]),
        transports=(
            (TransportSpec.linear(1.0), gain, zero),
            (sat, TransportSpec.linear(0.9), TransportSpec.linear(0.1)),
            (TransportSpec.linear(0.05), zero, TransportSpec.linear(1.1)),
        ),
        flow=flow,
    )


def _poly_key(poly):
    return (poly.constant, poly.k_vecs.tobytes(), poly.cos_coeffs.tobytes(), poly.sin_coeffs.tobytes())


@pytest.mark.parametrize("build", [s1_system, _diag_zero_c])
def test_neutral_diag_runs_as_its_network_by_hand(build, golden_flow):
    # a NeutralDiagSystem is the CompartmentalSystem of its parts: the same
    # balance-law table, and the same run and pair logs, bit for bit
    sys = build(golden_flow)
    net = _network_by_hand(sys)
    ours, theirs = sys._terms, net._terms
    assert [(_poly_key(p), r) for p, r in ours.cols] == [(_poly_key(p), r) for p, r in theirs.cols]
    assert ours.lags == theirs.lags and ours.rows == theirs.rows
    assert sys.max_pipe_lag == net.max_pipe_lag
    cone = ConeSpec(np.diag(-np.linspace(1.0, 2.0, sys.m)), 1.0)
    cfg = SimConfig(h=0.05, t_end=2.0, log_stride=3, cone=cone, tol_cone=np.inf)
    p0 = TorusPoint([0.3])
    z_x, z_y = _plan_history(sys, cfg, 0.3), _plan_history(sys, cfg, 0.1)
    for log, other in (
        (run(sys, p0, z_x, cfg), run(net, p0, z_x, cfg)),
        (run_ordered_pair(sys, p0, z_x, z_y, cfg), run_ordered_pair(net, p0, z_x, z_y, cfg)),
    ):
        names = [k for k, v in vars(log).items() if isinstance(v, np.ndarray)]
        assert len(names) >= 4
        for name in names:
            assert _bits(getattr(log, name)) == _bits(getattr(other, name)), name


def test_pair_reports_x_divergence_when_both_diverge(golden_flow, origin):
    # the members run one after the other, x first: x's stored history is
    # above the guard, which its log pass finds after its run, and y's first
    # step exceeds it, which would come first if the two stepped together
    sys = s1_system(golden_flow)
    cone = ConeSpec(np.array([[-2.0]]), 1.0)
    cfg = SimConfig(h=0.05, t_end=1.0, cone=cone, tol_cone=np.inf, divergence_limit=10.0)
    need = required_z_horizon(sys, cfg) + 0.1
    z_x = constant_history([10.5], cfg.h, need)
    z_y = constant_history([30.0], cfg.h, need)
    with pytest.raises(DivergenceError) as err:
        run_ordered_pair(sys, origin, z_x, z_y, cfg)
    assert err.value.t < 0 and err.value.value == 10.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e12])
def test_bad_stored_state_raises_divergence(golden_flow, origin, monkeypatch, tmp_path, bad):
    # the step guard watches zhat only; a stored z that is not finite or
    # exceeds the guard, here on the last step, is caught by the log pass
    import json

    from nfde_lab import cli, integrator

    cfg = SimConfig(h=0.05, t_end=1.0)
    z_of = integrator._Stage.z
    calls = [0]

    def z(self, zhat):
        calls[0] += 1  # s1 is linear: one per step, which stores z at the new time
        out = z_of(self, zhat)
        return np.full_like(out, bad) if calls[0] == cfg.nsteps else out

    monkeypatch.setattr(integrator._Stage, "z", z)
    sys = s1_system(golden_flow)
    z0 = constant_history([2.0], cfg.h, required_z_horizon(sys, cfg) + 0.1)
    with pytest.raises(DivergenceError) as err:
        run(sys, origin, z0, cfg)
    assert err.value.t == pytest.approx(cfg.t_end)
    assert not err.value.value <= cfg.divergence_limit
    calls[0] = 0
    config = {
        "flow": {"freqs": [GOLDEN_FREQ]},
        "system": {
            "kind": "neutral_diag",
            "m": 1,
            "c": [{"constant": 0.3, "terms": [{"k": [1], "sin": 0.2}]}],
            "alpha": [1.0],
            "rho": [[1.0]],
            "gains": [[1.0]],
        },
        "sim": {"h": cfg.h, "t_end": cfg.t_end, "log_stride": 1},
        "z_init": {"kind": "constant", "value": [2.0]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 5
