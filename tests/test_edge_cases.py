"""Surfaces not exercised by the main module tests: densities, saturating
shapes, multi-atom pipes, precondition errors, config validation, and the
equality of the package's dataclasses."""

import dataclasses
import inspect

import numpy as np
import pytest

import nfde_lab
from nfde_lab import (
    GOLDEN_FREQ,
    AtomicMeasureFamily,
    ConeSpec,
    DimensionMismatchError,
    DOperatorSpec,
    HistoryGrid,
    HorizonError,
    MeasureAtom,
    MeasureDensity,
    NeutralDiagSystem,
    NfdeError,
    PipeSpec,
    ShapeFn,
    SimConfig,
    StructuralPreconditionError,
    TorusFlow,
    TorusPoint,
    TransportSpec,
    TrigPoly,
    check_condition,
    cone_membership,
    constant_history,
    eval_D,
    eval_F,
    eval_Dhat_segment,
    invert_Dhat,
    make_comparison_upper,
    required_z_horizon,
    run,
    run_ordered_pair,
    stability_margin,
    suggest_a,
    total_mass,
)
from nfde_lab.compartment import CompartmentalSystem
from nfde_lab.d_operator import identity_poly_matrix

from .conftest import const_c_system
from .oracles import lipschitz_bounds, pq_sequence, sample_at


@pytest.fixture()
def density_spec(golden_flow):
    # delayed part is the constant density 0.4 on [-1, 0): total mass 0.4
    dens = MeasureDensity(np.full((20, 1, 1), 0.4), 0.05)
    return DOperatorSpec(
        1, identity_poly_matrix(1), AtomicMeasureFamily((), dens), golden_flow
    )


def test_density_stability_margin(density_spec):
    est = stability_margin(density_spec)
    assert est.lam == pytest.approx(0.4, abs=1e-12)


def test_density_invert_constant(density_spec, origin):
    # constant target: x (1 - 0.4) = 1, so x = 5/3; midpoint rule is exact
    yhat = constant_history([1.0], 0.05, 30.0)
    x = invert_Dhat(density_spec, origin, yhat, 1e-8)
    assert np.max(np.abs(x.samples - 1.0 / 0.6)) <= 1e-7
    back = eval_Dhat_segment(density_spec, origin, x, yhat.J)
    assert np.max(np.abs(back.samples - 1.0)) <= 1e-7


def test_saturate_shape():
    sat = ShapeFn.saturate()
    assert sat.value_scalar(0.0) == 0.0
    assert sat.value_scalar(1.0) == pytest.approx(0.5)
    assert sat.value_scalar(-3.0) == pytest.approx(-0.75)
    assert sat.deriv_bounds() == (0.0, 1.0)
    v = np.linspace(-5, 5, 101)
    out = sat.value(v)
    assert np.all(np.diff(out) > 0)  # strictly increasing
    assert np.all(np.abs(out) < 1.0)


def test_saturate_in_lipschitz_bounds(golden_flow, origin):
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.2),),
        alpha=np.array([1.0]),
        rho=np.array([[1.0]]),
        transports=((TransportSpec(TrigPoly.const(3.0), ShapeFn.saturate()),),),
        flow=golden_flow,
    )
    lb = lipschitz_bounds(sys, origin)
    assert lb.l_minus[0, 0] == 0.0
    assert lb.l_plus[0, 0] == pytest.approx(3.0)


def test_multi_atom_pipe_eval_F(golden_flow, origin):
    pipe = PipeSpec(((0.5, 0.25), (1.0, 0.75)))
    sys = CompartmentalSystem(
        m=1,
        transports=((TransportSpec.linear(1.0),),),
        outflows=(TransportSpec.zero(),),
        inflows=(TrigPoly.const(0.0),),
        pipes=((pipe,),),
        dspec=DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(), golden_flow),
        flow=golden_flow,
    )
    hist = constant_history([2.0], 0.05, 3.0)
    # constant history: delayed inflow sums to the instantaneous outflow
    assert eval_F(sys, origin, hist)[0] == pytest.approx(0.0, abs=1e-14)
    ramp = HistoryGrid(0.05, np.linspace(2.0, 0.0, 41)[:, None])  # z(s) = 2 + 2.5 s... decreasing into the past
    got = eval_F(sys, origin, ramp)[0]
    z = [sample_at(ramp, s)[0] for s in (0.0, -0.5, -1.0)]
    want = -z[0] + 0.25 * z[1] + 0.75 * z[2]
    assert got == pytest.approx(want, abs=1e-13)


def test_multi_atom_pipe_total_mass(golden_flow, origin):
    pipe = PipeSpec(((0.5, 0.25), (1.0, 0.75)))
    sys = CompartmentalSystem(
        m=1,
        transports=((TransportSpec.linear(1.0),),),
        outflows=(TransportSpec.zero(),),
        inflows=(TrigPoly.const(0.0),),
        pipes=((pipe,),),
        dspec=DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(), golden_flow),
        flow=golden_flow,
    )
    hist = constant_history([2.0], 0.05, 3.0)
    # mass = z + sum_k w_k * integral over [-r_k, 0] of z = 2 + 2*(0.25*0.5 + 0.75*1.0)
    assert total_mass(sys, origin, hist) == pytest.approx(2.0 + 2.0 * 0.875, abs=1e-12)


def test_pipe_validation():
    with pytest.raises(ValueError):
        PipeSpec(((0.5, 0.4), (1.0, 0.4)))  # weights do not sum to 1
    with pytest.raises(ValueError):
        PipeSpec(((-0.5, 1.0),))
    with pytest.raises(ValueError):
        PipeSpec(((0.5, -1.0), (1.0, 2.0)))


def test_eval_F_horizon_error(golden_flow, origin):
    sys = const_c_system(golden_flow, rho=2.0, alpha=1.0)
    short = constant_history([1.0], 0.1, 1.0)
    with pytest.raises(HorizonError):
        eval_F(sys, origin, short)


def test_eval_F_point_dimension_error():
    # a phase on the 1-torus against a 2-torus flow is rejected, also where
    # a gain is read at a pipe lag's phase
    flow = TorusFlow([0.6, 0.4])
    gain = TrigPoly.from_terms(1.0, [([1, 1], 0.1, 0.0)])
    sys = NeutralDiagSystem(
        m=1,
        c=(TrigPoly.const(0.2),),
        alpha=np.array([1.0]),
        rho=np.array([[0.5]]),
        transports=((TransportSpec(gain),),),
        flow=flow,
    )
    with pytest.raises(DimensionMismatchError):
        eval_F(sys, TorusPoint([0.3]), constant_history([1.0], 0.1, 2.0))


def test_negative_gain_rejected(golden_flow):
    # the gain dips to 0.1 - 0.5 at the opposite phase: the system is
    # rejected where it is built
    with pytest.raises(StructuralPreconditionError, match="negative transport gain"):
        NeutralDiagSystem(
            m=1,
            c=(TrigPoly.const(0.2),),
            alpha=np.array([1.0]),
            rho=np.array([[1.0]]),
            transports=((TransportSpec(TrigPoly.from_terms(0.1, [([1], 0.5, 0.0)])),),),
            flow=golden_flow,
        )


_NEGATIVE_GAIN = TransportSpec.linear(-0.5)


def _order_case(c=(0.2,), alpha=(1.0,), rho=((1.0,),), g6=False):
    """A neutral-diagonal system with a negative gain, which the network's
    own check rejects, and the given parts."""
    m = len(c)
    return dict(
        m=m,
        c=tuple(TrigPoly.const(v) for v in c),
        alpha=np.array(alpha),
        rho=np.array(rho),
        transports=tuple(tuple(_NEGATIVE_GAIN for _ in range(m)) for _ in range(m)),
        flow=TorusFlow([GOLDEN_FREQ]),
        g6=g6,
    )


@pytest.mark.parametrize(
    "parts, error, message",
    [
        (_order_case(c=(1.2,)), StructuralPreconditionError, "each c_i must stay below 1"),
        (_order_case(c=(-0.1,)), StructuralPreconditionError, "coefficients c_i must be >= 0"),
        (
            _order_case(c=(1.5,), alpha=(1.0, 2.0)),
            DimensionMismatchError,
            "alpha must have shape (m,)",
        ),
        (_order_case(rho=((-1.0,),)), StructuralPreconditionError, "rho must be nonnegative"),
        (
            _order_case(c=(0.6, 0.45), alpha=(1.0, 1.0), rho=np.ones((2, 2)), g6=True),
            StructuralPreconditionError,
            "sum of c_i must stay below 1 when g6 is requested",
        ),
    ],
)
def test_neutral_diag_checks_run_before_the_network_checks(parts, error, message):
    # each system also has a negative gain, and the first and third also an
    # unstable operator: the neutral-diagonal rule it breaks is the error raised
    with pytest.raises(NfdeError) as info:
        NeutralDiagSystem(**parts)
    assert type(info.value) is error and str(info.value) == message


def test_pq_sequence_validation(golden_flow, origin):
    sys = const_c_system(golden_flow)
    with pytest.raises(ValueError):
        pq_sequence(sys, origin, 0, a=0.5, N=3)
    with pytest.raises(ValueError):
        pq_sequence(sys, origin, 0, a=-1.0, N=-1)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(h=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(h=0.1, t_end=1.0, log_stride=0)


@pytest.mark.parametrize(
    "call, value",
    [
        ("log_stride", 2.5),
        ("log_stride", True),
        ("log_stride", "2"),
        ("n_trunc", 1.5),
        ("n_trunc", True),
        ("n_terms", True),
        ("n_terms", "3"),
        ("n_terms", 1.5),
    ],
)
def test_library_counts_must_be_whole_numbers(golden_flow, origin, call, value):
    # the rule SamplingConfig and the condition checkers use: an int, a NumPy
    # integer or an integral float, never a bool or a string
    with pytest.raises(ValueError, match="whole number"):
        if call == "n_terms":
            spec = DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(), golden_flow)
            invert_Dhat(spec, origin, constant_history([1.0], 0.1, 1.0), 1e-8, n_terms=value)
        else:
            SimConfig(h=0.05, t_end=1.0, **{call: value})


def test_library_counts_take_integral_floats(golden_flow, origin):
    cfg = SimConfig(h=0.05, t_end=1.0, log_stride=2.0, n_trunc=np.int64(1))
    assert (cfg.log_stride, cfg.n_trunc) == (2, 1)
    assert type(cfg.log_stride) is int and type(cfg.n_trunc) is int
    log = run(const_c_system(golden_flow), origin, constant_history([1.0], 0.05, 4.0), cfg)
    assert log.t.size == 11


def test_cone_horizon_not_covered(golden_flow):
    cone = ConeSpec(np.array([[-1.0]]), 5.0)
    x = constant_history([0.0], 0.1, 2.0)
    y = constant_history([1.0], 0.1, 2.0)
    with pytest.raises(HorizonError):
        cone_membership(x, y, cone)


def test_atom_at_zero_rejected():
    with pytest.raises(ValueError):
        MeasureAtom(0.0, [[TrigPoly.const(0.5)]])


def test_duplicate_atom_lags_rejected():
    a = MeasureAtom(1.0, [[TrigPoly.const(0.2)]])
    b = MeasureAtom(1.0, [[TrigPoly.const(0.1)]])
    with pytest.raises(ValueError):
        AtomicMeasureFamily((a, b))


def test_invert_non_aligned_lag(golden_flow, origin):
    # the atom lag is not a grid multiple: the series must interpolate
    atom = MeasureAtom(0.513, [[TrigPoly.const(0.5)]])
    spec = DOperatorSpec(
        1, identity_poly_matrix(1), AtomicMeasureFamily((atom,)), golden_flow
    )
    h = 0.05
    yhat = HistoryGrid(
        h,
        (1.0 + 0.4 * np.sin(1.3 * (-h * np.arange(401))))[:, None],
    )
    x = invert_Dhat(spec, origin, yhat, 1e-8)
    back = eval_Dhat_segment(spec, origin, x, 100)
    resid = np.max(np.abs(back.samples - yhat.samples[:101]))
    # truncation plus a small interpolation contribution on smooth data
    assert resid <= 2e-8


def test_transit_integral_non_aligned_lag(golden_flow, origin):
    pipe = PipeSpec(((0.53, 1.0),))
    sys = CompartmentalSystem(
        m=1,
        transports=((TransportSpec.linear(1.0),),),
        outflows=(TransportSpec.zero(),),
        inflows=(TrigPoly.const(0.0),),
        pipes=((pipe,),),
        dspec=DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(), golden_flow),
        flow=golden_flow,
    )
    hist = constant_history([2.0], 0.05, 3.0)
    # partial trapezoid cell is exact on constants: mass = 2 + 2 * 0.53
    assert total_mass(sys, origin, hist) == pytest.approx(2.0 + 1.06, abs=1e-12)


def test_eval_D_density_with_atoms(golden_flow, origin):
    # atoms and density combine additively
    dens = MeasureDensity(np.full((10, 1, 1), 0.2), 0.1)
    atom = MeasureAtom(2.0, [[TrigPoly.const(0.3)]])
    spec = DOperatorSpec(
        1, identity_poly_matrix(1), AtomicMeasureFamily((atom,), dens), golden_flow
    )
    hist = constant_history([1.0], 0.1, 4.0)
    # 1 - 0.3*1 - 0.2*1*1 = 0.5
    assert eval_D(spec, origin, hist)[0] == pytest.approx(0.5, abs=1e-12)
    est = stability_margin(spec)
    assert est.lam == pytest.approx(0.5, abs=1e-12)


def _one_of_each():
    """A fresh instance of each dataclass that holds a NumPy array, directly
    or through another such class, keyed by class."""
    flow = TorusFlow([GOLDEN_FREQ])
    s1 = const_c_system(flow)
    net = CompartmentalSystem(
        m=1,
        transports=s1.transports,
        outflows=s1.outflows,
        inflows=s1.inflows,
        pipes=s1.pipes,
        dspec=s1.dspec,
        flow=flow,
    )
    report = check_condition(s1, "G5", [-2.0])
    verdict = report.components[0]
    cone = ConeSpec(np.array([[-2.0]]), 1.0)
    cfg = SimConfig(h=0.05, t_end=0.2, cone=cone)
    z0 = constant_history([2.0], cfg.h, required_z_horizon(s1, cfg) + 0.1)
    p0 = TorusPoint([0.0])
    atom = s1.dspec.nu.atoms[0]
    dens = MeasureDensity(np.full((2, 1, 1), 0.1), 0.5)
    objs = [
        flow,
        p0,
        TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)]),
        s1.transports[0][0],
        net,
        s1,
        verdict.subs[0],
        verdict,
        report,
        suggest_a(s1, "G5"),
        atom,
        dens,
        AtomicMeasureFamily((atom,), dens),
        s1.dspec.stability,
        s1.dspec,
        z0,
        cfg,
        run(s1, p0, z0, cfg),
        run_ordered_pair(s1, p0, z0, z0, cfg),
        cone,
        make_comparison_upper(cone, 1, step=0.1, horizon=1.0),
    ]
    return {type(x): x for x in objs}


def test_array_holding_dataclasses_compare_by_identity():
    # a generated __eq__ over NumPy fields raises on a truth value, and a
    # generated __hash__ raises on an unhashable array: equality and hash
    # go by identity instead, and the classes without arrays keep theirs
    ones, twos = _one_of_each(), _one_of_each()
    assert set(ones) == set(twos) and len(ones) == 21
    for cls, x in ones.items():
        y = twos[cls]
        assert x is not y and (x == x) is True, cls.__name__
        assert (x == y) is False and (x != y) is True, cls.__name__
        if cls.__dataclass_params__.frozen:
            assert hash(x) == hash(x), cls.__name__
    modules = [m for _, m in inspect.getmembers(nfde_lab, inspect.ismodule)]
    classes = {
        c
        for mod in modules
        for _, c in inspect.getmembers(mod, dataclasses.is_dataclass)
        if inspect.isclass(c) and c.__module__ == mod.__name__
    }
    by_identity = {c for c in classes if not c.__dataclass_params__.eq}
    assert by_identity == set(ones)
    kept = {c.__name__ for c in classes - by_identity}
    assert kept == {"ShapeFn", "PipeSpec", "SamplingConfig", "OrderReport", "CoveringReport"}
