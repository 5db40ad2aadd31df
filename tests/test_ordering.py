import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nfde_lab import (
    ConeSpec,
    HistoryGrid,
    cone_membership,
    constant_history,
    from_function,
    is_quasipositive,
    make_comparison_upper,
    matrix_exp,
    transformed_cone_membership,
)
from nfde_lab.integrator import _cone_margins
from nfde_lab.ordering import _expm
from .conftest import scalar_dspec
from .oracles import comparison_upper_rows_direct


def brute_membership(x, y, cone, tol):
    """O(J^2) all-pairs oracle; checks every node pair inside the horizon."""
    v = y.samples - x.samples
    J = x.J
    h = x.step
    raw = float(np.min(v))
    E1 = matrix_exp(cone.A, h)
    npairs = J if cone.infinite else min(J, int(math.floor(cone.horizon / h + 1e-9)))
    Ek = np.eye(cone.m)
    for k in range(1, npairs + 1):
        Ek = Ek @ E1
        newer = v[: npairs + 1 - k]
        older = v[k : npairs + 1]
        if newer.size:
            raw = min(raw, float(np.min(newer - older @ Ek.T)))
    return raw >= -tol


def random_quasipositive(rng, m):
    A = rng.uniform(0.0, 0.3, size=(m, m))
    A[np.diag_indices(m)] = rng.uniform(-3.0, 0.0, size=m)
    if rng.random() < 0.4:
        A = np.diag(np.diagonal(A))
    return A


def constructed_member(rng, m, J, h, A):
    """Backward recursion w_old anything, w_new = E w_old + positive bump."""
    E = matrix_exp(A, h)
    w = np.empty((J + 1, m))
    w[J] = rng.uniform(0.0, 1.0, size=m)
    for j in range(J - 1, -1, -1):
        w[j] = E @ w[j + 1] + rng.uniform(1e-4, 0.1, size=m)
    return w


def test_quasipositive_examples():
    assert is_quasipositive(-np.eye(2))
    assert is_quasipositive(np.array([[-1.0, 0.5], [0.2, -2.0]]))
    assert not is_quasipositive(np.array([[-1.0, -0.1], [0.0, -1.0]]))


def test_matrix_exp_identity_at_zero():
    A = np.array([[-1.0, 0.3], [0.1, -2.0]])
    assert np.array_equal(matrix_exp(A, 0.0), np.eye(2))


def test_matrix_exp_diagonal_exact():
    out = matrix_exp(np.array([[-1.0]]), 1.0)
    assert out[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_matrix_exp_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = matrix_exp(A, 2.0)
    assert np.allclose(out, [[1.0, 2.0], [0.0, 1.0]], atol=1e-12)


def hurwitz_quasipositive(seed, m):
    """Nonnegative off-diagonal entries, strictly dominant negative diagonal."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(m, m))
    np.fill_diagonal(A, 0.0)
    A[np.diag_indices(m)] = -A.sum(axis=1) - rng.uniform(0.01, 2.0, size=m)
    return A


def rel_err_1(E, ref):
    return np.linalg.norm(E - ref, 1) / np.linalg.norm(ref, 1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    log_norm=st.floats(-6.0, 2.0),
)
def test_expm_matches_scipy(seed, m, log_norm):
    # ||A t||_1 up to 1e2 is far past theta_13, so the squaring branch runs
    A = hurwitz_quasipositive(seed, m)
    t = 10.0**log_norm / np.linalg.norm(A, 1)
    ref = scipy.linalg.expm(A * t)
    assert rel_err_1(matrix_exp(A, t), ref) <= 1e-12
    assert rel_err_1(_expm(A * t), ref) <= 1e-12


def test_matrix_exp_rejects_negative_time():
    with pytest.raises(ValueError):
        matrix_exp(-np.eye(1), -0.5)


def test_cone_requires_quasipositive():
    with pytest.raises(ValueError):
        ConeSpec(np.array([[-1.0, -0.1], [0.0, -1.0]]), 1.0)


@pytest.mark.parametrize("A", [np.array([[[-1.0]]]), np.zeros((2, 2, 2)), np.ones((2, 3))])
def test_cone_rejects_non_square_or_non_2d_matrix(A):
    with pytest.raises(ValueError):
        is_quasipositive(A)
    with pytest.raises(ValueError):
        ConeSpec(A, 1.0)


def test_infinite_horizon_needs_hurwitz():
    with pytest.raises(ValueError):
        ConeSpec(np.array([[1.0]]), math.inf)
    # Gershgorin-uncertifiable but quasipositive: rejected without the flag
    A = np.array([[-1.0, 2.0], [0.1, -3.0]])
    with pytest.raises(ValueError):
        ConeSpec(A, math.inf)
    ConeSpec(A, math.inf, assume_hurwitz=True)  # explicit override


def test_membership_reflexive():
    cone = ConeSpec(np.array([[-1.0]]), 2.0)
    x = from_function(lambda s: np.cos(s)[:, None], 0.01, 2.0)
    rep = cone_membership(x, x, cone)
    assert rep.ordered and rep.min_margin == 0.0


def test_membership_slow_exponential():
    cone = ConeSpec(np.array([[-1.0]]), 2.0)
    zero = constant_history([0.0], 0.01, 2.0)
    y = from_function(lambda s: np.exp(-0.5 * s)[:, None], 0.01, 2.0)
    assert cone_membership(zero, y, cone).ordered


def test_membership_fast_exponential_fails():
    cone = ConeSpec(np.array([[-1.0]]), 2.0)
    zero = constant_history([0.0], 0.01, 2.0)
    y = from_function(lambda s: np.exp(-2.0 * s)[:, None], 0.01, 2.0)
    rep = cone_membership(zero, y, cone)
    assert not rep.ordered
    assert rep.min_margin < -1e-6


def test_fast_agrees_with_brute_force():
    rng = np.random.default_rng(314)
    J, h = 60, 0.02
    disagreements = 0
    for trial in range(200):
        m = int(rng.integers(1, 4))
        A = random_quasipositive(rng, m)
        rho = float(rng.uniform(0.3, J * h))
        cone = ConeSpec(A, rho)
        base = rng.normal(size=(J + 1, m))
        if trial % 2 == 0:
            diff = constructed_member(rng, m, J, h, A)
        else:
            diff = rng.normal(size=(J + 1, m))
        x = HistoryGrid(h, base)
        y = HistoryGrid(h, base + diff)
        fast = cone_membership(x, y, cone, 1e-9).ordered
        brute = brute_membership(x, y, cone, 1e-9)
        disagreements += fast != brute
    assert disagreements == 0


def test_membership_margin_is_the_pair_monitor_at_the_last_row():
    # one cone margin: on a finite horizon, cone_membership reports the
    # pair monitor's margin at the newest row of the same gaps, bit for bit
    rng = np.random.default_rng(21)
    J, h = 40, 0.05
    for _ in range(40):
        m = int(rng.integers(1, 4))
        A = random_quasipositive(rng, m)
        cone = ConeSpec(A, float(rng.uniform(0.1, J * h)))
        x = HistoryGrid(h, rng.normal(size=(J + 1, m)))
        y = HistoryGrid(h, x.samples + rng.normal(0.5, 1.0, size=(J + 1, m)))
        V = y.samples[::-1] - x.samples[::-1]
        last = _cone_margins(V, cone, matrix_exp(A, h), h, [J])[0]
        assert cone_membership(x, y, cone).min_margin == min(0.0, last)


def test_membership_witness_is_the_oldest_row_on_ties():
    h = 0.1
    # exp(A h) = 1, so a step's slack is the newer gap minus the older; the
    # steps from -h to 0 and from -3h to -2h both drop by 1
    cone = ConeSpec(np.array([[0.0]]), 0.4)
    zero = constant_history([0.0], h, 0.4)
    y = HistoryGrid(h, [[0.0], [1.0], [0.0], [1.0], [0.0]])
    rep = cone_membership(zero, y, cone)
    assert (rep.min_margin, rep.witness) == (-1.0, (-3 * h, -2 * h, 0))
    # a constant gap of -0.5 decays slower than exp(-h), so the sign part
    # is the margin, attained at every node
    cone = ConeSpec(np.array([[-1.0]]), 0.4)
    rep = cone_membership(constant_history([0.5], h, 0.4), zero, cone)
    assert (rep.min_margin, rep.witness) == (-0.5, (-4 * h, -4 * h, 0))


def test_smooth_criterion_equivalence_diagonal():
    # sign test: v >= 0 and v' >= A v, evaluated analytically
    cone = ConeSpec(np.array([[-1.5]]), 3.0)
    zero = constant_history([0.0], 0.01, 3.0)
    for rate, member in ((-1.0, True), (-1.49, True), (-1.51, False), (-2.5, False)):
        y = from_function(lambda s, r=rate: np.exp(r * s)[:, None], 0.01, 3.0)
        # analytic: v' - Av = (r + 1.5) e^{rs}
        assert (rate + 1.5 >= 0) == member
        assert cone_membership(zero, y, cone, 1e-9).ordered == member


def test_smooth_criterion_equivalence_coupled():
    A = np.array([[-3.0, 2.0], [2.0, -3.0]])
    cone = ConeSpec(A, 2.0)
    w = np.linalg.solve(A, -np.ones(2))  # Aw = -1, so v' - Av = 1 >= 0 below
    v0 = np.array([0.4, 0.1])

    def member_fn(s):
        # forward flow from the old end keeps the orbit in the positive cone
        return np.stack([scipy.linalg.expm(A * (si + 2.0)) @ v0 + w for si in s])

    zero = constant_history([0.0, 0.0], 0.02, 2.0)
    y = from_function(member_fn, 0.02, 2.0)
    assert cone_membership(zero, y, cone, 1e-9).ordered

    def nonmember_fn(s):
        out = member_fn(s)
        out[:, 1] += 0.3 * np.exp(-10.0 * s)  # decays too fast for the cone
        return out

    y_bad = from_function(nonmember_fn, 0.02, 2.0)
    assert not cone_membership(zero, y_bad, cone, 1e-9).ordered


def test_cone_axioms_closure():
    rng = np.random.default_rng(8)
    J, h = 50, 0.02
    A = np.array([[-2.0, 0.4], [0.0, -1.0]])
    cone = ConeSpec(A, J * h)
    zero = constant_history([0.0, 0.0], h, J * h)
    u = constructed_member(rng, 2, J, h, A)
    v = constructed_member(rng, 2, J, h, A)
    for w in (u + v, 3.7 * u):
        y = HistoryGrid(h, w)
        assert cone_membership(zero, y, cone, 1e-9).ordered


def test_cone_antisymmetry_exact():
    rng = np.random.default_rng(10)
    h, J = 0.05, 30
    A = np.array([[-1.0]])
    cone = ConeSpec(A, J * h)
    x = HistoryGrid(h, rng.normal(size=(J + 1, 1)))
    # both orders with zero tolerance force equality on the grid
    rep_xy = cone_membership(x, x, cone, 0.0)
    assert rep_xy.ordered
    y = HistoryGrid(h, x.samples + 1e-6)
    assert not (
        cone_membership(x, y, cone, 0.0).ordered
        and cone_membership(y, x, cone, 0.0).ordered
    )


def test_transformed_reflexive(golden_flow, origin):
    spec = scalar_dspec(golden_flow, 0.5)
    cone = ConeSpec(np.array([[-1.0]]), 1.0)
    x = from_function(lambda s: np.sin(s)[:, None], 0.05, 4.0)
    rep = transformed_cone_membership(spec, origin, x, x, cone)
    assert rep.ordered


def test_transformed_identity_lift_coincides(golden_flow, origin):
    from nfde_lab import AtomicMeasureFamily, DOperatorSpec
    from nfde_lab.d_operator import identity_poly_matrix

    spec = DOperatorSpec(1, identity_poly_matrix(1), AtomicMeasureFamily(), golden_flow)
    cone = ConeSpec(np.array([[-1.2]]), 1.5)
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = HistoryGrid(0.05, rng.normal(size=(61, 1)))
        y = HistoryGrid(0.05, rng.normal(size=(61, 1)))
        direct = cone_membership(x, y, cone, 1e-9)
        lifted = transformed_cone_membership(spec, origin, x, y, cone, 1e-9)
        assert direct.ordered == lifted.ordered
        assert direct.min_margin == pytest.approx(lifted.min_margin, abs=1e-15)


def test_transformed_constant_gap(golden_flow, origin):
    # x = 0 and y = 2 lift to a constant transformed gap of 1
    spec = scalar_dspec(golden_flow, 0.5)
    cone = ConeSpec(np.array([[-1.0]]), 1.0)
    x = constant_history([0.0], 0.05, 4.0)
    y = constant_history([2.0], 0.05, 4.0)
    rep = transformed_cone_membership(spec, origin, x, y, cone)
    assert rep.ordered and rep.min_margin == 0.0


def test_comparison_infinite_identity():
    cone = ConeSpec(-np.eye(3), math.inf)
    comp = make_comparison_upper(cone, 3)
    assert np.allclose(comp.hist.samples, 1.0, atol=1e-15)
    assert comp.k0 == pytest.approx(1.0)


def test_comparison_infinite_diagonal():
    cone = ConeSpec(np.diag([-2.0, -0.5]), math.inf)
    comp = make_comparison_upper(cone, 2)
    assert np.allclose(comp.hist.samples[0], [0.5, 2.0], atol=1e-14)


def test_comparison_finite_fixed_point():
    # A = -1, rho = 1: starting from 1 the forced flow stays at 1
    cone = ConeSpec(np.array([[-1.0]]), 1.0)
    comp = make_comparison_upper(cone, 1, step=0.01)
    assert np.max(np.abs(comp.hist.samples - 1.0)) <= 1e-12
    assert comp.k0 == pytest.approx(1.0, abs=1e-12)


def test_comparison_is_member():
    for cone in (
        ConeSpec(np.array([[-2.0, 0.5], [0.3, -3.0]]), 1.5),
        ConeSpec(np.diag([-1.0, -4.0]), math.inf),
    ):
        comp = make_comparison_upper(cone, 2, step=0.01, horizon=3.0)
        zero = constant_history([0.0, 0.0], 0.01, comp.hist.horizon)
        rep = cone_membership(zero, comp.hist, cone, tol_cone=1e-12)
        assert rep.ordered
        assert rep.min_margin >= -1e-12
        assert comp.k0 > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    steps=st.integers(1, 150),
    frac=st.sampled_from([0.0, 0.37, 0.5, 0.999]),
    step=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
    extra=st.sampled_from([0.0, 0.3, 1.7]),
)
def test_comparison_semigroup_matches_per_node_expm(seed, m, steps, frac, step, extra):
    # horizons that are a whole number of steps (frac 0) and that are not
    A = hurwitz_quasipositive(seed, m)
    if seed % 3 == 0:
        A = np.diag(np.diagonal(A))
    rho = (steps + frac) * step
    cone = ConeSpec(A, rho)
    comp = make_comparison_upper(cone, m, step=step, horizon=rho + extra)
    ref = comparison_upper_rows_direct(cone, m, step, rho + extra)
    assert comp.hist.samples.shape == ref.shape
    assert np.max(np.abs(comp.hist.samples - ref) / np.abs(ref)) <= 1e-12
