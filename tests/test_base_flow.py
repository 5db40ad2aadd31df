import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfde_lab import (
    GOLDEN_FREQ,
    DimensionMismatchError,
    TorusFlow,
    TorusPoint,
    TrigPoly,
)
from nfde_lab.base_flow import (
    PLAN_BLOCK,
    SamplingConfig,
    _rotate,
    advance_many,
    eval_trig_many,
    plan_blocks,
    sample_thetas,
)

from .oracles import advance, derivative_along_flow, eval_trig, torus_distance


def test_advance_identity():
    flow = TorusFlow([0.25, GOLDEN_FREQ])
    p = TorusPoint([0.1, 0.7])
    q = advance(flow, p, 0.0)
    assert np.array_equal(q.theta, p.theta)


def test_advance_full_revolution():
    flow = TorusFlow([0.5])
    q = advance(flow, TorusPoint([0.3]), 2.0)
    assert q.theta[0] == pytest.approx(0.3, abs=1e-12)


def test_advance_golden():
    flow = TorusFlow([GOLDEN_FREQ])
    q = advance(flow, TorusPoint([0.5]), 1.0)
    assert q.theta[0] == pytest.approx(0.1180339887, abs=1e-10)
    assert abs(q.theta[0] - 0.11803398874989490) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(-40, 40, allow_nan=False),
    t=st.floats(-40, 40, allow_nan=False),
    theta=st.floats(0, 1, exclude_max=True),
)
def test_advance_group_law(s, t, theta):
    flow = TorusFlow([GOLDEN_FREQ, 0.37])
    p = TorusPoint([theta, 0.2])
    two = advance(flow, advance(flow, p, s), t)
    one = advance(flow, p, s + t)
    d = np.abs(two.theta - one.theta)
    assert np.all(np.minimum(d, 1.0 - d) < 1e-10)


def test_eval_constant():
    p = TrigPoly.const(0.3)
    assert eval_trig(p, TorusPoint([0.123])) == 0.3


def test_eval_cosine_at_zero():
    p = TrigPoly.from_terms(0.0, [([1], 1.0, 0.0)])
    assert eval_trig(p, TorusPoint([0.0])) == pytest.approx(1.0, abs=1e-15)


def test_eval_sin_quarter():
    p = TrigPoly.from_terms(0.3, [([1], 0.0, 0.2)])
    assert eval_trig(p, TorusPoint([0.25])) == pytest.approx(0.5, abs=1e-15)


def test_eval_dimension_mismatch():
    p = TrigPoly.from_terms(0.0, [([1, 2], 1.0, 0.0)])
    with pytest.raises(DimensionMismatchError):
        eval_trig(p, TorusPoint([0.1]))


def test_bounded_by_coefficient_sum():
    rng = np.random.default_rng(7)
    p = TrigPoly.from_terms(
        0.2, [([1], 0.3, -0.1), ([2], -0.05, 0.2), ([3], 0.0, 0.07)]
    )
    thetas = rng.random((500, 1))
    vals = eval_trig_many(p, thetas)
    assert np.all(np.abs(vals) <= abs(p.constant) + 0.72 + 1e-12)
    assert np.all(vals <= p.sup_bound() + 1e-12)
    assert np.all(vals >= p.inf_bound() - 1e-12)


def test_derivative_constant_is_zero():
    flow = TorusFlow([GOLDEN_FREQ])
    p = TrigPoly.const(1.5)
    for th in (0.0, 0.3, 0.9):
        assert derivative_along_flow(p, flow, TorusPoint([th])) == 0.0


def test_derivative_sin_chain_rule():
    flow = TorusFlow([0.5])
    p = TrigPoly.from_terms(0.0, [([1], 0.0, 1.0)])
    val = derivative_along_flow(p, flow, TorusPoint([0.0]))
    assert val == pytest.approx(np.pi, abs=1e-12)


def test_derivative_finite_difference_oracle():
    # oracle: central difference of the evaluation along the orbit
    rng = np.random.default_rng(42)
    flow = TorusFlow([GOLDEN_FREQ, 0.29])
    h = 1e-6
    for _ in range(100):
        nterms = rng.integers(1, 4)
        terms = [
            (rng.integers(-3, 4, size=2), rng.normal() * 0.5, rng.normal() * 0.5)
            for _ in range(nterms)
        ]
        p = TrigPoly.from_terms(rng.normal(), terms)
        x = TorusPoint(rng.random(2))
        f = lambda t: eval_trig(p, advance(flow, x, t))
        fd = (f(h) - f(-h)) / (2.0 * h)
        assert abs(derivative_along_flow(p, flow, x) - fd) <= 1e-6


def test_derivative_matches_along_orbit():
    flow = TorusFlow([GOLDEN_FREQ])
    p = TrigPoly.from_terms(0.1, [([1], 0.4, -0.2), ([2], 0.0, 0.1)])
    x = TorusPoint([0.37])
    h = 1e-6
    for t in np.linspace(0.0, 8.0, 25):
        q = advance(flow, x, t)
        fd = (
            eval_trig(p, advance(flow, x, t + h)) - eval_trig(p, advance(flow, x, t - h))
        ) / (2.0 * h)
        assert abs(derivative_along_flow(p, flow, q) - fd) <= 1e-6


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotate_is_each_inline_rotation_bit_for_bit(d, seed):
    # the one rotation rule gives the bits of each form it replaced: start
    # phase plus times, phases plus (-r) freqs, phases minus shift freqs,
    # and the covering diagnostic's double reduction
    rng = np.random.default_rng(seed)
    flow = TorusFlow(rng.uniform(0.01, 2.0, size=d))
    f = flow.freqs
    below_one = np.nextafter(1.0, 0.0)
    theta0 = rng.choice([below_one, 0.0, rng.random()], size=d)
    thetas = rng.random((40, d))
    thetas[::3] = below_one
    ts = np.concatenate([[0.0, -0.0, 1e6, -1e6, -1e-20], rng.uniform(-50.0, 50.0, 35)])
    ts[5::4] = -rng.uniform(0.0, 1e-12, ts[5::4].size)
    forms = [
        (np.mod(theta0[None, :] + ts[:, None] * f[None, :], 1.0), _rotate(flow, theta0, ts)),
        (
            np.mod(np.mod(theta0 + ts[:, None] * f, 1.0), 1.0),
            np.mod(_rotate(flow, theta0, ts), 1.0),
        ),
    ]
    for r in [0.0, 1.0, 1e6, *rng.uniform(0.0, 5.0, 4)]:
        forms.append((np.mod(thetas + (-r) * f, 1.0), _rotate(flow, thetas, -r)))
        forms.append((np.mod(thetas + (-r) * f[None, :], 1.0), _rotate(flow, thetas, -r)))
        forms.append((np.mod(thetas - r * f[None, :], 1.0), _rotate(flow, thetas, -r)))
    for old, new in forms:
        assert old.shape == new.shape and old.tobytes() == new.tobytes()
    rows = _rotate(flow, thetas, ts)  # one time per row
    want = np.stack([np.mod(th + t * f, 1.0) for th, t in zip(thetas, ts)])
    assert rows.tobytes() == want.tobytes()


def test_advance_many_matches_advance():
    flow = TorusFlow([GOLDEN_FREQ, 0.11])
    p = TorusPoint([0.6, 0.05])
    ts = np.array([-2.0, 0.0, 0.33, 7.7])
    rows = advance_many(flow, p, ts)
    for row, t in zip(rows, ts):
        assert np.allclose(row, advance(flow, p, t).theta, atol=1e-12)


def test_torus_distance_wraps():
    a = TorusPoint([0.95, 0.1])
    b = TorusPoint([0.05, 0.2])
    assert torus_distance(a, b) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize(
    "counts",
    [{"grid_per_dim": 2.5}, {"orbit_points": 1.5}, {"grid_per_dim": True}, {"orbit_points": "4"}],
)
def test_sampling_counts_must_be_whole(counts):
    # a fractional grid count would space the grid unevenly on [0, 1)
    with pytest.raises(ValueError, match="whole number"):
        SamplingConfig(**counts)


def test_sampling_counts_keep_whole_floats_as_ints():
    plan = SamplingConfig(grid_per_dim=3.0, orbit_points=np.int64(4))
    assert plan == SamplingConfig(3, 4) and type(plan.grid_per_dim) is int


def _plan_by_meshgrid(flow):
    """The sampling plan built whole: the grid by meshgrid, then the orbit."""
    g = flow.sampling.grid_per_dim
    mesh = np.meshgrid(*[np.arange(g) / g] * flow.dim, indexing="ij")
    grid = np.stack([ax.ravel() for ax in mesh], axis=1)
    ts = (np.arange(flow.sampling.orbit_points) + 1) * flow.sampling.orbit_step
    return np.vstack([grid, advance_many(flow, TorusPoint(np.zeros(flow.dim)), ts)])


@pytest.mark.parametrize(
    "freqs, plan",
    [
        ([GOLDEN_FREQ], SamplingConfig()),
        ([GOLDEN_FREQ], SamplingConfig(1025, 0)),
        ([GOLDEN_FREQ, 0.3], SamplingConfig(23, 1100, 0.11)),
        ([GOLDEN_FREQ, 0.3], SamplingConfig(64, 512)),
        ([0.1, 0.2, 0.3], SamplingConfig(9, 1)),
        ([0.1, 0.2, 0.3], SamplingConfig(1, 3)),
    ],
)
def test_plan_blocks_concatenate_to_the_plan(freqs, plan):
    # blocks of at most PLAN_BLOCK phases, the grid's before the orbit's,
    # whose rows are the whole plan's bit for bit, in order
    flow = TorusFlow(freqs, plan)
    blocks = list(plan_blocks(flow))
    assert all(0 < b.shape[0] <= PLAN_BLOCK and b.shape[1] == len(freqs) for b in blocks)
    want = _plan_by_meshgrid(flow)
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    assert sample_thetas(flow).tobytes() == want.tobytes()
    assert sample_thetas(flow).shape == want.shape
