"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here exactly as stated in the criteria.
"""

import math
import time

import numpy as np
import pytest

from nfde_lab import (
    ConeSpec,
    GOLDEN_FREQ,
    HistoryGrid,
    SimConfig,
    TorusFlow,
    TorusPoint,
    TrigPoly,
    check_condition,
    cone_membership,
    constant_history,
    covering_diagnostic,
    eval_Dhat_segment,
    extract_atom_at_zero,
    from_function,
    invert_Dhat,
    make_comparison_upper,
    run,
    run_ordered_pair,
    sup_norm,
    total_mass,
)
from nfde_lab.base_flow import eval_trig_many
from nfde_lab.compartment import condition_margins
from nfde_lab.d_operator import (
    AtomicMeasureFamily,
    DOperatorSpec,
    MeasureAtom,
    sample_thetas,
)
from nfde_lab.integrator import required_z_horizon

from .conftest import random_contraction_spec, random_history, s1_system, scalar_dspec
from .oracles import eval_trig
from .test_ordering import brute_membership, constructed_member, random_quasipositive

FLOW = TorusFlow([GOLDEN_FREQ])
P0 = TorusPoint([0.0])
CONE = ConeSpec(np.array([[-2.0]]), 1.0)
# Initial data length of criteria 8 and 9, fixed rather than following
# required_z_horizon (2.02 for s1 at h = 0.01): on 2.12, criterion 9's
# perturbation on [-1, 0] is 6.3e-8 instead of 4.8e-6, too small to test.
PAIR_HORIZON = 30.1


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def s1():
    return s1_system(FLOW)


@pytest.fixture(scope="module")
def inversion_sweep():
    """100 random contraction specs with their round trips (criteria 1 and 2)."""
    rng = np.random.default_rng(12345)
    inv_tol = 1e-8
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_excess = -np.inf
    for _ in range(100):
        spec = random_contraction_spec(rng, FLOW, h=0.05, lam_max=0.7)
        est = spec.stability
        assert est.lam <= 0.7
        yhat = random_history(rng, spec.m, 0.05, 3.0)
        x = invert_Dhat(spec, P0, yhat, inv_tol)
        back = eval_Dhat_segment(spec, P0, x, yhat.J)
        worst_resid = max(
            worst_resid, float(np.max(np.abs(back.samples - yhat.samples)))
        )
        worst_excess = max(
            worst_excess, sup_norm(x) - est.k_bound * sup_norm(yhat)
        )
    runtime = time.perf_counter() - t0
    return worst_resid, worst_excess, runtime, inv_tol


def test_criterion_01_inversion_round_trip(inversion_sweep):
    worst_resid, _, runtime, inv_tol = inversion_sweep
    ok = worst_resid <= inv_tol + 1e-9 and runtime < 10.0
    report(
        1,
        ok,
        f"round-trip residual {worst_resid:.3e} <= {inv_tol + 1e-9:.3e} "
        f"over 100 specs in {runtime:.2f}s (< 10s)",
    )


def test_criterion_02_stability_bound(inversion_sweep):
    _, worst_excess, _, inv_tol = inversion_sweep
    ok = worst_excess <= inv_tol
    report(
        2,
        ok,
        f"max(||inverse|| - k_bound ||target||) = {worst_excess:.3e} <= {inv_tol:.1e}, "
        "zero violations",
    )


def test_criterion_03_positivity():
    rng = np.random.default_rng(4242)
    worst = np.inf
    for _ in range(100):
        spec = random_contraction_spec(rng, FLOW, nonneg=True)
        yhat = random_history(rng, spec.m, 0.05, 3.0, nonneg=True)
        x = invert_Dhat(spec, P0, yhat, 1e-8)
        worst = min(worst, float(np.min(x.samples)))
    ok = worst >= -1e-9
    report(3, ok, f"min component over 100 nonnegative targets = {worst:.3e} >= -1e-9")


def test_criterion_04_atom_extraction():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(1, 4))
        B = [
            [
                TrigPoly.from_terms(
                    (1.5 if i == j else 0.1) * rng.uniform(0.8, 1.2),
                    [([1], rng.normal() * 0.1, rng.normal() * 0.1)],
                )
                for j in range(m)
            ]
            for i in range(m)
        ]
        atoms = []
        for lag in (1.0, 1.7):
            w = [[TrigPoly.const(rng.uniform(-0.2, 0.2)) for _ in range(m)] for _ in range(m)]
            atoms.append(MeasureAtom(lag, w))
        spec = DOperatorSpec(m, B, AtomicMeasureFamily(tuple(atoms)), FLOW)
        p = TorusPoint(rng.random(1))
        got = extract_atom_at_zero(spec, p, 0.25)
        want = np.array([[eval_trig(B[i][j], p) for j in range(m)] for i in range(m)])
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    report(4, ok, f"max |probe - B(w)| = {worst:.3e} <= 1e-12 (min lag 1, rho 0.25)")


def test_criterion_05_scalar_geometric_oracle():
    spec = scalar_dspec(FLOW, 0.5, lag=1.0)
    const_target = constant_history([1.0], 0.05, 40.0)
    x1 = invert_Dhat(spec, P0, const_target, 1e-8)
    err1 = float(np.max(np.abs(x1.samples - 2.0)))
    lin_target = from_function(lambda s: s[:, None], 0.05, 40.0)
    x2 = invert_Dhat(spec, P0, lin_target, 1e-8)
    s = -0.05 * np.arange(101)
    err2 = float(np.max(np.abs(x2.sample_many(s)[:, 0] - (2.0 * s - 2.0))))
    ok = err1 <= 1e-8 and err2 <= 1e-7
    report(5, ok, f"constant target err {err1:.2e} <= 1e-8; linear target err {err2:.2e} <= 1e-7")


def test_criterion_06_cone_oracle_agreement():
    rng = np.random.default_rng(777)
    J, h = 100, 0.01
    disagreements = 0
    for trial in range(1000):
        m = int(rng.integers(1, 4))
        A = random_quasipositive(rng, m)
        cone = ConeSpec(A, float(rng.uniform(0.3, J * h)))
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
    ok = disagreements == 0
    report(6, ok, f"{disagreements} disagreements out of 1000 histories (J=100)")


@pytest.fixture(scope="module")
def mass_runs(s1):
    t0 = time.perf_counter()
    devs = {}
    m0 = None
    for h in (0.01, 0.005):
        cfg = SimConfig(h=h, t_end=100.0, log_stride=int(round(0.1 / h)))
        z0 = constant_history([2.0], h, required_z_horizon(s1, cfg) + 2 * h)
        log = run(s1, P0, z0, cfg)
        devs[h] = float(np.max(np.abs(log.M - log.M[0])))
        m0 = float(log.M[0])
    return devs, m0, time.perf_counter() - t0


def test_criterion_07_mass_conservation(mass_runs):
    devs, m0, runtime = mass_runs
    bound = 1e-4 * max(1.0, abs(m0))
    ratio = devs[0.01] / devs[0.005]
    ok = devs[0.01] <= bound and 3.0 <= ratio <= 6.0 and runtime < 30.0
    report(
        7,
        ok,
        f"max |M-M0| = {devs[0.01]:.3e} <= {bound:.1e}; halving ratio {ratio:.2f} in [3,6]; "
        f"runtime {runtime:.1f}s (< 30s)",
    )


def test_criterion_08_monotonicity_preserved(s1):
    rep = check_condition(s1, "G5", [-2.0])
    margin = rep.components[0].subs[0].min_margin
    cfg = SimConfig(h=0.01, t_end=100.0, log_stride=10, cone=CONE)
    z_x = from_function(
        lambda s: (2.0 + 0.3 * np.sin(0.8 * s))[:, None], cfg.h, PAIR_HORIZON
    )
    comp = make_comparison_upper(CONE, 1, step=cfg.h, horizon=z_x.horizon + 1.5)
    bump = invert_Dhat(s1.dspec, P0, comp.hist, 1e-8)
    z_y = HistoryGrid(cfg.h, z_x.samples + 0.3 * bump.samples[: z_x.J + 1])
    plog = run_ordered_pair(s1, P0, z_x, z_y, cfg)
    worst = float(np.min(plog.cone_margin))
    ok = rep.passed and margin >= 0.5 and worst >= -1e-7
    report(
        8,
        ok,
        f"G5 margin {margin:.6f} >= 0.5; transformed cone margin over [0,100] "
        f"min {worst:.3e} >= -1e-7",
    )


def test_criterion_09_equal_mass_collapse(s1):
    a = -2.0
    cfg = SimConfig(h=0.01, t_end=40.0, log_stride=10, cone=CONE)
    z_x = from_function(
        lambda s: (2.0 + 0.3 * np.sin(0.8 * s))[:, None], cfg.h, PAIR_HORIZON
    )
    # ordered bump placed far enough back that the masses nearly agree;
    # its decay rate 0.9|a| keeps it strictly inside the cone
    vhat = from_function(
        lambda s: np.minimum(np.exp(0.9 * a * (s + 11.0)), 1.0)[:, None],
        cfg.h,
        PAIR_HORIZON,
    )
    delta = invert_Dhat(s1.dspec, P0, vhat, 1e-10)
    z_y = HistoryGrid(cfg.h, z_x.samples + delta.samples[: z_x.J + 1])
    mass_gap = total_mass(s1, P0, z_y) - total_mass(s1, P0, z_x)
    plog = run_ordered_pair(s1, P0, z_x, z_y, cfg)
    gap_max = float(np.max(np.abs(plog.d_gap)))
    late = plog.t >= 30.0
    z_late = float(np.max(plog.z_diff_sup[late]))
    gap_bound_ok = float(np.max(plog.d_gap)) <= mass_gap + 1e-7 and float(
        np.min(plog.d_gap)
    ) >= -1e-7
    ok = gap_max <= 1e-5 and z_late <= 1e-5 and abs(mass_gap) <= 1e-5 and gap_bound_ok
    report(
        9,
        ok,
        f"mass gap {mass_gap:.2e}; max |D-gap| {gap_max:.2e} <= 1e-5 "
        f"(and <= mass gap + 1e-7); sup|zy-zx| at t>=30 {z_late:.2e} <= 1e-5",
    )


def test_criterion_10_checker_exactness(s1):
    thetas = sample_thetas(FLOW)
    margins = condition_margins(s1, "G5", [-2.0], thetas)[0]["G5"]
    cvals = eval_trig_many(s1.c[0], thetas)
    err = float(np.max(np.abs(margins - (1.0 - cvals))))
    from .conftest import const_c_system

    g3sys = const_c_system(FLOW, c0=0.1, gain=1.0, alpha=1.0, rho=2.0)
    rep = check_condition(g3sys, "G3", [-2.0])
    sub = {sm.name: sm for sm in rep.components[0].subs}
    g31 = sub["G3.1"].min_margin
    want = (2.0 - 1.0) * math.exp(-2.0) - 0.1
    ok = err <= 1e-12 and abs(g31 - 0.03533528) <= 1e-8 and abs(g31 - want) <= 1e-14
    report(
        10,
        ok,
        f"G5 margin vs hand formula max err {err:.2e} <= 1e-12; "
        f"G3.1 example margin {g31:.8f} = 0.03533528 +/- 1e-8",
    )


def test_criterion_11_integrator_order(s1):
    h_ref = 0.0025
    warm_T = 40.0
    cfg_w = SimConfig(h=h_ref, t_end=warm_T, log_stride=10**9)
    z_plain = constant_history([2.0], h_ref, required_z_horizon(s1, cfg_w) + 2 * h_ref)
    warm = run(s1, P0, z_plain, cfg_w).final_state
    need = required_z_horizon(s1, SimConfig(h=0.02, t_end=10.0)) + 0.1
    Jz = int(round(need / h_ref))
    z_init_ref = HistoryGrid(h_ref, warm.X[warm.k - Jz : warm.k + 1][::-1])
    p_warm = TorusPoint(np.mod(P0.theta + warm_T * FLOW.freqs, 1.0))
    finals = {}
    for h in (0.02, 0.01, h_ref):
        sub = int(round(h / h_ref))
        z_init = HistoryGrid(h, z_init_ref.samples[::sub])
        log = run(s1, p_warm, z_init, SimConfig(h=h, t_end=10.0, log_stride=10**9))
        finals[h] = log.zhat[-1, 0]
    e1 = abs(finals[0.02] - finals[h_ref])
    e2 = abs(finals[0.01] - finals[h_ref])
    ratio = e1 / e2
    ok = 8.0 <= ratio <= 32.0
    report(
        11,
        ok,
        f"self-convergence errors {e1:.2e} / {e2:.2e}, ratio {ratio:.2f} in [8, 32]",
    )


def test_criterion_12_covering_diagnostic(s1):
    # reference-run scale chosen so the absolute thresholds below are
    # commensurate with the trajectory amplitude; the trend claim is
    # scale-free and nothing here is a proof of the limiting behavior
    cfg = SimConfig(h=0.02, t_end=600.0, log_stride=5)
    z0 = constant_history([0.6], cfg.h, required_z_horizon(s1, cfg) + 0.1)
    log = run(s1, P0, z0, cfg)
    e_by_tol = {}
    for tol in (1e-1, 3e-2, 1e-2):
        rep = covering_diagnostic(log, FLOW, P0, tol, window=50.0, t_min=100.0)
        e_by_tol[tol] = rep.e_max
    monotone = e_by_tol[1e-1] >= e_by_tol[3e-2] >= e_by_tol[1e-2]
    ok = monotone and e_by_tol[1e-2] <= 1e-2
    report(
        12,
        ok,
        "e_max by return_tol: "
        + ", ".join(f"{t:g}: {e_by_tol[t]:.3e}" for t in (1e-1, 3e-2, 1e-2))
        + f"; monotone={monotone}; e(1e-2) <= 1e-2 (evidence only, not a proof)",
    )
