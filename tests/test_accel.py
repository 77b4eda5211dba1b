"""Accelerated recursion: modes, schedules, bounds, perturbation."""

from types import SimpleNamespace

import numpy as np
import pytest

from pdsplit import bench, linops
from pdsplit.accel import (
    BOUNDED_CHECK_UP_TO,
    AccelParams,
    AccelResult,
    AccelState,
    Schedule,
    ScheduleTable,
    accel_step,
    bounded_gap_bound,
    build_schedule,
    mode_coefficients,
    mode_factors,
    run_accel,
    tune_qr,
)
from pdsplit.errors import ConstraintViolation, UnknownKind
from pdsplit.fb import RunResult, fb_step
from pdsplit.prox import BoxClip
from pdsplit.saddle import primal_objective
from pdsplit.stoch import StocParams, masked_oracle_factory, run_stoc, stoc_gap_bound

import oracles
from conftest import counted_coupling_problem


def test_mode_factors_closed_forms():
    assert mode_factors("kappa", 0.0) == (0.0, 0.0, 1.0, 1.0)
    assert mode_factors("kappa", 1.0) == (1.0, 1.0, 0.0, 2.0)
    assert mode_factors("kappa", 0.5) == (0.5, 0.5, 0.5, 1.5)
    assert mode_factors("kappa", -1.0) == (1.0, 1.0, 2.0, 0.0)
    assert mode_factors("chen") == (1.0, 0.0, 0.0, 1.0)


def test_mode_factors_reject_bad_inputs():
    with pytest.raises(ConstraintViolation):
        mode_factors("kappa", 1.5)
    with pytest.raises(UnknownKind):
        mode_factors("nesterov")


def test_mode_coefficients_closed_forms():
    assert mode_coefficients("kappa", 0.5) == (0.5, 0.5)
    assert mode_coefficients("kappa", -1.0) == (-1.0, -1.0)
    assert mode_coefficients("chen") == (1.0, 0.0)


def _bounded(problem, mode="kappa", kappa=0.0, q=0.5, r=0.25, ox=2.0, oy=3.0):
    return Schedule.build("bounded", problem.L_f, problem.k_norm,
                          mode_factors(mode, kappa), q=q, r=r, omega_x=ox,
                          omega_y=oy)


def test_schedule_first_step_laws(dense_problem):
    problem, _, _, _ = dense_problem
    sched = _bounded(problem)
    assert sched.rho(1) == 1.0
    assert sched.theta(1) == 0.0


def test_schedule_laws_are_the_closed_forms(dense_problem):
    problem, _, _, _ = dense_problem
    sched = _bounded(problem)
    ks = np.arange(1, 201)
    np.testing.assert_array_equal(sched.rho(ks), [oracles.averaging_weight(k) for k in ks])
    np.testing.assert_array_equal(sched.theta(ks),
                                  [oracles.extrapolation_factor(k) for k in ks])
    assert sched.rho(7) == oracles.averaging_weight(7)
    assert sched.theta(7) == oracles.extrapolation_factor(7)


def test_averaging_extrapolation_recursion_is_exact(dense_problem):
    problem, _, _, _ = dense_problem
    sched = _bounded(problem)
    ks = np.arange(1, 1001, dtype=float)
    lhs = 1.0 / sched.rho(ks + 1) - 1.0
    rhs = sched.theta(ks + 1) / sched.rho(ks)
    np.testing.assert_allclose(lhs, rhs, rtol=4 * np.finfo(float).eps)


def test_bounded_schedule_matches_closed_forms(dense_problem):
    problem, _, _, _ = dense_problem
    q, r, ox, oy = 0.3, 0.2, 2.5, 1.5
    for mode, kappa in (("kappa", 0.0), ("kappa", 0.5), ("kappa", 1.0),
                        ("chen", 0.0)):
        factors = mode_factors(mode, kappa)
        sched = Schedule.build("bounded", problem.L_f, problem.k_norm, factors,
                               q=q, r=r, omega_x=ox, omega_y=oy)
        p_ref, q_ref = oracles.bounded_constants(*factors, q, r)
        assert sched.P == pytest.approx(p_ref, rel=1e-15)
        assert sched.Q == pytest.approx(q_ref, rel=1e-15)
        for k in (1, 7, 100):
            assert sched.tau(k) == pytest.approx(
                oracles.bounded_tau(k, p_ref, q_ref, problem.L_f,
                                    problem.k_norm, ox, oy),
                rel=1e-15,
            )
            assert sched.sigma(k) == pytest.approx(
                oracles.bounded_sigma(problem.k_norm, ox, oy), rel=1e-15
            )


def test_bounded_q_constant_special_cases():
    q, r = 0.4, 0.3
    _, q_plain = oracles.bounded_constants(*mode_factors("kappa", 0.0), q, r)
    assert q_plain == pytest.approx(2.0 / (1.0 - r))
    _, q_chen = oracles.bounded_constants(*mode_factors("chen"), q, r)
    assert q_chen == pytest.approx(1.0 / ((1.0 - q) * r))


def test_unbounded_schedule_matches_closed_forms(dense_problem):
    problem, _, _, _ = dense_problem
    q, r, horizon = 0.3, 0.2, 500
    for mode, kappa in (("kappa", 0.0), ("kappa", 1.0), ("chen", 0.0)):
        factors = mode_factors(mode, kappa)
        sched = Schedule.build("unbounded", problem.L_f, problem.k_norm,
                               factors, q=q, r=r, horizon=horizon)
        p_ref, q_ref = oracles.unbounded_constants(*factors, q, r)
        assert sched.Q == pytest.approx(q_ref, rel=1e-15)
        assert sched.Q >= 1.0
        for k in (1, 13, horizon):
            assert sched.tau(k) == pytest.approx(
                oracles.unbounded_tau(k, p_ref, q_ref, problem.L_f,
                                      problem.k_norm, horizon),
                rel=1e-15,
            )
            assert sched.sigma(k) == pytest.approx(
                oracles.unbounded_sigma(k, problem.k_norm, horizon), rel=1e-15
            )


def test_unbounded_step_ratio_is_constant(dense_problem):
    problem, _, _, _ = dense_problem
    sched = Schedule.build("unbounded", problem.L_f, problem.k_norm,
                           mode_factors("kappa", 1.0), q=0.5, r=0.25,
                           horizon=200)
    ks = np.arange(1, 201, dtype=float)
    ratios = sched.tau(ks) / sched.sigma(ks)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-14)


def test_unbounded_vanishing_loss_step():
    factors = mode_factors("kappa", 1.0)
    sched = Schedule.build("unbounded", l_f=0.0, k_norm=2.0, factors=factors,
                           q=0.5, r=0.25, horizon=100)
    q_ref = sched.Q
    assert sched.tau(10) == pytest.approx(10.0 / (q_ref * 100 * 2.0))


def test_dual_step_chain_matches_extrapolation(dense_problem):
    problem, _, _, _ = dense_problem
    unb = Schedule.build("unbounded", problem.L_f, problem.k_norm,
                         mode_factors("kappa", 0.5), q=0.5, r=0.25, horizon=100)
    bnd = _bounded(problem, kappa=0.5)
    for k in range(2, 60):
        assert unb.sigma(k - 1) / unb.sigma(k) == pytest.approx(unb.theta(k))
        assert bnd.tau(k - 1) / bnd.tau(k) >= bnd.theta(k) - 1e-15


def test_condition_margins_match_oracle(dense_problem):
    problem, _, _, _ = dense_problem
    q, r = 0.35, 0.3
    for mode, kappa in (("kappa", 0.7), ("chen", 0.0)):
        factors = mode_factors(mode, kappa)
        sched = Schedule.build("bounded", problem.L_f, problem.k_norm, factors,
                               q=q, r=r, omega_x=2.0, omega_y=3.0)
        for k in (1, 5, 50, 5000):
            m1, m2 = sched.condition_margins(k)
            o1, o2 = oracles.momentum_conditions(
                sched.tau(k), sched.sigma(k), sched.rho(k), problem.L_f,
                problem.k_norm, *factors, q, r
            )
            assert m1 == pytest.approx(o1, rel=1e-12, abs=1e-12)
            assert m2 == pytest.approx(o2, rel=1e-12, abs=1e-12)
            assert m1 >= -1e-12 and m2 >= -1e-12


def test_assert_conditions_flags_tampered_schedule(dense_problem):
    problem, _, _, _ = dense_problem
    sched = _bounded(problem, kappa=0.5)
    sched.Q *= 0.4
    with pytest.raises(ConstraintViolation):
        sched.assert_conditions(np.arange(1, 10001))


def test_bounded_gap_bound_matches_oracle(dense_problem):
    problem, _, _, _ = dense_problem
    sched = _bounded(problem, kappa=0.5, q=0.3, r=0.2, ox=2.5, oy=1.5)
    for k in (2, 10, 1000):
        assert bounded_gap_bound(sched, k) == pytest.approx(
            oracles.bounded_gap(k, sched.P, sched.Q, problem.L_f,
                                problem.k_norm, 2.5, 1.5),
            rel=1e-15,
        )
    with pytest.raises(ConstraintViolation):
        bounded_gap_bound(sched, 1)


def _bounded_instance(spec):
    """A problem with its reference solution and ``auto_norm_bounds`` omegas."""
    problem = bench.generate(spec).problem
    omega_x, omega_y, _ = bench.auto_norm_bounds(problem)
    return problem, bench.reference_solve(problem), omega_x, omega_y


@pytest.fixture(scope="module")
def bounded_lasso():
    """A lasso with its reference objective and ``auto_norm_bounds`` omegas."""
    return _bounded_instance(bench.SyntheticSpec(kind="lasso", seed=3, n_samples=40, dim=30))


@pytest.fixture(scope="module")
def bounded_overlapping():
    """An overlapping group lasso (6 groups of 15), whose dual set is a
    product of balls, with its reference and omegas."""
    return _bounded_instance(bench.SyntheticSpec(
        kind="overlapping-group-lasso", seed=3, n_groups=6, group_size=15, n_samples=80))


def _dual_set_radius(hconj):
    """The largest norm in the dual set: the corner of the lasso's box, or
    the stacked radii of the group balls."""
    if isinstance(hconj, BoxClip):
        return hconj.lam * np.sqrt(hconj.dim)
    return np.sqrt(np.sum(hconj.radii**2))


_MODES = [("kappa", -1.0), ("kappa", 0.0), ("kappa", 0.5), ("kappa", 1.0), ("chen", 0.0)]


@pytest.mark.parametrize("instance, mode, kappa", [
    *(pytest.param("bounded_lasso", *m, id=f"{m[0]}-{m[1]}") for m in _MODES),
    *(pytest.param("bounded_overlapping", *m, id=f"overlapping-{m[0]}-{m[1]}") for m in _MODES),
])
def test_bounded_run_stays_under_its_gap_bound(request, instance, mode, kappa):
    problem, reference, omega_x, omega_y = request.getfixturevalue(instance)
    # With x* in the omega_x ball and the whole dual set (every maximizer of
    # the Lagrangian in y) in the omega_y ball, the primal suboptimality of
    # the averaged point is at most the restricted gap that the bound caps.
    assert not reference.best_effort
    assert np.linalg.norm(reference.x) <= omega_x
    assert _dual_set_radius(problem.hconj) <= omega_y
    params = AccelParams(mode=mode, kappa=kappa, omega_x=omega_x, omega_y=omega_y,
                         max_iters=400)
    res = run_accel(problem, params)
    ks = res.trace.column("k")
    assert np.array_equal(ks, np.arange(1, 401))
    gap = res.trace.column("ergodic_objective") - reference.objective
    for k, value in zip(ks[1:], gap[1:]):
        assert value <= bounded_gap_bound(res.schedule, k), k


@pytest.mark.parametrize("horizon", [100, 400])
@pytest.mark.parametrize("mode, kappa", [("kappa", 1.0), ("chen", 0.0)])
def test_bounded_noisy_runs_stay_under_their_gap_bound_in_expectation(bounded_lasso, mode,
                                                                       kappa, horizon):
    problem, reference, omega_x, omega_y = bounded_lasso
    # The restricted gap that the bound caps is at least the primal
    # suboptimality, as in the deterministic test above.
    assert np.linalg.norm(reference.x) <= omega_x
    assert problem.hconj.lam * np.sqrt(problem.dims[1]) <= omega_y
    params = StocParams(mode=mode, kappa=kappa, omega_x=omega_x, omega_y=omega_y,
                        horizon=horizon, record_every=horizon)
    seeds = list(range(16))
    res = run_stoc(problem, params, masked_oracle_factory(problem, params, 0.5), seeds)
    gaps = np.array([primal_objective(problem, run.x) for run in res.runs]) - reference.objective
    # The bound holds in expectation: the seed mean may exceed the expected
    # gap by three standard errors of the mean.
    stderr = gaps.std(ddof=1) / np.sqrt(len(seeds))
    assert gaps.mean() + 3.0 * stderr <= stoc_gap_bound(res.schedule)


def test_schedule_constructors_reject_bad_settings(dense_problem):
    problem, _, _, _ = dense_problem
    factors = mode_factors("kappa", 0.5)
    bounded = dict(setting="bounded", l_f=problem.L_f, factors=factors, r=0.25)
    unbounded = dict(setting="unbounded", l_f=problem.L_f,
                     k_norm=problem.k_norm, factors=factors, q=0.5)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**bounded, k_norm=problem.k_norm, q=0.5, omega_x=-1.0,
                       omega_y=1.0)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**bounded, k_norm=problem.k_norm, q=1.5, omega_x=1.0,
                       omega_y=1.0)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**unbounded, r=0.25, horizon=1)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**unbounded, r=0.75, horizon=100)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**bounded, k_norm=0.0, q=0.5, omega_x=1.0, omega_y=1.0)


@pytest.mark.parametrize("name", ["omega_x", "omega_y"])
@pytest.mark.parametrize("value", [True, np.inf, np.nan, "a", None, 0.0])
def test_bounded_schedules_refuse_a_bound_that_is_not_finite_and_positive(dense_problem,
                                                                          name, value):
    problem, _, _, _ = dense_problem
    factors = mode_factors("kappa", 0.5)
    bounds = {"omega_x": 2.0, "omega_y": 3.0, name: value}
    with pytest.raises(ConstraintViolation, match=name):
        Schedule.build("bounded", problem.L_f, problem.k_norm, factors, 0.5, 0.25, **bounds)
    with pytest.raises(ConstraintViolation, match=name):
        tune_qr("bounded", problem.L_f, problem.k_norm, factors, 100, **bounds)


@pytest.mark.parametrize("name", ["q", "r", "s", "t"])
@pytest.mark.parametrize("value", [True, False, "a", np.nan, 0.5j, None])
def test_schedules_refuse_a_splitting_parameter_that_is_not_a_finite_number(dense_problem,
                                                                           name, value):
    problem, _, _, _ = dense_problem
    factors = mode_factors("kappa", 0.5)
    splitting = {"q": 0.5, "r": 0.25, "s": 1.0, "t": 1.0, name: value}
    with pytest.raises(ConstraintViolation, match=f"^{name} must be a finite number"):
        Schedule.build("bounded", problem.L_f, problem.k_norm, factors, omega_x=2.0,
                       omega_y=3.0, **splitting)
    if name in ("q", "r"):
        with pytest.raises(ConstraintViolation, match=f"^{name} must be a finite number"):
            params = AccelParams(setting="bounded", omega_x=2.0, omega_y=3.0, max_iters=2,
                                 **{name: value})
            run_accel(problem, params)


def test_mode_coefficients_refuse_a_kappa_that_is_not_a_number():
    for kappa in (True, np.nan, "0.5"):
        with pytest.raises(ConstraintViolation, match="kappa"):
            mode_coefficients("kappa", kappa)


def test_build_schedule_requires_setting_inputs(dense_problem):
    problem, _, _, _ = dense_problem
    with pytest.raises(ConstraintViolation):
        build_schedule(problem, AccelParams(setting="bounded"))
    with pytest.raises(ConstraintViolation):
        build_schedule(problem, AccelParams(setting="unbounded"))
    with pytest.raises(UnknownKind):
        build_schedule(problem, AccelParams(setting="adaptive", horizon=10))


def test_schedules_assert_their_inequalities_on_the_indices_they_serve(
        dense_problem, monkeypatch):
    problem, _, _, _ = dense_problem
    checked = []
    monkeypatch.setattr(Schedule, "assert_conditions",
                        lambda self, ks: checked.append((ks[0], ks[-1])))
    factors = mode_factors("kappa", 1.0)
    args = ("bounded", problem.L_f, problem.k_norm, factors)
    Schedule.build(*args, q=0.5, r=0.25, omega_x=2.0, omega_y=3.0)
    Schedule.build("unbounded", *args[1:], q=0.5, r=0.25, horizon=40)
    Schedule.build(*args, q=0.25, r=0.2, s=0.75, t=0.8, horizon=40, omega_x=2.0,
                   omega_y=3.0, chi_x=0.5, chi_y=0.5)
    assert BOUNDED_CHECK_UP_TO == 10000
    assert checked == [(1, BOUNDED_CHECK_UP_TO), (1, 40), (1, 39)]


def test_tune_qr_matches_grid_rescan():
    l_f, k_norm, horizon, ox, oy = 2.0, 1.5, 200, 2.0, 3.0
    grid = np.arange(1, 100) * 0.01
    for mode, kappa, setting in (("kappa", 0.5, "bounded"),
                                 ("chen", 0.0, "unbounded")):
        factors = mode_factors(mode, kappa)
        got_q, got_r = tune_qr(setting, l_f, k_norm, factors, horizon,
                               omega_x=ox, omega_y=oy)
        best = (np.inf, None, None)
        r_grid = grid if setting == "bounded" else grid[grid < 0.5]
        for q in grid:
            for r in r_grid:
                if setting == "bounded":
                    p_c, q_c = oracles.bounded_constants(*factors, q, r)
                    val = oracles.bounded_gap(horizon, p_c, q_c, l_f, k_norm,
                                              ox, oy)
                else:
                    p_c, q_c = oracles.unbounded_constants(*factors, q, r)
                    val = oracles.unbounded_energy(p_c, q_c, l_f, k_norm,
                                                   horizon, q, r)
                if val < best[0] - 1e-18:
                    best = (val, q, r)
        assert got_q == pytest.approx(best[1])
        assert got_r == pytest.approx(best[2])


def test_tune_qr_minimizes_coupling_constant_without_curvature():
    factors = mode_factors("chen")
    q, r = tune_qr("bounded", 0.0, 1.0, factors, 100, omega_x=1.0,
                   omega_y=1.0)
    # With no curvature term the bounded objective is monotone in Q alone,
    # and Q = 1 / ((1 - q) r) for this mode is smallest at the grid corner.
    assert (q, r) == (0.01, 0.99)


def test_accel_step_at_first_index_equals_base_step(dense_problem):
    problem, _, _, _ = dense_problem
    rng = np.random.default_rng(60)
    x = rng.standard_normal(6)
    y = np.clip(rng.standard_normal(4), -1.0, 1.0)
    for kappa in (0.0, 0.5, 1.0):
        sched = _bounded(problem, kappa=kappa)
        alpha, beta = mode_coefficients("kappa", kappa)
        state = AccelState.start(x, y)
        new = accel_step(problem, alpha, beta, sched, 1, state)
        xt, yt = fb_step(problem, kappa, sched.tau(1), sched.sigma(1), x, y)
        np.testing.assert_allclose(new.xt, xt, atol=1e-12)
        np.testing.assert_allclose(new.yt, yt, atol=1e-12)


def _oracle_pieces(a, b, k, lam):
    grad = lambda x: a.T @ (a @ x - b)
    prox_fn = lambda v, s: np.clip(v, -lam, lam)
    return grad, prox_fn


def test_run_accel_matches_general_recursion_oracle(dense_problem):
    problem, a, b, k = dense_problem
    grad, prox_fn = _oracle_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(61)
    x0 = rng.standard_normal(6)
    y0 = np.clip(rng.standard_normal(4), -1.0, 1.0)
    for mode, kappa in (("kappa", 0.0), ("kappa", 0.5), ("kappa", 1.0),
                        ("kappa", -0.5), ("kappa", -1.0)):
        for setting in ("bounded", "unbounded"):
            params = AccelParams(mode=mode, kappa=kappa, setting=setting,
                                 omega_x=2.0, omega_y=3.0, horizon=40,
                                 max_iters=40)
            res = run_accel(problem, params, x0=x0, y0=y0)
            sched = res.schedule
            ox, oy, oxt, oyt, _ = oracles.accel_run_dense(
                grad, k, prox_fn, -kappa * k, kappa * k, sched.tau,
                sched.sigma, x0, y0, 40
            )
            np.testing.assert_allclose(res.x, ox, atol=1e-12)
            np.testing.assert_allclose(res.y, oy, atol=1e-12)
            np.testing.assert_allclose(res.x_tilde, oxt, atol=1e-12)
            np.testing.assert_allclose(res.y_tilde, oyt, atol=1e-12)


def test_run_accel_chen_matches_six_line_oracle(dense_problem):
    problem, a, b, k = dense_problem
    grad, prox_fn = _oracle_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(62)
    x0 = rng.standard_normal(6)
    y0 = np.clip(rng.standard_normal(4), -1.0, 1.0)
    for setting in ("bounded", "unbounded"):
        params = AccelParams(mode="chen", setting=setting, omega_x=2.0,
                             omega_y=3.0, horizon=40, max_iters=40)
        res = run_accel(problem, params, x0=x0, y0=y0)
        sched = res.schedule
        ox, oy, oxt, oyt = oracles.gradient_extrapolation_run_dense(
            grad, k, prox_fn, sched.tau, sched.sigma, x0, y0, 40
        )
        np.testing.assert_allclose(res.x, ox, atol=1e-12)
        np.testing.assert_allclose(res.y, oy, atol=1e-12)
        np.testing.assert_allclose(res.x_tilde, oxt, atol=1e-12)
        np.testing.assert_allclose(res.y_tilde, oyt, atol=1e-12)


def test_run_accel_returns_a_run_result_of_its_own_class(dense_problem):
    problem = dense_problem[0]
    for mode, setting in (("kappa", "bounded"), ("chen", "unbounded")):
        params = AccelParams(mode=mode, setting=setting, omega_x=2.0, omega_y=3.0,
                             horizon=5, max_iters=5)
        result = run_accel(problem, params)
        assert type(result) is AccelResult and isinstance(result, RunResult)


def test_run_accel_replays_step_loop(dense_problem):
    problem, _, _, _ = dense_problem
    rng = np.random.default_rng(63)
    x0 = rng.standard_normal(6)
    y0 = np.clip(rng.standard_normal(4), -1.0, 1.0)
    for mode, kappa, setting in (("kappa", 0.5, "bounded"),
                                 ("chen", 0.0, "unbounded")):
        params = AccelParams(mode=mode, kappa=kappa, setting=setting,
                             omega_x=2.0, omega_y=3.0, horizon=30,
                             max_iters=30, record_every=7)
        res = run_accel(problem, params, x0=x0, y0=y0)
        alpha, beta = mode_coefficients(mode, kappa)
        state = AccelState.start(x0, y0)
        for k in range(1, 31):
            state = accel_step(problem, alpha, beta, res.schedule, k, state)
        for got, want in ((res.x, state.x), (res.y, state.y),
                          (res.x_tilde, state.xt), (res.y_tilde, state.yt)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(res.trace.column("k"), [7, 14, 21, 28, 30])


@pytest.mark.parametrize("mode, kappa, per_step", [
    ("kappa", 0.5, (2, 2)),
    ("kappa", -0.5, (2, 2)),
    ("kappa", 1.0, (1, 2)),
    ("chen", 0.0, (1, 2)),
])
def test_run_accel_makes_folded_coupling_products(mode, kappa, per_step):
    problem, coupling = counted_coupling_problem()
    n = 12
    params = AccelParams(mode=mode, kappa=kappa, setting="bounded",
                         omega_x=2.0, omega_y=3.0, max_iters=n, record_every=n)
    run_accel(problem, params)
    # The single trace row evaluates ``K`` at the resolvent and averaged points.
    assert (coupling.forward - 2, coupling.adjoint) == (per_step[0] * n,
                                                        per_step[1] * n)


def test_run_accel_zero_iterations_returns_start(tiny_lasso):
    x0 = np.ones(tiny_lasso.problem.dims[0])
    params = AccelParams(mode="chen", setting="bounded", omega_x=2.0,
                         omega_y=2.0, max_iters=0)
    res = run_accel(tiny_lasso.problem, params, x0=x0)
    np.testing.assert_array_equal(res.x, x0)
    assert res.iterations == 0
    assert len(res.trace) == 0


def test_run_accel_unbounded_runs_horizon_steps(tiny_lasso):
    params = AccelParams(mode="kappa", kappa=1.0, setting="unbounded",
                         horizon=25)
    res = run_accel(tiny_lasso.problem, params)
    assert res.iterations == 25
    capped = AccelParams(mode="kappa", kappa=1.0, setting="unbounded",
                         horizon=25, max_iters=10)
    assert run_accel(tiny_lasso.problem, capped).iterations == 10


def test_horizon_must_be_an_integer(tiny_lasso):
    problem = tiny_lasso.problem
    for horizon in (10.7, 10.0, np.float64(10.0), True):
        with pytest.raises(ConstraintViolation):
            params = AccelParams(setting="unbounded", horizon=horizon)
            run_accel(problem, params)
        with pytest.raises(ConstraintViolation):
            tune_qr("unbounded", problem.L_f, problem.k_norm, mode_factors("kappa"),
                    horizon)
    res = run_accel(problem, AccelParams(setting="unbounded", horizon=np.int64(10)))
    assert res.iterations == 10 and res.schedule.horizon == 10


def test_run_accel_trace_records_schedule_values(tiny_lasso):
    params = AccelParams(mode="kappa", kappa=0.0, setting="bounded",
                         omega_x=2.0, omega_y=2.0, max_iters=20,
                         record_every=6)
    res = run_accel(tiny_lasso.problem, params)
    ks = res.trace.column("k")
    np.testing.assert_array_equal(ks, [6, 12, 18, 20])
    for col, fn in (("tau_k", res.schedule.tau), ("sigma_k",
                                                  res.schedule.sigma),
                    ("rho_k", res.schedule.rho)):
        np.testing.assert_allclose(res.trace.column(col), fn(ks), rtol=1e-15)


def test_four_modes_agree_on_tiny_lasso(tiny_lasso, tiny_lasso_reference):
    problem = tiny_lasso.problem
    ox, oy, _ = bench.auto_norm_bounds(problem)
    finals = []
    for mode, kappa in (("kappa", 0.0), ("kappa", 0.5), ("kappa", 1.0),
                        ("chen", 0.0)):
        for setting in ("bounded", "unbounded"):
            params = AccelParams(mode=mode, kappa=kappa, setting=setting,
                                 omega_x=ox, omega_y=oy, horizon=2000,
                                 max_iters=2000, record_every=2000)
            res = run_accel(problem, params)
            finals.append(primal_objective(problem, res.x))
    f_star = tiny_lasso_reference.objective
    assert (max(finals) - min(finals)) / abs(f_star) <= 1e-4
    assert max(finals) <= f_star * (1.0 + 1e-3) + 1e-9


def _perturbation(problem, params, res, anchor):
    """The perturbation of an unbounded run from zero: the norm of
    ``oracles.perturbation_vector`` at its last index, with the envelope of
    ``oracles.perturbation_envelope``.  The first and the last two resolvent
    pairs come from an ``accel_step`` replay of the run, which
    ``test_run_accel_replays_step_loop`` pins to the run bitwise."""
    alpha, beta = mode_coefficients(params.mode, params.kappa)
    sched, n = res.schedule, res.iterations
    state = AccelState.start(*(np.zeros(d) for d in problem.dims))
    for step in range(1, n + 1):
        state = accel_step(problem, alpha, beta, sched, step, state)
        if step == 1:
            first = (state.xt, state.yt)
    assert state.xt.tobytes() == res.x_tilde.tobytes()
    k = oracles.densify(problem.K)
    v_x, v_y = oracles.perturbation_vector(
        -alpha * k, beta * k, k, sched.tau(n), sched.sigma(n), sched.rho(n),
        *first, state.xt, state.yt, state.xt_prev, state.yt_prev)
    return SimpleNamespace(v_norm=float(np.sqrt(v_x @ v_x + v_y @ v_y)),
                           **oracles.perturbation_envelope(res, first, anchor))


def test_perturbation_shrinks_with_horizon(tiny_lasso, tiny_lasso_reference):
    problem = tiny_lasso.problem
    ref = tiny_lasso_reference
    stats = {}
    for horizon in (100, 200, 1000):
        params = AccelParams(mode="kappa", kappa=1.0, setting="unbounded",
                             horizon=horizon)
        res = run_accel(problem, params)
        diag = _perturbation(problem, params, res, (ref.x, ref.y))
        assert diag.v_norm <= diag.v_norm_bound
        stats[horizon] = diag
    assert stats[1000].v_norm < stats[100].v_norm
    assert stats[1000].eps < stats[200].eps < stats[100].eps
    ratio = stats[200].eps / stats[100].eps
    assert 0.2 < ratio < 0.55


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_table_matches_scalar_calls(schedule, n):
    table = ScheduleTable(schedule, n)
    for law in ("tau", "sigma", "rho", "theta"):
        got = [getattr(table, law)(k) for k in range(1, n + 1)]
        want = [getattr(schedule, law)(k) for k in range(1, n + 1)]
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_tabulated_schedule_is_bitwise_the_scalar_laws(tiny_lasso):
    problem = tiny_lasso.problem
    l_f, k_norm = problem.L_f, problem.k_norm
    n = 2000
    for mode, kappa in (("kappa", 0.5), ("chen", 0.0)):
        factors = mode_factors(mode, kappa)
        bounded = Schedule.build("bounded", l_f, k_norm, factors, q=0.5, r=0.25,
                                 omega_x=2.0, omega_y=3.0)
        _assert_table_matches_scalar_calls(bounded, n)
        unbounded = Schedule.build("unbounded", l_f, k_norm, factors, q=0.5,
                                   r=0.25, horizon=n)
        _assert_table_matches_scalar_calls(unbounded, n)
    # A horizon-N noisy run executes k = 1 .. N - 1.
    factors = mode_factors("kappa", 1.0)
    splitting = dict(q=0.25, r=0.2, s=0.75, t=0.8, horizon=n, chi_x=0.5, chi_y=0.3)
    noisy = (
        Schedule.build("bounded", l_f, k_norm, factors, **splitting, omega_x=2.0,
                       omega_y=3.0),
        Schedule.build("unbounded", l_f, k_norm, factors, **splitting, r_tilde=2.5),
    )
    for schedule in noisy:
        _assert_table_matches_scalar_calls(schedule, n - 1)
    assert np.isnan(ScheduleTable(bounded, 3).tau(0))
