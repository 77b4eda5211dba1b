"""Stochastic variant: oracles, noisy schedules, multi-seed runner."""

import threading

import numpy as np
import pytest

from pdsplit import bench, stoch
from pdsplit.accel import (
    AccelResult,
    AccelState,
    Schedule,
    accel_step,
    mode_coefficients,
    mode_factors,
)
from pdsplit.errors import (
    ConstraintViolation,
    NonFiniteIterate,
    UnknownKind,
    UnsupportedMode,
)
from pdsplit.fb import RunResult
from pdsplit.prox import BoxClip
from pdsplit.saddle import SaddleProblem, primal_objective, quadratic_loss
from pdsplit.stoch import (
    MaskedGradOracle,
    StocParams,
    StocResult,
    StochasticOracle,
    build_stoc_schedule,
    check_proven_mode,
    masked_oracle_factory,
    run_stoc,
    stoc_accel_step,
    stoc_gap_bound,
)

import oracles
from conftest import (
    CountingDenseOp,
    counted_coupling_problem,
    identity_lasso_problem,
    make_dense_problem,
)


def _masked(problem, pi, seed=0, radius=1.0):
    return MaskedGradOracle(problem, pi, seed, radius=radius)


def test_masked_gradient_is_unbiased():
    rng = np.random.default_rng(70)
    a = rng.standard_normal((6, 4))
    problem = identity_lasso_problem(a, rng.standard_normal(6), 1.0)
    oracle = _masked(problem, 0.4, seed=7)
    x = rng.standard_normal(4)
    exact = problem.loss.grad(x)
    draws = np.array([oracle.grad(x) for _ in range(10000)])
    err = draws.mean(axis=0) - exact
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(err) <= 4.0 * se + 1e-12)


def test_masked_oracle_exact_at_full_keep_probability():
    rng = np.random.default_rng(71)
    problem = identity_lasso_problem(rng.standard_normal((5, 3)),
                                     rng.standard_normal(5), 1.0)
    oracle = _masked(problem, 1.0, seed=3)
    x = rng.standard_normal(3)
    for _ in range(10):
        np.testing.assert_array_equal(oracle.grad(x), problem.loss.grad(x))


def test_masked_variance_matches_pattern_enumeration():
    rng = np.random.default_rng(72)
    a = rng.standard_normal((5, 3))
    problem = identity_lasso_problem(a, rng.standard_normal(5), 1.0)
    pi = 0.3
    oracle = _masked(problem, pi, seed=11)
    x = rng.standard_normal(3)
    exact_moment = oracles.enumerate_mask_second_moment(problem.loss.grad, x, pi)
    n_draws = 200000
    acc = 0.0
    g = problem.loss.grad(x)
    for _ in range(n_draws):
        d = oracle.grad(x) - g
        acc += float(d @ d)
    measured = acc / n_draws
    assert measured == pytest.approx(exact_moment, rel=0.05)


def test_masked_coupling_channels_are_exact():
    rng = np.random.default_rng(73)
    problem = identity_lasso_problem(rng.standard_normal((5, 3)),
                                     rng.standard_normal(5), 1.0)
    oracle = _masked(problem, 0.5, seed=5)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    np.testing.assert_array_equal(oracle.kx(x), problem.K.apply(x))
    np.testing.assert_array_equal(oracle.ky(y), problem.K.apply_adjoint(y))
    assert oracle.chi_y == 0.0


def test_masked_oracle_declares_noise_from_radius():
    rng = np.random.default_rng(74)
    problem = identity_lasso_problem(rng.standard_normal((5, 3)),
                                     rng.standard_normal(5), 1.0)
    pi, radius = 0.25, 2.0
    oracle = _masked(problem, pi, radius=radius)
    assert oracle.chi_x == problem.L_f * np.sqrt((1.0 - pi) / pi) * radius


@pytest.mark.parametrize("pi", [0.25, 0.5, 0.9])
def test_masked_oracle_declares_a_true_bound_on_the_gradient_noise(pi):
    # The exact root mean squared deviation of the draw, summed over every
    # mask, stays at or below the declared level wherever ||x|| <= radius.
    rng = np.random.default_rng(76)
    problem = identity_lasso_problem(rng.standard_normal((6, 4)),
                                     rng.standard_normal(6), 1.0)
    radius = 2.5
    oracle = _masked(problem, pi, radius=radius)
    for scale in (1.0, 1.0, 1.0, 0.5, 0.1):
        x = rng.standard_normal(4)
        x *= scale * radius / np.linalg.norm(x)
        moment = oracles.enumerate_mask_second_moment(problem.loss.grad, x, pi)
        assert np.sqrt(moment) <= oracle.chi_x


def test_masked_oracle_rejects_bad_parameters(tiny_lasso):
    with pytest.raises(ConstraintViolation):
        _masked(tiny_lasso.problem, 0.0)
    with pytest.raises(ConstraintViolation):
        _masked(tiny_lasso.problem, 1.5)
    with pytest.raises(ConstraintViolation):
        _masked(tiny_lasso.problem, 0.5, radius=0.0)
    for pi, radius in ((True, 1.0), ("0.5", 1.0), (np.nan, 1.0), (0.5, True),
                       (0.5, "1"), (0.5, np.nan)):
        with pytest.raises(ConstraintViolation):
            _masked(tiny_lasso.problem, pi, radius=radius)


@pytest.mark.parametrize("seed", [1.5, True, -1, None, [0, 1.5], [0, True]])
def test_masked_oracle_refuses_a_seed_that_is_not_a_nonnegative_integer(tiny_lasso, seed):
    with pytest.raises(ConstraintViolation, match="seed"):
        _masked(tiny_lasso.problem, 0.5, seed=seed)


def test_bounded_noisy_schedule_matches_closed_forms(dense_problem):
    problem, _, _, _ = dense_problem
    q, r, s, t = 0.2, 0.2, 0.6, 0.6
    chi_x, chi_y = 0.7, 0.3
    horizon, ox, oy = 300, 2.0, 3.0
    factors = mode_factors("kappa", 1.0)
    sched = Schedule.build("bounded", problem.L_f, problem.k_norm, factors,
                           q=q, r=r, s=s, t=t, horizon=horizon, omega_x=ox,
                           omega_y=oy, chi_x=chi_x, chi_y=chi_y)
    p_ref, q_ref = oracles.stoc_constants(q, r, s, t, *factors, floor_one=False)
    assert sched.P == pytest.approx(p_ref, rel=1e-15)
    assert sched.Q == pytest.approx(q_ref, rel=1e-15)
    assert sched.Q == pytest.approx(12.5)
    for k in (1, 50, 299):
        assert sched.tau(k) == pytest.approx(
            oracles.stoc_bounded_tau(k, p_ref, q_ref, problem.L_f,
                                     problem.k_norm, ox, oy, chi_x, horizon),
            rel=1e-15,
        )
        assert sched.sigma(k) == pytest.approx(
            oracles.stoc_bounded_sigma(k, problem.k_norm, ox, oy, chi_y,
                                       horizon),
            rel=1e-15,
        )


def test_unbounded_noisy_schedule_matches_closed_forms(dense_problem):
    problem, _, _, _ = dense_problem
    q, r, s, t = 0.2, 0.2, 0.6, 0.6
    chi_x, chi_y, r_tilde = 0.7, 0.3, 2.5
    horizon = 300
    factors = mode_factors("chen")
    sched = Schedule.build("unbounded", problem.L_f, problem.k_norm, factors,
                           q=q, r=r, s=s, t=t, horizon=horizon, chi_x=chi_x,
                           chi_y=chi_y, r_tilde=r_tilde)
    p_ref, q_ref = oracles.stoc_constants(q, r, s, t, *factors, floor_one=True)
    chi = oracles.stoc_noise_scale(s, t, chi_x, chi_y)
    assert sched.Q == pytest.approx(q_ref, rel=1e-15)
    for k in (1, 50, 299):
        assert sched.tau(k) == pytest.approx(
            oracles.stoc_unbounded_tau(k, p_ref, q_ref, problem.L_f,
                                       problem.k_norm, chi, r_tilde, horizon),
            rel=1e-15,
        )
        assert sched.sigma(k) == pytest.approx(
            oracles.stoc_unbounded_sigma(k, problem.k_norm, chi, r_tilde,
                                         horizon),
            rel=1e-15,
        )


def test_noisy_constants_include_the_mixed_term_at_kappa_half(dense_problem):
    # At kappa 0.5 the factors are (a, b, c, d) = (0.5, 0.5, 0.5, 1.5), so
    # c != 0 and the coupling term of Q is (2 c d + b^2 / q) / (t - r)
    # = 2.5 / 0.6, above the curvature term a^2 / ((s - q) r) = 2.5.
    problem, _, _, _ = dense_problem
    params = StocParams()
    q, r, s, t = params.q, params.r, params.s, params.t
    chi_x, chi_y = 0.7, 0.3
    horizon, ox, oy = 300, 2.0, 3.0
    factors = mode_factors("kappa", 0.5)
    assert factors == (0.5, 0.5, 0.5, 1.5)
    sched = Schedule.build("bounded", problem.L_f, problem.k_norm, factors,
                           q=q, r=r, s=s, t=t, horizon=horizon, omega_x=ox,
                           omega_y=oy, chi_x=chi_x, chi_y=chi_y)
    p_ref, q_ref = oracles.stoc_constants(q, r, s, t, *factors, floor_one=False)
    assert q_ref == pytest.approx(2.5 / 0.6, rel=1e-15)
    assert sched.P == pytest.approx(p_ref, rel=1e-15)
    assert sched.Q == pytest.approx(q_ref, rel=1e-15)
    assert round(sched.Q, 2) == 4.17
    for k in (1, 50, 299):
        assert sched.tau(k) == pytest.approx(
            oracles.stoc_bounded_tau(k, p_ref, q_ref, problem.L_f,
                                     problem.k_norm, ox, oy, chi_x, horizon),
            rel=1e-15,
        )


def test_noisy_schedule_conditions_hold_on_executed_range(dense_problem):
    problem, _, _, _ = dense_problem
    horizon = 120
    factors = mode_factors("kappa", 1.0)
    sched = Schedule.build("bounded", problem.L_f, problem.k_norm, factors,
                           q=0.25, r=0.2, s=0.75, t=0.8, horizon=horizon,
                           omega_x=2.0, omega_y=3.0, chi_x=0.5, chi_y=0.5)
    for k in range(1, horizon):
        m1, m2 = sched.condition_margins(k)
        o1, o2 = oracles.stoc_conditions(
            sched.tau(k), sched.sigma(k), sched.rho(k), problem.L_f,
            problem.k_norm, *factors, 0.25, 0.2, 0.75, 0.8
        )
        assert m1 == pytest.approx(o1, rel=1e-12, abs=1e-12)
        assert m2 == pytest.approx(o2, rel=1e-12, abs=1e-12)
        assert m1 >= -1e-12 and m2 >= -1e-12


def test_noisy_schedules_off_the_proven_modes_keep_their_inequalities():
    # Opted-in modes with c = |1 - alpha| > 0 need the 2 c d term of Q.
    spec = bench.SyntheticSpec(kind="lasso", seed=1, dim=20, n_samples=30)
    problem = bench.generate(spec).problem
    horizon = 200
    d = StocParams()
    ks = np.arange(1, horizon, dtype=float)
    for kappa in (0.0, 0.5):
        factors = mode_factors("kappa", kappa)
        noiseless = dict(l_f=problem.L_f, k_norm=problem.k_norm, factors=factors,
                         q=d.q, r=d.r, s=d.s, t=d.t, horizon=horizon, chi_x=0.0,
                         chi_y=0.0)
        schedules = (
            Schedule.build("bounded", **noiseless, omega_x=5.0, omega_y=5.0),
            Schedule.build("unbounded", **noiseless, r_tilde=3.0),
        )
        for sched in schedules:
            o1, o2 = oracles.stoc_conditions(
                sched.tau(ks), sched.sigma(ks), sched.rho(ks), problem.L_f,
                problem.k_norm, *factors, d.q, d.r, d.s, d.t
            )
            assert np.all(o1 >= 0.0) and np.all(o2 >= 0.0)
            m1, m2 = sched.condition_margins(ks)
            np.testing.assert_allclose(m1, o1, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(m2, o2, rtol=1e-12, atol=1e-12)


def test_noisy_step_ratio_is_constant(dense_problem):
    problem, _, _, _ = dense_problem
    sched = Schedule.build("bounded", problem.L_f, problem.k_norm,
                           mode_factors("kappa", 1.0), q=0.25, r=0.2, s=0.75,
                           t=0.8, horizon=100, omega_x=2.0, omega_y=3.0,
                           chi_x=0.5, chi_y=0.5)
    ks = np.arange(1, 100, dtype=float)
    ratios = sched.sigma(ks) / sched.tau(ks)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-14)


def test_qrst_ordering_is_enforced(dense_problem):
    problem, _, _, _ = dense_problem
    factors = mode_factors("kappa", 1.0)
    noisy = dict(l_f=problem.L_f, factors=factors, horizon=100, chi_x=0.5,
                 chi_y=0.5)
    bounded = dict(setting="bounded", **noisy, omega_x=2.0, omega_y=3.0)
    unbounded = dict(setting="unbounded", **noisy, r_tilde=1.0)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**bounded, k_norm=problem.k_norm, q=0.6, r=0.2, s=0.5,
                       t=0.8)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**bounded, k_norm=problem.k_norm, q=0.25, r=0.8, s=0.75,
                       t=0.7)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**unbounded, k_norm=problem.k_norm, q=0.25, r=0.6,
                       s=0.75, t=0.8)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**bounded, k_norm=0.0, q=0.25, r=0.2, s=0.75, t=0.8)
    with pytest.raises(ConstraintViolation):
        Schedule.build(**unbounded, k_norm=0.0, q=0.25, r=0.2, s=0.75, t=0.8)


def test_build_stoc_schedule_rejects_an_unknown_setting(dense_problem):
    problem, _, _, _ = dense_problem
    with pytest.raises(UnknownKind):
        params = StocParams(setting="adaptive", horizon=10, chi_x=0.5, chi_y=0.5)
        build_stoc_schedule(problem, params)


def test_unresolved_noise_levels_are_refused(dense_problem):
    problem, _, _, _ = dense_problem
    for chi_x, chi_y in ((None, 0.5), (0.5, None)):
        params = StocParams(omega_x=2.0, omega_y=3.0, horizon=50, chi_x=chi_x,
                            chi_y=chi_y)
        with pytest.raises(ConstraintViolation, match="unresolved"):
            build_stoc_schedule(problem, params)
    # A NaN level is not a value of the record, which names the field.
    for chi_x, chi_y, name in ((np.nan, 0.5, "chi_x"), (0.5, np.nan, "chi_y")):
        with pytest.raises(ConstraintViolation, match=name):
            params = StocParams(omega_x=2.0, omega_y=3.0, horizon=50, chi_x=chi_x,
                                chi_y=chi_y)
            build_stoc_schedule(problem, params)
    # A missing horizon is reported first, as the default parameters show.
    with pytest.raises(ConstraintViolation, match="need a horizon"):
        build_stoc_schedule(problem, StocParams())


@pytest.mark.parametrize("name", ["chi_x", "chi_y", "r_tilde"])
@pytest.mark.parametrize("value", [True, np.True_, "a", 0.5j])
def test_noise_levels_and_anchor_radius_must_be_real_numbers(dense_problem, name, value):
    problem, _, _, _ = dense_problem
    inputs = {"chi_x": 0.5, "chi_y": 0.5, "r_tilde": 2.0, name: value}
    with pytest.raises(ConstraintViolation, match=name):
        Schedule.build("unbounded", problem.L_f, problem.k_norm, mode_factors("kappa", 1.0),
                       0.25, 0.2, s=0.75, t=0.8, horizon=40, **inputs)


@pytest.mark.parametrize("name", ["chi_x", "chi_y"])
def test_run_stoc_refuses_a_bool_noise_level(tiny_lasso, name):
    problem = tiny_lasso.problem
    with pytest.raises(ConstraintViolation, match=f"^{name} must be a finite number"):
        params = StocParams(omega_x=5.0, omega_y=5.0, horizon=20, **{name: True})
        run_stoc(problem, params, masked_oracle_factory(problem, params, 0.5), seeds=[0])


@pytest.mark.parametrize("horizon", [None, 50.5, True, 1])
def test_bad_horizon_is_refused_before_noise_is_measured(tiny_lasso, horizon):
    problem = tiny_lasso.problem
    draws = []

    def factory(seed):
        oracle = _masked(problem, 0.5, seed)
        grad = oracle.grad
        oracle.grad = lambda x: draws.append(seed) or grad(x)
        return oracle

    with pytest.raises(ConstraintViolation, match="horizon"):
        params = StocParams(omega_x=2.0, omega_y=2.0, horizon=horizon)
        run_stoc(problem, params, factory, seeds=[0])
    assert draws == []


def test_stoc_gap_bound_matches_oracle(dense_problem):
    problem, _, _, _ = dense_problem
    q, r, s, t = 0.25, 0.2, 0.75, 0.8
    chi_x, chi_y = 0.4, 0.6
    horizon, ox, oy = 250, 2.0, 3.0
    sched = Schedule.build("bounded", problem.L_f, problem.k_norm,
                           mode_factors("kappa", 1.0), q=q, r=r, s=s, t=t,
                           horizon=horizon, omega_x=ox, omega_y=oy,
                           chi_x=chi_x, chi_y=chi_y)
    assert stoc_gap_bound(sched) == pytest.approx(
        oracles.stoc_gap_c0(horizon, sched.P, sched.Q, problem.L_f,
                            problem.k_norm, ox, oy, chi_x, chi_y, r, s),
        rel=1e-15,
    )


def test_gap_bound_requires_bounded_setting(dense_problem):
    problem, _, _, _ = dense_problem
    sched = Schedule.build("unbounded", problem.L_f, problem.k_norm,
                           mode_factors("chen"), q=0.25, r=0.2, s=0.75, t=0.8,
                           horizon=100, chi_x=0.5, chi_y=0.5, r_tilde=1.0)
    with pytest.raises(ConstraintViolation):
        stoc_gap_bound(sched)


def test_guarantee_gate_on_modes():
    check_proven_mode(StocParams(mode="kappa", kappa=1.0))
    check_proven_mode(StocParams(mode="chen"))
    with pytest.raises(UnsupportedMode):
        check_proven_mode(StocParams(mode="kappa", kappa=0.5))
    check_proven_mode(StocParams(mode="kappa", kappa=0.5, unproven=True))


def test_zero_variance_oracle_reproduces_deterministic_steps(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=60, chi_x=0.5,
                        chi_y=0.0)
    sched = build_stoc_schedule(problem, params)
    oracle = _masked(problem, 1.0, seed=4)
    alpha, beta = mode_coefficients("kappa", 1.0)
    p, l = problem.dims
    state_s = AccelState.start(np.zeros(p), np.zeros(l))
    state_d = AccelState.start(np.zeros(p), np.zeros(l))
    for k in range(1, 60):
        state_s = stoc_accel_step(problem, oracle, alpha, beta, sched, k, state_s)
        state_d = accel_step(problem, alpha, beta, sched, k, state_d)
        np.testing.assert_array_equal(state_s.xt, state_d.xt)
        np.testing.assert_array_equal(state_s.yt, state_d.yt)
        np.testing.assert_array_equal(state_s.x, state_d.x)


def test_run_stoc_makes_folded_coupling_products():
    problem, coupling = counted_coupling_problem()
    n = 12
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=2.0, omega_y=3.0, horizon=n + 1,
                        record_every=n)
    run_stoc(problem, params, masked_oracle_factory(problem, params, 0.5),
             seeds=[0])
    # One ``K`` and two ``K'`` products per step, as in the deterministic
    # run; the single trace row evaluates ``K`` at two points.
    assert (coupling.forward - 2, coupling.adjoint) == (n, 2 * n)


def test_run_stoc_is_seed_reproducible(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=40,
                        record_every=10)
    factory = masked_oracle_factory(problem, params, 0.5)
    res1 = run_stoc(problem, params, factory, seeds=[42])
    res2 = run_stoc(problem, params, factory, seeds=[42])
    np.testing.assert_array_equal(res1.runs[0].x, res2.runs[0].x)
    np.testing.assert_array_equal(res1.runs[0].y_tilde, res2.runs[0].y_tilde)


def test_run_stoc_returns_a_stoc_result_of_accelerated_run_results(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(omega_x=3.0, omega_y=3.0, horizon=6)
    res = run_stoc(problem, params, masked_oracle_factory(problem, params, 0.5), seeds=[4, 2])
    assert type(res) is StocResult and len(res.runs) == 2
    for run in res.runs:
        assert type(run) is AccelResult and isinstance(run, RunResult)


def test_run_stoc_multi_seed_aggregate(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=30, record_every=5)
    factory = masked_oracle_factory(problem, params, 0.5)
    res = run_stoc(problem, params, factory, seeds=[1, 2, 3])
    assert len(res.runs) == 3
    for run, seed in zip(res.runs, [1, 2, 3]):
        assert run.iterations == 29
        assert np.all(run.trace.column("seed") == seed)
    finals = [run.trace.column("ergodic_objective")[-1] for run in res.runs]
    assert res.aggregate.column("mean_objective")[-1] == pytest.approx(
        np.mean(finals), rel=1e-12
    )
    ks = res.aggregate.column("k")
    assert ks[-1] == 29
    assert np.all(np.diff(ks) > 0)


def test_run_stoc_aggregate_summarizes_seed_traces(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="chen", setting="bounded", omega_x=3.0,
                        omega_y=3.0, horizon=22, record_every=4)
    factory = masked_oracle_factory(problem, params, 0.5)
    res = run_stoc(problem, params, factory, seeds=[3, 4, 5, 6])
    objs = np.array([run.trace.column("ergodic_objective") for run in res.runs])
    for run in res.runs:
        np.testing.assert_array_equal(run.trace.column("k"),
                                      [4, 8, 12, 16, 20, 21])
    agg = res.aggregate
    np.testing.assert_array_equal(agg.column("k"), [4, 8, 12, 16, 20, 21])
    np.testing.assert_array_equal(agg.column("mean_objective"),
                                  objs.mean(axis=0))
    np.testing.assert_array_equal(agg.column("median_objective"),
                                  np.median(objs, axis=0))
    np.testing.assert_array_equal(agg.column("q10"),
                                  np.quantile(objs, 0.1, axis=0))
    np.testing.assert_array_equal(agg.column("q90"),
                                  np.quantile(objs, 0.9, axis=0))


class _RecordingStream:
    """Generator stand-in that keeps every uniform draw it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, n):
        out = self.rng.random(n)
        self.draws.append(out.copy())
        return out


def _recording_factory(problem, params, pi):
    """Masked-oracle factory keeping the run oracles by their seed tuple."""
    made = {}
    base = masked_oracle_factory(problem, params, pi)

    def factory(seeds):
        oracle = base(seeds)
        oracle.rngs = [_RecordingStream(rng) for rng in oracle.rngs]
        if isinstance(seeds, list):
            made[tuple(seeds)] = oracle
        return oracle

    return factory, made


def test_run_stoc_block_matches_single_seed_runs(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=25, record_every=6)
    factory, made = _recording_factory(problem, params, 0.4)
    seeds = [5, 6, 7]
    singles = [run_stoc(problem, params, factory, seeds=[s]) for s in seeds]
    block = run_stoc(problem, params, factory, seeds=seeds)

    # A single-seed run is bitwise the per-seed recursion on plain vectors.
    for seed, single in zip(seeds, singles):
        run = single.runs[0]
        oracle = MaskedGradOracle(problem, 0.4, seed, radius=3.0)
        alpha, beta = mode_coefficients("kappa", 1.0)
        p, l = problem.dims
        state = AccelState.start(np.zeros(p), np.zeros(l))
        ks = list(run.trace.column("k"))
        assert ks == [6, 12, 18, 24]
        for k in range(1, 25):
            state = stoc_accel_step(problem, oracle, alpha, beta,
                                    single.schedule, k, state)
            if k in ks:
                i = ks.index(k)
                dx, dy = state.xt - state.xt_prev, state.yt - state.yt_prev
                assert run.trace.column("objective")[i] == primal_objective(
                    problem, state.xt)
                assert run.trace.column("ergodic_objective")[i] == (
                    primal_objective(problem, state.x))
                assert run.trace.column("residual")[i] == float(
                    np.sqrt(dx @ dx + dy @ dy))
        for name, want in (("x", "x"), ("y", "y"), ("x_tilde", "xt"), ("y_tilde", "yt")):
            assert getattr(run, name).tobytes() == getattr(state, want).tobytes()

    # Each column of the block follows its own seed's run, drawing the same masks.
    for j, (seed, single) in enumerate(zip(seeds, singles)):
        run, alone = block.runs[j], single.runs[0]
        assert np.all(run.trace.column("seed") == seed)
        np.testing.assert_array_equal(run.trace.column("k"),
                                      alone.trace.column("k"))
        for name in ("x", "y", "x_tilde", "y_tilde"):
            assert getattr(run, name).tobytes() == getattr(alone, name).tobytes()
        for name in ("objective", "ergodic_objective", "residual", "tau_k", "sigma_k",
                     "rho_k"):
            assert (run.trace.column(name).tobytes()
                    == alone.trace.column(name).tobytes())
        block_draws = made[tuple(seeds)].rngs[j].draws
        single_draws = made[(seed,)].rngs[0].draws
        assert len(block_draws) == len(single_draws) == 24
        for got, want in zip(block_draws, single_draws):
            assert got.tobytes() == want.tobytes()


def _count_step_products(problem, coupling, design, seeds, monkeypatch):
    """Products and prox calls made inside the steps of one run."""
    counts = dict.fromkeys(("K", "K'", "A", "A'", "prox", "steps"), 0)
    spec_prox = problem.hconj.prox
    step = stoch.stoc_accel_step

    def counted_prox(v, sigma):
        counts["prox"] += 1
        return spec_prox(v, sigma)

    def counted_step(*args):
        before = (coupling.forward, coupling.adjoint, design.forward, design.adjoint)
        out = step(*args)
        after = (coupling.forward, coupling.adjoint, design.forward, design.adjoint)
        for key, lo, hi in zip(("K", "K'", "A", "A'"), before, after):
            counts[key] += hi - lo
        counts["steps"] += 1
        return out

    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=2.0, omega_y=3.0, horizon=15, record_every=7)
    with monkeypatch.context() as m:
        m.setattr(problem.hconj, "prox", counted_prox)
        m.setattr(stoch, "stoc_accel_step", counted_step)
        run_stoc(problem, params, masked_oracle_factory(problem, params, 0.5),
                 seeds=seeds)
    return counts


def test_run_stoc_step_cost_does_not_grow_with_seeds(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    _, a, b, k = make_dense_problem(p=8, l=5, seed=19)
    coupling, design = CountingDenseOp(k), CountingDenseOp(a)
    problem = SaddleProblem(quadratic_loss(design, b), coupling, BoxClip(0.4, 5))
    assert problem.k_norm > 0.0
    one = _count_step_products(problem, coupling, design, [0], monkeypatch)
    four = _count_step_products(problem, coupling, design, [0, 1, 2, 3],
                                monkeypatch)
    # One ``K``, two ``K'``, one gradient (``A`` and ``A'``) and one prox
    # per step, for the whole block.
    assert one == four == {"K": 14, "K'": 28, "A": 14, "A'": 14, "prox": 14,
                           "steps": 14}
    assert started == []


class _PoisonedOracle(MaskedGradOracle):
    """Masked oracle whose draw for one block column turns NaN at one call."""

    def __init__(self, problem, seeds, column, at_call):
        super().__init__(problem, 0.5, seeds, radius=3.0)
        self.column = column
        self.at_call = at_call
        self.calls = 0

    def grad(self, x):
        g = super().grad(x)
        self.calls += 1
        if self.calls == self.at_call:
            g[:, self.column] = np.nan
        return g


def test_run_stoc_names_the_seed_that_diverges(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=30, record_every=5,
                        chi_x=0.5, chi_y=0.0)
    oracles_made = []

    def factory(seeds):
        oracles_made.append(_PoisonedOracle(problem, seeds, column=2, at_call=9))
        return oracles_made[-1]

    with pytest.raises(NonFiniteIterate) as info:
        run_stoc(problem, params, factory, seeds=[11, 12, 13, 14])
    message = str(info.value)
    assert "iteration 9 " in message and message.endswith("seed 13")
    assert oracles_made[-1].calls == 9
    # The same draws with no poison run to the horizon.
    clean = run_stoc(problem, params, masked_oracle_factory(problem, params, 0.5),
                     seeds=[11, 12, 13, 14])
    assert all(run.iterations == 29 for run in clean.runs)


def test_run_stoc_uses_declared_noise_levels(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=20, record_every=20)
    factory = masked_oracle_factory(problem, params, 0.5)
    res = run_stoc(problem, params, factory, seeds=[0])
    probe = factory(0)
    assert res.schedule.chi_x == pytest.approx(probe.chi_x)
    assert res.schedule.chi_y == pytest.approx(0.0)


class _ExactOracle(StochasticOracle):
    """Exact draws on all three channels, counted; no noise level declared."""

    def __init__(self, problem):
        self.problem = problem
        self.draws = 0

    def grad(self, x):
        self.draws += 1
        return self.problem.loss.grad(x)

    def kx(self, x):
        return self.problem.K.apply(x)

    def ky(self, y):
        return self.problem.K.apply_adjoint(y)


def test_an_oracle_that_declares_nothing_needs_the_levels_in_the_parameters(tiny_lasso):
    problem = tiny_lasso.problem
    made = []

    def factory(seeds):
        made.append(_ExactOracle(problem))
        return made[-1]

    params = StocParams(omega_x=3.0, omega_y=3.0, horizon=20)
    for given in ({}, {"chi_x": 0.5}, {"chi_y": 0.0}):
        with pytest.raises(ConstraintViolation, match="unresolved"):
            run_stoc(problem, StocParams(**{**params.__dict__, **given}), factory, seeds=[0])
        assert made[-1].draws == 0
    params = StocParams(**{**params.__dict__, "chi_x": 0.5, "chi_y": 0.0})
    res = run_stoc(problem, params, factory, seeds=[0])
    assert made[-1].draws == 19
    assert (res.schedule.chi_x, res.schedule.chi_y) == (0.5, 0.0)
    # Exact draws make the run of a masked oracle that keeps every coordinate.
    masked = run_stoc(problem, params, masked_oracle_factory(problem, params, 1.0), seeds=[0])
    assert res.runs[0].x.tobytes() == masked.runs[0].x.tobytes()


def test_run_stoc_requires_seeds_and_gates_modes(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=3.0, omega_y=3.0, horizon=20)
    factory = masked_oracle_factory(problem, params, 0.5)
    with pytest.raises(ConstraintViolation):
        run_stoc(problem, params, factory, seeds=[])
    drawn = []

    def counting_factory(seed):
        drawn.append(seed)
        return factory(seed)

    for seeds, named in (([1.5], "1.5"), ([True], "True"), ([1, 1], "seed 1"),
                         ([3, np.int64(4), 3], "seed 3")):
        with pytest.raises(ConstraintViolation, match=named):
            run_stoc(problem, params, counting_factory, seeds=seeds)
    assert drawn == []
    bad = StocParams(mode="kappa", kappa=0.0, setting="bounded", omega_x=3.0,
                     omega_y=3.0, horizon=20)
    with pytest.raises(UnsupportedMode):
        run_stoc(problem, bad, masked_oracle_factory(problem, bad, 0.5),
                 seeds=[0])


def test_factory_radius_prefers_primal_bound(tiny_lasso):
    problem = tiny_lasso.problem
    params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                        omega_x=7.0, omega_y=3.0, horizon=20)
    oracle = masked_oracle_factory(problem, params, 0.5)(0)
    assert oracle.radius == 7.0
    anchored = StocParams(mode="chen", setting="unbounded", horizon=20,
                          r_tilde=4.0)
    oracle = masked_oracle_factory(problem, anchored, 0.5)(0)
    assert oracle.radius == 4.0


def test_noise_shrinks_final_gap_in_expectation(tiny_lasso,
                                                tiny_lasso_reference):
    problem = tiny_lasso.problem
    f_star = tiny_lasso_reference.objective
    ox, oy, _ = bench.auto_norm_bounds(problem)
    gaps = {}
    for horizon in (50, 800):
        params = StocParams(mode="kappa", kappa=1.0, setting="bounded",
                            omega_x=ox, omega_y=oy, horizon=horizon,
                            record_every=horizon)
        factory = masked_oracle_factory(problem, params, 0.2)
        res = run_stoc(problem, params, factory, seeds=[0, 1, 2, 3, 4])
        finals = [run.trace.column("ergodic_objective")[-1]
                  for run in res.runs]
        gaps[horizon] = float(np.median(finals)) - f_star
    assert gaps[800] < gaps[50]
    assert gaps[800] >= -1e-9
