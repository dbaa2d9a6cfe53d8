import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encctl import identification
from encctl.enc_control import PlantModel
from encctl.identification import (
    AttackConfig,
    DataMatrices,
    RankDeficiencyError,
    collect_data,
    estimation_error,
    identify,
    least_squares_estimate,
    monte_carlo_error,
)
from encctl.security_design import sic_large_n, spectral_radius

ROOT_HALF = float(np.sqrt(0.5))


def sec6_plant(sigma_w2=0.1, sigma_x2=1.0):
    # Gramians of this plant are 2I for both input and noise
    return PlantModel(ROOT_HALF * np.eye(4), np.eye(4), sigma_w2, sigma_x2)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(sigma_u2=-1.0, N=100)
    with pytest.raises(ValueError):
        AttackConfig(sigma_u2=1.0, N=1)
    with pytest.raises(ValueError):
        AttackConfig(sigma_u2=1.0, N=100, t_s=-1)


def test_collect_shapes():
    model = sec6_plant()
    data = collect_data(model, AttackConfig(sigma_u2=1.0, N=9), np.random.default_rng(0))
    assert data.Xf.shape == (4, 8)
    assert data.Xp.shape == (4, 8)
    assert data.Up.shape == (4, 8)
    assert data.Wp.shape == (4, 8)


def test_collect_minimum_window():
    model = PlantModel(np.zeros((1, 1)), np.eye(1), 1.0, 1.0)
    data = collect_data(model, AttackConfig(sigma_u2=1.0, N=3), np.random.default_rng(1))
    assert data.Xf.shape == (1, 2)


def test_collect_rejects_short_window():
    model = sec6_plant()
    with pytest.raises(ValueError):
        collect_data(model, AttackConfig(sigma_u2=1.0, N=8), np.random.default_rng(0))


def test_collect_no_excitation_gives_zeros():
    model = sec6_plant(sigma_w2=0.0, sigma_x2=0.0)
    data = collect_data(model, AttackConfig(sigma_u2=0.0, N=9), np.random.default_rng(2))
    for block in (data.Xf, data.Xp, data.Up, data.Wp):
        assert np.abs(block).max() == 0.0
    with pytest.raises(RankDeficiencyError):
        least_squares_estimate(data)


def test_collect_satisfies_regression_identity():
    model = sec6_plant()
    data = collect_data(model, AttackConfig(sigma_u2=2.0, N=40), np.random.default_rng(3))
    recon = model.A @ data.Xp + model.B @ data.Up + data.Wp
    assert np.allclose(recon, data.Xf, atol=1e-12)


def test_collect_window_offset():
    model = sec6_plant()
    d0 = collect_data(model, AttackConfig(sigma_u2=1.0, N=12, t_s=0), np.random.default_rng(4))
    d5 = collect_data(model, AttackConfig(sigma_u2=1.0, N=12, t_s=5), np.random.default_rng(4))
    assert d5.Xp.shape == d0.Xp.shape
    assert not np.array_equal(d5.Xp, d0.Xp)


def test_least_squares_hand_oracle():
    # n = m = 1: normal equations solved by hand give A = 0.5, B = 1.0
    data = DataMatrices(
        Xf=np.array([[1.5, 1.0]]),
        Xp=np.array([[1.0, 2.0]]),
        Up=np.array([[1.0, 0.0]]),
        Wp=np.zeros((1, 2)),
    )
    Ahat, Bhat = least_squares_estimate(data)
    assert Ahat == pytest.approx(np.array([[0.5]]))
    assert Bhat == pytest.approx(np.array([[1.0]]))


def test_noiseless_recovery_exact():
    model = sec6_plant(sigma_w2=0.0)
    data = collect_data(model, AttackConfig(sigma_u2=1.0, N=200), np.random.default_rng(5))
    Ahat, Bhat = least_squares_estimate(data)
    assert np.abs(Ahat - model.A).max() <= 1e-9
    assert np.abs(Bhat - model.B).max() <= 1e-9


def test_residual_orthogonality():
    model = sec6_plant()
    data = collect_data(model, AttackConfig(sigma_u2=1.0, N=100), np.random.default_rng(6))
    Ahat, Bhat = least_squares_estimate(data)
    D = np.vstack([data.Xp, data.Up])
    residual = data.Xf - np.hstack([Ahat, Bhat]) @ D
    assert np.abs(residual @ D.T).max() <= 1e-8


def test_rank_deficiency_raises():
    data = DataMatrices(
        Xf=np.zeros((2, 6)), Xp=np.zeros((2, 6)), Up=np.zeros((1, 6)), Wp=np.zeros((2, 6))
    )
    with pytest.raises(RankDeficiencyError):
        least_squares_estimate(data)


def test_zero_probing_is_rank_deficient():
    # the state is excited but U_p is zero: every trial fails, none estimates
    model = sec6_plant()
    atk = AttackConfig(sigma_u2=0.0, N=40)
    with pytest.raises(RankDeficiencyError):
        least_squares_estimate(collect_data(model, atk, np.random.default_rng(8)))
    result = monte_carlo_error(model, atk, trials=7, seed=8)
    assert result.n_failed == 7 and np.isnan(result.epsilons).all()
    assert np.isnan(result.mean_epsilon)


@pytest.mark.parametrize("i, j", [(0, 0), (1, 3), (3, 2)])
def test_regressor_with_a_repeated_row_raises(i, j):
    # a row of U_p equal to a row of X_p makes D D^T singular: the rank
    # rule must catch the rounding-level pivot rather than return an estimate
    data = collect_data(sec6_plant(), AttackConfig(sigma_u2=1.0, N=60), np.random.default_rng(9))
    Up = data.Up.copy()
    Up[j] = data.Xp[i]
    with pytest.raises(RankDeficiencyError):
        least_squares_estimate(DataMatrices(data.Xf, data.Xp, Up, data.Wp))


def test_rcond_applies_squared_to_cholesky_pivots():
    # two rows at relative distance 1e-4: G's second pivot is about 1e-8 of
    # its diagonal, above rcond^2 = 1e-10 at rcond = 1e-5 (though below
    # rcond itself) and below rcond^2 = 1e-6 at rcond = 1e-3
    rng = np.random.default_rng(10)
    z = rng.normal(size=(2, 200))
    Xp, Up = z[:1], z[:1] + 1e-4 * z[1:]
    data = DataMatrices(Xf=Xp + Up, Xp=Xp, Up=Up, Wp=np.zeros((1, 200)))
    for rcond in (1e-10, 1e-5):
        Ahat, Bhat = least_squares_estimate(data, rcond=rcond)
        assert np.abs(np.hstack([Ahat, Bhat]) - 1.0).max() <= 1e-6
    with pytest.raises(RankDeficiencyError):
        least_squares_estimate(data, rcond=1e-3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    extra=st.integers(0, 200),
    noise=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_matches_lstsq_on_well_conditioned_data(n, m, extra, noise, seed):
    # Gaussian regressors with row scales in [0.1, 10] and T >= 4(n + m)
    # samples: the normal equations' squared condition number stays small,
    # so the Cholesky estimate agrees with LAPACK's to 1e-10 relative
    rng = np.random.default_rng(seed)
    p = n + m
    T = 4 * p + extra
    D = rng.normal(size=(p, T)) * rng.uniform(0.1, 10.0, (p, 1))
    Xf = rng.normal(size=(n, p)) @ D + noise * rng.normal(size=(n, T))
    Ahat, Bhat = least_squares_estimate(DataMatrices(Xf, D[:n], D[n:], np.zeros((n, T))))
    oracle = np.linalg.lstsq(D.T, Xf.T, rcond=None)[0].T
    assert np.abs(np.hstack([Ahat, Bhat]) - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_estimation_error_examples():
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    assert estimation_error(A, B, A, B) == 0.0
    # one entry off by 0.1 out of c = 1*(1+1) = 2 entries
    assert estimation_error(A, B, A + 0.1, B) == pytest.approx(0.005)


def test_estimation_error_permutation_invariant():
    rng = np.random.default_rng(7)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
    E = rng.normal(size=(3, 5))
    base = estimation_error(A, B, A + E[:, :3], B + E[:, 3:])
    perm = rng.permutation(15).reshape(3, 5)
    E2 = E.flatten()[perm.flatten()].reshape(3, 5)
    shuffled = estimation_error(A, B, A + E2[:, :3], B + E2[:, 3:])
    assert shuffled == pytest.approx(base)


def test_estimation_error_shape_mismatch():
    with pytest.raises(ValueError):
        estimation_error(np.eye(2), np.eye(2), np.eye(2), np.eye(3))


def test_monte_carlo_single_trial_reduces_to_identify():
    model = sec6_plant()
    atk = AttackConfig(sigma_u2=1.0, N=50)
    result = monte_carlo_error(model, atk, trials=1, seed=99)
    rng = np.random.default_rng(np.random.SeedSequence(99).spawn(1)[0])
    assert result.mean_epsilon == identify(model, atk, rng).epsilon
    assert result.n_failed == 0


def test_monte_carlo_deterministic():
    model = sec6_plant()
    atk = AttackConfig(sigma_u2=1.0, N=60)
    r1 = monte_carlo_error(model, atk, trials=10, seed=5)
    r2 = monte_carlo_error(model, atk, trials=10, seed=5)
    assert np.array_equal(r1.epsilons, r2.epsilons)
    assert r1.mean_epsilon == r2.mean_epsilon


def test_monte_carlo_mean_beats_lower_bound():
    # variance ratio 100 with both Gramian traces 8: the expected error
    # must sit above the large-sample bound
    model = sec6_plant(sigma_w2=0.1)
    atk = AttackConfig(sigma_u2=10.0, N=100)
    result = monte_carlo_error(model, atk, trials=50, seed=11)
    gamma = sic_large_n(4, 4, 100.0, 8.0, 8.0, 100)
    assert gamma == pytest.approx(8 / (99 * 1208))
    assert result.mean_epsilon >= gamma
    assert result.n_failed == 0


def test_error_shrinks_with_sample_size():
    model = sec6_plant()
    medians = []
    for N in (50, 100, 200, 400):
        result = monte_carlo_error(model, AttackConfig(sigma_u2=1.0, N=N), trials=30, seed=21)
        medians.append(np.median(result.epsilons))
    inversions = sum(medians[i + 1] > medians[i] for i in range(len(medians) - 1))
    assert inversions <= 1


def reference_collect(model, atk, rng):
    """One trial written out step by step with matrix-vector products."""
    n, m = model.n, model.m
    t_f = atk.t_s + atk.N - 1
    x = np.empty((n, t_f + 1))
    x[:, 0] = rng.normal(0.0, np.sqrt(model.sigma_x2), n)
    u = rng.normal(0.0, np.sqrt(atk.sigma_u2), (m, t_f))
    w = rng.normal(0.0, np.sqrt(model.sigma_w2), (n, t_f))
    for t in range(t_f):
        x[:, t + 1] = model.A @ x[:, t] + model.B @ u[:, t] + w[:, t]
    s = atk.t_s
    return DataMatrices(Xf=x[:, s + 1 :], Xp=x[:, s:t_f], Up=u[:, s:], Wp=w[:, s:])


@st.composite
def dense_attacks(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.floats(-1.0, 1.0)
    M = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    A = M * (draw(st.floats(0.0, 0.95)) / max(spectral_radius(M), 1.0))
    B = 2 * np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
    model = PlantModel(A, B, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0)))
    atk = AttackConfig(
        sigma_u2=draw(st.floats(0.0, 10.0)),
        N=draw(st.integers(n + m + 1, 80)),
        t_s=draw(st.integers(0, 3)),
    )
    return model, atk


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=dense_attacks(),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    block_bytes=st.integers(1, 40_000),
)
def test_monte_carlo_trial_equals_identify(case, trials, seed, block_bytes):
    # block_bytes spans blocks of one trial up to all of them, so each
    # trial's epsilon must not depend on the block it was stepped in
    model, atk = case
    with mock.patch.object(identification, "_BLOCK_BYTES", block_bytes):
        result = monte_carlo_error(model, atk, trials, seed)
    children = np.random.SeedSequence(seed).spawn(trials)
    for i, child in enumerate(children):
        try:
            expected = identify(model, atk, np.random.default_rng(child)).epsilon
        except RankDeficiencyError:
            expected = np.nan
        assert np.array_equal(result.epsilons[i], expected, equal_nan=True)
    assert result.n_failed == int(np.isnan(result.epsilons).sum())


def assert_collect_matches_reference(model, atk, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data = collect_data(model, atk, rng)
    ref = reference_collect(model, atk, ref_rng)
    # the same draws in the same order, and nothing else drawn
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(data.Up, ref.Up) and np.array_equal(data.Wp, ref.Wp)
    for got, want in ((data.Xf, ref.Xf), (data.Xp, ref.Xp)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=dense_attacks(), seed=st.integers(0, 2**32 - 1))
def test_collect_matches_reference_loop(case, seed):
    model, atk = case
    assert_collect_matches_reference(model, atk, seed)


@pytest.mark.parametrize("length", [2**k + d for k in (4, 5, 7) for d in (-1, 0, 1)] + [48, 96])
def test_scan_matches_reference_at_power_of_two_edges(length):
    # the scan's strided passes change shape where t_f + 1 crosses a power
    # of two, and at 3 * 2^k the coarsest down-sweep pass ends on the last
    # column; t_s = 3 puts the window off the trajectory's start
    model = PlantModel(
        np.array([[0.5, 0.4, 0.0], [-0.3, 0.2, 0.6], [0.1, 0.0, -0.7]]),
        np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]]),
        0.3, 1.5,
    )
    assert_collect_matches_reference(model, AttackConfig(sigma_u2=2.0, N=length - 3, t_s=3), length)


def test_scan_matches_reference_at_the_var_panel_length():
    # var_panel_a's plant at its largest grid point, N = 1600: twenty times
    # the windows the Hypothesis law draws
    model = PlantModel(0.7071 * np.eye(4), np.eye(4), 0.1, 1.0)
    assert_collect_matches_reference(model, AttackConfig(sigma_u2=0.1, N=1600, t_s=1), 1600)


def test_monte_carlo_memory_is_bounded():
    # var_panel_a at its largest grid point: peak memory must not grow
    # with the number of trials stepped together
    model = PlantModel(0.7071 * np.eye(4), np.eye(4), 0.1, 1.0)
    tracemalloc.start()
    try:
        monte_carlo_error(model, AttackConfig(sigma_u2=0.1, N=1600), trials=50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
