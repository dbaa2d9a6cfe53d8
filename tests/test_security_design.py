import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from conftest import LAW

from encctl import security_design
from encctl.security_design import (
    DesignResult,
    GramianPair,
    InconclusiveSecurityError,
    SecurityRequirement,
    UnstableSystemError,
    deciphering_time,
    design,
    design_security_parameter,
    gnfs_ln_complexity,
    gramians,
    is_secure,
    min_key_length,
    sic_full,
    sic_large_n,
    sic_upperbound_input,
    sic_upperbound_noise,
    solve_discrete_lyapunov,
    spectral_radius,
)

ROOT_HALF = float(np.sqrt(0.5))

SEC6_REQ = SecurityRequirement(gamma_c=1e-6, tau_c=31536e4, upsilon=442e15)


def series_gramian(A, Q, tol=1e-12):
    """Independent oracle: truncated sum of A^k Q (A^T)^k."""
    rho = spectral_radius(A)
    K = int(np.ceil(np.log(tol) / np.log(rho))) if rho > 0 else 1
    total = Q.copy()
    term = Q.copy()
    for _ in range(K):
        term = A @ term @ A.T
        total += term
    return total


def random_stable(rng, n=4, rho_max=0.95):
    M = rng.normal(size=(n, n))
    return M * (rng.uniform(0.3, rho_max) / spectral_radius(M))


def test_lyapunov_reference_case():
    psi = solve_discrete_lyapunov(ROOT_HALF * np.eye(4), np.eye(4))
    assert np.linalg.norm(psi - 2 * np.eye(4), "fro") <= 1e-9


def test_lyapunov_zero_dynamics():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(solve_discrete_lyapunov(np.zeros((2, 2)), Q), Q)


def test_lyapunov_scalar_geometric_series():
    psi = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert psi[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lyapunov_matches_series_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        A = random_stable(rng)
        R = rng.normal(size=(4, 4))
        Q = (R + R.T) / 2
        psi = solve_discrete_lyapunov(A, Q)
        assert np.abs(psi - series_gramian(A, Q)).max() <= 1e-8
        residual = np.linalg.norm(A @ psi @ A.T - psi + Q, "fro")
        assert residual <= 1e-9 * (1 + np.linalg.norm(Q, "fro"))


def test_lyapunov_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        solve_discrete_lyapunov(np.eye(2), np.eye(2))


@pytest.mark.parametrize("A", [np.eye(2), np.array([[0.5, 3.0], [0.0, -1.5]])])
def test_gramians_rejects_unstable(A):
    with pytest.raises(UnstableSystemError):
        gramians(A, np.ones((2, 1)))


def test_gramians_check_stability_once(monkeypatch):
    # one eigendecomposition for both solves
    calls = []
    real = security_design.spectral_radius

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(security_design, "spectral_radius", counted)
    pair = gramians(ROOT_HALF * np.eye(3), np.ones((3, 2)))
    assert len(calls) == 1
    assert np.allclose(pair.Psi_w, 2 * np.eye(3), atol=1e-9)


@pytest.mark.parametrize(
    "A, B",
    [
        (np.eye(2)[:1], np.ones((1, 1))),  # A not square
        (0.5 * np.eye(2), np.ones((3, 1))),  # B rows differ
        (0.5 * np.eye(2), np.ones(2)),  # B not a matrix
    ],
)
def test_gramians_rejects_mismatched_shapes(A, B):
    with pytest.raises(ValueError, match="B must have as many rows as A"):
        gramians(A, B)


def test_lyapunov_just_below_the_threshold():
    # the solver accepts every rho < 1, as the config parser does
    for rho in (0.9999999999, 1 - 1e-15):
        A = rho * np.eye(2)
        psi = solve_discrete_lyapunov(A, np.eye(2))
        assert np.linalg.norm(A @ psi @ A.T - psi + np.eye(2)) <= 1e-14 * np.linalg.norm(psi)


def test_lyapunov_unconverged_doubling_is_linalg_error(monkeypatch):
    # rho = 0.9 needs 9 rounds to reach its fixed point
    monkeypatch.setattr(security_design, "MAX_DOUBLING_ROUNDS", 8)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 8 rounds"):
        solve_discrete_lyapunov(0.9 * np.eye(2), np.eye(2))
    monkeypatch.setattr(security_design, "MAX_DOUBLING_ROUNDS", 9)
    assert solve_discrete_lyapunov(0.9 * np.eye(2), np.eye(2))[0, 0] == pytest.approx(1 / 0.19)


def test_lyapunov_rejects_asymmetric_q():
    with pytest.raises(ValueError):
        solve_discrete_lyapunov(0.5 * np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [64, 128])
def test_lyapunov_large_dimension(n):
    rng = np.random.default_rng(n)
    A = random_stable(rng, n, rho_max=0.99)
    B = rng.normal(size=(n, 4))
    for Q in (B @ B.T, np.eye(n)):
        psi = solve_discrete_lyapunov(A, Q)
        assert np.linalg.norm(A @ psi @ A.T - psi + Q) <= 1e-12 * np.linalg.norm(psi)


@st.composite
def stable_plants(draw):
    """(A, B) with n <= 12 and rho(A) <= 0.99: a dense A scaled to rho, or
    a strongly non-normal upper-triangular A, its eigenvalues on the
    diagonal (all equal to rho in the repeated kind) and off-diagonal
    entries up to 10 in magnitude."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rho = draw(st.floats(0.0, 0.99))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    M = np.array(draw(entries)).reshape(n, n)
    kind = draw(st.sampled_from(["dense", "triangular", "repeated"]))
    if kind == "dense":
        A = M * (rho / max(spectral_radius(M), 1.0))
    else:
        A = draw(st.floats(1.0, 10.0)) * np.triu(M, 1)
        eigs = st.floats(-rho, rho)
        A[np.diag_indices(n)] = rho if kind == "repeated" else draw(
            st.lists(eigs, min_size=n, max_size=n)
        )
    B = 2 * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * m, max_size=n * m)))
    return A, B.reshape(n, m)


@LAW
@given(plant=stable_plants())
def test_gramians_of_non_normal_plants(plant):
    A, B = plant
    pair = gramians(A, B)
    # ||Psi_w|| bounds the inverse of X -> X - A X A^T, so it sets how
    # far any two backward-stable solvers may drift apart
    well_conditioned = np.linalg.norm(pair.Psi_w, 2) <= 1e4
    for psi, Q in ((pair.Psi_u, B @ B.T), (pair.Psi_w, np.eye(len(A)))):
        assert np.linalg.norm(A @ psi @ A.T - psi + Q) <= 1e-12 * np.linalg.norm(psi)
        assert np.linalg.norm(psi - psi.T) <= 1e-12 * np.linalg.norm(psi)
        if well_conditioned:
            ref = scipy.linalg.solve_discrete_lyapunov(A, Q)
            assert np.linalg.norm(psi - ref) <= 1e-9 * np.linalg.norm(ref)


def test_gramians_of_reference_plant():
    pair = gramians(ROOT_HALF * np.eye(4), np.eye(4))
    assert np.allclose(pair.Psi_u, 2 * np.eye(4), atol=1e-9)
    assert np.allclose(pair.Psi_w, 2 * np.eye(4), atol=1e-9)


def test_noise_gramian_trace_exceeds_dimension():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = random_stable(rng)
        pair = gramians(A, np.eye(4))
        assert np.trace(pair.Psi_w) > 4


def test_sic_full_single_sample():
    # at N = 1 only the initial-state term remains
    val = sic_full(4, 4, 2.0, 1.0, 3.0, np.eye(4), 2 * np.eye(4), 1)
    assert val == pytest.approx((4 + 4) * 3.0 / (2.0 * 8.0))


def test_sic_full_hand_value():
    val = sic_full(4, 4, 1.0, 1.0, 1.0, 2 * np.eye(4), 2 * np.eye(4), 2)
    assert val == pytest.approx(8 / 28)


def test_sic_full_strictly_decreasing():
    vals = [
        sic_full(4, 4, 1.0, 10.0, 0.1, 2 * np.eye(4), 2 * np.eye(4), N)
        for N in range(1, 200)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sic_full_domain():
    with pytest.raises(ValueError):
        sic_full(4, 4, 1.0, 1.0, 1.0, np.eye(4), np.eye(4), 0)


def test_sic_large_n_values():
    assert sic_large_n(4, 4, 100.0, 2.0, 8.0, 13159) < 1e-6
    assert sic_large_n(4, 4, 100.0, 2.0, 8.0, 13158) >= 1e-6
    assert sic_large_n(4, 4, 1.0, 8.0, 8.0, 2) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        sic_large_n(4, 4, 1.0, 8.0, 8.0, 1)


def test_sic_bounds_examples():
    assert sic_upperbound_input(4, 4, 100.0, 101) == pytest.approx(2e-4)
    assert sic_upperbound_noise(4, 4, 2) == pytest.approx(2.0)
    for fn, args in [(sic_upperbound_input, (4, 4, 100.0, 1)), (sic_upperbound_noise, (4, 4, 1))]:
        with pytest.raises(ValueError):
            fn(*args)


def test_bound_limits_match_large_n():
    # input bound is the tr(Psi_u), tr(Psi_w) -> 0 limit
    for N in (2, 10, 100):
        assert sic_large_n(4, 4, 100.0, 0.0, 0.0, N) == pytest.approx(
            sic_upperbound_input(4, 4, 100.0, N), rel=1e-15
        )
        # noise bound is R_sigma = 0 with tr(Psi_w) = n
        assert sic_large_n(4, 4, 0.0, 8.0, 4.0, N) == pytest.approx(
            sic_upperbound_noise(4, 4, N), rel=1e-15
        )


def test_bound_ordering():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        N = int(rng.integers(2, 10**4))
        R = float(rng.uniform(0.01, 1000))
        tr_u = float(rng.uniform(0, 50))
        tr_w = float(rng.uniform(0, 50))
        assert sic_large_n(m, n, R, tr_u, tr_w, N) <= sic_upperbound_input(m, n, R, N)
        # noise-dominant regime: any stable nonzero A forces tr(Psi_w) > n
        assert sic_large_n(m, n, 0.0, tr_u, n + 1e-9, N) < sic_upperbound_noise(m, n, N)


def test_full_converges_to_large_n():
    pair = GramianPair(0.5 * np.eye(4), 2 * np.eye(4))
    for N in (10**5, 10**6):
        full = sic_full(4, 4, 1.0, 10.0, 0.1, pair.Psi_u, pair.Psi_w, N)
        large = sic_large_n(4, 4, 100.0, 2.0, 8.0, N)
        assert abs(1 - full / large) <= 1e-3


def test_deciphering_time_examples():
    assert deciphering_time(1, 1, 2.0) == 1.0
    tau = deciphering_time(13159, 74, 442e15)
    assert tau == pytest.approx(5.6237e8, rel=1e-3)
    assert tau > 31536e4
    with pytest.raises(ValueError):
        deciphering_time(0, 1, 1.0)
    with pytest.raises(ValueError):
        deciphering_time(1, 0, 1.0)


def test_deciphering_time_exponent_law():
    for lam in (5, 20, 74):
        base = deciphering_time(100, lam, 1e9) * 1e9 / 100
        doubled = deciphering_time(100, 2 * lam, 1e9) * 1e9 / 100
        assert doubled == pytest.approx(base**2, rel=1e-12)


def sec6_gamma(N):
    return sic_large_n(4, 4, 100.0, 2.0, 8.0, N)


def test_is_secure_at_design_point():
    assert is_secure(sec6_gamma, 74, SEC6_REQ, N_max=20000)
    assert not is_secure(sec6_gamma, 73, SEC6_REQ, N_max=20000)


def test_is_secure_inconclusive():
    with pytest.raises(InconclusiveSecurityError):
        is_secure(sec6_gamma, 74, SEC6_REQ, N_max=100)


def magnitudes(lo: int, hi: int):
    """Floats from 10^lo to 10^(hi+1), every decade about equally likely."""
    return st.builds(lambda x, k: x * 10.0**k, st.floats(1.0, 10.0), st.integers(lo, hi))


# (m, n, R_sigma, tr Psi_u, tr Psi_w, requirement), with tr Psi_w > n as
# for every stable A, and upsilon * tau_c reaching below N*/2, where
# lambda* is clamped to 1
DESIGN_CASES = st.builds(
    lambda m, n, R_sigma, tr_u, excess, req: (m, n, R_sigma, tr_u, n + excess, req),
    st.integers(1, 8),
    st.integers(1, 8),
    magnitudes(-3, 3),
    st.floats(0.0, 100.0),
    st.floats(1e-6, 100.0),
    st.builds(SecurityRequirement, magnitudes(-12, -1), magnitudes(-3, 9), magnitudes(0, 18)),
)


def exact_gamma(m, n, R_sigma, tr_u, tr_w):
    """The large-sample gamma(N) as an exact Fraction of the float inputs;
    ``sic_large_n`` rounds it to a float."""
    per_sample = Fraction(R_sigma) * (Fraction(tr_u) + m) + Fraction(tr_w)
    return lambda N: Fraction(m + n) / ((N - 1) * per_sample)


def designed(m, n, R_sigma, tr_u, tr_w, req):
    """(N*, lambda*) for Gramians whose traces are exactly tr_u and tr_w."""
    Psi_u, Psi_w = (np.diag([tr] + [0.0] * (n - 1)) for tr in (tr_u, tr_w))
    return design_security_parameter(m, n, R_sigma, Psi_u, Psi_w, req)


@LAW
@given(case=DESIGN_CASES)
def test_design_is_the_least_secure_pair(case):
    # N* is the least N >= 2 with gamma(N) < gamma_c, lambda* the least
    # lambda >= 1 with 2^lambda N* > tau_c upsilon, and no sample size is
    # both accurate enough and fast enough to break at lambda*, but one is
    # at lambda* - 1 unless lambda* is the clamp's 1
    m, n, R_sigma, tr_u, tr_w, req = case
    N_star, lam_star = designed(*case)
    gamma = exact_gamma(m, n, R_sigma, tr_u, tr_w)
    assert gamma(N_star) < req.gamma_c and (N_star == 2 or gamma(N_star - 1) >= req.gamma_c)
    budget = Fraction(req.tau_c) * Fraction(req.upsilon)
    assert 2**lam_star * N_star > budget
    assert lam_star == 1 or 2 ** (lam_star - 1) * N_star <= budget
    assert is_secure(gamma, lam_star, req, N_max=N_star)
    assert lam_star == 1 or not is_secure(gamma, lam_star - 1, req, N_max=N_star)


@LAW
@given(case=DESIGN_CASES, factor=magnitudes(0, 3))
def test_design_is_monotone(case, factor):
    # a laxer gamma_c or a stronger probe needs fewer samples and so more
    # bits; a larger breaking budget tau_c upsilon needs more bits
    m, n, R_sigma, tr_u, tr_w, req = case
    N_star, lam_star = designed(*case)
    lax = SecurityRequirement(req.gamma_c * factor, req.tau_c, req.upsilon)
    rich = SecurityRequirement(req.gamma_c, req.tau_c * factor, req.upsilon)
    for N, lam in (designed(m, n, R_sigma, tr_u, tr_w, lax), designed(m, n, R_sigma * factor, tr_u, tr_w, req)):
        assert N <= N_star and lam >= lam_star
    N, lam = designed(m, n, R_sigma, tr_u, tr_w, rich)
    assert N == N_star and lam >= lam_star


def test_design_reference_values():
    N_star, lam_star = design_security_parameter(
        4, 4, 100.0, 0.5 * np.eye(4), 2 * np.eye(4), SEC6_REQ
    )
    assert (N_star, lam_star) == (13159, 74)


def test_design_boundary_minimality():
    N_star, lam_star = 13159, 74
    assert sec6_gamma(N_star) < SEC6_REQ.gamma_c <= sec6_gamma(N_star - 1)
    assert deciphering_time(N_star, lam_star, SEC6_REQ.upsilon) > SEC6_REQ.tau_c
    assert deciphering_time(N_star, lam_star - 1, SEC6_REQ.upsilon) <= SEC6_REQ.tau_c


def test_design_scales_with_gamma_c():
    req2 = SecurityRequirement(2e-6, SEC6_REQ.tau_c, SEC6_REQ.upsilon)
    N1, _ = design_security_parameter(4, 4, 100.0, 0.5 * np.eye(4), 2 * np.eye(4), SEC6_REQ)
    N2, _ = design_security_parameter(4, 4, 100.0, 0.5 * np.eye(4), 2 * np.eye(4), req2)
    assert abs(N2 - ((N1 - 2) / 2 + 2)) <= 1


def test_requirement_validation():
    with pytest.raises(ValueError):
        SecurityRequirement(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SecurityRequirement(1.0, -1.0, 1.0)


def test_gnfs_boundary():
    target = 74 * math.log(2)
    assert gnfs_ln_complexity(712) >= target > gnfs_ln_complexity(711)
    assert min_key_length(74) == 712


def test_min_key_length_matches_linear_walk():
    # k* is monotone in lambda, so one upward walk gives every reference
    k, expected = 2, []
    for lam in range(1, 401):
        while gnfs_ln_complexity(k) < lam * math.log(2):
            k += 1
        expected.append(k)
    assert [min_key_length(lam) for lam in range(1, 401)] == expected


def test_min_key_length_search_is_logarithmic():
    calls = []

    def ln_cost(k):
        calls.append(k)
        return gnfs_ln_complexity(k)

    # k* = 2,765,202: a linear walk makes that many evaluations
    assert min_key_length(2046, ln_cost) == 2_765_202
    assert len(calls) <= 2 * math.log2(2_765_202) + 2


def test_weak_requirement_clamps_lambda_to_one():
    # upsilon * tau_c = 100 < N*/2: the unclamped formula gives lambda* = -7
    req = SecurityRequirement(SEC6_REQ.gamma_c, 1.0, 100.0)
    N_star, lam_star = design_security_parameter(
        4, 4, 100.0, 0.5 * np.eye(4), 2 * np.eye(4), req
    )
    assert (N_star, lam_star) == (13159, 1)
    assert deciphering_time(N_star, lam_star, req.upsilon) > req.tau_c
    assert design(4, 4, 100.0, 0.5 * np.eye(4), 2 * np.eye(4), req) == DesignResult(13159, 1, 2)


def test_min_key_length_monotone():
    lengths = [min_key_length(lam) for lam in range(1, 120, 7)]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_design_result_report_and_json():
    result = design(4, 4, 100.0, 0.5 * np.eye(4), 2 * np.eye(4), SEC6_REQ)
    assert result == DesignResult(13159, 74, 712)
    assert len(result.report().splitlines()) == 3
    assert result.to_json() == '{"N_star": 13159, "lambda_star": 74, "k_star": 712}'
