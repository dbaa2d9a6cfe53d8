"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its runtime (run with -s to see them).  Budgets are asserted
alongside the numerical tolerances."""

import inspect
import json
import math
import random
import time

import numpy as np
import pytest

from encctl.cli import main
from encctl.codec import CodecConfig
from encctl.elgamal import decrypt, encrypt, keygen, multiply
from encctl.enc_control import (
    ControllerParams,
    PlantModel,
    encrypted_controller,
    run_encrypted_loop,
    run_plain_loop,
)
from encctl.identification import AttackConfig, monte_carlo_error
from encctl.security_design import (
    deciphering_time,
    gnfs_ln_complexity,
    sic_full,
    sic_large_n,
    sic_upperbound_input,
    solve_discrete_lyapunov,
    spectral_radius,
)
from encctl.updatable import (
    cross_decrypt,
    cross_eval,
    ct_update,
    initial_epoch,
    key_update,
    recover_next_key,
)

ROOT_HALF = float(np.sqrt(0.5))
GRID = (50, 100, 200, 400, 800, 1600)


def _report(num: int, label: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num}: {label}: {elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_design_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["design", "--preset", "reference_design", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc == {"N_star": 13159, "lambda_star": 74, "k_star": 712}
    capsys.readouterr()
    with capsys.disabled():
        _report(1, "design outputs exactly N*=13159, lambda*=74, k*=712", t0, 1.0)


def test_criterion_2_gramian_analytics():
    t0 = time.perf_counter()
    psi = solve_discrete_lyapunov(ROOT_HALF * np.eye(4), np.eye(4))
    assert np.linalg.norm(psi - 2 * np.eye(4), "fro") <= 1e-9

    rng = np.random.default_rng(20240610)
    for _ in range(100):
        M = rng.normal(size=(4, 4))
        A = M * (rng.uniform(0.3, 0.95) / spectral_radius(M))
        R = rng.normal(size=(4, 4))
        Q = (R + R.T) / 2
        psi = solve_discrete_lyapunov(A, Q)
        # independent oracle: truncated series sum A^k Q (A^T)^k
        rho = spectral_radius(A)
        K = int(np.ceil(np.log(1e-12) / np.log(rho)))
        series = Q.copy()
        term = Q.copy()
        for _ in range(K):
            term = A @ term @ A.T
            series += term
        assert np.abs(psi - series).max() <= 1e-8
    _report(2, "Lyapunov solver matches 2I reference and series oracle", t0, 5.0)


def test_criterion_3_lower_bound_law():
    t0 = time.perf_counter()
    A = ROOT_HALF * np.eye(4)
    B = np.eye(4)
    psi = 2 * np.eye(4)  # both Gramians of this plant
    for sw2 in (0.1, 1.0, 10.0):
        for su2 in (0.1, 1.0, 10.0):
            model = PlantModel(A, B, sw2, 1.0)
            for N in GRID:
                seed = int(sw2 * 1000) * 100_000 + int(su2 * 1000) * 10 + N
                result = monte_carlo_error(model, AttackConfig(su2, N), trials=50, seed=seed)
                assert result.n_failed == 0
                gamma = sic_full(4, 4, 1.0, su2, sw2, psi, psi, N)
                sem = float(np.nanstd(result.epsilons, ddof=1)) / np.sqrt(50)
                assert result.mean_epsilon >= gamma - 3 * sem, (
                    f"panel sw2={sw2} su2={su2} N={N}: "
                    f"mean {result.mean_epsilon:.4e} < gamma-3sem {gamma - 3 * sem:.4e}"
                )
    _report(3, "mean error >= gamma - 3 SEM on all nine variance panels", t0, 120.0)


def test_criterion_4_upper_bound_convergence():
    t0 = time.perf_counter()
    r_sigma = 100.0
    tr_w = 8.0  # 2I
    rel = 1e-12
    for N in (2, 10, 100, 1000, 13159):
        bound = sic_upperbound_input(4, 4, r_sigma, N)
        gammas = [
            sic_large_n(4, 4, r_sigma, 4 * scale, tr_w, N)
            for scale in (2.0, 1.0, 0.5, 0.3, 0.2, 0.1)
        ]
        for a, b in zip(gammas, gammas[1:]):
            assert b > a * (1 - rel)  # increases as tr(Psi_u) shrinks
        for g in gammas:
            assert g <= bound * (1 + rel)
        gaps = [bound - g for g in gammas]
        for a, b in zip(gaps, gaps[1:]):
            assert b < a * (1 + rel)  # converges toward the ceiling
    _report(4, "gamma rises toward (m+n)/((N-1)mR) as tr(Psi_u) -> 0", t0, 1.0)


def _crypto_suite(params):
    rng = random.Random(1234)

    def member():
        return pow(params.g, rng.randrange(params.q), params.p)

    pk, sk = keygen(params, rng)
    for _ in range(200):  # round trip
        m = member()
        assert decrypt(sk, encrypt(pk, m, rng)) == m
    for _ in range(200):  # homomorphism
        m1, m2 = member(), member()
        ct = multiply(pk, encrypt(pk, m1, rng), encrypt(pk, m2, rng))
        assert decrypt(sk, ct) == m1 * m2 % params.p
    for _ in range(200):  # epoch chain, 50 rotations
        epoch = initial_epoch(params, rng)
        m = member()
        ct = encrypt(epoch.pk, m, rng)
        for _ in range(50):
            epoch, token = key_update(epoch, rng)
            ct = ct_update(params, ct, token, rng)
            assert decrypt(epoch.sk, ct) == m
    for _ in range(200):  # cross-epoch products over random gaps
        epoch_t = initial_epoch(params, rng)
        m1, m2 = member(), member()
        ct1 = encrypt(epoch_t.pk, m1, rng)
        epoch_k = epoch_t
        for _ in range(rng.randint(0, 20)):
            epoch_k, _ = key_update(epoch_k, rng)
        ct2 = encrypt(epoch_k.pk, m2, rng)
        ect = cross_eval(epoch_t.pk, ct1, ct2)
        assert cross_decrypt(epoch_t.sk, epoch_k.sk, ect) == m1 * m2 % params.p
    epoch = initial_epoch(params, rng)
    hits = 0
    for _ in range(200):  # token recovers the next key, always
        nxt, token = key_update(epoch, rng)
        hits += recover_next_key(epoch.sk, token).s == nxt.sk.s
        epoch = nxt
    assert hits == 200


def test_criterion_5_cryptographic_correctness(group64, group712):
    t0 = time.perf_counter()
    assert group64.p.bit_length() == 64
    assert group712.p.bit_length() == 712
    _crypto_suite(group64)
    _crypto_suite(group712)
    _report(5, "200-case crypto suites pass on 64-bit and 712-bit groups", t0, 120.0)


def test_criterion_6_encrypted_loop_fidelity(group64):
    t0 = time.perf_counter()
    model = PlantModel(ROOT_HALF * np.eye(4), np.eye(4), sigma_w2=0.01, sigma_x2=1.0)
    controller = ControllerParams(-0.3 * np.eye(4))
    seed = 3
    devs = {}
    for delta in (1e-3, 5e-4):
        cfg = CodecConfig(group64, delta=delta, value_bound=1000.0)
        enc = run_encrypted_loop(
            model, controller, cfg, T=50,
            noise_rng=np.random.default_rng(seed), key_rng=random.Random(seed),
        )
        plain = run_plain_loop(model, controller, T=50, noise_rng=np.random.default_rng(seed))
        devs[delta] = float(np.abs(enc.inputs - plain.inputs).max())
        assert devs[delta] <= 20 * delta  # deviation stays delta-proportional
    assert devs[5e-4] <= 0.5 * devs[1e-3]  # halving delta at least halves it

    sig = inspect.signature(encrypted_controller)
    assert set(sig.parameters) == {"pk0", "ct_phi0", "ct_xi"}
    assert "token" not in str(sig).lower()
    _report(6, "loop deviation is delta-proportional, halves with delta, token-free API", t0, 30.0)


def test_criterion_7_boundary_minimality():
    t0 = time.perf_counter()
    tau_c = 31536e4
    upsilon = 442e15
    assert sic_large_n(4, 4, 100.0, 2.0, 8.0, 13159) < 1e-6
    assert 1e-6 <= sic_large_n(4, 4, 100.0, 2.0, 8.0, 13158)
    assert deciphering_time(13159, 74, upsilon) > tau_c
    assert tau_c >= deciphering_time(13159, 73, upsilon)
    target = 74 * math.log(2)
    assert gnfs_ln_complexity(712) >= target
    assert target > gnfs_ln_complexity(711)
    _report(7, "gamma, tau and GNFS boundaries sit exactly at (13159, 74, 712)", t0, 1.0)
