"""Least-squares identification of the plant from intercepted trajectories.

Models an adversary who injects i.i.d. Gaussian probing inputs, records N
state/input pairs, and estimates (A, B) by solving the linear regression
X_f = [A B] [X_p; U_p] + W_p.  Deciphering is treated as free here; its
cost enters the security analysis through the deciphering-time formula,
not through this simulation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .enc_control import PlantModel


class RankDeficiencyError(RuntimeError):
    """The stacked regressor [X_p; U_p] lost row rank; no unique estimate."""


@dataclass(frozen=True)
class AttackConfig:
    """Probing variance, window length N = t_f - t_s + 1, and start time.

    sigma_u2 = 0 is allowed as a degenerate no-excitation mode; the
    estimator then fails with a rank error rather than here.
    """

    sigma_u2: float
    N: int
    t_s: int = 0

    def __post_init__(self):
        if self.sigma_u2 < 0:
            raise ValueError("sigma_u2 must be nonnegative")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.t_s < 0:
            raise ValueError("t_s must be nonnegative")


@dataclass(frozen=True)
class DataMatrices:
    """Stacked trajectory windows.

    Columns t of Xf/Xp/Up/Wp are x_{t+1}, x_t, u_t, w_t for t in
    [t_s, t_f - 1].  Wp is retained only so tests can check the exact
    regression identity; a real adversary never sees it.
    """

    Xf: np.ndarray
    Xp: np.ndarray
    Up: np.ndarray
    Wp: np.ndarray


@dataclass(frozen=True)
class IdentResult:
    Ahat: np.ndarray
    Bhat: np.ndarray
    epsilon: float


# Byte budget for the trajectories (x, u and w) of one block of trials
# stepped together.  It sets the block size, so memory stays bounded
# however many trials a grid point runs.
_BLOCK_BYTES = 1 << 20


def _simulate(
    model: PlantModel, atk: AttackConfig, rngs: Iterable[np.random.Generator]
) -> Iterator[DataMatrices]:
    """Simulate one trial per generator and yield each trial's attack window.

    Every generator draws x_0, then u (m x t_f), then w (n x t_f), as a lone
    trial would.  The trials then step together, a block at a time.  The
    products use einsum's fixed summation order rather than BLAS, whose
    kernel changes with the block width, so a trial's data does not depend
    on the block it ran in.
    """
    n, m = model.n, model.m
    if atk.N < n + m + 1:
        raise ValueError(f"N={atk.N} below the identifiability floor n+m+1={n + m + 1}")
    t_f = atk.t_s + atk.N - 1
    s = atk.t_s
    # einsum's summation order follows the operands' memory layout: fixing
    # C order makes the bits depend on the plant's values alone
    A = np.ascontiguousarray(model.A)
    B = np.ascontiguousarray(model.B)
    sd_x, sd_u, sd_w = np.sqrt(model.sigma_x2), np.sqrt(atk.sigma_u2), np.sqrt(model.sigma_w2)
    block = max(1, _BLOCK_BYTES // (8 * ((t_f + 1) * n + t_f * (m + n))))
    rngs = iter(rngs)
    while chunk := list(islice(rngs, block)):
        b = len(chunk)
        # time-major, so each step reads and writes contiguous (b, n) rows
        x = np.empty((t_f + 1, b, n))
        u = np.empty((t_f, b, m))
        w = np.empty((t_f, b, n))
        for k, rng in enumerate(chunk):
            x[0, k] = rng.normal(0.0, sd_x, n)
            u[:, k] = rng.normal(0.0, sd_u, (m, t_f)).T
            w[:, k] = rng.normal(0.0, sd_w, (n, t_f)).T
        # x_{t+1} = (A x_t + B u_t) + w_t: B u_t is formed for every step
        # at once in x's own rows, and float addition commutes, so adding
        # A x_t to it gives the same bits
        np.einsum("tkj,ij->tki", u, B, out=x[1:])
        for t in range(t_f):
            nxt = x[t + 1]
            nxt += np.einsum("kj,ij->ki", x[t], A)
            nxt += w[t]
        for k in range(b):
            yield DataMatrices(
                Xf=x[s + 1 :, k].T.copy(),
                Xp=x[s:t_f, k].T.copy(),
                Up=u[s:, k].T.copy(),
                Wp=w[s:, k].T.copy(),
            )


def collect_data(model: PlantModel, atk: AttackConfig, rng: np.random.Generator) -> DataMatrices:
    """Simulate the plant under Gaussian probing and stack the attack window.

    The trajectory starts at x_0 ~ N(0, sigma_x^2 I) and is driven by
    probing inputs u_t ~ N(0, sigma_u^2 I) from t = 0 on; the window
    [t_s, t_f] is then sliced out.
    """
    return next(_simulate(model, atk, [rng]))


def least_squares_estimate(
    data: DataMatrices, rcond: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate (A, B) minimizing ||Xf - [A B] [Xp; Up]||_F.

    Solved through an orthogonal-decomposition least-squares routine
    rather than explicit normal equations.  Singular values below
    rcond * (largest singular value) count as zero; if the regressor is
    rank deficient at that tolerance, RankDeficiencyError is raised.
    """
    n = data.Xp.shape[0]
    m = data.Up.shape[0]
    D = np.vstack([data.Xp, data.Up])
    theta_t, _, rank, _ = np.linalg.lstsq(D.T, data.Xf.T, rcond=rcond)
    if rank < n + m:
        raise RankDeficiencyError(
            f"regressor rank {rank} < {n + m}; more or richer excitation needed"
        )
    theta = theta_t.T
    return theta[:, :n], theta[:, n:]


def estimation_error(
    A: np.ndarray, B: np.ndarray, Ahat: np.ndarray, Bhat: np.ndarray
) -> float:
    """Mean square entry-wise error ||[A B] - [Ahat Bhat]||_F^2 / (n(n+m))."""
    truth = np.hstack([np.asarray(A, dtype=float), np.asarray(B, dtype=float)])
    est = np.hstack([np.asarray(Ahat, dtype=float), np.asarray(Bhat, dtype=float)])
    if truth.shape != est.shape:
        raise ValueError(f"shape mismatch {truth.shape} vs {est.shape}")
    n = truth.shape[0]
    c = n * truth.shape[1]
    return float(np.linalg.norm(truth - est, "fro") ** 2) / c


def _score(model: PlantModel, data: DataMatrices) -> IdentResult:
    """Estimate (A, B) from one trial's window and score it against the plant."""
    Ahat, Bhat = least_squares_estimate(data)
    return IdentResult(Ahat, Bhat, estimation_error(model.A, model.B, Ahat, Bhat))


def identify(model: PlantModel, atk: AttackConfig, rng: np.random.Generator) -> IdentResult:
    """One collect-estimate-score pass against a known true plant."""
    return _score(model, collect_data(model, atk, rng))


@dataclass(frozen=True)
class MonteCarloResult:
    """Mean error over successful trials plus the raw per-trial values.

    Rank-deficient trials are kept as NaN in ``epsilons`` and counted in
    ``n_failed`` instead of being silently dropped.
    """

    mean_epsilon: float
    epsilons: np.ndarray = field(repr=False)
    n_failed: int = 0


def monte_carlo_error(
    model: PlantModel, atk: AttackConfig, trials: int, seed: int
) -> MonteCarloResult:
    """Repeat the identification attack with independently seeded trials.

    Trial i draws from ``default_rng`` on the i-th child that
    ``SeedSequence(seed).spawn(trials)`` gives, so its epsilon equals
    ``identify(model, atk, default_rng(child_i)).epsilon`` exactly.  It
    depends neither on the other trials nor on how many run, and results
    are bit-identical across runs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    eps = np.full(trials, np.nan)
    failed = 0
    children = np.random.SeedSequence(seed).spawn(trials)
    datasets = _simulate(model, atk, (np.random.default_rng(ss) for ss in children))
    for i, data in enumerate(datasets):
        try:
            eps[i] = _score(model, data).epsilon
        except RankDeficiencyError:
            failed += 1
    mean = float(np.nanmean(eps)) if failed < trials else float("nan")
    return MonteCarloResult(mean_epsilon=mean, epsilons=eps, n_failed=failed)
