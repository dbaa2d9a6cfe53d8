"""Least-squares identification of the plant from intercepted trajectories.

Models an adversary who injects i.i.d. Gaussian probing inputs, records N
state/input pairs, and estimates (A, B) by solving the linear regression
X_f = [A B] [X_p; U_p] + W_p.  Deciphering is treated as free here; its
cost enters the security analysis through the deciphering-time formula,
not through this simulation.

Trials run in blocks: a prefix scan simulates a block's trajectories in
O(log N) vectorised passes, and a Cholesky factorisation of the normal
equations estimates every trial of the block at once.  Products are
einsums and the rest is elementwise, with no BLAS or LAPACK call, so a
trial's bits depend neither on its block nor on the BLAS kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

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
# simulated together.  It sets the block size, so memory stays bounded
# however many trials a grid point runs.
_BLOCK_BYTES = 1 << 20


def _scan(x: np.ndarray, powers: list[tuple[int, np.ndarray]]) -> None:
    """Replace x[:, :, t] by sum_k A^k x[:, :, t-k], in place.

    With x_0 in column 0 and v_{t-1} = B u_{t-1} + w_{t-1} in column t,
    this is the trajectory x_t = A x_{t-1} + v_{t-1}.  A Brent-Kung scan
    (Brent & Kung 1982; Blelloch 1990) makes it in 2 log2(t_f + 1)
    vectorised passes over strided columns, not one per step.  ``powers``
    holds (s, A^s) for s = 1, 2, 4, ... while 2s <= t_f + 1.  The up-sweep
    at stride s folds A^s x[i - s] into each column i with i + 1 a
    multiple of 2s, so column i then sums the 2s columns ending at i; the
    down-sweep completes the other prefixes, coarsest stride first.
    """
    L = x.shape[2]
    for s, P in powers:
        x[:, :, 2 * s - 1 :: 2 * s] += np.einsum("ij,bjk->bik", P, x[:, :, s - 1 : L - s : 2 * s])
    for s, P in reversed(powers):
        if 3 * s <= L:
            x[:, :, 3 * s - 1 :: 2 * s] += np.einsum(
                "ij,bjk->bik", P, x[:, :, 2 * s - 1 : L - s : 2 * s]
            )


def _simulate(
    model: PlantModel, atk: AttackConfig, draw: Callable[[int], list[np.random.Generator]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Simulate one trial per generator and yield each block's trajectories.

    ``draw(k)`` gives the next block's generators, at most k of them, and
    an empty list once every trial has run.  A block is (x, u, w),
    trial-major: x is (b, n, t_f + 1), u is (b, m, t_f) and w is
    (b, n, t_f).  Every generator draws x_0, then u
    (m x t_f), then w (n x t_f), as a lone trial would, and the draws
    land in its rows as drawn.  Every block is written into the same
    buffers, so a block is valid only until the next one is drawn.
    Products use einsum's fixed summation order rather than BLAS, whose
    kernel changes with the block width, so a trial's data does not
    depend on the block it ran in.
    """
    n, m = model.n, model.m
    if atk.N < n + m + 1:
        raise ValueError(f"N={atk.N} below the identifiability floor n+m+1={n + m + 1}")
    t_f = atk.t_s + atk.N - 1
    # einsum's summation order follows the operands' memory layout: fixing
    # C order makes the bits depend on the plant's values alone
    A = np.ascontiguousarray(model.A)
    B = np.ascontiguousarray(model.B)
    powers, P, s = [], A, 1
    while 2 * s <= t_f + 1:
        powers.append((s, P))
        P, s = np.einsum("ij,jk->ik", P, P), 2 * s
    sd_x, sd_u, sd_w = np.sqrt(model.sigma_x2), np.sqrt(atk.sigma_u2), np.sqrt(model.sigma_w2)
    block = max(1, _BLOCK_BYTES // (8 * ((t_f + 1) * n + t_f * (m + n))))
    chunk = draw(block)
    # sized by the first chunk, which no later chunk exceeds
    buffers = [np.empty((len(chunk), *shape)) for shape in ((n, t_f + 1), (m, t_f), (n, t_f))]
    while chunk:
        x, u, w = (a[: len(chunk)] for a in buffers)
        for k, rng in enumerate(chunk):
            x[k, :, 0] = rng.normal(0.0, sd_x, n)
            u[k] = rng.normal(0.0, sd_u, (m, t_f))
            w[k] = rng.normal(0.0, sd_w, (n, t_f))
        np.einsum("ij,bjt->bit", B, u, out=x[:, :, 1:])
        x[:, :, 1:] += w
        _scan(x, powers)
        yield x, u, w
        chunk = draw(block)


def collect_data(model: PlantModel, atk: AttackConfig, rng: np.random.Generator) -> DataMatrices:
    """Simulate the plant under Gaussian probing and stack the attack window.

    The trajectory starts at x_0 ~ N(0, sigma_x^2 I) and is driven by
    probing inputs u_t ~ N(0, sigma_u^2 I) from t = 0 on; the window
    [t_s, t_f] is then sliced out.
    """
    (x,), (u,), (w,) = next(_simulate(model, atk, lambda k: [rng]))  # one block
    s = atk.t_s
    return DataMatrices(
        Xf=x[:, s + 1 :].copy(), Xp=x[:, s:-1].copy(), Up=u[:, s:].copy(), Wp=w[:, s:].copy()
    )


def _solve(
    Xp: np.ndarray, Up: np.ndarray, Xf: np.ndarray, rcond: float
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares [A B] for every trial of a block, and which trials hold.

    Xp, Up and Xf are (b, n, T), (b, m, T) and (b, n, T); with
    D = [Xp; Up], theta = Xf D^T G^-1 for G = D D^T.  M stacks G over
    Xf D^T, each block an einsum over the trials' own rows, with no
    stacked copy of D.  A right-looking Cholesky over G's n + m columns,
    vectorised over the trials, leaves L (G = L L^T) in M's top and
    W = Xf D^T L^-T below it; theta L = W is then solved column by column.
    A trial is rank deficient when a pivot is at or below
    max(rcond^2, (n + m) eps) * max diag(G): its flag is False and its
    estimate is meaningless.  Every step is an elementwise operation or an
    einsum over one trial's data, so a trial's bits do not depend on the
    block it is solved in.  Returns theta (b, n, n + m) and the flags (b,).
    """
    b, n, _ = Xp.shape
    p = n + Up.shape[1]
    M = np.empty((b, p + n, p))
    M[:, :n, :n] = np.einsum("bit,bjt->bij", Xp, Xp)
    M[:, :n, n:] = np.einsum("bit,bjt->bij", Xp, Up)
    M[:, n:p, :n] = M[:, :n, n:].transpose(0, 2, 1)
    M[:, n:p, n:] = np.einsum("bit,bjt->bij", Up, Up)
    M[:, p:, :n] = np.einsum("bit,bjt->bij", Xf, Xp)
    M[:, p:, n:] = np.einsum("bit,bjt->bij", Xf, Up)
    tol = max(rcond * rcond, p * np.finfo(float).eps) * np.einsum("bii->bi", M[:, :p]).max(axis=1)
    held = np.empty((b, p), dtype=bool)
    for j in range(p):
        pivot = M[:, j, j]
        held[:, j] = pivot > tol
        M[:, j, j] = np.sqrt(np.where(held[:, j], pivot, 1.0))
        col = M[:, j + 1 :, j]
        col /= M[:, j, j, None]
        M[:, j + 1 :, j + 1 :] -= col[:, :, None] * col[:, None, : p - j - 1]
    W = M[:, p:]
    for j in reversed(range(p)):
        W[:, :, j] /= M[:, j, j, None]
        W[:, :, :j] -= W[:, :, j, None] * M[:, j, None, :j]
    return W.copy(), held.all(axis=1)


def least_squares_estimate(
    data: DataMatrices, rcond: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate (A, B) minimizing ||Xf - [A B] [Xp; Up]||_F.

    Solves the normal equations G theta^T = D Xf^T, G = D D^T with
    D = [Xp; Up], by Cholesky, with no BLAS or LAPACK call, so the bits
    do not follow the BLAS kernel.  Forming G squares D's condition
    number, so rcond applies squared: the regressor counts as rank
    deficient, and RankDeficiencyError is raised, when a Cholesky pivot is
    at or below max(rcond^2, (n + m) eps) times G's largest diagonal
    entry, with eps the float64 machine epsilon.
    """
    n = len(data.Xp)
    Xp, Up, Xf = (np.asarray(a, dtype=float)[None] for a in (data.Xp, data.Up, data.Xf))
    theta, ok = _solve(Xp, Up, Xf, rcond)
    if not ok[0]:
        raise RankDeficiencyError(
            f"regressor [Xp; Up] is rank deficient at rcond={rcond}; "
            "more or richer excitation needed"
        )
    return theta[0, :, :n], theta[0, :, n:]


def _mean_square(d: np.ndarray) -> np.ndarray:
    """Mean square entry of each (n, n + m) matrix of a (b, n, n + m) stack."""
    return np.einsum("bij,bij->b", d, d) / (d.shape[1] * d.shape[2])


def estimation_error(
    A: np.ndarray, B: np.ndarray, Ahat: np.ndarray, Bhat: np.ndarray
) -> float:
    """Mean square entry-wise error ||[A B] - [Ahat Bhat]||_F^2 / (n(n+m))."""
    truth = np.hstack([np.asarray(A, dtype=float), np.asarray(B, dtype=float)])
    est = np.hstack([np.asarray(Ahat, dtype=float), np.asarray(Bhat, dtype=float)])
    if truth.shape != est.shape:
        raise ValueError(f"shape mismatch {truth.shape} vs {est.shape}")
    return float(_mean_square((truth - est)[None])[0])


def identify(model: PlantModel, atk: AttackConfig, rng: np.random.Generator) -> IdentResult:
    """One collect-estimate-score pass against a known true plant."""
    Ahat, Bhat = least_squares_estimate(collect_data(model, atk, rng))
    return IdentResult(Ahat, Bhat, estimation_error(model.A, model.B, Ahat, Bhat))


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
    are bit-identical across runs.  The children are spawned a block at a
    time; ``spawn`` counts the children it has made, so they come in the
    same order, and memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    truth = np.hstack([np.asarray(model.A, dtype=float), np.asarray(model.B, dtype=float)])
    s = atk.t_s
    eps = np.empty(trials)
    done = 0
    root = np.random.SeedSequence(seed)

    def draw(k: int) -> list[np.random.Generator]:
        k = min(k, trials - root.n_children_spawned)
        return [np.random.default_rng(ss) for ss in root.spawn(k)]

    for x, u, _ in _simulate(model, atk, draw):
        theta, ok = _solve(x[:, :, s:-1], u[:, :, s:], x[:, :, s + 1 :], rcond=1e-10)
        eps[done : done + len(ok)] = np.where(ok, _mean_square(theta - truth), np.nan)
        done += len(ok)
    failed = int(np.isnan(eps).sum())
    mean = float(np.nanmean(eps)) if failed < trials else float("nan")
    return MonteCarloResult(mean_epsilon=mean, epsilons=eps, n_failed=failed)
