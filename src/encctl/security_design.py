"""Security analysis and parameter design for the encrypted control loop.

Quantifies how hard it is for an adversary to identify the plant from N
intercepted samples (a lower bound ``gamma`` on the expected least-squares
error, driven by the controllability Gramians) and how long breaking N
per-epoch ciphertexts takes at a given bit-security level
(``deciphering_time`` = 2^lambda * N / upsilon).  The design routine picks
the smallest security parameter such that no sample size is simultaneously
accurate enough and fast enough to break, then converts it to a key length
via the GNFS cost model.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

MAX_DOUBLING_ROUNDS = 64


class UnstableSystemError(ValueError):
    """Spectral radius at or above 1: the Lyapunov series diverges."""


class InconclusiveSecurityError(RuntimeError):
    """The search bound never brought gamma below the acceptable error."""


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def solve_discrete_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A Psi A^T - Psi + Q = 0 for a stable A.

    Smith's doubling iteration (Smith 1968): Psi <- Psi + A_k Psi A_k^T,
    then A_k <- A_k^2, so after j rounds Psi holds the first 2^j terms of
    the series sum_i A^i Q (A^T)^i.  Each round is O(n^3); the loop stops
    when a round no longer changes Psi, which for a normal A takes about
    log2(1 / (1 - rho)) + 6 rounds.

    Parameters
    ----------
    A : (n, n) array_like
        System matrix with spectral radius < 1.
    Q : (n, n) array_like
        Symmetric right-hand side.

    Returns
    -------
    (n, n) ndarray
        The unique solution Psi (symmetric up to rounding when Q is).

    Raises
    ------
    UnstableSystemError
        When the spectral radius of A is 1 or more.
    numpy.linalg.LinAlgError
        When MAX_DOUBLING_ROUNDS rounds do not reach a fixed point.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("A and Q must be square matrices of the same size")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    _check_stable(A)
    return _doubling(A, Q)


def _check_stable(A: np.ndarray) -> None:
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise UnstableSystemError(f"spectral radius {rho!r} >= 1")


def _doubling(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Smith's doubling loop of ``solve_discrete_lyapunov`` for an A
    already known to be stable and float arrays of matching shapes."""
    psi, A_k = Q, A
    for _ in range(MAX_DOUBLING_ROUNDS):
        nxt = psi + A_k @ psi @ A_k.T
        if np.array_equal(nxt, psi):
            return nxt
        psi = nxt
        A_k = A_k @ A_k
    raise np.linalg.LinAlgError(
        f"Lyapunov doubling did not converge in {MAX_DOUBLING_ROUNDS} rounds "
        f"(spectral radius {spectral_radius(A)!r})"
    )


@dataclass(frozen=True)
class GramianPair:
    """Input and noise controllability Gramians of a linear plant."""

    Psi_u: np.ndarray
    Psi_w: np.ndarray


def gramians(A: np.ndarray, B: np.ndarray) -> GramianPair:
    """Gramians of x' = Ax + Bu + w: solutions of A Psi A^T - Psi + Q = 0
    with Q = B B^T (input) and Q = I (noise).

    Raises UnstableSystemError when the spectral radius of A is 1 or more,
    checked once for both solves.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.ndim != 2 or B.shape[0] != n:
        raise ValueError("A must be square and B must have as many rows as A")
    _check_stable(A)
    return _gramians(A, B)


def _gramians(A: np.ndarray, B: np.ndarray) -> GramianPair:
    """``gramians`` for float arrays of matching shapes and an A already
    known to be stable, such as a plant the config parser accepted."""
    return GramianPair(Psi_u=_doubling(A, B @ B.T), Psi_w=_doubling(A, np.eye(A.shape[0])))


def sic_full(
    m: int,
    n: int,
    sigma_x2: float,
    sigma_u2: float,
    sigma_w2: float,
    Psi_u: np.ndarray,
    Psi_w: np.ndarray,
    N: int,
) -> float:
    """Identification-error lower bound for N samples (all sample sizes).

    gamma(N) = (m+n) sigma_w^2 / (sigma_x^2 tr(Psi_w)
               + (N-1) [sigma_u^2 (tr(Psi_u) + m) + sigma_w^2 tr(Psi_w)])
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    tr_u = float(np.trace(np.asarray(Psi_u, dtype=float)))
    tr_w = float(np.trace(np.asarray(Psi_w, dtype=float)))
    denom = sigma_x2 * tr_w + (N - 1) * (sigma_u2 * (tr_u + m) + sigma_w2 * tr_w)
    return (m + n) * sigma_w2 / denom


def _per_sample(m: int, R_sigma: float, tr_Psi_u: float, tr_Psi_w: float) -> Fraction:
    """R_sigma (tr(Psi_u) + m) + tr(Psi_w), exact in the float inputs."""
    return Fraction(R_sigma) * (Fraction(tr_Psi_u) + m) + Fraction(tr_Psi_w)


def sic_large_n(
    m: int, n: int, R_sigma: float, tr_Psi_u: float, tr_Psi_w: float, N: int
) -> float:
    """Large-sample form of the error lower bound.

    gamma(N) = (m+n) / ((N-1) [R_sigma (tr(Psi_u) + m) + tr(Psi_w)])
    where R_sigma is the probing-to-noise variance ratio.  The result is
    the exact value correctly rounded, from the per-sample rate that
    ``design_security_parameter`` uses, so the first N with gamma(N) <
    gamma_c is never below N*.
    """
    if N < 2:
        raise ValueError("N must be at least 2 (the large-sample form divides by N-1)")
    return float(Fraction(m + n) / ((N - 1) * _per_sample(m, R_sigma, tr_Psi_u, tr_Psi_w)))


def sic_upperbound_input(m: int, n: int, R_sigma: float, N: int) -> float:
    """Ceiling of the bound as tr(Psi_u) -> 0 with large variance ratio:
    (m+n) / ((N-1) m R_sigma)."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if R_sigma <= 0:
        raise ValueError("R_sigma must be positive")
    return (m + n) / ((N - 1) * m * R_sigma)


def sic_upperbound_noise(m: int, n: int, N: int) -> float:
    """Ceiling of the bound in the noise-dominant regime: (m+n) / ((N-1) n).

    Follows from tr(Psi_w) > n, which holds for every stable nonzero A.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    return (m + n) / ((N - 1) * n)


def deciphering_time(N: int, lam: int, upsilon: float) -> float:
    """Seconds to break N per-epoch ciphertexts at lambda-bit security on
    an upsilon-FLOPS machine: 2^lambda * N / upsilon.

    2^lambda is evaluated as an exact integer before the real division.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if lam < 1:
        raise ValueError("lambda must be at least 1")
    return (2**lam * N) / upsilon


@dataclass(frozen=True)
class SecurityRequirement:
    """Target security level: acceptable estimation error, defense period
    in seconds, and adversary compute rate in FLOPS."""

    gamma_c: float
    tau_c: float
    upsilon: float

    def __post_init__(self):
        for name in ("gamma_c", "tau_c", "upsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def is_secure(
    gamma_fn: Callable[[int], float],
    lam: int,
    req: SecurityRequirement,
    N_max: int,
) -> bool:
    """Whether no sample size both beats gamma_c and breaks within tau_c.

    ``gamma_fn`` must be monotone non-increasing in N.  Only the first N
    with gamma(N) < gamma_c needs checking: breaking time grows with N,
    so the earliest accurate-enough sample size is also the fastest to
    break.  Raises InconclusiveSecurityError when gamma never drops below
    gamma_c on [2, N_max].
    """
    if gamma_fn(N_max) >= req.gamma_c:
        raise InconclusiveSecurityError(
            f"gamma({N_max}) >= gamma_c; increase N_max to bracket the threshold"
        )
    # the first N in [2, N_max] with gamma(N) < gamma_c
    N = bisect.bisect_left(range(N_max), True, 2, key=lambda n: gamma_fn(n) < req.gamma_c)
    # tau(N, lam) > tau_c compared exactly: 2^lam N > tau_c * upsilon
    return Fraction(2) ** lam * N > Fraction(req.tau_c) * Fraction(req.upsilon)


def design_security_parameter(
    m: int,
    n: int,
    R_sigma: float,
    Psi_u: np.ndarray,
    Psi_w: np.ndarray,
    req: SecurityRequirement,
) -> tuple[int, int]:
    """Minimum dangerous sample size and minimum sufficient bit security.

    N* = floor((m+n) / (gamma_c [R_sigma (tr(Psi_u)+m) + tr(Psi_w)])) + 2
    lambda* = max(1, floor(log2(upsilon * tau_c / N*)) + 1)

    Both floors are evaluated in exact rational arithmetic, the second as
    the bit length of floor(upsilon * tau_c / N*); binary floats are
    carried in exactly, so results cannot flip from rounding near an
    integer boundary.  The formula gives lambda* <= 0 when upsilon * tau_c
    < N* / 2: breaking N* samples then outlasts tau_c at any level, so
    lambda* is clamped to 1, the least level ``deciphering_time`` accepts.
    """
    tr_u = float(np.trace(np.asarray(Psi_u, dtype=float)))
    tr_w = float(np.trace(np.asarray(Psi_w, dtype=float)))
    denom = Fraction(req.gamma_c) * _per_sample(m, R_sigma, tr_u, tr_w)
    if denom <= 0:
        raise ValueError("R_sigma and the Gramian traces must make the denominator positive")
    N_star = math.floor(Fraction(m + n) / denom) + 2
    lam_star = max(1, (Fraction(req.upsilon) * Fraction(req.tau_c) // N_star).bit_length())
    return N_star, lam_star


def gnfs_ln_complexity(k: int) -> float:
    """Natural log of the general-number-field-sieve cost at k key bits:
    ln Omega(k) = (64/9)^(1/3) (k ln 2)^(1/3) (ln(k ln 2))^(2/3)."""
    if k < 2:
        raise ValueError("k must be at least 2 (ln ln 2^k must be positive)")
    l = k * math.log(2.0)
    return (64.0 / 9.0) ** (1.0 / 3.0) * l ** (1.0 / 3.0) * math.log(l) ** (2.0 / 3.0)


def min_key_length(
    lambda_star: int, ln_cost: Callable[[int], float] = gnfs_ln_complexity
) -> int:
    """Smallest key length whose attack cost reaches 2^lambda*.

    Compares ln Omega(k) >= lambda* ln 2, working in logs so 2^lambda is
    never materialized.  The cost model is monotone, so doubling k brackets
    k* and bisection then pins it: O(log k*) evaluations of ``ln_cost``.
    """
    if lambda_star < 1:
        raise ValueError("lambda_star must be at least 1")
    target = lambda_star * math.log(2.0)
    lo, hi = 2, 2  # every k < lo falls short; k* <= hi once the loop exits
    while ln_cost(hi) < target:
        lo, hi = hi + 1, 2 * hi
    return bisect.bisect_left(range(hi), True, lo, key=lambda k: ln_cost(k) >= target)


@dataclass(frozen=True)
class DesignResult:
    """Output of the full design: (N*, lambda*, k*)."""

    N_star: int
    lambda_star: int
    k_star: int

    def report(self) -> str:
        return (
            f"minimum dangerous sample size  N*      = {self.N_star}\n"
            f"optimal security parameter     lambda* = {self.lambda_star} bit\n"
            f"minimum key length             k*      = {self.k_star} bit"
        )

    def to_json(self) -> str:
        return json.dumps(
            {"N_star": self.N_star, "lambda_star": self.lambda_star, "k_star": self.k_star}
        )


def design(
    m: int,
    n: int,
    R_sigma: float,
    Psi_u: np.ndarray,
    Psi_w: np.ndarray,
    req: SecurityRequirement,
    ln_cost: Callable[[int], float] = gnfs_ln_complexity,
) -> DesignResult:
    """Run the complete pipeline: sample size, security parameter, key length."""
    N_star, lam_star = design_security_parameter(m, n, R_sigma, Psi_u, Psi_w, req)
    return DesignResult(N_star, lam_star, min_key_length(lam_star, ln_cost))
