"""Linear plant, encrypted linear controller, and closed-loop drivers.

The server-side controller multiplies a once-encrypted gain matrix (epoch
0) with freshly encrypted state vectors (current epoch) via cross-epoch
evaluation.  Keys rotate every step on the plant side, and the rotation
token never appears in the controller interface: ``encrypted_controller``
takes only a public key and ciphertexts.

Cost: the plant holds each epoch's secret and draws each randomness
exponent itself, so it encrypts with two powers of the fixed generator
(``modgroup.g_pow``) and computes each mask from its own plaintext and
the inverse of its ciphertext's second component, all of one vector's
inverses from one ``modgroup.inverses`` batch.  The server replies with
alpha x beta integers, the products of second components; the plant
holds every first component it sent and strips the masks by position,
alpha*beta gain masks once per run and beta state masks per step.  A
step costs no variable-base exponentiation, 2*beta + 2*alpha*beta/T
table powers plus one for the key rotation, and 1 + alpha/T
extended-Euclid inverses, and moves 2*beta + alpha*beta group elements:
a run of T steps makes 1 + 2*(alpha*beta + beta*T) + T ``g_pow`` calls
and alpha + T ``inverses`` calls.  At the designed 712 bits s and r are
148-bit draws (``GroupParams.exponent_bits``), so each g^r and g^s reads
at most 19 rows of the generator's table and each g^(s*r) at most 37.
The benchmark's loop_k712 workload gives the time per step.

A plaintext twin (``run_plain_loop``) consumes the identical noise stream
so encrypted-versus-plain deviations isolate quantization effects.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

import numpy as np

from .codec import CodecConfig, decode, encode, sum_rows
from .elgamal import Ciphertext, PublicKey, SecretKey, _pick_r
from .modgroup import GroupParams, g_pow, inverses
from .security_design import spectral_radius
from .updatable import initial_epoch, key_update


@dataclass(frozen=True)
class PlantModel:
    """x_{t+1} = A x_t + B u_t + w_t with Gaussian noise and initial state.

    A must be stable (spectral radius < 1).  sigma_w2 = 0 is allowed as a
    noiseless test mode; sigma_x2 is the initial-state variance, kept
    separate from the noise variance.
    """

    A: np.ndarray
    B: np.ndarray
    sigma_w2: float
    sigma_x2: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must have as many rows as A")
        if spectral_radius(A) >= 1.0:
            raise ValueError("A must be stable (spectral radius < 1)")
        if self.sigma_w2 < 0 or self.sigma_x2 < 0:
            raise ValueError("variances must be nonnegative")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ControllerParams:
    """Static linear gain u = Phi x (alpha x beta)."""

    Phi: np.ndarray

    def __post_init__(self):
        Phi = np.atleast_2d(np.asarray(self.Phi, dtype=float))
        object.__setattr__(self, "Phi", Phi)

    @property
    def alpha(self) -> int:
        return self.Phi.shape[0]

    @property
    def beta(self) -> int:
        return self.Phi.shape[1]


@dataclass(frozen=True)
class LoopTrace:
    """Per-step record of a closed-loop run.

    states[t], inputs[t] are x_t and the applied u_t; ref_inputs[t] is the
    plaintext reference Phi @ (quantized x_t); errors[t] is the max
    absolute deviation between the two.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    ref_inputs: np.ndarray
    errors: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def max_error(self) -> float:
        return float(self.errors.max())

    def write_csv(self, path) -> None:
        """Columns t, x_1..x_n, u_1..u_m, uref_1..uref_m, err."""
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        header = (
            ["t"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"u_{i + 1}" for i in range(m)]
            + [f"uref_{i + 1}" for i in range(m)]
            + ["err"]
        )
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for t in range(len(self)):
                writer.writerow(
                    [int(self.times[t])]
                    + [repr(float(v)) for v in self.states[t]]
                    + [repr(float(v)) for v in self.inputs[t]]
                    + [repr(float(v)) for v in self.ref_inputs[t]]
                    + [repr(float(self.errors[t]))]
                )


def plant_step(
    model: PlantModel, x: np.ndarray, u: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One step of the plant dynamics with fresh Gaussian noise."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (model.n,) or u.shape != (model.m,):
        raise ValueError(f"expected x of shape ({model.n},) and u of shape ({model.m},)")
    w = rng.normal(0.0, np.sqrt(model.sigma_w2), model.n)
    return model.A @ x + model.B @ u + w


def encode_vector(v: np.ndarray, cfg: CodecConfig) -> list[int]:
    """Encode each entry of v, offsetting those that quantize to zero by one
    step: a multiplicative group has no encoding of zero."""
    # |x/delta| <= 0.5 is round(x/delta) == 0, but leaves inf to encode's bound check
    return [encode(cfg.delta if abs(x / cfg.delta) <= 0.5 else x, cfg) for x in map(float, v)]


def encrypt_vector(sk: SecretKey, plaintexts: list[int], rng: random.Random) -> list[Ciphertext]:
    """Encrypt already-encoded plaintexts under the epoch whose secret the
    plant holds, each with fresh randomness.

    The ciphertexts are those of ``elgamal.encrypt(pk, m, rng)`` from the
    same draws, but h^r = g^(s*r) comes from the generator's table, so no
    variable-base exponentiation is made.  The plaintexts come from
    ``encode_vector`` and are members by construction, so they are not
    re-tested.
    """
    params, p = sk.params, sk.params.p
    cts = []
    for m in plaintexts:
        r = _pick_r(params, rng, None, "encrypt_vector")
        cts.append(Ciphertext(g_pow(params, r), m * g_pow(params, sk.s * r) % p))
    return cts


def encrypt_matrix(
    sk: SecretKey, codes: list[list[int]], rng: random.Random
) -> list[list[Ciphertext]]:
    """Encrypt a matrix already encoded row by row with ``encode_vector``."""
    return [encrypt_vector(sk, row, rng) for row in codes]


def own_masks(params: GroupParams, plaintexts: list[int], cts: list[Ciphertext]) -> list[int]:
    """``elgamal.mask(sk, ct.c1)`` of each ciphertext the plant encrypted
    itself, from its plaintext instead of the secret.

    Since c2 = m*g^(s*r), c1^(-s) = g^(-s*r) = m * c2^(-1) mod p: the
    inverses of all second components come from one modular inverse
    (``modgroup.inverses``), where ``mask`` needs an exponentiation each.
    """
    p = params.p
    c2_inverses = inverses(params, [ct.c2 for ct in cts])
    return [m * c2_inv % p for m, c2_inv in zip(plaintexts, c2_inverses, strict=True)]


def encrypted_controller(
    pk0: PublicKey, ct_phi0: list[list[Ciphertext]], ct_xi: list[Ciphertext]
) -> list[list[int]]:
    """Entry-wise encrypted products Phi_ij * xi_j across key epochs.

    ct_phi0 is the gain encrypted at epoch 0; ct_xi the input vector under
    the current epoch.  Entry (i, j) of the reply is
    ``cross_eval(pk0, ct_phi0[i][j], ct_xi[j]).c3``: the plant keeps the
    first components it sent.  The signature deliberately admits no update
    token: this is the complete server-side interface.
    """
    beta = len(ct_xi)
    if any(len(row) != beta for row in ct_phi0):
        raise ValueError("gain matrix columns must match input vector length")
    p = pk0.params.p
    return [[ct_phi.c2 * ct.c2 % p for ct_phi, ct in zip(row, ct_xi)] for row in ct_phi0]


def decrypt_controller_output(
    masks0: list[list[int]], masks_t: list[int], reply: list[list[int]], cfg: CodecConfig
) -> np.ndarray:
    """Strip both epochs' masks from the reply by position, decode at
    delta^2, and sum rows.

    masks0[i][j] is ``mask(sk0, ct_phi0[i][j].c1)`` and masks_t[j] is
    ``mask(sk_t, ct_xi[j].c1)``, as ``own_masks`` computes them.  A reply
    of another shape is rejected.
    """
    p = cfg.params.p
    plain = [
        [
            decode(m0 * m_t % p * c % p, cfg, power=2)
            for m0, m_t, c in zip(row0, masks_t, row, strict=True)
        ]
        for row0, row in zip(masks0, reply, strict=True)
    ]
    return sum_rows(plain)


def _draw_initial_state(model: PlantModel, rng: np.random.Generator, x0) -> np.ndarray:
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (model.n,):
            raise ValueError(f"x0 must have shape ({model.n},)")
        return x0.copy()
    return rng.normal(0.0, np.sqrt(model.sigma_x2), model.n)


def run_encrypted_loop(
    model: PlantModel,
    controller: ControllerParams,
    cfg: CodecConfig,
    T: int,
    noise_rng: np.random.Generator,
    key_rng: random.Random,
    x0: np.ndarray | None = None,
) -> LoopTrace:
    """Drive the plant through the encrypted controller for T steps.

    Each step encodes the state once, encrypts it under the current
    epoch's secret, evaluates the encrypted controller against the
    epoch-0 gain ciphertexts, strips both epochs' masks from the reply,
    steps the plant, and rotates the keys.  The gain is encrypted exactly
    once and its epoch-0 masks are computed once; every mask comes from
    the plant's own plaintext, no ciphertext is ever re-keyed and no
    token leaves this function.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if controller.beta != model.n or controller.alpha != model.m:
        raise ValueError("controller shape must be (m, n) for this plant")
    params = cfg.params
    epoch0 = initial_epoch(params, key_rng)
    codes0 = [encode_vector(row, cfg) for row in controller.Phi]
    ct_phi0 = encrypt_matrix(epoch0.sk, codes0, key_rng)
    masks0 = [own_masks(params, row, cts) for row, cts in zip(codes0, ct_phi0)]
    epoch = epoch0

    x = _draw_initial_state(model, noise_rng, x0)
    states = np.empty((T, model.n))
    inputs = np.empty((T, model.m))
    refs = np.empty((T, model.m))
    errors = np.empty(T)
    for t in range(T):
        try:
            xi = encode_vector(x, cfg)
        except ValueError as exc:
            raise ValueError(f"encoding failed at step {t}: {exc}") from exc
        x_quant = np.array([decode(m, cfg) for m in xi])
        ct_xi = encrypt_vector(epoch.sk, xi, key_rng)
        reply = encrypted_controller(epoch0.pk, ct_phi0, ct_xi)
        masks_t = own_masks(params, xi, ct_xi)
        u = decrypt_controller_output(masks0, masks_t, reply, cfg)
        u_ref = controller.Phi @ x_quant
        states[t] = x
        inputs[t] = u
        refs[t] = u_ref
        errors[t] = np.abs(u - u_ref).max()
        x = plant_step(model, x, u, noise_rng)
        epoch, _token = key_update(epoch, key_rng)  # token stays on the plant side
    return LoopTrace(np.arange(T), states, inputs, refs, errors)


def run_plain_loop(
    model: PlantModel,
    controller: ControllerParams,
    T: int,
    noise_rng: np.random.Generator,
    x0: np.ndarray | None = None,
) -> LoopTrace:
    """Reference loop with u = Phi x in the clear.

    Draws noise in the same order as the encrypted loop, so running both
    with generators seeded identically yields identical noise streams.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if controller.beta != model.n or controller.alpha != model.m:
        raise ValueError("controller shape must be (m, n) for this plant")
    x = _draw_initial_state(model, noise_rng, x0)
    states = np.empty((T, model.n))
    inputs = np.empty((T, model.m))
    for t in range(T):
        u = controller.Phi @ x
        states[t] = x
        inputs[t] = u
        x = plant_step(model, x, u, noise_rng)
    return LoopTrace(np.arange(T), states, inputs, inputs.copy(), np.zeros(T))
