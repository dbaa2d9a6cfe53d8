"""Key rotation for the multiplicative scheme, with cross-epoch evaluation.

A key epoch is rotated by drawing a fresh secret s' and publishing
h' = h*g^d with d = s' - s mod q.  The pair (h, d) is the update token;
whoever holds it can refresh old ciphertexts to the new key, but can also
recover the next secret key from the current one (``recover_next_key``),
which is exactly why the token must never reach an untrusted host.

``cross_eval``/``cross_decrypt`` remove the need to send the token out at
all: the product of two ciphertexts from *different* epochs is kept as a
three-component ciphertext and decrypted with both epoch secrets, so a
remote evaluator only ever sees public keys and ciphertexts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .elgamal import Ciphertext, PublicKey, SecretKey, _pick_r, _trusted, keygen, multiply
from .modgroup import GroupParams, g_pow, powmod2


class UpdateToken(NamedTuple):
    h_old: int  # public component before the rotation
    d: int      # secret-key difference, reduced mod q


class ExtendedCiphertext(NamedTuple):
    c1: int
    c2: int
    c3: int


@dataclass(frozen=True)
class KeyEpoch:
    t: int
    pk: PublicKey
    sk: SecretKey

    def __post_init__(self):
        params = self.pk.params
        if self.t < 0:
            raise ValueError("epoch index must be nonnegative")
        if g_pow(params, self.sk.s) != self.pk.h:
            raise ValueError("public and secret keys do not match")


def initial_epoch(params: GroupParams, rng: random.Random) -> KeyEpoch:
    """Generate the epoch-0 key pair."""
    pk, sk = keygen(params, rng)
    return _trusted(KeyEpoch, 0, pk, sk)


def key_update(epoch: KeyEpoch, rng: random.Random) -> tuple[KeyEpoch, UpdateToken]:
    """Rotate to a fresh secret; returns the next epoch and its token.

    The difference d = s' - s is reduced mod q, not mod p: exponents live
    in the order-q group, and reducing mod p would make h*g^d miss g^{s'}
    whenever s' < s.  h' = h*g^d = g^{s'} holds for any valid epoch, so
    the new one skips the key-match and membership checks and a rotation
    costs one fixed-base exponentiation.
    """
    params = epoch.pk.params
    s_new = rng.randrange(params.q)
    d = (s_new - epoch.sk.s) % params.q
    h_new = epoch.pk.h * g_pow(params, d) % params.p
    token = UpdateToken(epoch.pk.h, d)
    new_epoch = _trusted(
        KeyEpoch, epoch.t + 1, _trusted(PublicKey, params, h_new), SecretKey(params, s_new)
    )
    return new_epoch, token


def ct_update(
    params: GroupParams,
    ct: Ciphertext,
    token: UpdateToken,
    rng: random.Random | None = None,
    r: int | None = None,
) -> Ciphertext:
    """Re-key a ciphertext to the epoch after ``token``'s rotation.

    Output is (c1*g^r, (c1*g^r)^d * h^r * c2) with fresh r, so the result
    is also re-randomized.  Decrypting under the post-rotation secret key
    yields the original plaintext.  g^r is a table power and
    (c1*g^r)^d * h^r one joint exponentiation (``modgroup.powmod2``).
    """
    r = _pick_r(params, rng, r, "ct_update")
    p = params.p
    c1_new = ct.c1 * g_pow(params, r) % p
    c2_new = powmod2(c1_new, token.d, token.h_old, r, p) * ct.c2 % p
    return Ciphertext(c1_new, c2_new)


def cross_eval(pk: PublicKey, ct1: Ciphertext, ct2: Ciphertext) -> ExtendedCiphertext:
    """Multiply two ciphertexts that may come from different key epochs.

    Keeps both first components so each epoch's mask can be stripped
    separately at decryption time.  Needs no secret material and no
    token; epoch bookkeeping is the caller's job.
    """
    ct = multiply(pk, ct1, ct2)
    return ExtendedCiphertext(ct1.c1, ct2.c1, ct.c2)


def cross_decrypt(sk1: SecretKey, sk2: SecretKey, ect: ExtendedCiphertext) -> int:
    """Decrypt a cross-epoch product with the two operand epochs' secrets.

    sk1/sk2 must be the epochs of the first/second operand of
    ``cross_eval``.  Wrong keys produce a uniformly random-looking group
    element rather than an error.  The result is c1^(-s1) * c2^(-s2) * c3,
    both masks ``elgamal.mask``'s c^(q-s) and taken in one joint
    exponentiation (``modgroup.powmod2``).
    """
    p, q = sk1.params.p, sk1.params.q
    return powmod2(ect.c1, (q - sk1.s) % q, ect.c2, (q - sk2.s) % q, p) * ect.c3 % p


def recover_next_key(sk: SecretKey, token: UpdateToken) -> SecretKey:
    """Next epoch's secret key from the current one plus the update token.

    s' = s + d mod q, always.  This is the attack the token-free data
    flow is designed to rule out; it exists so tests and demos can show
    the vulnerability concretely.
    """
    return SecretKey(sk.params, (sk.s + token.d) % sk.params.q)
