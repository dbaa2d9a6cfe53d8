"""Key rotation for the multiplicative scheme, with cross-epoch evaluation.

A key epoch is rotated by drawing a fresh secret s' and publishing
h' = g^{s'} = h*g^d with d = s' - s mod q.  The pair (h, d) is the
update token; whoever holds it can refresh old ciphertexts to the new
key, but can also recover the next secret key from the current one
(``recover_next_key``), which is exactly why the token must never reach
an untrusted host.

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
from .modgroup import GroupParams, g_pow, inverse, powmod2


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

    The new pair (g^{s'}, s') is ``keygen``'s, s' below 2^L for the
    group's ``exponent_bits`` L.  The difference d = s' - s is reduced
    mod q, not mod p: exponents live in the order-q group, and reducing
    mod p would make h*g^d miss g^{s'} whenever s' < s.  g^{s'} equals
    h*g^d for any valid epoch, so the new one skips the key-match and
    membership checks and a rotation costs one table power of the short
    s' (d itself is full-length whenever s' < s).
    """
    pk, sk = keygen(epoch.pk.params, rng)
    token = UpdateToken(epoch.pk.h, (sk.s - epoch.sk.s) % sk.params.q)
    return _trusted(KeyEpoch, epoch.t + 1, pk, sk), token


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
    When d > q/2 the chain takes d - q, the same power of a subgroup
    member, so with both secrets below 2^L its exponents stay L bits long.
    """
    r = _pick_r(params, rng, r, "ct_update")
    p, q = params.p, params.q
    c1_new = ct.c1 * g_pow(params, r) % p
    d = token.d % q
    if d > q // 2:
        d -= q
    return Ciphertext(c1_new, powmod2(c1_new, d, token.h_old, r, p) * ct.c2 % p)


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
    element rather than an error.  The result is c1^(-s1) * c2^(-s2) * c3:
    c1^s1 * c2^s2 is one joint exponentiation over the two short secrets
    (``modgroup.powmod2``), and one extended-Euclid inverse strips it.
    """
    params = sk1.params
    both = powmod2(ect.c1, sk1.s, ect.c2, sk2.s, params.p)
    return inverse(params, both) * ect.c3 % params.p


def recover_next_key(sk: SecretKey, token: UpdateToken) -> SecretKey:
    """Next epoch's secret key from the current one plus the update token.

    s' = s + d mod q, always.  This is the attack the token-free data
    flow is designed to rule out; it exists so tests and demos can show
    the vulnerability concretely.
    """
    return SecretKey(sk.params, (sk.s + token.d) % sk.params.q)
