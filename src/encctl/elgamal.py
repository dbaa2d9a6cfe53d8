"""Textbook multiplicative ElGamal over a prime-order subgroup.

Ciphertexts are pairs (g^r, m*h^r) mod p.  The scheme is multiplicatively
homomorphic: the component-wise product of two ciphertexts under the same
key decrypts to the product of the plaintexts mod p.

Secrets s and randomness r are drawn below 2^L for the group's
``exponent_bits`` L = 2*lambda (148 bits at 712), or from all of [0, q)
on small groups where L is unset.  Short-exponent ElGamal is IND-CPA under DDH
plus the discrete-log-with-short-exponents assumption (Koshiba &
Kurosawa, PKC 2004).  Keys and randomness given from outside may be any
exponent in [0, q); they only cost a full-length exponentiation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import NamedTuple

from .modgroup import GroupParams, g_pow, is_member, powmod


@dataclass(frozen=True)
class SecretKey:
    params: GroupParams
    s: int

    def __post_init__(self):
        if not 0 <= self.s < self.params.q:
            raise ValueError("secret exponent outside [0, q)")


@dataclass(frozen=True)
class PublicKey:
    params: GroupParams
    h: int

    def __post_init__(self):
        if not is_member(self.params, self.h):
            raise ValueError("public component outside the subgroup")


class Ciphertext(NamedTuple):
    c1: int
    c2: int


def _trusted(cls, *values):
    """An instance of the frozen dataclass ``cls`` built without its
    ``__post_init__`` checks, for keys this package has just derived.

    The public constructors keep their checks for keys that come from
    outside.
    """
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values):
        object.__setattr__(obj, field.name, value)
    return obj


def _draw_exponent(params: GroupParams, rng: random.Random, low: int = 0) -> int:
    """One exponent drawn from [low, 2^L) for the group's ``exponent_bits``
    L, or from [low, q) when L is unset."""
    L = params.exponent_bits
    return rng.randrange(low, 1 << L if L else params.q)


def _pick_r(params: GroupParams, rng: random.Random | None, r: int | None, caller: str) -> int:
    """The randomness exponent for ``caller``: ``r`` when given, checked to
    lie in [0, q), otherwise one ``_draw_exponent`` from 1 up."""
    if r is None:
        if rng is None:
            raise ValueError(f"{caller} needs an rng when r is not given")
        return _draw_exponent(params, rng, 1)
    if not 0 <= r < params.q:
        raise ValueError("r outside [0, q)")
    return r


def keygen(params: GroupParams, rng: random.Random) -> tuple[PublicKey, SecretKey]:
    """Draw s with ``_draw_exponent`` and return ((params, g^s mod p), s).

    s is uniform below 2^L for the group's ``exponent_bits`` L, or over
    Z_q on groups where L is unset.
    """
    s = _draw_exponent(params, rng)
    h = g_pow(params, s)  # a subgroup member by construction
    return _trusted(PublicKey, params, h), SecretKey(params, s)


def encrypt(pk: PublicKey, m: int, rng: random.Random | None = None, r: int | None = None) -> Ciphertext:
    """Encrypt a subgroup member m as (g^r, m*h^r) mod p.

    r is drawn fresh from (0, 2^L), or (0, q) where the group's
    ``exponent_bits`` L is unset, unless given explicitly; passing any r
    in [0, q) (including 0) makes the ciphertext deterministic for
    testing.  r = 0 is never drawn because it would reveal m in the
    second component.
    """
    p = pk.params.p
    if not is_member(pk.params, m):
        raise ValueError(f"plaintext {m} is not a subgroup member")
    r = _pick_r(pk.params, rng, r, "encrypt")
    return Ciphertext(g_pow(pk.params, r), m * powmod(pk.h, r, p) % p)


def mask(sk: SecretKey, c1: int) -> int:
    """The factor c1^{-s} mod p that strips the key from a ciphertext
    whose first component is c1; ValueError for a c1 that is a multiple
    of p and s > 0."""
    return powmod(c1, -sk.s, sk.params.p)


def decrypt(sk: SecretKey, ct: Ciphertext) -> int:
    """Recover m = c1^{-s} * c2 mod p."""
    return mask(sk, ct.c1) * ct.c2 % sk.params.p


def multiply(pk: PublicKey, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    """Homomorphic product of two ciphertexts under the same key epoch."""
    p = pk.params.p
    return Ciphertext(ct1.c1 * ct2.c1 % p, ct1.c2 * ct2.c2 % p)
