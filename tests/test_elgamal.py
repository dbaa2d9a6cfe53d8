import random

import pytest
from hypothesis import example, given

from encctl.elgamal import (
    Ciphertext,
    PublicKey,
    SecretKey,
    decrypt,
    encrypt,
    keygen,
    mask,
    multiply,
)
from encctl.modgroup import is_member
from conftest import LAW, WIDE, ScriptedRng, member


@pytest.fixture
def toy_keys(toy_group):
    return PublicKey(toy_group, 8), SecretKey(toy_group, 3)


def random_member(params, rng):
    return pow(params.g, rng.randrange(params.q), params.p)


def test_public_component_from_secret(toy_group):
    for s, h in [(3, 8), (0, 1), (7, 13)]:
        assert pow(toy_group.g, s, toy_group.p) == h


def test_keygen_consistency(group64):
    rng = random.Random(5)
    for _ in range(20):
        pk, sk = keygen(group64, rng)
        assert 0 <= sk.s < group64.q
        assert pk.h == pow(group64.g, sk.s, group64.p)


def test_public_key_rejects_non_member(toy_group):
    with pytest.raises(ValueError):
        PublicKey(toy_group, 5)


def test_secret_key_range(toy_group):
    with pytest.raises(ValueError):
        SecretKey(toy_group, 11)
    with pytest.raises(ValueError):
        SecretKey(toy_group, -1)


def test_encrypt_examples(toy_keys):
    pk, _ = toy_keys
    assert encrypt(pk, 4, r=2) == Ciphertext(4, 3)
    assert encrypt(pk, 1, r=0) == Ciphertext(1, 1)
    assert encrypt(pk, 2, r=5) == Ciphertext(9, 9)


def test_encrypt_rejects_non_member(toy_keys):
    pk, _ = toy_keys
    with pytest.raises(ValueError):
        encrypt(pk, 5, r=2)


def test_encrypt_needs_rng_or_r(toy_keys):
    pk, _ = toy_keys
    with pytest.raises(ValueError, match="encrypt needs an rng"):
        encrypt(pk, 4)
    with pytest.raises(ValueError, match="r outside"):
        encrypt(pk, 4, r=11)


def test_encrypt_never_draws_zero_r(toy_keys):
    pk, _ = toy_keys
    for seed in range(50):
        ct = encrypt(pk, 4, random.Random(seed))
        assert ct.c1 != 1  # c1 = g^r = 1 only for r = 0


def test_decrypt_examples(toy_group, toy_keys):
    _, sk = toy_keys
    assert decrypt(sk, Ciphertext(4, 3)) == 4
    for m in [1, 2, 4, 8]:
        assert decrypt(sk, Ciphertext(1, m)) == m  # r = 0 case
    assert decrypt(sk, Ciphertext(13, 4)) == 8


def test_mask_inverts_the_key_power(toy_group, toy_keys):
    _, sk = toy_keys
    members = [pow(toy_group.g, e, toy_group.p) for e in range(toy_group.q)]
    for c in members:
        assert mask(sk, c) * pow(c, sk.s, toy_group.p) % toy_group.p == 1
        assert mask(SecretKey(toy_group, 0), c) == 1
    assert mask(sk, 4) * 3 % toy_group.p == decrypt(sk, Ciphertext(4, 3))


def test_multiply_examples(toy_keys):
    pk, sk = toy_keys
    assert multiply(pk, Ciphertext(4, 3), Ciphertext(9, 9)) == Ciphertext(13, 4)
    assert decrypt(sk, Ciphertext(13, 4)) == 8  # 4 * 2 mod 23
    ct = Ciphertext(4, 3)
    assert multiply(pk, ct, Ciphertext(1, 1)) == ct
    sq = multiply(pk, ct, ct)
    assert sq == Ciphertext(16, 9)
    assert decrypt(sk, sq) == 16


@LAW
@given(s=WIDE, m=WIDE, r=WIDE)
@example(s=0, m=0, r=0)
@example(s=-1, m=-1, r=-1)
def test_round_trip_200_cases(law_group, s, m, r):
    pk, sk = keygen(law_group, ScriptedRng(s % law_group.q))
    m = member(law_group, m)
    assert decrypt(sk, encrypt(pk, m, r=r % law_group.q)) == m


@LAW
@given(s=WIDE, m1=WIDE, m2=WIDE, r1=WIDE, r2=WIDE)
@example(s=0, m1=0, m2=-1, r1=0, r2=-1)
@example(s=-1, m1=-1, m2=-1, r1=-1, r2=1)
def test_homomorphism_200_cases(law_group, s, m1, m2, r1, r2):
    params = law_group
    pk, sk = keygen(params, ScriptedRng(s % params.q))
    m1, m2 = member(params, m1), member(params, m2)
    ct = multiply(pk, encrypt(pk, m1, r=r1 % params.q), encrypt(pk, m2, r=r2 % params.q))
    assert decrypt(sk, ct) == m1 * m2 % params.p


def test_ciphertext_components_stay_in_subgroup(group64):
    rng = random.Random(31)
    pk, _ = keygen(group64, rng)
    for _ in range(50):
        ct = encrypt(pk, random_member(group64, rng), rng)
        assert is_member(group64, ct.c1) and is_member(group64, ct.c2)
        ct2 = multiply(pk, ct, ct)
        assert is_member(group64, ct2.c1) and is_member(group64, ct2.c2)
