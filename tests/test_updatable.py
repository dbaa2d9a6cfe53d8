import builtins
import random

import pytest
import scipy.stats
from hypothesis import example, given, strategies as st

from encctl.elgamal import Ciphertext, PublicKey, SecretKey, decrypt, encrypt, keygen
from encctl.modgroup import is_member
from encctl.updatable import (
    ExtendedCiphertext,
    KeyEpoch,
    UpdateToken,
    cross_decrypt,
    cross_eval,
    ct_update,
    initial_epoch,
    key_update,
    recover_next_key,
)
from conftest import LAW, WIDE, ScriptedRng, count_calls, member


@pytest.fixture
def toy_epoch(toy_group):
    return KeyEpoch(0, PublicKey(toy_group, 8), SecretKey(toy_group, 3))


def test_epoch_rejects_mismatched_keys(toy_group):
    with pytest.raises(ValueError):
        KeyEpoch(0, PublicKey(toy_group, 8), SecretKey(toy_group, 4))


def test_derived_epochs_are_not_rechecked(monkeypatch, group64):
    # h' = h*g^d is the new key by construction: a rotation costs one g^d
    # and neither the key-match nor the membership check runs again
    epoch = initial_epoch(group64, random.Random(1))
    g_calls = count_calls(monkeypatch, "g_pow")
    member_calls = count_calls(monkeypatch, "is_member")
    nxt, _token = key_update(epoch, random.Random(2))
    assert len(g_calls) == 1 and member_calls == []
    assert nxt.pk.h == pow(group64.g, nxt.sk.s, group64.p)
    g_calls.clear()
    fresh = initial_epoch(group64, random.Random(3))
    assert len(g_calls) == 1 and member_calls == []  # keygen's g^s only
    assert fresh.pk.h == pow(group64.g, fresh.sk.s, group64.p)


def test_key_update_examples(toy_epoch):
    # scripted next secrets: d = s' - s mod q, h' = h * g^d
    for s_new, d, h_new in [(7, 4, 13), (3, 0, 8), (1, 9, 2)]:
        epoch, token = key_update(toy_epoch, ScriptedRng(s_new))
        assert (epoch.t, epoch.sk.s, epoch.pk.h) == (1, s_new, h_new)
        assert token == UpdateToken(8, d)


def test_ct_update_example(toy_group):
    ct = Ciphertext(4, 3)  # encrypts 4 under s = 3
    token = UpdateToken(8, 4)  # rotation 3 -> 7
    assert ct_update(toy_group, ct, token, r=1) == Ciphertext(8, 2)
    assert decrypt(SecretKey(toy_group, 7), Ciphertext(8, 2)) == 4


def test_ct_update_identity(toy_group):
    ct = Ciphertext(4, 3)
    assert ct_update(toy_group, ct, UpdateToken(8, 0), r=0) == ct


def test_ct_update_needs_rng_or_r(toy_group):
    ct, token = Ciphertext(4, 3), UpdateToken(8, 4)
    with pytest.raises(ValueError, match="ct_update needs an rng"):
        ct_update(toy_group, ct, token)
    with pytest.raises(ValueError, match="r outside"):
        ct_update(toy_group, ct, token, r=-1)


def test_ct_update_preserves_plaintext_any_randomness(toy_group):
    ct = Ciphertext(4, 3)
    token = UpdateToken(8, 4)
    for r in range(toy_group.q):
        updated = ct_update(toy_group, ct, token, r=r)
        assert decrypt(SecretKey(toy_group, 7), updated) == 4


def test_cross_eval_example(toy_group):
    pk0 = PublicKey(toy_group, 8)
    ct1 = Ciphertext(4, 3)  # m1 = 4 under s = 3
    ct2 = Ciphertext(8, 1)  # m2 = 2 under s' = 7, r' = 3
    ect = cross_eval(pk0, ct1, ct2)
    assert ect == ExtendedCiphertext(4, 8, 3)
    assert cross_decrypt(SecretKey(toy_group, 3), SecretKey(toy_group, 7), ect) == 8


def test_cross_eval_zero_randomness(toy_group):
    pk = PublicKey(toy_group, 8)
    for m1, m2 in [(2, 3), (4, 6), (13, 18)]:
        ect = cross_eval(pk, Ciphertext(1, m1), Ciphertext(1, m2))
        assert ect == ExtendedCiphertext(1, 1, m1 * m2 % 23)


def test_cross_eval_closure(group64):
    rng = random.Random(3)
    pk, _ = keygen(group64, rng)
    for _ in range(20):
        m = pow(group64.g, rng.randrange(group64.q), group64.p)
        ect = cross_eval(pk, encrypt(pk, m, rng), encrypt(pk, m, rng))
        assert all(is_member(group64, c) for c in ect)


def test_cross_decrypt_degenerate_second_operand(toy_group):
    # second operand with r' = 0 and m2 = 1 reduces to plain decryption
    sk = SecretKey(toy_group, 3)
    for c1, c2 in [(4, 3), (13, 4), (9, 9)]:
        ect = ExtendedCiphertext(c1, 1, c2)
        assert cross_decrypt(sk, sk, ect) == decrypt(sk, Ciphertext(c1, c2))


def test_rekey_and_cross_decrypt_use_one_joint_chain(monkeypatch, group64):
    # each call is one powmod2 chain and at most one extended-Euclid
    # inverse, ct_update's inside the chain when d > q/2: no powmod and no
    # other pow call
    rng = random.Random(5)
    epoch = initial_epoch(group64, rng)
    nxt, token = key_update(epoch, rng)
    m = pow(group64.g, 77, group64.p)
    ct, ct_next = encrypt(epoch.pk, m, rng), encrypt(nxt.pk, m, rng)
    powmods = count_calls(monkeypatch, "powmod")
    chains = count_calls(monkeypatch, "powmod2")
    inverses = count_calls(monkeypatch, "inverse")
    pows = []
    real_pow = builtins.pow

    def counted_pow(*args):
        pows.append(args)
        return real_pow(*args)

    monkeypatch.setattr(builtins, "pow", counted_pow)
    updated = ct_update(group64, ct, token, rng)
    counts = [(len(chains), len(inverses))]
    product = cross_decrypt(epoch.sk, nxt.sk, cross_eval(epoch.pk, ct, ct_next))
    counts.append((len(chains), len(inverses)))
    monkeypatch.undo()
    assert decrypt(nxt.sk, updated) == m
    assert product == m * m % group64.p
    assert powmods == []
    assert counts[0] == (1, 0)
    assert counts[1][0] - counts[0][0] == 1 and counts[1][1] - counts[0][1] == 1
    assert len(pows) == len(inverses) + (token.d > group64.q // 2)
    assert all(args[1] == -1 for args in pows)


def short_epoch(params, s):
    """The epoch of secret s, built through the public constructors."""
    return KeyEpoch(0, PublicKey(params, pow(params.g, s, params.p)), SecretKey(params, s))


def test_full_length_keys_interoperate_with_short_ones(group712):
    # a full-length secret from outside decrypts, rotates to a short one,
    # re-keys and cross-decrypts beside a short key
    params = group712
    rng = random.Random(41)
    full = short_epoch(params, params.q // 3 + rng.randrange(2**64))
    short = initial_epoch(params, rng)
    assert full.sk.s.bit_length() == 710 and short.sk.s < 2**148
    m1, m2 = (pow(params.g, rng.randrange(params.q), params.p) for _ in range(2))
    ct_full, ct_short = encrypt(full.pk, m1, rng), encrypt(short.pk, m2, rng)
    assert decrypt(full.sk, ct_full) == m1
    for sk1, sk2, ct1, ct2 in [
        (full.sk, short.sk, ct_full, ct_short),
        (short.sk, full.sk, ct_short, ct_full),
    ]:
        ect = cross_eval(full.pk, ct1, ct2)
        assert cross_decrypt(sk1, sk2, ect) == m1 * m2 % params.p
    # neither d nor q - d is short between a full-length and a short key
    nxt, token = key_update(full, rng)
    assert nxt.sk.s < 2**148 and min(token.d, params.q - token.d).bit_length() > 700
    assert decrypt(nxt.sk, ct_update(params, ct_full, token, rng)) == m1
    d = (full.sk.s - short.sk.s) % params.q  # short -> full, by a hand-made token
    assert decrypt(full.sk, ct_update(params, ct_short, UpdateToken(short.pk.h, d), rng)) == m2


@pytest.mark.parametrize("s_old, s_new", [(2**147 + 5, 2**140 + 3), (2**140 + 3, 2**147 + 5)])
def test_ct_update_inverts_the_base_for_long_differences(monkeypatch, group712, s_old, s_new):
    # with s' < s the difference d = s' - s mod q exceeds q/2, and the chain
    # takes the short negative d - q instead
    params = group712
    epoch = short_epoch(params, s_old)
    nxt, token = key_update(epoch, ScriptedRng(s_new))
    assert nxt.sk.s == s_new and (token.d > params.q // 2) == (s_new < s_old)
    rng = random.Random(43)
    m = pow(params.g, rng.randrange(params.q), params.p)
    ct = encrypt(epoch.pk, m, rng)
    chains = count_calls(monkeypatch, "powmod2")
    updated = ct_update(params, ct, token, rng)
    (_, x, _, y, _), = chains
    assert (x < 0) == (s_new < s_old)
    assert max(abs(x).bit_length(), y.bit_length()) <= 148
    assert decrypt(nxt.sk, updated) == m


def test_recover_next_key_examples(toy_group):
    sk = SecretKey(toy_group, 3)
    assert recover_next_key(sk, UpdateToken(8, 4)).s == 7
    assert recover_next_key(sk, UpdateToken(8, 0)).s == 3
    assert recover_next_key(sk, UpdateToken(8, 9)).s == 1


@LAW
@given(s=WIDE, m=WIDE, r=WIDE, steps=st.lists(st.tuples(WIDE, WIDE), max_size=30))
@example(s=0, m=0, r=0, steps=[(0, 0)])
@example(s=-1, m=-1, r=-1, steps=[(-1, -1), (0, 1)])
def test_epoch_chain_decrypt_invariance(law_group, s, m, r, steps):
    # k rotations, each ct_update with its own r, then decrypt at the end
    params = law_group
    epoch = initial_epoch(params, ScriptedRng(s % params.q))
    m = member(params, m)
    ct = encrypt(epoch.pk, m, r=r % params.q)
    for s_next, r_next in steps:
        epoch, token = key_update(epoch, ScriptedRng(s_next % params.q))
        ct = ct_update(params, ct, token, r=r_next % params.q)
    assert decrypt(epoch.sk, ct) == m


@LAW
@given(s=WIDE, m1=WIDE, m2=WIDE, r1=WIDE, r2=WIDE, later=st.lists(WIDE, max_size=20))
@example(s=0, m1=0, m2=-1, r1=0, r2=-1, later=[])
@example(s=-1, m1=-1, m2=-1, r1=-1, r2=1, later=[0])
def test_cross_time_homomorphism_200_cases(law_group, s, m1, m2, r1, r2, later):
    # the second operand is encrypted k = 0..20 rotations after the first
    params = law_group
    epoch_t = initial_epoch(params, ScriptedRng(s % params.q))
    epoch_later = epoch_t
    for s_next in later:
        epoch_later, _ = key_update(epoch_later, ScriptedRng(s_next % params.q))
    m1, m2 = member(params, m1), member(params, m2)
    ct1 = encrypt(epoch_t.pk, m1, r=r1 % params.q)
    ct2 = encrypt(epoch_later.pk, m2, r=r2 % params.q)
    ect = cross_eval(epoch_t.pk, ct1, ct2)
    assert cross_decrypt(epoch_t.sk, epoch_later.sk, ect) == m1 * m2 % params.p


def test_recover_next_key_always_exact(group64):
    rng = random.Random(400)
    epoch = initial_epoch(group64, rng)
    for _ in range(100):
        nxt, token = key_update(epoch, rng)
        assert recover_next_key(epoch.sk, token).s == nxt.sk.s
        epoch = nxt


def test_next_secret_uniform_without_token(toy_epoch):
    # repeated rotations from one fixed epoch: without the token the next
    # secret carries no information, landing uniformly on Z_q
    q = toy_epoch.pk.params.q
    draws = 300 * q
    counts = [0] * q
    rng = random.Random(8)
    for _ in range(draws):
        nxt, _ = key_update(toy_epoch, rng)
        counts[nxt.sk.s] += 1
    _, p_value = scipy.stats.chisquare(counts)
    assert p_value > 0.001
