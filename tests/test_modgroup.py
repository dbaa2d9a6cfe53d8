import gc
import random
import weakref

import pytest
import sympy
from hypothesis import example, given, strategies as st

from encctl.modgroup import (
    COMB_ROWS,
    COMB_TABLES,
    GroupGenerationError,
    GroupParams,
    g_pow,
    generate_group_params,
    inverse,
    inverses,
    is_member,
    is_probable_prime,
    nearest_member,
    powmod2,
)
from conftest import LAW, TOY, WIDE, count_calls

TOY_MEMBERS = [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]


def test_toy_params_construct(toy_group):
    assert toy_group.p == 2 * toy_group.q + 1
    assert pow(toy_group.g, toy_group.q, toy_group.p) == 1


def test_params_reject_bad_relation():
    with pytest.raises(ValueError):
        GroupParams(p=23, q=7, g=2)
    with pytest.raises(ValueError):
        GroupParams(p=23, q=11, g=1)
    with pytest.raises(ValueError):
        GroupParams(p=23, q=11, g=5)  # order 22, not 11


def test_generate_five_bits_is_23():
    # 23 is the only safe prime with exactly five bits
    for seed in range(3):
        params = generate_group_params(5, random.Random(seed))
        assert (params.p, params.q, params.cofactor) == (23, 11, 2)
        assert params.g != 1 and pow(params.g, 11, 23) == 1


def test_generate_64_bits(group64):
    assert group64.p.bit_length() == 64
    assert group64.cofactor == 2
    assert sympy.isprime(group64.p) and sympy.isprime(group64.q)
    assert pow(group64.g, group64.q, group64.p) == 1


def test_generate_712_bits(group712):
    assert group712.p.bit_length() == 712
    assert sympy.isprime(group712.p) and sympy.isprime(group712.q)


def test_generate_rejects_tiny_bit_length():
    with pytest.raises(ValueError):
        generate_group_params(2, random.Random(0))


def test_generate_attempt_budget():
    with pytest.raises(GroupGenerationError):
        generate_group_params(64, random.Random(123), max_attempts=1)


def test_miller_rabin_agrees_with_sympy():
    rng = random.Random(42)
    for n in range(3, 2000):
        assert is_probable_prime(n, rng) == sympy.isprime(n), n
    for _ in range(300):
        n = rng.randrange(3, 10**9) | 1
        assert is_probable_prime(n, rng) == sympy.isprime(n), n


def test_is_member_examples(toy_group):
    assert is_member(toy_group, 4)
    assert not is_member(toy_group, 5)
    assert is_member(toy_group, 1)


def test_is_member_domain(toy_group):
    with pytest.raises(ValueError):
        is_member(toy_group, 0)
    with pytest.raises(ValueError):
        is_member(toy_group, 23)


def test_powers_of_generator_are_members(toy_group, group64):
    for params in (toy_group, group64):
        rng = random.Random(1)
        for _ in range(50):
            k = rng.randrange(params.q)
            assert is_member(params, pow(params.g, k, params.p))


def test_nearest_member_examples(toy_group):
    assert nearest_member(toy_group, 5) == 4  # tie with 6 broken downward
    assert nearest_member(toy_group, 4) == 4
    assert nearest_member(toy_group, 22) == 18


def test_nearest_member_domain(toy_group):
    with pytest.raises(ValueError):
        nearest_member(toy_group, 0)
    with pytest.raises(ValueError):
        nearest_member(toy_group, 23)


def test_nearest_member_idempotent_on_members(toy_group):
    for a in TOY_MEMBERS:
        assert nearest_member(toy_group, a) == a


def test_nearest_member_matches_enumeration(toy_group):
    # independent oracle: pick argmin over the enumerated subgroup,
    # smaller member on distance ties
    for target in range(1, toy_group.p):
        best = min(TOY_MEMBERS, key=lambda a: (abs(a - target), a))
        assert nearest_member(toy_group, target) == best, target


def test_nearest_member_gap_bound_32_bit():
    params = generate_group_params(32, random.Random(9))
    rng = random.Random(10)
    for _ in range(500):
        target = rng.randrange(1, params.p)
        member = nearest_member(params, target)
        assert is_member(params, member)
        assert abs(member - target) <= 64


def comb_boundaries(params: GroupParams) -> list[int]:
    """2^(i*a + j*b) for every row i, column block j and the last column,
    with the comb's a columns in blocks of b, and the all-ones exponent
    just below each."""
    t = params.q.bit_length()
    rows = min(COMB_ROWS, t)
    a = -(-t // rows)
    b = -(-a // COMB_TABLES)
    shifts = [i * a + c for i in range(rows) for c in [*range(0, a, b), a - 1]]
    return [2**k for k in shifts] + [2**k - 1 for k in shifts] + [2**t - 1]


@pytest.mark.parametrize("name", ["toy_group", "group64", "group712"])
def test_g_pow_matches_pow(name, request):
    params = request.getfixturevalue(name)
    rng = random.Random(7)
    exps = [0, 1, 63, 64, params.q - 1, params.q, -1] + comb_boundaries(params)
    exps += [rng.randrange(params.q) for _ in range(100)]
    for e in exps:
        assert g_pow(params, e) == pow(params.g, e, params.p), e


@LAW
@given(e=WIDE)
@example(e=0)
@example(e=-1)
def test_g_pow_law(law_group, e):
    params = law_group
    for x in (e, params.q - 1 - e % params.q, e * params.q):
        assert g_pow(params, x) == pow(params.g, x, params.p), x


def test_small_groups_build_small_combs(toy_group, group64, group712):
    # only tables whose columns exist: one 16-entry table for the toy group
    def entries(params):
        g_pow(params, 1)
        tables = {id(table): table for step in params._comb.schedule for table, _ in step}
        return sorted(len(table) for table in tables.values())

    assert entries(toy_group) == [16]
    assert entries(group64) == [2**COMB_ROWS] * 3
    assert entries(group712) == [2**COMB_ROWS] * COMB_TABLES


def product_of_pows(a, x, b, y, p):
    return pow(a, x, p) * pow(b, y, p) % p


@LAW
@given(a=WIDE, b=WIDE, x=st.integers(0, 2**80), y=st.integers(0, 2**80))
@example(a=2, b=2, x=0, y=0)
@example(a=-1, b=-1, x=1, y=2**80)
@example(a=3, b=3, x=2**80 - 1, y=1)  # a = b
def test_powmod2_law(law_group, a, b, x, y):
    p = law_group.p
    a, b = a % p, b % p
    assert powmod2(a, x, b, y, p) == product_of_pows(a, x, b, y, p)
    q = law_group.q
    for x_q, y_q in ((x % q, q - 1), (q - 1, y % q), (1, 0), (0, 1)):
        assert powmod2(a, x_q, b, y_q, p) == product_of_pows(a, x_q, b, y_q, p)


def test_powmod2_examples_712(group712):
    p, q = group712.p, group712.q
    rng = random.Random(12)
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    exps = [0, 1, 2, 3, q - 1, q, 2**709 - 1, 2**710, rng.randrange(q), rng.randrange(2**333)]
    for x in exps:
        for y in exps:
            assert powmod2(a, x, b, y, p) == product_of_pows(a, x, b, y, p), (x, y)
        assert powmod2(a, x, a, x + 1, p) == pow(a, 2 * x + 1, p)  # a = b
    assert powmod2(0, 0, 0, 5, p) == 0 and powmod2(p, 0, p - 1, 0, p) == 1


def test_powmod2_rejects_negative_exponents(toy_group):
    with pytest.raises(ValueError, match="nonnegative"):
        powmod2(2, -1, 3, 1, toy_group.p)
    with pytest.raises(ValueError, match="nonnegative"):
        powmod2(2, 1, 3, -1, toy_group.p)


@LAW
@given(values=st.lists(WIDE, max_size=12))
@example(values=[])
@example(values=[1])
@example(values=[-1, 1, -1])
def test_inverses_law(law_group, values):
    p = law_group.p
    values = [1 + v % (p - 1) for v in values]  # nonzero residues
    assert inverses(law_group, values) == [pow(v, -1, p) for v in values]


def test_inverses_examples_712(group712):
    p = group712.p
    rng = random.Random(13)
    values = [rng.randrange(1, p) for _ in range(16)] + [1, p - 1, p + 2]
    for k in (0, 1, 2, len(values)):
        assert inverses(group712, values[:k]) == [inverse(group712, v) for v in values[:k]]


@pytest.mark.parametrize("zero", [0, 23, -46])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_inverses_reject_multiples_of_p(toy_group, zero, at):
    values = [2, 3, 4, 5]
    values.insert(at, zero)
    with pytest.raises(ValueError):
        inverse(toy_group, zero)
    with pytest.raises(ValueError):
        inverses(toy_group, values)


def test_inverses_take_one_inverse(monkeypatch, group64):
    calls = count_calls(monkeypatch, "inverse")
    inverses(group64, list(range(2, 40)))
    assert len(calls) == 1


def test_g_pow_on_equal_groups_shares_answers(group64):
    # a hand-built copy of a generated group builds its own comb, with the
    # same powers
    copy = GroupParams(p=group64.p, q=group64.q, g=group64.g)
    for e in (3, group64.q // 3, group64.q - 2):
        assert g_pow(copy, e) == g_pow(group64, e) == pow(group64.g, e, group64.p)


def test_legendre_membership_agrees_on_every_toy_residue():
    for toy in (generate_group_params(5, random.Random(0)), TOY):  # generated, hand-built
        for a in range(1, toy.p):
            assert is_member(toy, a) == (pow(a, toy.q, toy.p) == 1), a
        assert [a for a in range(1, toy.p) if is_member(toy, a)] == TOY_MEMBERS


def test_legendre_membership_agrees_on_random_residues(group64):
    rebuilt = GroupParams(group64.p, group64.q, group64.g)
    for params in (group64, rebuilt):
        rng = random.Random(11)
        residues = [rng.randrange(1, params.p) for _ in range(2000)]
        residues += [pow(params.g, rng.randrange(params.q), params.p) for _ in range(200)]
        answers = [is_member(params, a) for a in residues]
        assert answers == [pow(a, params.q, params.p) == 1 for a in residues]
        assert 0 < sum(answers) < len(answers)


def test_prime_q_and_composite_p_have_no_generator():
    # the lemma behind the Legendre test: with q prime and p = 2q + 1
    # composite, no g != 1 has g^q = 1 mod p, so GroupParams rejects
    # every candidate and a valid group with q prime has p prime
    composite = [q for q in sympy.primerange(2, 500) if not sympy.isprime(2 * q + 1)]
    assert len(composite) > 50
    for q in composite:
        for g in range(2, 2 * q + 1):
            with pytest.raises(ValueError, match="order dividing q"):
                GroupParams(2 * q + 1, q, g)


def test_generated_group_membership_skips_pow(monkeypatch, group64):
    calls = count_calls(monkeypatch, "powmod")
    is_member(group64, 4)
    is_member(group64, group64.p - 1)
    assert calls == []


def test_hand_built_group_membership_uses_legendre(monkeypatch, group64):
    # a group rebuilt by hand from a generated one's numbers is the same
    # group and takes the same membership path
    rebuilt = GroupParams(group64.p, group64.q, group64.g)
    assert rebuilt == group64 and hash(rebuilt) == hash(group64)
    assert repr(rebuilt) == repr(group64)
    calls = count_calls(monkeypatch, "powmod")
    assert is_member(rebuilt, 4)
    assert not is_member(rebuilt, group64.p - 1)  # -1 is a non-residue for p = 3 mod 4
    assert calls == []


def test_other_cofactor_membership_uses_pow(monkeypatch):
    # p = 31 = 6*5 + 1: the order-5 subgroup is not the quadratic residues,
    # so the Legendre symbol would be wrong here even with p prime
    params = GroupParams(p=31, q=5, g=2, cofactor=6)
    calls = count_calls(monkeypatch, "powmod")
    members = [a for a in range(1, 31) if is_member(params, a)]
    assert members == [1, 2, 4, 8, 16]
    assert len(calls) == 30


def test_dropped_group_frees_its_comb():
    # the comb lives on its group, so nothing else keeps the group alive
    params = GroupParams(p=47, q=23, g=4)
    assert g_pow(params, 5) == pow(4, 5, 47)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None
