import gc
import hashlib
import json
import math
import random
import weakref

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from encctl import modgroup
from encctl.cli import main
from encctl.modgroup import (
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
from encctl.security_design import gnfs_ln_complexity
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


# SHA-256 of repr((p, q, g)) for each seeded fixture group, recorded from
# the plain search that ``plain_search`` below writes out
FIXTURE_DIGESTS = {
    "group64": "df18a264264805f65edd0afccaacc4c2087c0cbeb67508bc8565ec6d2e5a30cb",
    "group160": "2fb41c460c2f0a207a7478617b96c55bc73b7e22511f83e89513bdc3b2bbb4b4",
    "group712": "81d9bb7bef044d9861817e63d4afd0f22c94878036538987ac39c65c635f21f3",
}


@pytest.mark.parametrize("name", FIXTURE_DIGESTS)
def test_seeded_fixture_groups_are_pinned(name, request):
    params = request.getfixturevalue(name)
    digest = hashlib.sha256(repr((params.p, params.q, params.g)).encode()).hexdigest()
    assert digest == FIXTURE_DIGESTS[name]


def plain_search(bit_length, rng, max_attempts=None):
    """The safe-prime search without witnesses or proof, as the reference
    ``generate_group_params`` must match: trial division, one Miller-Rabin
    round on q and on p, then 40 on each.  Returns the group and the number
    of candidates drawn."""
    if max_attempts is None:
        max_attempts = 2000 * bit_length
    for candidates in range(1, max_attempts + 1):
        q = rng.getrandbits(bit_length - 1)
        q |= (1 << (bit_length - 2)) | 1
        p = 2 * q + 1
        if any(q % sp == 0 or p % sp == 0 for sp in modgroup._SMALL_PRIMES if sp < q):
            continue
        if not is_probable_prime(q, rng, rounds=1):
            continue
        if not is_probable_prime(p, rng, rounds=1):
            continue
        if is_probable_prime(q, rng) and is_probable_prime(p, rng):
            break
    else:
        raise GroupGenerationError(f"no {bit_length}-bit safe prime found in {max_attempts} attempts")
    a = rng.randrange(2, p - 1)
    return GroupParams(p=p, q=q, g=a * a % p), candidates


@LAW
@given(bits=st.integers(3, 40), seed=st.integers(0, 2**32))
@example(bits=3, seed=0)  # q = 3, p = 7: both found by trial division alone
@example(bits=12, seed=1)  # q in [2000, 2^15): below the gcd filter's primes' bound
@example(bits=16, seed=2)  # the largest q the gcd filter skips
@example(bits=17, seed=3)  # the smallest q it tests
def test_search_matches_the_plain_search(bits, seed):
    # the same candidates, the same draws and the same group at every seed,
    # and the attempt budget counts the same candidates
    ref_rng, rng = random.Random(seed), random.Random(seed)
    ref, candidates = plain_search(bits, ref_rng)
    assert generate_group_params(bits, rng) == ref
    assert rng.getstate() == ref_rng.getstate()
    assert sympy.isprime(ref.p) and sympy.isprime(ref.q)
    assert generate_group_params(bits, random.Random(seed), max_attempts=candidates) == ref
    with pytest.raises(GroupGenerationError):
        generate_group_params(bits, random.Random(seed), max_attempts=candidates - 1)


def test_trial_division_matches_the_plain_test():
    # every q below the small primes' bound, where q or 2q + 1 can itself be
    # one of them, and random q of up to 712 bits
    rng = random.Random(15)
    qs = list(range(3, 2 * modgroup._SIEVE_BOUND, 2))
    qs += [rng.getrandbits(rng.randrange(12, 712)) | 1 for _ in range(3000)]
    for q in qs:
        plain = any(q % sp == 0 or (2 * q + 1) % sp == 0 for sp in modgroup._SMALL_PRIMES if sp < q)
        assert modgroup._has_small_factor(q) == plain, q


def test_composite_witnesses_never_reject_a_prime():
    # every prime on both sides of the gcd filter's bound, and larger ones
    primes = list(sympy.primerange(3, 2 * modgroup._GCD_BOUND))
    primes += [sympy.randprime(2**k, 2 ** (k + 1)) for k in range(17, 712, 23)]
    assert not any(modgroup._composite_witness(q) for q in primes)
    assert modgroup._composite_witness(2003 * 2011)  # found by the gcd
    assert modgroup._composite_witness(65537 * 65539)  # by base 2 alone


def test_search_skips_rounds_on_certain_composites(monkeypatch):
    # at group64's seed: every q that the gcd filter or the base-2 test
    # proves composite still draws its round's base but is not raised to
    # it, and the accepted p costs one exponentiation in place of 40 rounds
    seed, factors = 0xC0FFEE, math.prod(sympy.primerange(modgroup._SIEVE_BOUND, modgroup._GCD_BOUND))
    pows = count_calls(monkeypatch, "powmod")
    ref_rng, rng = random.Random(seed), random.Random(seed)
    ref_draws = count_calls(monkeypatch, "randrange", ref_rng)
    draws = count_calls(monkeypatch, "randrange", rng)
    ref, candidates = plain_search(64, ref_rng)
    ref_pows = list(pows)
    pows.clear()
    params = generate_group_params(64, rng)
    assert params == ref and draws == ref_draws and candidates == 654

    def is_q(n):
        return n.bit_length() == 63

    drawn = [hi + 1 for _, hi in draws if is_q(hi + 1)]  # q of every round, skipped or not
    raised = [n for _, e, n in pows if is_q(n) and e % 2]  # q of every round that ran
    by_gcd = [q for q in drawn if math.gcd(q, factors) != 1]
    by_fermat = [q for q in drawn if q not in by_gcd and pow(2, q - 1, q) != 1]
    assert sorted(raised) == sorted(q for q in drawn if q not in by_gcd + by_fermat)
    fermat_tested = [n for a, e, n in pows if is_q(n) and (a, e) == (2, n - 1)]
    assert not set(by_gcd) & set(fermat_tested)
    assert (len(drawn), len(by_gcd), len(by_fermat)) == (11 + 40, 4, 3)

    on_p = [n for _, _, n in pows if n == params.p]  # round, proof, generator check
    ref_on_p = [n for _, _, n in ref_pows if n == params.p]  # 41 rounds and the check
    assert (len(on_p), len(ref_on_p)) == (3, 42)
    assert sum(hi + 1 == params.p for _, hi in draws) == 1 + 40 + 1  # rounds and g's root
    # the plain search raises every drawn base but g's root, and checks g
    assert (len(pows), len(ref_pows)) == (57, len(draws)) == (57, 96)


def test_loop_demo_search_counts(monkeypatch):
    # the 712-bit search loop-demo runs at reference_design's seed with
    # key_bits: 712; the plain search makes one exponentiation per draw
    rng = random.Random(20240601)
    candidates = count_calls(monkeypatch, "_has_small_factor")
    witnessed = count_calls(monkeypatch, "_composite_witness")
    pows = count_calls(monkeypatch, "powmod")
    draws = count_calls(monkeypatch, "randrange", rng)
    generate_group_params(712, rng)
    on_q = [(a, e) for a, e, n in pows if n.bit_length() == 711]
    fermat = [a for a, e in on_q if a == 2 and e % 2 == 0]
    # of the 821 candidates that pass trial division, 223 fall to the gcd,
    # 577 to base 2, and 21 reach the round; the accepted q takes 40 more
    assert (len(candidates), len(witnessed), len(fermat)) == (56_969, 821, 821 - 223)
    assert len(on_q) - len(fermat) == 21 + 40
    assert (len(pows), len(draws)) == (682, 923)


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


# the generator's table rows: one per byte of a 2L-bit exponent, or of q
# where L is unset (q has 4 bits in the toy group and 63 in group64)
TABLE_ROWS = {"toy_group": 1, "group64": 8, "group160": 19, "group712": 37}


@pytest.mark.parametrize("name", TABLE_ROWS)
def test_g_pow_matches_pow(name, request):
    # 2^(8i) and 2^(8i) - 1 are the first and last exponents that reach row i
    params, rows = request.getfixturevalue(name), TABLE_ROWS[name]
    rng = random.Random(7)
    exps = [0, 1, 63, 64, params.q - 1, params.q, -1]
    exps += [2 ** (8 * i) - d for i in range(rows + 1) for d in (0, 1)]
    exps += [rng.randrange(params.q) for _ in range(100)]
    exps += [rng.randrange(2 ** (8 * rows)) for _ in range(100)]
    for e in exps:
        assert g_pow(params, e) == pow(params.g, e, params.p), e


def test_small_groups_build_small_tables(request):
    for name, rows in TABLE_ROWS.items():
        params = request.getfixturevalue(name)
        g_pow(params, 1)
        assert [len(row) for row in params._table] == [256] * rows, name


def test_g_pow_beyond_the_table_uses_pow(monkeypatch, group712):
    # the table covers the 296-bit products s*r of two 148-bit exponents;
    # a reduced exponent at or past 2^296, such as a full-length key given
    # from outside, costs exactly one powmod
    calls = count_calls(monkeypatch, "powmod")
    for e in (0, 2**148 - 1, 2**296 - 1, group712.q + 5):
        assert g_pow(group712, e) == pow(group712.g, e, group712.p)
    assert calls == []
    for e in (2**296, 2**297 - 1, group712.q - 1, -1, 2**710):
        calls.clear()
        assert g_pow(group712, e) == pow(group712.g, e, group712.p)
        assert len(calls) == 1, e


def test_short_exponents_read_the_low_rows(group712):
    # an L = 148-bit draw has at most 19 bytes, so it reads at most the
    # first 19 of the 37 rows, each at most once
    reads = []

    class CountedRow:
        def __init__(self, i, row):
            self.i, self.row = i, row

        def __getitem__(self, b):
            reads.append(self.i)
            return self.row[b]

    copy = GroupParams(group712.p, group712.q, group712.g)
    vars(copy)["_table"] = tuple(CountedRow(i, row) for i, row in enumerate(group712._table))
    L = group712.exponent_bits
    rng = random.Random(14)
    for e in [0, 1, 2 ** (L - 1), 2**L - 1] + [rng.getrandbits(L) for _ in range(50)]:
        reads.clear()
        assert g_pow(copy, e) == pow(group712.g, e, group712.p), e
        assert len(reads) == len(set(reads)) <= 19 and all(i < 19 for i in reads), e
    reads.clear()
    g_pow(copy, 2**296 - 1)
    assert reads == list(range(37))


def sized_group(bits: int) -> GroupParams:
    """p = 2^(bits-1) + 1, q = 2^(bits-2) and g = p - 1: not a prime-order
    group, but GroupParams accepts it since (-1)^q = 1 for even q, and it
    is enough to test what depends only on the sizes of p and q."""
    p = 2 ** (bits - 1) + 1
    return GroupParams(p=p, q=(p - 1) // 2, g=p - 1)


@pytest.mark.parametrize("bits, L", [(142, 70), (160, 74), (256, 92), (712, 148), (1024, 172), (2048, 232)])
def test_exponent_bits_follow_the_gnfs_strength(bits, L):
    params = sized_group(bits)
    assert params.p.bit_length() == bits
    assert params.exponent_bits == L == 2 * math.floor(gnfs_ln_complexity(bits) / math.log(2))
    assert 2 * L < params.q.bit_length()  # s*r < q with no reduction


def test_exponent_bits_at_k_star_are_twice_lambda_star(tmp_path, capsys):
    # the designed key length's exponents carry the designed strength
    assert main(["design", "--preset", "reference_design", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "design.json").read_text())
    assert sized_group(doc["k_star"]).exponent_bits == 2 * doc["lambda_star"] == 148


@pytest.mark.parametrize("bits", [5, 64, 128, 140])
def test_exponent_bits_unset_on_small_groups(bits):
    # at 128 bits 2L = 132 would exceed q's 127 bits, and at 140 bits
    # 2L = 140 would exceed 139: draws stay on [0, q)
    params = sized_group(bits)
    assert params.p.bit_length() == bits
    assert params.exponent_bits is None


@LAW
@given(e=WIDE)
@example(e=0)
@example(e=-1)
def test_g_pow_law(law_group, e):
    params = law_group
    for x in (e, params.q - 1 - e % params.q, e * params.q):
        assert g_pow(params, x) == pow(params.g, x, params.p), x


def product_of_pows(a, x, b, y, p):
    return pow(a, x, p) * pow(b, y, p) % p


@LAW
@given(a=WIDE, b=WIDE, x=st.integers(-(2**80), 2**80), y=st.integers(-(2**80), 2**80))
@example(a=2, b=2, x=0, y=0)
@example(a=-1, b=-1, x=1, y=2**80)
@example(a=3, b=3, x=2**80 - 1, y=1)  # a = b
@example(a=2, b=3, x=-1, y=-(2**80))  # both bases inverted
def test_powmod2_law(law_group, a, b, x, y):
    p = law_group.p
    a, b = a % p, b % p
    assume((a or x >= 0) and (b or y >= 0))  # 0 has no negative powers
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
    # a negative power of a multiple of p does not exist, as for pow
    p = toy_group.p
    for a, x, b, y in [(0, -1, 3, 1), (2, 1, p, -1), (-p, -(2**80), 0, -5)]:
        with pytest.raises(ValueError):
            pow(a % p, x, p) * pow(b % p, y, p)
        with pytest.raises(ValueError):
            powmod2(a, x, b, y, p)


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
    # a hand-built copy of a generated group builds its own table, with the
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


def test_dropped_group_frees_its_table():
    # the table lives on its group, so nothing else keeps the group alive
    params = GroupParams(p=47, q=23, g=4)
    assert g_pow(params, 5) == pow(4, 5, 47)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None
