"""Prime-order subgroup arithmetic over a safe-prime modulus.

Plaintexts for the multiplicative scheme live in the order-q subgroup of
Z_p^*, with p = 2q + 1 a safe prime (the quadratic residues).  This module
generates such groups, tests membership, and finds the subgroup member
closest to a target integer, which the fixed-point codec relies on.

``generate_group_params`` finds the group a plain Miller-Rabin search
finds, with fewer exponentiations: certain witnesses of compositeness (a
factor in [2000, 2^15) by one gcd, and the base-2 Fermat test) spare a
composite candidate its random-base round, and Pocklington's criterion
proves p prime from q in place of 40 rounds.  Each skipped round still
draws its base, so the group and the state of the search's ``rng`` are
the plain search's unless a composite's random base is a strong liar.

Secret exponents are as long as the group's strength needs, not as long
as q.  ``GroupParams.exponent_bits`` is L = 2*lambda, for lambda the
bits of security the general number field sieve grants p
(``security_design.gnfs_ln_complexity``): Pollard's kangaroo finds an
L-bit exponent in about 2^(L/2) = 2^lambda steps (van Oorschot & Wiener,
EUROCRYPT '96), the sieve's cost.  At 712 bits L = 148 where q has 711
bits.  Where 2L would not stay below q, as on every group of 137 bits
or fewer, exponents are drawn from all of [0, q).

Big integers are Python's own, and the generic exponentiation is the
builtin ``pow``.  Cheaper paths replace it where the exponent or base
allows:

* ``g_pow`` raises the fixed generator through a table built once per
  group, one row per exponent byte (Brickell, Gordon, McCurley & Wilson,
  EUROCRYPT '92): row i holds g^(j*256^i) for j = 0..255, so g^e is the
  product of one entry per nonzero byte of e, read from the rows e has.
  The rows cover the 2L-bit products s*r of two drawn exponents (q's bit
  length where L is unset): a 712-bit group's 37 rows hold 9472
  residues, about 1.2 MiB, and ``g^e`` costs at most 19 modular products
  for an L = 148-bit e and 37 for a 296-bit one, where ``pow`` needs
  about 850 on a full-length exponent.  Longer exponents, such as a
  full-length key given from outside, go to ``pow``.  Each group keeps
  its own table, built on its first ``g_pow`` and freed with the group.
* ``powmod2`` computes a^x * b^y as one exponentiation chain that reads
  both exponents' 2-bit windows together (Shamir's trick; HAC Alg.
  14.88), about two thirds of the cost of two ``pow`` calls.
* ``is_member`` on any group with cofactor 2 is the Legendre symbol
  (a|p) = 1, which equals Euler's criterion a^q = 1 because such a group
  with q prime has p prime.  Every other cofactor keeps the a^q test.

``inverse`` is the extended-Euclid a^(-1) mod p, about 20x cheaper than
an exponentiation at 712 bits, and ``inverses`` takes k of them with one
inverse and 3(k-1) products (Montgomery's trick).  With ``g_pow`` they
carry the whole encrypted control loop: the plant knows each epoch's
secret s and draws each r, so h^r = g^(s*r) is a table power and each
mask is an inverse, and the loop makes no variable-base exponentiation.

Not hardened against side channels; intended for simulation and analysis.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .security_design import gnfs_ln_complexity

powmod = pow  # a module name, so call counters can wrap modgroup.powmod


def powmod2(a: int, x: int, b: int, y: int, mod: int) -> int:
    """a^x * b^y mod ``mod``, equal to ``pow(a, x, mod) * pow(b, y, mod) % mod``.

    A negative exponent raises the inverted base, as ``pow`` does:
    a^(-x) = (a^(-1))^x, and a base with no inverse raises ValueError.
    One chain over both exponents (Shamir's trick, HAC Alg. 14.88):
    each step squares twice and multiplies by a^i * b^j for the
    exponents' next 2-bit digits i and j, read from a 16-entry table.
    """
    a, b = a % mod, b % mod
    if x < 0:
        a, x = pow(a, -1, mod), -x
    if y < 0:
        b, y = pow(b, -1, mod), -y
    row = [1, b, b * b % mod]
    row.append(row[2] * b % mod)
    table = list(row)  # table[4*i + j] = a^i * b^j
    for _ in range(3):
        row = [v * a % mod for v in row]
        table += row
    width = max(x.bit_length(), y.bit_length())
    width += width & 1
    x_bits, y_bits = format(x, f"0{width}b"), format(y, f"0{width}b")
    acc = 1
    for i in range(0, width, 2):
        acc = acc * acc % mod
        acc = acc * acc % mod
        k = int(x_bits[i : i + 2] + y_bits[i : i + 2], 2)
        if k:
            acc = acc * table[k] % mod
    return acc


MILLER_RABIN_ROUNDS = 40  # error probability < 4^-40 < 2^-80

_SIEVE_BOUND = 2000  # trial division of candidates, and of is_probable_prime
_GCD_BOUND = 2**15  # the gcd filter's primes lie in [_SIEVE_BOUND, _GCD_BOUND)


def _small_primes(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for i in range(2, int(bound**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(bound) if flags[i]]


def _digit_products(primes: list[int]) -> tuple[int, ...]:
    """Products of runs of consecutive primes, each below 2^30, one CPython
    digit, so that x % m takes one pass over x."""
    products = [1]
    for sp in primes:
        if products[-1] * sp >= 2**30:
            products.append(1)
        products[-1] *= sp
    return tuple(products)


_SMALL_PRIMES = _small_primes(_SIEVE_BOUND)
_SMALL_PRODUCTS = _digit_products(_SMALL_PRIMES)


class GroupGenerationError(RuntimeError):
    """No safe prime found within the attempt budget."""


@dataclass(frozen=True)
class GroupParams:
    """Public parameters (p, q, g) of an order-q subgroup of Z_p^*.

    p = cofactor * q + 1 and g a generator of the subgroup (g^q = 1 mod p,
    g != 1), both checked here.  This module's arithmetic is exact for
    every group whose q is prime: with cofactor 2, a g != 1 with g^q = 1
    mod p then exists only if p is prime too (the n - 1 primality test,
    HAC §4.3.2), and any other cofactor is tested by a^q itself.
    Immutable and safe to share; the generator's table is built on the
    group's first ``g_pow`` and kept with it, and ``exponent_bits`` is
    derived from p on first use.
    """

    p: int
    q: int
    g: int
    cofactor: int = 2

    def __post_init__(self):
        if self.p != self.cofactor * self.q + 1:
            raise ValueError("p must equal cofactor*q + 1")
        if self.g <= 1 or self.g >= self.p:
            raise ValueError("generator out of range")
        if powmod(self.g, self.q, self.p) != 1:
            raise ValueError("generator does not have order dividing q")

    @functools.cached_property
    def exponent_bits(self) -> int | None:
        """L = 2*lambda, the bit length of every drawn exponent, for lambda
        = floor(log2 of the GNFS cost of p): 148 at 712 bits.

        None unless 2L < q's bit length, so the product s*r of two drawn
        exponents stays below q; such groups (every one of 137 bits or
        fewer, and 139 to 141 bits) draw from all of [0, q).
        """
        bits = 2 * math.floor(gnfs_ln_complexity(self.p.bit_length()) / math.log(2))
        return bits if 2 * bits < self.q.bit_length() else None

    @functools.cached_property
    def _table(self) -> tuple[tuple[int, ...], ...]:
        """The generator's byte table: row i holds g^(j*256^i) at index j,
        one row per byte of a 2L-bit exponent for L the ``exponent_bits``,
        or of an exponent as long as q where L is unset."""
        p = self.p
        bits = 2 * self.exponent_bits if self.exponent_bits else self.q.bit_length()
        rows = []
        base = self.g  # g^(256^i)
        for _ in range(-(-bits // 8)):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * base % p)
            rows.append(tuple(row))
            base = row[-1] * base % p
        return tuple(rows)


def is_probable_prime(n: int, rng: random.Random, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin primality test with random bases from ``rng``."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    # write n-1 = 2^r * d with d odd
    r, d = 0, n - 1
    while d % 2 == 0:
        r += 1
        d //= 2
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _has_small_factor(q: int) -> bool:
    """True iff a prime below both ``_SIEVE_BOUND`` and q divides q or 2q + 1.

    One ``q % m`` per digit-sized product m of small primes, then one gcd
    of the small remainders r and 2r + 1 with m.  A q below the bound can
    share a factor with m by being one of its primes, so there the primes
    of m are read one by one.
    """
    for m in _SMALL_PRODUCTS:
        r = q % m
        if math.gcd(r * (2 * r + 1), m) != 1:
            return q >= _SIEVE_BOUND or any(
                q % sp == 0 or (2 * q + 1) % sp == 0 for sp in _SMALL_PRIMES if sp < q
            )
    return False


@functools.cache
def _gcd_product() -> int:
    """The product of the primes in [_SIEVE_BOUND, _GCD_BOUND), about 44,000
    bits, built on the first search."""
    return math.prod(sp for sp in _small_primes(_GCD_BOUND) if sp >= _SIEVE_BOUND)


def _composite_witness(q: int) -> bool:
    """True when q is certainly composite: it has a prime factor in
    [_SIEVE_BOUND, _GCD_BOUND), or 2^(q-1) != 1 mod q (Fermat).  Never true
    for an odd prime q."""
    if q >= _GCD_BOUND and math.gcd(q, _gcd_product() % q) != 1:
        return True
    return powmod(2, q - 1, q) != 1


def generate_group_params(
    bit_length: int, rng: random.Random, max_attempts: int | None = None
) -> GroupParams:
    """Generate a fresh safe-prime group with p of exactly ``bit_length`` bits.

    Draws random odd q of bit_length-1 bits until q passes 1 + 40 random-
    base Miller-Rabin rounds and p = 2q + 1 one round and a proof, then
    picks g = a^2 mod p for random a, which generates the quadratic
    residues.  Raises GroupGenerationError if the attempt budget of
    candidates runs out.

    A candidate is first divided by the primes below 2000, one ``q % m``
    per product m of them below 2^30.  A q that survives meets two
    certain witnesses of compositeness before its random-base round: a
    common factor with the primes in [2000, 2^15), found by one gcd, and
    2^(q-1) != 1 mod q.  The accepted p is proved prime by Pocklington's
    criterion (HAC §4.3.2): with q prime, q > sqrt(p) and 3 not dividing
    p, 2^(p-1) = 1 mod p makes p prime, so its 40 rounds are not run.

    Every round skipped, on a witnessed composite q or on a proved prime
    p, still draws its base from ``rng``.  The plain search (trial
    division, one round on q and on p, then 40 on each) would reject that
    q, or pass that p, on any base but a strong liar of a composite.  So
    the groups and ``rng``'s final state are the plain search's unless a
    composite's random base is a strong liar, which for a random
    composite of cryptographic size has negligible probability (Damgård,
    Landrock & Pomerance, Math. Comp. 1993).
    """
    if bit_length < 3:
        raise ValueError("bit_length must be at least 3")
    if max_attempts is None:
        max_attempts = 2000 * bit_length
    for _ in range(max_attempts):
        q = rng.getrandbits(bit_length - 1)
        q |= (1 << (bit_length - 2)) | 1  # exact bit length, odd
        if _has_small_factor(q):
            continue
        if _composite_witness(q):  # no factor below 2000, so q > 2000^2 draws a base
            rng.randrange(2, q - 1)
            continue
        p = 2 * q + 1
        # one cheap round on each before spending the full budget
        if not is_probable_prime(q, rng, rounds=1):
            continue
        if not is_probable_prime(p, rng, rounds=1):
            continue
        if not is_probable_prime(q, rng):
            continue
        if p % 3 and powmod(2, p - 1, p) == 1:  # Pocklington: p is prime if q is
            if p > _SIEVE_BOUND:  # a small prime p is found without draws
                for _ in range(MILLER_RABIN_ROUNDS):
                    rng.randrange(2, p - 1)
            break
        if is_probable_prime(p, rng):
            break
    else:
        raise GroupGenerationError(
            f"no {bit_length}-bit safe prime found in {max_attempts} attempts"
        )
    a = rng.randrange(2, p - 1)  # a != +-1, so a^2 != 1 for prime p
    return GroupParams(p=p, q=q, g=a * a % p)


def g_pow(params: GroupParams, e: int) -> int:
    """g^e mod p for the group's generator, equal to ``powmod(g, e, p)``.

    The exponent is reduced mod q (g^q = 1 is checked by the GroupParams
    constructor), and each nonzero byte b of it, the i-th from the least
    significant, costs one lookup of row i's entry b and one modular
    product.  A reduced exponent longer than the table is ``powmod``'s.
    """
    table = params._table
    e %= params.q
    if e >> 8 * len(table):
        return powmod(params.g, e, params.p)
    p = params.p
    acc = 1
    for row, b in zip(table, e.to_bytes(-(-e.bit_length() // 8), "little")):
        if b:
            acc = acc * row[b] % p
    return acc


def inverse(params: GroupParams, a: int) -> int:
    """a^(-1) mod p by the extended Euclidean algorithm; ValueError for a
    multiple of p."""
    return pow(a, -1, params.p)


def inverses(params: GroupParams, values: list[int]) -> list[int]:
    """``inverse`` of each value, with one ``inverse`` call and 3(k - 1)
    modular products for k values (Montgomery's trick); ValueError when
    any value is a multiple of p."""
    p = params.p
    prefix = []  # prefix[i] = values[0] * ... * values[i]
    acc = 1
    for v in values:
        acc = acc * v % p
        prefix.append(acc)
    if not prefix:
        return []
    inv = inverse(params, acc)  # (values[0] * ... * values[i])^(-1) as i falls
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * values[i] % p
    out[0] = inv
    return out


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0 (HAC Algorithm 2.149)."""
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):  # (2|n) = -1
            result = -result
        if a & n & 2:  # both are 3 mod 4: quadratic reciprocity flips
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def is_member(params: GroupParams, a: int) -> bool:
    """True iff ``a`` lies in the order-q subgroup (a^q = 1 mod p), exact
    for every group whose q is prime.

    With cofactor 2 and q prime, p is prime (see GroupParams), the
    subgroup is the quadratic residues and the test is the Legendre
    symbol (a|p) = 1, Euler's criterion at a fraction of the cost; any
    other cofactor computes a^q.
    """
    if a <= 0 or a >= params.p:
        raise ValueError(f"value {a} outside (0, p)")
    if params.cofactor == 2:
        return _jacobi(a, params.p) == 1
    return powmod(a, params.q, params.p) == 1


def nearest_member(params: GroupParams, target: int) -> int:
    """Subgroup member closest to ``target``; ties go to the smaller value.

    Searches target, target-1, target+1, target-2, ... so the first hit
    at any distance is the smaller candidate.  With cofactor 2 half of
    all residues are members, so the search terminates after a handful
    of steps in practice.
    """
    if target <= 0 or target >= params.p:
        raise ValueError(f"target {target} outside (0, p)")
    for offset in range(params.p):
        lo = target - offset
        if lo >= 1 and is_member(params, lo):
            return lo
        hi = target + offset
        if offset > 0 and hi < params.p and is_member(params, hi):
            return hi
    raise AssertionError("unreachable: subgroup is nonempty")
