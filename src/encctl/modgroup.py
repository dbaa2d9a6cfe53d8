"""Prime-order subgroup arithmetic over a safe-prime modulus.

Plaintexts for the multiplicative scheme live in the order-q subgroup of
Z_p^*, with p = 2q + 1 a safe prime (the quadratic residues).  This module
generates such groups, tests membership, and finds the subgroup member
closest to a target integer, which the fixed-point codec relies on.

Big integers are Python's own, and the generic exponentiation is the
builtin ``pow``.  Cheaper paths replace it where the exponent or base
allows:

* ``g_pow`` raises the fixed generator through a Lim-Lee comb built once
  per group (Lim & Lee, CRYPTO '94; HAC Alg. 14.113).  The exponent's
  bits are laid out in COMB_ROWS = 11 rows, and the comb's columns are
  split into COMB_TABLES = 4 blocks, one table of 2^11 residues each.  A
  712-bit group's tables hold 4 x 2048 residues, about 1.0 MiB built in
  under 0.1 s, and ``g^e`` costs 16 squarings and at most 65 modular
  products, where ``pow`` needs about 850.  Small groups build only the
  tables whose columns exist.  Each group keeps its own comb, built on
  its first ``g_pow`` and freed with the group.
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
import random
from dataclasses import dataclass
from typing import NamedTuple

powmod = pow  # a module name, so call counters can wrap modgroup.powmod


def powmod2(a: int, x: int, b: int, y: int, mod: int) -> int:
    """a^x * b^y mod ``mod`` for x, y >= 0, equal to
    ``pow(a, x, mod) * pow(b, y, mod) % mod``.

    One chain over both exponents (Shamir's trick, HAC Alg. 14.88):
    each step squares twice and multiplies by a^i * b^j for the
    exponents' next 2-bit digits i and j, read from a 16-entry table.
    """
    if x < 0 or y < 0:
        raise ValueError("exponents must be nonnegative")
    a, b = a % mod, b % mod
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

_SIEVE_BOUND = 2000

COMB_ROWS = 11  # exponent bits combined into one index of the generator's comb
COMB_TABLES = 4  # comb tables, 2^COMB_ROWS residues each


def _small_primes(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for i in range(2, int(bound**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(bound) if flags[i]]


_SMALL_PRIMES = _small_primes(_SIEVE_BOUND)


class GroupGenerationError(RuntimeError):
    """No safe prime found within the attempt budget."""


class _Comb(NamedTuple):
    schedule: tuple  # per squaring: the (table, start of its index slice) pairs
    columns: int  # bits between the exponent bits of one index
    bits_format: str  # the exponent as a zero-padded bit string of rows*columns


@dataclass(frozen=True)
class GroupParams:
    """Public parameters (p, q, g) of an order-q subgroup of Z_p^*.

    p = cofactor * q + 1 and g a generator of the subgroup (g^q = 1 mod p,
    g != 1), both checked here.  This module's arithmetic is exact for
    every group whose q is prime: with cofactor 2, a g != 1 with g^q = 1
    mod p then exists only if p is prime too (the n - 1 primality test,
    HAC §4.3.2), and any other cofactor is tested by a^q itself.
    Immutable and safe to share; the generator's comb is built on the
    group's first ``g_pow`` and kept with it.
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
    def _comb(self) -> _Comb:
        """The generator's Lim-Lee comb: an exponent below q is laid out
        in ``rows`` rows of ``columns`` bits, and the columns in blocks of
        ``block``.  Table j holds, at index i, the product of
        g^(2^(k*columns + j*block)) over the bits k set in i, so one lookup
        covers the bits of column j*block of every row; squaring ``block``
        times brings in the other columns of each block."""
        p, t = self.p, self.q.bit_length()
        rows = min(COMB_ROWS, t)
        columns = -(-t // rows)
        block = -(-columns // COMB_TABLES)
        powers = [self.g]  # g^(2^i), one squaring chain
        for _ in range(1, rows * columns):
            powers.append(powers[-1] * powers[-1] % p)
        tables = []
        for first in range(0, columns, block):  # only tables whose columns exist
            table = [1]
            for k in range(rows):
                base = powers[k * columns + first]
                table += [v * base % p for v in table]
            tables.append(tuple(table))
        # column c's index is the bits c, c + columns, ... of the exponent:
        # the slice from position columns - 1 - c of its big-endian bit string
        schedule = tuple(
            tuple(
                (table, columns - 1 - j * block - s)
                for j, table in enumerate(tables)
                if j * block + s < columns
            )
            for s in reversed(range(block))
        )
        return _Comb(schedule, columns, f"0{rows * columns}b")


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


def generate_group_params(
    bit_length: int, rng: random.Random, max_attempts: int | None = None
) -> GroupParams:
    """Generate a fresh safe-prime group with p of exactly ``bit_length`` bits.

    Draws random odd q of bit_length-1 bits until both q and p = 2q + 1
    pass primality testing, then picks g = a^2 mod p for random a, which
    generates the quadratic residues.  Raises GroupGenerationError if the
    attempt budget runs out.
    """
    if bit_length < 3:
        raise ValueError("bit_length must be at least 3")
    if max_attempts is None:
        max_attempts = 2000 * bit_length
    for _ in range(max_attempts):
        q = rng.getrandbits(bit_length - 1)
        q |= (1 << (bit_length - 2)) | 1  # exact bit length, odd
        p = 2 * q + 1
        if any(q % sp == 0 or p % sp == 0 for sp in _SMALL_PRIMES if sp < q):
            continue
        # one cheap round on each before spending the full budget
        if not is_probable_prime(q, rng, rounds=1):
            continue
        if not is_probable_prime(p, rng, rounds=1):
            continue
        if is_probable_prime(q, rng) and is_probable_prime(p, rng):
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
    constructor) and read through the generator's comb: one squaring per
    column of a block, one table lookup and one modular product per
    column.
    """
    p = params.p
    schedule, columns, bits_format = params._comb
    bits = format(e % params.q, bits_format)
    acc = 1
    for step in schedule:
        acc = acc * acc % p
        for table, start in step:
            acc = acc * table[int(bits[start::columns], 2)] % p
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
