"""Fixed-point codec between bounded reals and subgroup plaintexts.

A real x is quantized to z = round(x / delta), mapped to its residue
mod p (negative z wraps to p + z, so sign survives multiplication), and
projected to the nearest subgroup member.  Products of two encodings
decode with delta^2.  Quantization error is bounded in tests rather than
tracked per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modgroup import GroupParams, nearest_member

# quantization levels per sign: round(x/delta) is float arithmetic, and
# floats stop representing every integer at 2^53
MAX_LEVELS = 2**53


class ZeroEncodingError(ValueError):
    """round(x/delta) = 0: a multiplicative group has no encoding of zero.

    Callers must offset exact zeros by a quantization step or shrink
    delta.
    """


@dataclass(frozen=True)
class CodecConfig:
    """Group, quantization step and magnitude bound for the codec.

    The bound (value_bound/delta)^2 < p/2 keeps the product of two
    rounded levels inside the symmetric range of Z_p; ``encode`` checks
    the same bound on the level after the nearest-member shift, so
    products of accepted encodings never wrap.  value_bound/delta < 2^53
    keeps every integer round(x/delta) can reach representable as a
    float, so quantization never silently skips levels.
    """

    params: GroupParams
    delta: float
    value_bound: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.value_bound <= 0:
            raise ValueError("value_bound must be positive")
        if self.value_bound / self.delta >= MAX_LEVELS:
            raise ValueError(
                "value_bound/delta must stay below 2^53, the float precision "
                "of round(x/delta); coarsen delta"
            )
        # float-int comparison is exact at any size of p; p / 2 overflows
        # a float above 1024 bits
        if 2 * (self.value_bound / self.delta) ** 2 >= self.params.p:
            raise ValueError(
                "(value_bound/delta)^2 must stay below p/2; "
                "use a larger group or coarser delta"
            )


def encode(x: float, cfg: CodecConfig) -> int:
    """Quantize x and return the nearest subgroup member of its residue.

    The projection can move the level z past value_bound/delta, so the
    shifted level z' is checked as well: z'^2 < p/2 keeps the product of
    any two accepted encodings inside the symmetric range, and a value
    whose z' breaks it raises ValueError.
    """
    if abs(x) > cfg.value_bound:
        raise ValueError(f"|{x}| exceeds value_bound {cfg.value_bound}")
    z = round(x / cfg.delta)
    if z == 0:
        raise ZeroEncodingError(f"{x} quantizes to zero at delta={cfg.delta}")
    p = cfg.params.p
    m = nearest_member(cfg.params, z % p)
    shifted = m if m <= (p - 1) // 2 else m - p
    if 2 * shifted * shifted >= p:
        raise ValueError(
            f"{x} encodes at level {shifted}, whose square reaches p/2: "
            "products would wrap; use a larger group or coarser delta"
        )
    return m


def decode(m: int, cfg: CodecConfig, power: int = 1) -> float:
    """Map a plaintext back to a real via its symmetric representative.

    power=1 decodes a fresh encoding, power=2 the product of two
    encodings (scaling delta^power).
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 (fresh encoding) or 2 (product)")
    p = cfg.params.p
    z = m if m <= (p - 1) // 2 else m - p
    return z * cfg.delta**power


def sum_rows(matrix) -> np.ndarray:
    """Row sums of a real matrix: the post-decryption aggregation step."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return arr.sum(axis=1)
