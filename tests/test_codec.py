import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from encctl.codec import CodecConfig, ZeroEncodingError, decode, encode, sum_rows
from encctl.modgroup import GroupParams, nearest_member
from conftest import LAW


@pytest.fixture
def toy_cfg(toy_group):
    # widest bound the toy group supports: (0.03/0.01)^2 = 9 < 11.5
    return CodecConfig(toy_group, delta=0.01, value_bound=0.03)


@pytest.fixture
def cfg64(group64):
    return CodecConfig(group64, delta=0.01, value_bound=100.0)


def test_config_validation(toy_group):
    with pytest.raises(ValueError):
        CodecConfig(toy_group, delta=0.0, value_bound=1.0)
    with pytest.raises(ValueError):
        CodecConfig(toy_group, delta=0.01, value_bound=0.0)
    with pytest.raises(ValueError):
        CodecConfig(toy_group, delta=0.01, value_bound=1.0)  # products would wrap


def test_config_rejects_levels_beyond_float_precision(group712):
    # the wrap bound alone would allow value_bound/delta up to about 2^355
    CodecConfig(group712, delta=1.0, value_bound=2.0**53 - 1)
    with pytest.raises(ValueError, match="2\\^53"):
        CodecConfig(group712, delta=1.0, value_bound=2.0**53)
    with pytest.raises(ValueError, match="2\\^53"):
        CodecConfig(group712, delta=1e-10, value_bound=1e7)


def test_config_bound_on_groups_beyond_float_range():
    # p / 2 does not fit a float above 1024 bits.  The constructor checks
    # only p = 2q + 1 and g^q = 1, which (p - 1)^q meets for even q.
    q = 2**1100
    wide = GroupParams(p=2 * q + 1, q=q, g=2 * q)
    assert CodecConfig(wide, delta=1e-4, value_bound=1e3).params is wide


def test_quantize_wrap_project_pipeline(toy_group):
    # encode is round -> wrap mod p -> nearest member; spot-check the
    # mapping on the toy group, where members are enumerable by hand
    delta = 0.01
    for x, expected in [(0.04, 4), (-0.05, 18), (0.05, 4)]:
        z = round(x / delta)
        assert nearest_member(toy_group, z % toy_group.p) == expected


def test_encode_examples_in_bound(toy_cfg):
    assert encode(0.02, toy_cfg) == 2
    assert encode(0.03, toy_cfg) == 3
    # z = -2 -> 21, nearest member 18 = level -5, and 25 >= 23/2
    with pytest.raises(ValueError, match="wrap"):
        encode(-0.02, toy_cfg)


def test_encode_rejects_shift_past_wrap_bound(toy_cfg):
    # the config bounds the rounded level, (0.03/0.01)^2 = 9 < 11.5, but the
    # nearest member of z = -3 is 18, level -5: its square 18*18 = 2 mod 23
    # would decode as 0.0002 instead of 0.0025
    assert nearest_member(toy_cfg.params, -3 % 23) == 18
    assert decode(18 * 18 % 23, toy_cfg, power=2) != pytest.approx(0.0025)
    with pytest.raises(ValueError, match="level -5"):
        encode(-0.03, toy_cfg)


def test_encode_end_to_end_matches_pipeline(cfg64):
    rng = random.Random(6)
    p = cfg64.params.p
    for _ in range(200):
        x = rng.uniform(-100, 100)
        z = round(x / cfg64.delta)
        if z == 0:
            continue
        assert encode(x, cfg64) == nearest_member(cfg64.params, z % p)


def test_encode_rejects_out_of_bound(toy_cfg):
    with pytest.raises(ValueError):
        encode(0.05, toy_cfg)


def test_encode_zero_raises(toy_cfg, cfg64):
    with pytest.raises(ZeroEncodingError):
        encode(0.0, toy_cfg)
    with pytest.raises(ZeroEncodingError):
        encode(0.004, cfg64)  # rounds to zero at delta = 0.01


def test_decode_examples(toy_cfg):
    assert decode(4, toy_cfg, power=1) == pytest.approx(0.04)
    assert decode(18, toy_cfg, power=1) == pytest.approx(-0.05)
    assert decode(8, toy_cfg, power=2) == pytest.approx(8e-4)


def test_decode_power_validation(toy_cfg):
    with pytest.raises(ValueError):
        decode(4, toy_cfg, power=3)


def test_round_trip_bound(cfg64):
    rng = random.Random(17)
    p = cfg64.params.p
    half = (p - 1) // 2
    for _ in range(300):
        x = rng.uniform(-100, 100)
        z = round(x / cfg64.delta)
        if z == 0:
            continue
        m = encode(x, cfg64)
        z_proj = m if m <= half else m - p
        gap = abs(z_proj - z)  # nearest-member search distance
        assert abs(decode(m, cfg64) - x) <= (1 + gap) * cfg64.delta + 1e-12


def test_product_decode(cfg64):
    rng = random.Random(23)
    p = cfg64.params.p
    half = (p - 1) // 2
    for _ in range(300):
        x1 = rng.uniform(-30, 30)
        x2 = rng.uniform(-30, 30)
        if round(x1 / cfg64.delta) == 0 or round(x2 / cfg64.delta) == 0:
            continue
        m1, m2 = encode(x1, cfg64), encode(x2, cfg64)
        # worst-case per-operand distortion after rounding and projection
        gap_delta = max(abs(decode(m1, cfg64) - x1), abs(decode(m2, cfg64) - x2))
        got = decode(m1 * m2 % p, cfg64, power=2)
        bound = 2 * gap_delta * (abs(x1) + abs(x2)) + gap_delta**2 + 1e-12
        assert abs(got - x1 * x2) <= bound
        # sign survives the modular wrap
        z1 = m1 if m1 <= half else m1 - p
        z2 = m2 if m2 <= half else m2 - p
        assert got == pytest.approx(z1 * z2 * cfg64.delta**2)


UNIT = st.floats(-1.0, 1.0)


@LAW
@given(t1=UNIT, t2=UNIT)
@example(t1=1.0, t2=-1.0)
@example(t1=-1.0, t2=0.0)
def test_codec_laws(law_group, t1, t2):
    # the widest bound whose squared level count stays clear of float rounding
    cfg = CodecConfig(law_group, delta=0.01, value_bound=0.01 * math.isqrt(law_group.p // 4))
    p = law_group.p
    slack = 4 * math.ulp(cfg.value_bound)
    encoded = []
    for x in (t1 * cfg.value_bound, t2 * cfg.value_bound):
        z = round(x / cfg.delta)
        if z == 0:
            with pytest.raises(ZeroEncodingError):
                encode(x, cfg)
            return
        try:
            m = encode(x, cfg)
        except ValueError:
            # rejected only when the shifted level's square reaches p/2
            shifted = nearest_member(law_group, z % p)
            shifted = shifted if shifted <= (p - 1) // 2 else shifted - p
            assert 2 * shifted**2 >= p
            return
        # rounding costs at most delta/2, and the projection onto the
        # nearest member moves the level by exactly m - z mod p
        assert abs(z * cfg.delta - x) <= cfg.delta / 2 + slack
        assert decode(m, cfg) == (z + m - z % p) * cfg.delta
        assert (decode(m, cfg) > 0) == (x > 0)
        encoded.append(m)
    # every product of accepted encodings, squares included, decodes at delta^2
    levels = [m if m <= (p - 1) // 2 else m - p for m in encoded]
    for (m1, z1), (m2, z2) in itertools.combinations_with_replacement(zip(encoded, levels), 2):
        assert decode(m1 * m2 % p, cfg, power=2) == z1 * z2 * cfg.delta**2


def test_sum_rows_examples():
    assert sum_rows([[1, 2], [3, 4]]).tolist() == [3, 7]
    assert sum_rows(np.zeros((3, 4))).tolist() == [0, 0, 0]
    assert sum_rows([[5], [6]]).tolist() == [5, 6]


def test_sum_rows_exact():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(6, 9))
    assert np.array_equal(sum_rows(M), M.sum(axis=1))
    with pytest.raises(ValueError):
        sum_rows(np.zeros(3))
