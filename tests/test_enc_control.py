import inspect
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from encctl import enc_control
from encctl.codec import CodecConfig, decode, encode, sum_rows
from encctl.elgamal import encrypt, keygen, mask
from encctl.enc_control import (
    ControllerParams,
    PlantModel,
    encode_vector,
    encrypt_matrix,
    encrypt_vector,
    encrypted_controller,
    decrypt_controller_output,
    own_masks,
    plant_step,
    run_encrypted_loop,
    run_plain_loop,
)
from encctl.updatable import (
    ExtendedCiphertext,
    cross_decrypt,
    cross_eval,
    initial_epoch,
    key_update,
)
from conftest import LAW, WIDE, ScriptedRng, count_calls, member

ROOT_HALF = float(np.sqrt(0.5))


@pytest.fixture
def cfg64(group64):
    return CodecConfig(group64, delta=1e-3, value_bound=1000.0)


def sec6_plant(sigma_w2=0.0, sigma_x2=1.0):
    return PlantModel(ROOT_HALF * np.eye(4), np.eye(4), sigma_w2, sigma_x2)


def test_plant_model_validation():
    with pytest.raises(ValueError):
        PlantModel(np.eye(2), np.eye(2), 0.1, 1.0)  # rho = 1
    with pytest.raises(ValueError):
        PlantModel(0.5 * np.eye(2), np.eye(3), 0.1, 1.0)
    with pytest.raises(ValueError):
        PlantModel(0.5 * np.eye(2), np.eye(2), -0.1, 1.0)
    model = sec6_plant()
    assert (model.n, model.m) == (4, 4)


def test_plant_step_pure_input():
    model = PlantModel(np.zeros((3, 3)), np.eye(3), 0.0, 0.0)
    u = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(plant_step(model, np.ones(3), u, np.random.default_rng(0)), u)


def test_plant_step_decay():
    model = sec6_plant()
    e1 = np.eye(4)[0]
    out = plant_step(model, e1, np.zeros(4), np.random.default_rng(0))
    assert np.allclose(out, ROOT_HALF * e1)


def test_plant_step_noise_mean():
    model = PlantModel(0.5 * np.eye(2), np.eye(2), sigma_w2=1.0, sigma_x2=0.0)
    rng = np.random.default_rng(42)
    samples = np.array(
        [plant_step(model, np.zeros(2), np.zeros(2), rng) for _ in range(10_000)]
    )
    assert np.abs(samples.mean(axis=0)).max() <= 4 * 1.0 / 100


def test_plant_step_shape_errors():
    model = sec6_plant()
    with pytest.raises(ValueError):
        plant_step(model, np.zeros(3), np.zeros(4), np.random.default_rng(0))


def test_encrypted_controller_scalar(cfg64):
    rng = random.Random(5)
    epoch = initial_epoch(cfg64.params, rng)
    phi, xi = 0.25, -0.5
    ct_phi = encrypt_matrix(epoch.sk, encode_rows([[phi]], cfg64), rng)
    ct_xi = encrypt_vector(epoch.sk, encode_vector(np.array([xi]), cfg64), rng)
    reply = encrypted_controller(epoch.pk, ct_phi, ct_xi)
    assert len(reply) == 1 and len(reply[0]) == 1
    # the reply is the third component of the full cross-epoch product
    ect = cross_eval(epoch.pk, ct_phi[0][0], ct_xi[0])
    assert reply[0][0] == ect.c3
    got = decode(cross_decrypt(epoch.sk, epoch.sk, ect), cfg64, power=2)
    assert got == pytest.approx(phi * xi, abs=5e-3)


def test_encrypted_controller_identity_gain(cfg64):
    rng = random.Random(6)
    epoch = initial_epoch(cfg64.params, rng)
    xi = np.array([1.25, -2.5, 0.75])
    ct_phi = encrypt_matrix(epoch.sk, encode_rows(np.eye(3), cfg64), rng)
    ct_xi = encrypt_vector(epoch.sk, encode_vector(xi, cfg64), rng)
    reply = encrypted_controller(epoch.pk, ct_phi, ct_xi)
    out = decrypt_controller_output(
        masks_of(epoch.sk, ct_phi), masks_of(epoch.sk, [ct_xi])[0], reply, cfg64
    )
    # off-diagonal zeros of the identity are offset to one quantization step,
    # so the tolerance budgets one step per summed entry
    assert np.abs(out - xi).max() <= 3 * len(xi) * 10 * cfg64.delta


def test_encrypted_controller_shape(cfg64):
    rng = random.Random(7)
    epoch = initial_epoch(cfg64.params, rng)
    ct_phi = encrypt_matrix(epoch.sk, encode_rows(0.5 * np.ones((2, 2)), cfg64), rng)
    ct_xi = encrypt_vector(epoch.sk, encode_vector(np.ones(2), cfg64), rng)
    reply = encrypted_controller(epoch.pk, ct_phi, ct_xi)
    assert len(reply) == 2 and all(len(row) == 2 for row in reply)
    with pytest.raises(ValueError):
        encrypted_controller(epoch.pk, ct_phi, ct_xi[:1])
    # a reply of the wrong shape is rejected, not truncated
    masks0, masks_t = masks_of(epoch.sk, ct_phi), masks_of(epoch.sk, [ct_xi])[0]
    for bad in ([row[:1] for row in reply], reply[:1], reply + [reply[0]]):
        with pytest.raises(ValueError):
            decrypt_controller_output(masks0, masks_t, bad, cfg64)


def test_controller_interface_admits_no_token():
    params = inspect.signature(encrypted_controller).parameters
    assert set(params) == {"pk0", "ct_phi0", "ct_xi"}
    assert not any("token" in name.lower() for name in params)
    assert "token" not in " ".join(
        str(p.annotation) for p in params.values()
    ).lower()


def test_cross_epoch_products_exact(cfg64):
    # the decrypted controller output must equal the integer products of
    # the encoded operands; only decode scaling is inexact, not crypto
    key_rng = random.Random(8)
    epoch0 = initial_epoch(cfg64.params, key_rng)
    phi = np.array([[0.5, -0.25], [1.5, 2.0]])
    ct_phi = encrypt_matrix(epoch0.sk, encode_rows(phi, cfg64), key_rng)
    epoch = epoch0
    for _ in range(5):
        epoch, _ = key_update(epoch, key_rng)
    xi = np.array([3.0, -1.0])
    ct_xi = encrypt_vector(epoch.sk, encode_vector(xi, cfg64), key_rng)
    reply = encrypted_controller(epoch0.pk, ct_phi, ct_xi)
    p = cfg64.params.p
    for i in range(2):
        for j in range(2):
            m_phi = encode(phi[i, j], cfg64)
            m_xi = encode(xi[j], cfg64)
            ect = ExtendedCiphertext(ct_phi[i][j].c1, ct_xi[j].c1, reply[i][j])
            assert cross_decrypt(epoch0.sk, epoch.sk, ect) == m_phi * m_xi % p
            masked = mask(epoch0.sk, ect.c1) * mask(epoch.sk, ect.c2) % p * ect.c3 % p
            assert masked == m_phi * m_xi % p


def test_encrypted_loop_single_step(cfg64):
    model = sec6_plant()
    controller = ControllerParams(0.5 * np.eye(4))
    x0 = np.array([1.0, -2.0, 0.5, 0.25])
    trace = run_encrypted_loop(
        model, controller, cfg64, T=1,
        noise_rng=np.random.default_rng(0), key_rng=random.Random(0), x0=x0,
    )
    assert len(trace) == 1
    assert np.abs(trace.inputs[0] - 0.5 * x0).max() <= 100 * cfg64.delta
    assert trace.errors[0] <= 100 * cfg64.delta


def test_encrypted_loop_matches_plain(cfg64):
    model = sec6_plant(sigma_w2=0.01)
    controller = ControllerParams(-0.3 * np.eye(4))
    enc = run_encrypted_loop(
        model, controller, cfg64, T=50,
        noise_rng=np.random.default_rng(12), key_rng=random.Random(12),
    )
    plain = run_plain_loop(model, controller, T=50, noise_rng=np.random.default_rng(12))
    assert len(enc) == 50 and len(plain) == 50
    assert np.array_equal(enc.states[0], plain.states[0])  # same draw stream
    assert np.abs(enc.inputs - plain.inputs).max() <= 100 * cfg64.delta


def test_divergence_shrinks_with_delta(group64):
    model = sec6_plant(sigma_w2=0.0)
    controller = ControllerParams(-0.3 * np.eye(4))
    x0 = np.array([1.3, -0.7, 0.9, 0.4])
    devs = []
    for delta in (1e-2, 1e-3, 1e-4):
        cfg = CodecConfig(group64, delta=delta, value_bound=1000.0)
        enc = run_encrypted_loop(
            model, controller, cfg, T=50,
            noise_rng=np.random.default_rng(3), key_rng=random.Random(3), x0=x0,
        )
        plain = run_plain_loop(model, controller, T=50, noise_rng=np.random.default_rng(3), x0=x0)
        devs.append(np.abs(enc.inputs - plain.inputs).max())
    assert devs[1] <= 0.5 * devs[0]
    assert devs[2] <= 0.5 * devs[1]


def test_plain_loop_autonomous_decay():
    model = sec6_plant()
    controller = ControllerParams(np.zeros((4, 4)))
    x0 = np.array([2.0, -1.0, 0.5, 1.5])
    trace = run_plain_loop(model, controller, T=10, noise_rng=np.random.default_rng(0), x0=x0)
    for t in range(10):
        assert np.allclose(trace.states[t], ROOT_HALF**t * x0)
        assert np.array_equal(trace.inputs[t], np.zeros(4))


def test_zero_state_is_offset_not_fatal(cfg64):
    model = PlantModel(0.5 * np.eye(2), np.eye(2), 0.0, 0.0)
    controller = ControllerParams(0.1 * np.eye(2))
    trace = run_encrypted_loop(
        model, controller, cfg64, T=3,
        noise_rng=np.random.default_rng(0), key_rng=random.Random(1), x0=np.zeros(2),
    )
    assert np.isfinite(trace.inputs).all() and np.isfinite(trace.errors).all()


def test_loop_shape_validation(cfg64):
    model = sec6_plant()
    with pytest.raises(ValueError):
        run_encrypted_loop(
            model, ControllerParams(np.eye(3)), cfg64, T=1,
            noise_rng=np.random.default_rng(0), key_rng=random.Random(0),
        )
    with pytest.raises(ValueError):
        run_plain_loop(model, ControllerParams(np.eye(4)), T=0, noise_rng=np.random.default_rng(0))


@pytest.mark.parametrize("loop", ["encrypted", "plain"])
@pytest.mark.parametrize(
    "T, Phi, x0, message",
    [
        (0, np.eye(4), None, "T must be at least 1"),
        (1, np.eye(3), None, "controller shape must be (m, n) for this plant"),
        (1, np.eye(4), np.zeros(3), "x0 must have shape (4,)"),
    ],
)
def test_both_loops_check_alike(cfg64, loop, T, Phi, x0, message):
    model, controller = sec6_plant(), ControllerParams(Phi)
    noise_rng = np.random.default_rng(0)
    with pytest.raises(ValueError) as info:
        if loop == "encrypted":
            run_encrypted_loop(model, controller, cfg64, T, noise_rng, random.Random(0), x0)
        else:
            run_plain_loop(model, controller, T, noise_rng, x0)
    assert str(info.value) == message


def test_plain_loop_is_its_own_reference():
    trace = run_plain_loop(
        sec6_plant(sigma_w2=0.01), ControllerParams(-0.3 * np.eye(4)), T=20,
        noise_rng=np.random.default_rng(5),
    )
    assert np.array_equal(trace.ref_inputs, trace.inputs)
    assert np.array_equal(trace.times, np.arange(20))
    assert trace.errors.tolist() == [0.0] * 20 and trace.max_error == 0.0


def test_trace_csv_schema(tmp_path, cfg64):
    model = sec6_plant(sigma_w2=0.01)
    controller = ControllerParams(-0.3 * np.eye(4))
    trace = run_encrypted_loop(
        model, controller, cfg64, T=3,
        noise_rng=np.random.default_rng(5), key_rng=random.Random(5),
    )
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3,x_4,u_1,u_2,u_3,u_4,uref_1,uref_2,uref_3,uref_4,err"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[-1]) == trace.errors[0]


def encode_rows(M, cfg):
    """``encode_vector`` of each row of a matrix, as ``encrypt_matrix`` takes it."""
    return [encode_vector(row, cfg) for row in np.atleast_2d(M)]


def masks_of(sk, ct_rows):
    """mask(sk, c1) of every ciphertext of a matrix, by position."""
    return [[mask(sk, ct.c1) for ct in row] for row in ct_rows]


def reference_output(pk0, sk0, sk_t, ct_phi, ct_xi, cfg):
    """Row sums of entry-by-entry two-key decryptions of the full
    cross-epoch products: no compact reply and no shared masks."""
    return sum_rows(
        [
            [
                decode(cross_decrypt(sk0, sk_t, cross_eval(pk0, ct, ct_xi[j])), cfg, power=2)
                for j, ct in enumerate(row)
            ]
            for row in ct_phi
        ]
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), gap=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_decrypt_output_matches_cross_decrypt(group64, data, gap, seed):
    # random gains, states (zeros included) and epoch gaps on a 64-bit group
    alpha, beta = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
    row = st.lists(entry, min_size=beta, max_size=beta)
    gain = np.array(data.draw(st.lists(row, min_size=alpha, max_size=alpha)))
    state = np.array(data.draw(row))
    cfg = CodecConfig(group64, delta=1e-3, value_bound=1000.0)
    key_rng = random.Random(seed)
    epoch0 = initial_epoch(group64, key_rng)
    ct_phi = encrypt_matrix(epoch0.sk, encode_rows(gain, cfg), key_rng)
    epoch = epoch0
    for _ in range(gap):
        epoch, _ = key_update(epoch, key_rng)
    ct_xi = encrypt_vector(epoch.sk, encode_vector(state, cfg), key_rng)
    reply = encrypted_controller(epoch0.pk, ct_phi, ct_xi)
    got = decrypt_controller_output(
        masks_of(epoch0.sk, ct_phi), masks_of(epoch.sk, [ct_xi])[0], reply, cfg
    )
    expected = reference_output(epoch0.pk, epoch0.sk, epoch.sk, ct_phi, ct_xi, cfg)
    assert np.array_equal(got, expected)


def reference_loop(model, controller, cfg, T, noise_rng, key_rng):
    """run_encrypted_loop written out entry by entry: encode and encrypt
    each value on its own, reply with full cross-epoch products, and
    two-key decrypt each one."""
    def encode_nonzero(v):
        return encode(cfg.delta if round(v / cfg.delta) == 0 else v, cfg)

    epoch0 = initial_epoch(cfg.params, key_rng)
    ct_phi = [
        [encrypt(epoch0.pk, encode_nonzero(v), key_rng) for v in row] for row in controller.Phi
    ]
    epoch = epoch0
    x = noise_rng.normal(0.0, np.sqrt(model.sigma_x2), model.n)
    states, inputs, refs = [], [], []
    for _ in range(T):
        x_quant = np.array([decode(encode_nonzero(v), cfg) for v in x])
        ct_xi = [encrypt(epoch.pk, encode_nonzero(v), key_rng) for v in x]
        u = reference_output(epoch0.pk, epoch0.sk, epoch.sk, ct_phi, ct_xi, cfg)
        states.append(x)
        inputs.append(u)
        refs.append(controller.Phi @ x_quant)
        x = plant_step(model, x, u, noise_rng)
        epoch, _ = key_update(epoch, key_rng)
    return np.array(states), np.array(inputs), np.array(refs)


def test_encrypted_loop_matches_per_entry_decryption(cfg64):
    model = sec6_plant(sigma_w2=0.01)
    controller = ControllerParams(np.array([[-0.3, 0.1, 0, 0.2]] * 4) - 0.1 * np.eye(4))
    key_rng, ref_key_rng = random.Random(31), random.Random(31)
    trace = run_encrypted_loop(
        model, controller, cfg64, T=8,
        noise_rng=np.random.default_rng(31), key_rng=key_rng,
    )
    states, inputs, refs = reference_loop(
        model, controller, cfg64, 8, np.random.default_rng(31), ref_key_rng
    )
    assert np.array_equal(trace.states, states)
    assert np.array_equal(trace.inputs, inputs)
    assert np.array_equal(trace.ref_inputs, refs)
    assert np.array_equal(trace.errors, np.abs(inputs - refs).max(axis=1))
    assert key_rng.getstate() == ref_key_rng.getstate()


def test_encrypted_loop_modexp_count(monkeypatch, cfg64):
    # no variable-base exponentiation: each encryption is two table powers
    # of the generator (alpha*beta for the gain, beta per step for the
    # state), each rotation and the epoch-0 key one more, and the masks of
    # each gain row and of each step's state one batch of inverses taken
    # from the plant's own plaintexts, one extended-Euclid inverse each
    model = sec6_plant(sigma_w2=0.01)
    controller = ControllerParams(-0.3 * np.eye(4))
    alpha, beta, T = 4, 4, 5
    powmods = count_calls(monkeypatch, "powmod")
    table_powers = count_calls(monkeypatch, "g_pow")
    batches = count_calls(monkeypatch, "inverses")
    inverses = count_calls(monkeypatch, "inverse")
    encodes = []
    real_encode = enc_control.encode

    def counted_encode(x, cfg):
        encodes.append(x)
        return real_encode(x, cfg)

    monkeypatch.setattr(enc_control, "encode", counted_encode)
    run_encrypted_loop(
        model, controller, cfg64, T=T,
        noise_rng=np.random.default_rng(41), key_rng=random.Random(41),
    )
    encryptions = alpha * beta + beta * T
    assert len(powmods) == 0
    assert len(table_powers) == 1 + 2 * encryptions + T
    assert len(batches) == alpha + T
    assert len(inverses) == alpha + T
    assert len(encodes) == encryptions  # each value encoded once


def test_encrypted_loop_712_fits_the_table(monkeypatch, group712):
    # at 712 bits s and r are 148-bit draws, so every g^(s*r) is a power
    # read from the 296-bit table and the loop still makes no powmod; its
    # trace is the per-entry reference's, from the same key draws
    cfg = CodecConfig(group712, delta=1e-3, value_bound=1000.0)
    model, controller = sec6_plant(sigma_w2=0.01), ControllerParams(-0.3 * np.eye(4))
    key_rng, ref_key_rng = random.Random(47), random.Random(47)
    powmods = count_calls(monkeypatch, "powmod")
    trace = run_encrypted_loop(
        model, controller, cfg, T=3, noise_rng=np.random.default_rng(47), key_rng=key_rng
    )
    assert powmods == []
    monkeypatch.undo()
    states, inputs, _ = reference_loop(
        model, controller, cfg, 3, np.random.default_rng(47), ref_key_rng
    )
    assert np.array_equal(trace.states, states) and np.array_equal(trace.inputs, inputs)
    assert key_rng.getstate() == ref_key_rng.getstate()


@LAW
@given(s=WIDE, draws=st.lists(st.tuples(WIDE, WIDE), min_size=1, max_size=4))
@example(s=0, draws=[(0, -1), (-1, -1)])  # members 1 and the largest, r = q-1
@example(s=-1, draws=[(-1, 0), (0, 0)])  # s = q-1, r = 1
def test_encrypt_vector_matches_encrypt(law_group, s, draws):
    # the secret-key path gives the public encrypt's ciphertexts for the
    # same r, and the plaintext-derived masks are elgamal.mask's
    params = law_group
    pk, sk = keygen(params, ScriptedRng(s % params.q))
    ms = [member(params, u) for u, _ in draws]
    rs = [1 + v % (params.q - 1) for _, v in draws]  # any r in [1, q)
    rng = ScriptedRng(*rs)
    cts = encrypt_vector(sk, ms, rng)
    assert rng.values == []  # one draw per plaintext
    assert cts == [encrypt(pk, m, r=r) for m, r in zip(ms, rs)]
    assert own_masks(params, ms, cts) == [mask(sk, ct.c1) for ct in cts]
    # and from a generator, the same draws as encrypt makes
    rng, ref_rng = random.Random(s), random.Random(s)
    assert encrypt_vector(sk, ms, rng) == [encrypt(pk, m, ref_rng) for m in ms]
    assert rng.getstate() == ref_rng.getstate()


@pytest.fixture(scope="session", params=["group64", "group160"])
def loop_group(request):
    """A group drawing exponents from all of [0, q), and one drawing them
    below 2^exponent_bits."""
    return request.getfixturevalue(request.param)


@LAW
@given(noise_seed=st.integers(0, 2**64), key_seeds=st.tuples(st.integers(0, 2**64), st.integers(0, 2**64)))
def test_keys_do_not_move_the_loop(loop_group, noise_seed, key_seeds):
    # keys, randomness and ciphertexts depend on the key draws, but every
    # decrypted value is exact, so the loop's trace depends on the noise alone
    cfg = CodecConfig(loop_group, delta=1e-3, value_bound=1000.0)
    model, controller = sec6_plant(sigma_w2=0.01), ControllerParams(-0.3 * np.eye(4))
    first, second = (
        run_encrypted_loop(
            model, controller, cfg, T=3,
            noise_rng=np.random.default_rng(noise_seed), key_rng=random.Random(key_seed),
        )
        for key_seed in key_seeds
    )
    for name in ("states", "inputs", "ref_inputs", "errors"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
