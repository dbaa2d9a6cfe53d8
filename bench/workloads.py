"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (everything done
before timing starts) and whose ``run(i)`` performs operation ``i`` and
returns its timing samples, (wall seconds, units of work) pairs over the
part being measured, together with its raw output.  ``check(i, out)``
verifies that output outside the timed region.  All inputs derive from
the workload seed and the operation index, so the same seed repeats every
operation exactly.  Every operation is closed-loop: it starts when the
previous one has returned.

The program is always called through module attributes at call time
(``enc_control.run_encrypted_loop``, never a name imported into this file),
so the tracer's rebound wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from encctl import cli, elgamal, enc_control, modgroup, security_design, updatable
from encctl.codec import CodecConfig

# The shipped presets' own seed.  The 3-SEM law of attack_mc is a hard
# check only at this seed: a one-sided test over 54 grid points may trip
# on some fresh seed without any defect.
DEFAULT_SEED = 20240601

REFERENCE_DESIGN = (13159, 74, 712)
VAR_PANELS = tuple(f"var_panel_{c}" for c in "abcdefghi")

# stream identifiers mixed into sub-seeds
_GROUP, _OP, _PLANT = 1, 2, 3


def sub_seed(*parts: int) -> int:
    """A 64-bit seed derived from the workload seed and stream/index parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def no_span(name: str, tag=None):
    return contextlib.nullcontext()


@dataclass(frozen=True)
class Size:
    """Scale of every workload; FULL is the benchmark, TOY the smoke test."""

    key_bits: int | None  # None: the k* that `design` gives for reference_design
    loop_T: int  # steps per run_encrypted_loop call
    loop_calls_per_pass: int
    chain_len: int  # rotations per re-key chain
    chains_per_pass: int
    presets: tuple[str, ...]
    plant_sizes: tuple[int, ...]


FULL = Size(None, 10, 3, 50, 4, VAR_PANELS, (4, 16, 32, 48))
TOY = Size(64, 3, 1, 5, 1, VAR_PANELS[:1], (4,))


@dataclass
class Check:
    attempted: int  # correctness checks made
    failed: int
    digest: str  # hash of the seeded outputs
    bound_violations: int = 0  # attack_mc grid points breaking the 3-SEM law


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _quiet_main(argv: list[str]) -> int:
    """cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _reference_config():
    cfg = cli.load_preset("reference_design")
    plant = cfg.plant
    result = security_design.design(
        plant.m, plant.n, cfg.attack.r_sigma, plant.psi_u, plant.psi_w, cfg.requirement
    )
    got = (result.N_star, result.lambda_star, result.k_star)
    if got != REFERENCE_DESIGN:
        raise RuntimeError(f"design on reference_design gave {got}, expected {REFERENCE_DESIGN}")
    return cfg, result.k_star


class Workload:
    name = ""
    metric = ""  # the end-to-end throughput metric, as ROADMAP/issue name it
    unit_label = ""
    pass_ops = 1  # operations in one traced pass

    key_bits = 0
    group_s = 0.0  # time of the safe-prime search inside set-up
    span = staticmethod(no_span)  # the runner swaps in Tracer.span when tracing

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> Check:
        raise NotImplementedError


class LoopK712(Workload):
    """run_encrypted_loop on the reference plant at the designed key length."""

    name = "loop_k712"
    metric = "loop_steps_per_s"
    unit_label = "loop steps"

    def __init__(self, seed: int, size: Size, rep: int, workdir: Path):
        cfg, k_star = _reference_config()
        self.seed = seed
        self.T = size.loop_T
        self.pass_ops = size.loop_calls_per_pass
        self.key_bits = size.key_bits or k_star
        t0 = perf_counter()
        self.params = modgroup.generate_group_params(self.key_bits, random.Random(sub_seed(seed, _GROUP, rep)))
        self.group_s = perf_counter() - t0
        self.delta = cfg.codec.delta
        self.codec = CodecConfig(self.params, cfg.codec.delta, cfg.codec.value_bound)
        plant = cfg.plant
        self.model = enc_control.PlantModel(plant.A, plant.B, plant.sigma_w2, plant.sigma_x2)
        self.controller = enc_control.ControllerParams(cfg.loop.phi)

    def run(self, i):
        noise_seed = sub_seed(self.seed, _OP, i)
        key_rng = random.Random(sub_seed(self.seed, _OP, i, 1))
        t0 = perf_counter()
        trace = enc_control.run_encrypted_loop(
            self.model, self.controller, self.codec, self.T,
            noise_rng=np.random.default_rng(noise_seed), key_rng=key_rng,
        )
        return [(perf_counter() - t0, self.T)], (noise_seed, trace)

    def check(self, i, out):
        noise_seed, trace = out
        plain = enc_control.run_plain_loop(
            self.model, self.controller, self.T, noise_rng=np.random.default_rng(noise_seed)
        )
        limit = 20 * self.delta
        deviation = np.abs(trace.inputs - plain.inputs).max(axis=1)
        bad = ~((deviation <= limit) & (trace.errors <= limit))  # NaN counts as bad
        return Check(
            attempted=self.T, failed=int(bad.sum()),
            digest=_digest(trace.states.tobytes(), trace.inputs.tobytes(), trace.errors.tobytes()),
        )


class RekeyChain(Workload):
    """Chains of rotations: key_update, ct_update, then decrypt to verify."""

    name = "rekey_chain"
    metric = "rekey_rotations_per_s"
    unit_label = "verified rotations"

    def __init__(self, seed: int, size: Size, rep: int, workdir: Path):
        _, k_star = _reference_config()
        self.seed = seed
        self.L = size.chain_len
        self.pass_ops = size.chains_per_pass
        self.key_bits = size.key_bits or k_star
        t0 = perf_counter()
        self.params = modgroup.generate_group_params(self.key_bits, random.Random(sub_seed(seed, _GROUP, rep)))
        self.group_s = perf_counter() - t0

    def run(self, i):
        params = self.params
        rng = random.Random(sub_seed(self.seed, _OP, i))
        m = pow(params.g, rng.randrange(1, params.q), params.p)  # builtin: not traced
        epoch = updatable.initial_epoch(params, rng)
        ct = elgamal.encrypt(epoch.pk, m, rng)
        samples, verified = [], 0
        # each rotation is its own sample: many short samples keep the
        # median steady on a machine whose speed varies second to second
        for _ in range(self.L):
            t0 = perf_counter()
            epoch, token = updatable.key_update(epoch, rng)
            ct = updatable.ct_update(params, ct, token, rng)
            verified += elgamal.decrypt(epoch.sk, ct) == m
            samples.append((perf_counter() - t0, 1))
        return samples, (verified, ct)

    def check(self, i, out):
        verified, ct = out
        return Check(attempted=self.L, failed=self.L - verified, digest=_digest(ct))


class AttackMC(Workload):
    """cli attack-sim on the var_panel presets, one preset per operation."""

    name = "attack_mc"
    metric = "attack_trials_per_s"
    unit_label = "identification trials"

    def __init__(self, seed: int, size: Size, rep: int, workdir: Path):
        self.seed = seed
        self.presets = size.presets
        self.pass_ops = len(self.presets)
        # trials each preset runs, for counting a failed run's trials as failed
        self.trials = {}
        for name in self.presets:
            attack = cli.load_preset(name).attack
            self.trials[name] = len(attack.n_grid) * attack.trials
        self.out = {name: workdir / f"attack-{rep}-{name}" for name in self.presets}
        for path in self.out.values():
            path.mkdir(parents=True, exist_ok=True)

    def run(self, i):
        name = self.presets[i % len(self.presets)]
        argv = ["attack-sim", "--preset", name, "--seed", str(self.seed), "--out", str(self.out[name])]
        t0 = perf_counter()
        code = _quiet_main(argv)
        return [(perf_counter() - t0, self.trials[name])], (name, code)

    def check(self, i, out):
        name, code = out
        expected = self.trials[name]
        if code != 0:
            return Check(attempted=expected, failed=expected, digest=f"exit {code}")
        trials_bytes = (self.out[name] / "attack_trials.csv").read_bytes()
        summary_bytes = (self.out[name] / "attack_summary.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(trials_bytes.decode())))
        bad = sum(r["status"] != "ok" for r in rows) + abs(len(rows) - expected)
        eps: dict[int, list[float]] = {}
        for r in rows:
            if r["status"] == "ok":
                eps.setdefault(int(r["N"]), []).append(float(r["epsilon"]))
        # statistical law: mean epsilon >= gamma - 3 SEM at every grid point
        violations = 0
        for r in csv.DictReader(io.StringIO(summary_bytes.decode())):
            e = np.array(eps.get(int(r["N"]), [np.nan]))
            sem = float(np.std(e, ddof=1)) / np.sqrt(len(e)) if len(e) > 1 else 0.0
            violations += not float(r["mean_epsilon"]) >= float(r["gamma"]) - 3 * sem
        if self.seed == DEFAULT_SEED:
            bad += violations
        return Check(
            attempted=expected, failed=min(bad, expected),
            digest=_digest(trials_bytes, summary_bytes),
            bound_violations=violations,
        )


class DesignSweep(Workload):
    """cli design and complexity-curve on generated plants of several sizes.

    The configs carry A and B but no explicit Gramians, so
    security_design.gramians runs inside every command.
    """

    name = "design_sweep"
    metric = "design_cases_per_s"
    unit_label = "design cases"

    R_SIGMA = 100.0
    INPUTS = 4  # m, the number of plant inputs
    N_GRID = [50, 100, 200, 400, 800, 1600]

    def __init__(self, seed: int, size: Size, rep: int, workdir: Path):
        rng = np.random.default_rng(sub_seed(seed, _PLANT, rep))
        reference = cli.load_preset("reference_design").requirement
        self.cases = []
        for n in size.plant_sizes:
            M = rng.normal(size=(n, n))
            A = M * (rng.uniform(0.3, 0.9) / security_design.spectral_radius(M))
            B = rng.normal(size=(n, self.INPUTS))
            doc = {
                "plant": {"n": n, "m": self.INPUTS, "A": A.tolist(), "B": B.tolist(),
                          "sigma_w2": 0.1, "sigma_x2": 1.0},
                "attack": {"r_sigma": self.R_SIGMA, "n_grid": self.N_GRID},
                "requirement": {"gamma_c": reference.gamma_c, "tau_c": reference.tau_c,
                                "upsilon": reference.upsilon},
            }
            case_dir = workdir / f"design-{rep}-n{n}"
            case_dir.mkdir(parents=True, exist_ok=True)
            config = case_dir / "config.yaml"
            config.write_text(yaml.safe_dump(doc), encoding="utf-8")
            self.cases.append((n, A, B, config, case_dir))
        self.ref_dir = workdir / f"design-{rep}-reference"

    def run(self, i):
        codes = []
        t0 = perf_counter()
        for n, _, _, config, case_dir in self.cases:
            with self.span("case", n):
                for command in ("design", "complexity-curve"):
                    codes.append(_quiet_main([command, "--config", str(config), "--out", str(case_dir)]))
        return [(perf_counter() - t0, len(self.cases))], codes

    def check(self, i, codes):
        failed = sum(code != 0 for code in codes)
        attempted = len(codes)
        outputs = []
        for _, _, _, _, case_dir in self.cases:
            for fname in ("design.json", "complexity_curve.csv"):
                path = case_dir / fname
                outputs.append(path.read_bytes() if path.exists() else b"missing")
        if i == 0:  # once per run: the headline case and the solver residuals
            attempted += 1 + 2 * len(self.cases)
            code = _quiet_main(["design", "--preset", "reference_design", "--out", str(self.ref_dir)])
            doc = json.loads((self.ref_dir / "design.json").read_text()) if code == 0 else {}
            failed += tuple(doc.get(k) for k in ("N_star", "lambda_star", "k_star")) != REFERENCE_DESIGN
            for n, A, B, _, _ in self.cases:
                pair = security_design.gramians(A, B)
                for psi, Q in ((pair.Psi_u, B @ B.T), (pair.Psi_w, np.eye(n))):
                    residual = np.linalg.norm(A @ psi @ A.T - psi + Q) / np.linalg.norm(psi)
                    failed += not residual <= 1e-8
        return Check(attempted=attempted, failed=failed, digest=_digest(*outputs))


WORKLOADS = {cls.name: cls for cls in (LoopK712, RekeyChain, AttackMC, DesignSweep)}
