"""Command-line front end: design, complexity curves, attack simulation,
and an encrypted-loop demonstration, driven by YAML configs or shipped
presets.  All outputs are UTF-8 CSV/JSON and deterministic for a fixed
(config, seed) pair.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import random
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import enc_control, identification, security_design
from .codec import MAX_LEVELS, CodecConfig
from .modgroup import generate_group_params
from .updatable import initial_epoch, key_update, recover_next_key

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the largest codec.key_bits a config may ask for: above the paper's
# k* = 712 with room to spare, and small enough that the safe-prime search
# in loop-demo ends (on pure-Python pow it takes about 15 s at 1,030 bits)
MAX_KEY_BITS = 2048

# libyaml scans and parses when PyYAML was built with it; the resolver and
# constructor stay SafeLoader's, so a document yields the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _get(block: dict, path: str, key: str, required: bool = True, default=None):
    if key not in block:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    return block[key]


def _finite(value, path: str) -> float:
    if isinstance(value, bool):  # YAML reads yes/no/on/off/true as booleans
        _fail(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value!r}")
    return value


def _positive(value, path: str) -> float:
    value = _finite(value, path)
    if value <= 0:
        _fail(path, "must be positive")
    return value


def _nonneg(value, path: str) -> float:
    value = _finite(value, path)
    if value < 0:
        _fail(path, "must be nonnegative")
    return value


def _positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        _fail(path, f"expected a positive integer, got {value!r}")
    return value


def _matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    """Scalars become value * I (rectangular identity); lists are checked."""
    if isinstance(value, (int, float)):
        return _finite(value, path) * np.eye(rows, cols)
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail(path, f"expected a scalar or nested list, got {value!r}")
    if M.shape != (rows, cols):
        _fail(path, f"expected shape ({rows}, {cols}), got {M.shape}")
    if not np.isfinite(M).all():
        _fail(path, "entries must be finite")
    return M


@dataclass(frozen=True)
class PlantBlock:
    n: int
    m: int
    sigma_w2: float
    sigma_x2: float
    A: np.ndarray | None
    B: np.ndarray | None
    psi_u: np.ndarray | None
    psi_w: np.ndarray | None


@dataclass(frozen=True)
class AttackBlock:
    sigma_u2: float | None
    r_sigma: float | None
    n_grid: tuple[int, ...]
    trials: int
    seed: int


@dataclass(frozen=True)
class CodecBlock:
    delta: float
    value_bound: float
    key_bits: int


@dataclass(frozen=True)
class LoopBlock:
    T: int
    phi: np.ndarray


@dataclass(frozen=True)
class RunConfig:
    plant: PlantBlock | None = None
    attack: AttackBlock | None = None
    requirement: security_design.SecurityRequirement | None = None
    codec: CodecBlock | None = None
    loop: LoopBlock | None = None


def _parse_plant(block: dict) -> PlantBlock:
    n = _positive_int(_get(block, "plant", "n"), "plant.n")
    m = _positive_int(_get(block, "plant", "m"), "plant.m")
    sigma_w2 = _nonneg(_get(block, "plant", "sigma_w2"), "plant.sigma_w2")
    sigma_x2 = _nonneg(_get(block, "plant", "sigma_x2"), "plant.sigma_x2")
    A = block.get("A")
    B = block.get("B")
    if (A is None) != (B is None):
        _fail("plant.A", "A and B must be given together")
    if A is not None:
        A = _matrix(A, n, n, "plant.A")
        B = _matrix(B, n, m, "plant.B")
        if security_design.spectral_radius(A) >= 1.0:
            _fail("plant.A", "spectral radius must be below 1")
    psi_u = block.get("psi_u")
    psi_w = block.get("psi_w")
    if psi_u is not None:
        psi_u = _matrix(psi_u, n, n, "plant.psi_u")
    if psi_w is not None:
        psi_w = _matrix(psi_w, n, n, "plant.psi_w")
    if A is None and (psi_u is None or psi_w is None):
        _fail("plant", "needs either A and B or explicit psi_u and psi_w")
    return PlantBlock(n, m, sigma_w2, sigma_x2, A, B, psi_u, psi_w)


def _parse_attack(block: dict) -> AttackBlock:
    sigma_u2 = block.get("sigma_u2")
    r_sigma = block.get("r_sigma")
    if (sigma_u2 is None) == (r_sigma is None):
        _fail("attack.r_sigma", "give exactly one of sigma_u2 and r_sigma")
    if sigma_u2 is not None:
        sigma_u2 = _positive(sigma_u2, "attack.sigma_u2")
    if r_sigma is not None:
        r_sigma = _positive(r_sigma, "attack.r_sigma")
    grid = _get(block, "attack", "n_grid")
    if not isinstance(grid, (list, tuple)) or not grid:
        _fail("attack.n_grid", "must be a nonempty list of sample sizes")
    grid = tuple(_positive_int(N, "attack.n_grid") for N in grid)
    if any(N < 2 for N in grid):
        _fail("attack.n_grid", "sample sizes must be at least 2")
    trials = _positive_int(_get(block, "attack", "trials", required=False, default=1), "attack.trials")
    seed = _get(block, "attack", "seed", required=False, default=0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("attack.seed", f"expected a nonnegative integer, got {seed!r}")
    return AttackBlock(sigma_u2, r_sigma, grid, trials, seed)


def _parse_requirement(block: dict) -> security_design.SecurityRequirement:
    return security_design.SecurityRequirement(
        gamma_c=_positive(_get(block, "requirement", "gamma_c"), "requirement.gamma_c"),
        tau_c=_positive(_get(block, "requirement", "tau_c"), "requirement.tau_c"),
        upsilon=_positive(_get(block, "requirement", "upsilon"), "requirement.upsilon"),
    )


def _parse_codec(block: dict) -> CodecBlock:
    key_bits = _positive_int(_get(block, "codec", "key_bits"), "codec.key_bits")
    if not 16 <= key_bits <= MAX_KEY_BITS:
        _fail("codec.key_bits", f"must be between 16 and {MAX_KEY_BITS}, got {key_bits}")
    delta = _positive(_get(block, "codec", "delta"), "codec.delta")
    value_bound = _positive(_get(block, "codec", "value_bound"), "codec.value_bound")
    # any generated modulus has p >= 2^(key_bits-1), so this guarantees the
    # codec's product wrap-safety condition (value_bound/delta)^2 < p/2.
    # levels*levels goes to inf instead of raising, and comparing it with
    # an int is exact, so neither side overflows at any key length
    levels = value_bound / delta
    if levels * levels >= 2 ** (key_bits - 2):
        _fail(
            "codec.value_bound",
            "(value_bound/delta)^2 must stay below 2^(key_bits-2); "
            "raise key_bits or coarsen delta",
        )
    if levels >= MAX_LEVELS:
        _fail(
            "codec.delta",
            "value_bound/delta must stay below 2^53, the float precision of "
            "quantization; coarsen delta",
        )
    return CodecBlock(delta=delta, value_bound=value_bound, key_bits=key_bits)


def _parse_loop(block: dict, plant: PlantBlock | None) -> LoopBlock:
    T = _positive_int(_get(block, "loop", "T"), "loop.T")
    if plant is None:
        _fail("plant", "loop block needs a plant block")
    phi = _matrix(_get(block, "loop", "phi"), plant.m, plant.n, "loop.phi")
    return LoopBlock(T=T, phi=phi)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a mapping of sections")
    known = {"plant", "attack", "requirement", "codec", "loop"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"config: unknown sections {sorted(map(str, unknown))}")
    for name, block in doc.items():
        if not isinstance(block, dict):
            _fail(name, f"expected a mapping of fields, got {block!r}")
    plant = _parse_plant(doc["plant"]) if "plant" in doc else None
    return RunConfig(
        plant=plant,
        attack=_parse_attack(doc["attack"]) if "attack" in doc else None,
        requirement=_parse_requirement(doc["requirement"]) if "requirement" in doc else None,
        codec=_parse_codec(doc["codec"]) if "codec" in doc else None,
        loop=_parse_loop(doc["loop"], plant) if "loop" in doc else None,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}")
    return parse_config(doc)


def preset_names() -> list[str]:
    root = resources.files("encctl") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> RunConfig:
    root = resources.files("encctl") / "presets"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        raise ConfigError(f"config: unknown preset {name!r}; available: {preset_names()}")
    return parse_config(yaml.load(candidate.read_text(encoding="utf-8"), Loader=_YAML_LOADER))


# ---------------------------------------------------------------------------
# derived quantities


def _require_block(cfg: RunConfig, name: str):
    block = getattr(cfg, name)
    if block is None:
        _fail(name, "section required for this command")
    return block


def _gramian_pair(plant: PlantBlock) -> security_design.GramianPair:
    """Explicit Gramian targets win over values derived from (A, B)."""
    if plant.psi_u is not None and plant.psi_w is not None:
        return security_design.GramianPair(plant.psi_u, plant.psi_w)
    pair = security_design._gramians(plant.A, plant.B)  # _parse_plant checked rho < 1
    return security_design.GramianPair(
        plant.psi_u if plant.psi_u is not None else pair.Psi_u,
        plant.psi_w if plant.psi_w is not None else pair.Psi_w,
    )


def _r_sigma(cfg: RunConfig) -> float:
    attack = _require_block(cfg, "attack")
    if attack.r_sigma is not None:
        return attack.r_sigma
    plant = _require_block(cfg, "plant")
    if plant.sigma_w2 <= 0:
        _fail("plant.sigma_w2", "must be positive to derive r_sigma from sigma_u2")
    r_sigma = attack.sigma_u2 / plant.sigma_w2
    if not 0 < r_sigma < math.inf:
        _fail("attack.sigma_u2", "sigma_u2/sigma_w2 must be a positive finite float")
    return r_sigma


def _sigma_u2(cfg: RunConfig) -> float:
    attack = _require_block(cfg, "attack")
    if attack.sigma_u2 is not None:
        return attack.sigma_u2
    plant = _require_block(cfg, "plant")
    sigma_u2 = attack.r_sigma * plant.sigma_w2
    if not math.isfinite(sigma_u2):
        _fail("attack.r_sigma", "r_sigma*sigma_w2 overflows a float")
    return sigma_u2


def _plant_model(plant: PlantBlock) -> enc_control.PlantModel:
    if plant.A is None:
        _fail("plant.A", "simulation commands need explicit A and B")
    return enc_control.PlantModel(plant.A, plant.B, plant.sigma_w2, plant.sigma_x2)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(cfg: RunConfig, out: Path) -> int:
    """Compute (N*, lambda*, k*) and write design.json."""
    req = _require_block(cfg, "requirement")
    plant = _require_block(cfg, "plant")
    pair = _gramian_pair(plant)
    result = security_design.design(plant.m, plant.n, _r_sigma(cfg), pair.Psi_u, pair.Psi_w, req)
    print(result.report())
    path = out / "design.json"
    path.write_text(result.to_json() + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_complexity_curve(cfg: RunConfig, out: Path) -> int:
    """Tabulate the error lower bound and its two ceilings over the N grid."""
    plant = _require_block(cfg, "plant")
    attack = _require_block(cfg, "attack")
    pair = _gramian_pair(plant)
    r_sigma = _r_sigma(cfg)
    sigma_u2 = _sigma_u2(cfg)
    tr_u = float(np.trace(pair.Psi_u))
    tr_w = float(np.trace(pair.Psi_w))
    rows = []
    for N in attack.n_grid:
        rows.append(
            [
                N,
                repr(security_design.sic_full(
                    plant.m, plant.n, plant.sigma_x2, sigma_u2, plant.sigma_w2,
                    pair.Psi_u, pair.Psi_w, N,
                )),
                repr(security_design.sic_large_n(plant.m, plant.n, r_sigma, tr_u, tr_w, N)),
                repr(security_design.sic_upperbound_input(plant.m, plant.n, r_sigma, N)),
                repr(security_design.sic_upperbound_noise(plant.m, plant.n, N)),
            ]
        )
    path = out / "complexity_curve.csv"
    _write_csv(path, ["N", "gamma_full", "gamma_largeN", "bound_input", "bound_noise"], rows)
    print(f"wrote {path} ({len(rows)} grid points)")
    return EXIT_OK


def cmd_attack_sim(cfg: RunConfig, out: Path, seed: int) -> int:
    """Monte Carlo identification attack over the N grid.

    Writes attack_trials.csv (N,trial,epsilon,status) and
    attack_summary.csv (N,mean_epsilon,gamma), with gamma the full-form
    lower bound at the config's variances.
    """
    plant = _require_block(cfg, "plant")
    attack = _require_block(cfg, "attack")
    model = _plant_model(plant)
    floor = plant.n + plant.m + 1
    if min(attack.n_grid) < floor:
        _fail(
            "attack.n_grid",
            f"N={min(attack.n_grid)} below the identifiability floor n+m+1={floor}",
        )
    pair = _gramian_pair(plant)
    sigma_u2 = _sigma_u2(cfg)
    trial_rows = []
    summary_rows = []
    for j, N in enumerate(attack.n_grid):
        atk = identification.AttackConfig(sigma_u2=sigma_u2, N=N)
        result = identification.monte_carlo_error(model, atk, attack.trials, seed + j)
        for i, eps in enumerate(result.epsilons):
            ok = not np.isnan(eps)
            trial_rows.append([N, i, repr(float(eps)) if ok else "", "ok" if ok else "rank_deficient"])
        gamma = security_design.sic_full(
            plant.m, plant.n, plant.sigma_x2, sigma_u2, plant.sigma_w2,
            pair.Psi_u, pair.Psi_w, N,
        )
        summary_rows.append([N, repr(result.mean_epsilon), repr(gamma)])
    trials_path = out / "attack_trials.csv"
    summary_path = out / "attack_summary.csv"
    _write_csv(trials_path, ["N", "trial", "epsilon", "status"], trial_rows)
    _write_csv(summary_path, ["N", "mean_epsilon", "gamma"], summary_rows)
    print(f"wrote {trials_path} ({len(trial_rows)} trials)")
    print(f"wrote {summary_path} ({len(summary_rows)} grid points)")
    return EXIT_OK


def cmd_loop_demo(cfg: RunConfig, out: Path, seed: int) -> int:
    """Run the encrypted loop against its plaintext twin and report.

    Confirms structurally that the server-side interface admits no update
    token, and demonstrates on the plant side that the token would reveal
    the next secret key if it were ever shared.
    """
    plant = _require_block(cfg, "plant")
    codec_block = _require_block(cfg, "codec")
    loop = _require_block(cfg, "loop")
    model = _plant_model(plant)
    controller = enc_control.ControllerParams(loop.phi)

    key_rng = random.Random(seed)
    params = generate_group_params(codec_block.key_bits, key_rng)
    codec_cfg = CodecConfig(params, codec_block.delta, codec_block.value_bound)

    enc_trace = enc_control.run_encrypted_loop(
        model, controller, codec_cfg, loop.T,
        noise_rng=np.random.default_rng(seed), key_rng=key_rng,
    )
    plain_trace = enc_control.run_plain_loop(
        model, controller, loop.T, noise_rng=np.random.default_rng(seed)
    )
    max_dev = float(np.abs(enc_trace.inputs - plain_trace.inputs).max())

    # the complete server interface: public key and ciphertexts only
    server_params = set(inspect.signature(enc_control.encrypted_controller).parameters)
    token_free = not any("token" in p.lower() for p in server_params)

    # plant-side demonstration: holding the token trivially yields the next key
    epoch = initial_epoch(params, random.Random(seed + 1))
    recovered_all = True
    for _ in range(loop.T):
        nxt, token = key_update(epoch, random.Random(epoch.t + seed))
        recovered_all &= recover_next_key(epoch.sk, token).s == nxt.sk.s
        epoch = nxt

    trace_path = out / "loop_trace.csv"
    enc_trace.write_csv(trace_path)
    report = {
        "steps": loop.T,
        "key_bits": codec_block.key_bits,
        "delta": codec_block.delta,
        "max_deviation_vs_plain": max_dev,
        "max_decode_error": enc_trace.max_error,
        "server_interface_params": sorted(server_params),
        "token_free_server_interface": token_free,
        "token_would_reveal_next_key": recovered_all,
    }
    print(f"encrypted loop: {loop.T} steps on a {codec_block.key_bits}-bit group")
    print(f"max |u_enc - u_plain| = {max_dev:.3e} (delta = {codec_block.delta:g})")
    print(f"server interface parameters: {sorted(server_params)} (token-free: {token_free})")
    print(f"update token recovers next secret key when held: {recovered_all} "
          "(which is why it is never transmitted)")
    report_path = out / "loop_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {trace_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encctl",
        description="Encrypted-control security toolkit: parameter design, "
        "complexity curves, identification-attack simulation, loop demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("design", "compute the optimal security parameter and key length"),
        ("complexity-curve", "tabulate identification-error lower bounds over N"),
        ("attack-sim", "Monte Carlo least-squares identification attack"),
        ("loop-demo", "encrypted control loop vs plaintext reference"),
    ]:
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="path to a YAML run configuration")
        src.add_argument("--preset", help=f"shipped preset name, one of: {', '.join(preset_names())}")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            _fail("--seed", f"expected a nonnegative integer, got {args.seed}")
        cfg = load_preset(args.preset) if args.preset else load_config(args.config)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail("--out", f"not a usable output directory: {exc}")
        seed = args.seed
        if seed is None:
            seed = cfg.attack.seed if cfg.attack is not None else 0
        if args.command == "design":
            return cmd_design(cfg, args.out)
        if args.command == "complexity-curve":
            return cmd_complexity_curve(cfg, args.out)
        if args.command == "attack-sim":
            return cmd_attack_sim(cfg, args.out, seed)
        return cmd_loop_demo(cfg, args.out, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        security_design.UnstableSystemError,
        security_design.InconclusiveSecurityError,
        identification.RankDeficiencyError,
        np.linalg.LinAlgError,
        ValueError,
        ArithmeticError,
        MemoryError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
