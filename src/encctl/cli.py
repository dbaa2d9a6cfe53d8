"""Command-line front end: design, complexity curves, attack simulation,
and an encrypted-loop demonstration, driven by YAML configs or shipped
presets.  All outputs are UTF-8 CSV/JSON and deterministic for a fixed
(config, seed) pair.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import inspect
import json
import math
import random
import sys
from dataclasses import make_dataclass
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
# k* = 712 with room to spare, and a bound on loop-demo's safe-prime
# search, which draws up to 2000 candidates per key bit
MAX_KEY_BITS = 2048

# The most memory one config-sized array may take.  It bounds every size a
# config sets before anything is allocated: plant.n and plant.m (n x n and
# n x m float matrices), attack.trials, loop.T (a T x (n+2m+1) float trace)
# and attack-sim's N (one trial's N*(2n+m) floats of history)
MAX_ARRAY_BYTES = 1 << 27
_MAX_DIM = math.isqrt(MAX_ARRAY_BYTES // 8)  # 4096
# a trial keeps only its 8-byte error beyond its block's simulation while
# its grid point runs (seeds are spawned a block at a time), and attack-sim
# writes a grid point's rows before the next one starts; the cap allows
# 1 KiB a trial, far above that
_MAX_TRIALS = MAX_ARRAY_BYTES // 1024

_PRESETS = resources.files("encctl") / "presets"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader's resolver and constructor on libyaml's parser if PyYAML
    has it, so documents yield the same objects, except that a key written
    twice in one mapping is an error; merged "<<" keys may be overridden."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag in self.yaml_constructors:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


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


def _ints(lo: int, hi: float = math.inf):
    def convert(value, path: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
            _fail(path, f"expected an integer in [{lo}, {hi}], got {value!r}")
        return value

    return convert


def _sample_sizes(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "must be a nonempty list of sample sizes")
    size = _ints(2)
    return tuple(size(N, path) for N in value)


@contextlib.contextmanager
def _sized_by(path: str):
    """Name the config field ``path`` in an OverflowError raised inside, still exit 3."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(f"{path}: {exc}") from exc


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


def _gramian(M: np.ndarray, path: str) -> None:
    """Reject an explicit Gramian target that is not symmetric positive
    semidefinite; asymmetry and negative eigenvalues up to 1e-9 * n times
    the largest |entry| are rounding, not a defect."""
    tol = 1e-9 * np.abs(M).max() * len(M)
    if np.abs(M - M.T).max() > tol or np.linalg.eigvalsh(M).min() < -tol:
        _fail(
            path,
            f"must be symmetric positive semidefinite, to within {tol:.3g} "
            "(1e-9 * n * the largest |entry|)",
        )


def _within_budget(path: str, floats: int) -> None:
    if 8 * floats > MAX_ARRAY_BYTES:
        _fail(path, f"needs {floats} floats, above the {MAX_ARRAY_BYTES}-byte array budget")


# Every config field, once: section -> field -> (converter, default), in
# parse order.  A converter takes (value, path); a pair of plant field
# names stands for _matrix with that shape, so plant.n and plant.m come
# first.  A field given as null takes its default; one whose default is
# ... must be given.  Rules across fields follow in parse_config.
_SCHEMA = {
    "plant": {
        "n": (_ints(1, _MAX_DIM), ...),
        "m": (_ints(1, _MAX_DIM), ...),
        "sigma_w2": (_nonneg, ...),
        "sigma_x2": (_nonneg, ...),
        "A": (("n", "n"), None),
        "B": (("n", "m"), None),
        "psi_u": (("n", "n"), None),
        "psi_w": (("n", "n"), None),
    },
    "attack": {
        "sigma_u2": (_positive, None),
        "r_sigma": (_positive, None),
        "n_grid": (_sample_sizes, ...),
        "trials": (_ints(1, _MAX_TRIALS), 1),
        "seed": (_ints(0), 0),
    },
    "requirement": {
        "gamma_c": (_positive, ...),
        "tau_c": (_positive, ...),
        "upsilon": (_positive, ...),
    },
    "codec": {
        "delta": (_positive, ...),
        "value_bound": (_positive, ...),
        "key_bits": (_ints(16, MAX_KEY_BITS), ...),
    },
    "loop": {
        "T": (_ints(1), ...),
        "phi": (("m", "n"), ...),
    },
}

# a frozen record type per section; RunConfig holds one per section given
_SECTIONS = {
    name: security_design.SecurityRequirement if name == "requirement"
    else make_dataclass(f"{name.title()}Block", fields, frozen=True)
    for name, fields in _SCHEMA.items()
}
PlantBlock, AttackBlock, _, CodecBlock, LoopBlock = _SECTIONS.values()
RunConfig = make_dataclass("RunConfig", [(s, _SECTIONS[s], None) for s in _SCHEMA], frozen=True)


def _parse_section(name: str, block: dict, plant: dict) -> dict:
    """Convert one section's fields by the schema.  The plant section's
    fields go into ``plant``, whose n and m shape every matrix."""
    if not isinstance(block, dict):
        _fail(name, f"expected a mapping of fields, got {block!r}")
    schema = _SCHEMA[name]
    for key in block:
        if key not in schema:
            _fail(f"{name}.{key}", f"unknown field; known fields: {', '.join(schema)}")
    fields = plant if name == "plant" else {}
    for key, (convert, default) in schema.items():
        path = f"{name}.{key}"
        value = block.get(key)
        if value is None:
            if default is ...:
                _fail(path, "missing required field")
            fields[key] = default
        elif isinstance(convert, tuple):
            fields[key] = _matrix(value, plant[convert[0]], plant[convert[1]], path)
        else:
            fields[key] = convert(value, path)
    return fields


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a mapping of sections")
    unknown = set(doc) - _SCHEMA.keys()
    if unknown:
        raise ConfigError(f"config: unknown sections {sorted(map(str, unknown))}")
    if "loop" in doc and "plant" not in doc:
        _fail("plant", "loop block needs a plant block")
    plant = {}
    cfg = RunConfig(**{
        name: _SECTIONS[name](**_parse_section(name, doc[name], plant))
        for name in _SCHEMA if name in doc
    })

    if cfg.plant is not None:
        A, B = cfg.plant.A, cfg.plant.B
        if (A is None) != (B is None):
            _fail("plant.A", "A and B must be given together")
        if A is not None and security_design.spectral_radius(A) >= 1.0:
            _fail("plant.A", "spectral radius must be below 1")
        if A is None and (cfg.plant.psi_u is None or cfg.plant.psi_w is None):
            _fail("plant", "needs either A and B or explicit psi_u and psi_w")
        for name in ("psi_u", "psi_w"):
            psi = getattr(cfg.plant, name)
            if psi is not None:
                _gramian(psi, f"plant.{name}")
    if cfg.attack is not None and (cfg.attack.sigma_u2 is None) == (cfg.attack.r_sigma is None):
        _fail("attack.r_sigma", "give exactly one of sigma_u2 and r_sigma")
    if cfg.codec is not None:
        # encode_vector moves every value that quantizes to zero to delta,
        # which encode then checks against value_bound
        if cfg.codec.delta > cfg.codec.value_bound:
            _fail("codec.delta", f"must not exceed codec.value_bound {cfg.codec.value_bound}")
        # any generated modulus has p >= 2^(key_bits-1), so this guarantees
        # the codec's product wrap-safety condition (value_bound/delta)^2 <
        # p/2. levels*levels goes to inf instead of raising, and comparing
        # it with an int is exact, so neither side overflows at any key length
        levels = cfg.codec.value_bound / cfg.codec.delta
        if levels * levels >= 2 ** (cfg.codec.key_bits - 2):
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
    if cfg.loop is not None:
        _within_budget("loop.T", cfg.loop.T * (cfg.plant.n + 2 * cfg.plant.m + 1))
        if cfg.codec is not None:
            # encode's rule, checked before the safe-prime search
            over = np.abs(cfg.loop.phi) > cfg.codec.value_bound
            if over.any():
                entry = cfg.loop.phi[over][0]
                _fail("loop.phi", f"|{entry}| exceeds codec.value_bound {cfg.codec.value_bound}")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}")
    return parse_config(doc)


@functools.cache  # the shipped presets; load_preset checks every name against them
def preset_names() -> tuple[str, ...]:
    names = (p.name for p in _PRESETS.iterdir())
    return tuple(sorted(n[: -len(".yaml")] for n in names if n.endswith(".yaml")))


def load_preset(name: str) -> RunConfig:
    if name not in preset_names():
        _fail("config", f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    text = (_PRESETS / f"{name}.yaml").read_text(encoding="utf-8")
    return parse_config(yaml.load(text, Loader=_Loader))


# ---------------------------------------------------------------------------
# derived quantities


def _gramian_pair(plant: PlantBlock) -> security_design.GramianPair:
    """Explicit Gramian targets win over values derived from (A, B)."""
    if plant.psi_u is not None and plant.psi_w is not None:
        return security_design.GramianPair(plant.psi_u, plant.psi_w)
    pair = security_design._gramians(plant.A, plant.B)  # parse_config checked rho < 1
    return security_design.GramianPair(
        plant.psi_u if plant.psi_u is not None else pair.Psi_u,
        plant.psi_w if plant.psi_w is not None else pair.Psi_w,
    )


def _r_sigma(cfg: RunConfig) -> float:
    attack, plant = cfg.attack, cfg.plant
    if attack.r_sigma is not None:
        return attack.r_sigma
    if plant.sigma_w2 <= 0:
        _fail("plant.sigma_w2", "must be positive to derive r_sigma from sigma_u2")
    r_sigma = attack.sigma_u2 / plant.sigma_w2
    if not 0 < r_sigma < math.inf:
        _fail("attack.sigma_u2", "sigma_u2/sigma_w2 must be a positive finite float")
    return r_sigma


def _sigma_u2(cfg: RunConfig) -> float:
    attack = cfg.attack
    if attack.sigma_u2 is not None:
        return attack.sigma_u2
    sigma_u2 = attack.r_sigma * cfg.plant.sigma_w2
    if not math.isfinite(sigma_u2):
        _fail("attack.r_sigma", "r_sigma*sigma_w2 overflows a float")
    return sigma_u2


def _plant_model(plant: PlantBlock) -> enc_control.PlantModel:
    if plant.A is None:
        _fail("plant.A", "simulation commands need explicit A and B")
    return enc_control.PlantModel(plant.A, plant.B, plant.sigma_w2, plant.sigma_x2)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # csv.writer writes a float as its repr, so rows carry Python floats,
    # never np.float64, whose repr under numpy 2 is "np.float64(...)"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(cfg: RunConfig, out: Path, seed: int) -> int:
    """Compute (N*, lambda*, k*) and write design.json."""
    plant, req = cfg.plant, cfg.requirement
    pair = _gramian_pair(plant)
    result = security_design.design(plant.m, plant.n, _r_sigma(cfg), pair.Psi_u, pair.Psi_w, req)
    print(result.report())
    path = out / "design.json"
    path.write_text(result.to_json() + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_complexity_curve(cfg: RunConfig, out: Path, seed: int) -> int:
    """Tabulate the error lower bound and its two ceilings over the N grid."""
    plant = cfg.plant
    pair = _gramian_pair(plant)
    r_sigma = _r_sigma(cfg)
    sigma_u2 = _sigma_u2(cfg)
    tr_u = float(np.trace(pair.Psi_u))
    tr_w = float(np.trace(pair.Psi_w))
    rows = []
    for N in cfg.attack.n_grid:
        with _sized_by(f"attack.n_grid: N={N}"):
            rows.append([
                N,
                security_design.sic_full(
                    plant.m, plant.n, plant.sigma_x2, sigma_u2, plant.sigma_w2,
                    pair.Psi_u, pair.Psi_w, N,
                ),
                security_design.sic_large_n(plant.m, plant.n, r_sigma, tr_u, tr_w, N),
                security_design.sic_upperbound_input(plant.m, plant.n, r_sigma, N),
                security_design.sic_upperbound_noise(plant.m, plant.n, N),
            ])
    path = out / "complexity_curve.csv"
    _write_csv(path, ["N", "gamma_full", "gamma_largeN", "bound_input", "bound_noise"], rows)
    print(f"wrote {path} ({len(rows)} grid points)")
    return EXIT_OK


def cmd_attack_sim(cfg: RunConfig, out: Path, seed: int) -> int:
    """Monte Carlo identification attack over the N grid.

    Writes attack_trials.csv (N,trial,epsilon,status) and
    attack_summary.csv (N,mean_epsilon,gamma), with gamma the full-form
    lower bound at the config's variances.  Each grid point's trial rows
    are written as soon as they are computed, to a partial file that
    becomes attack_trials.csv only once every grid point has run, so a
    failed run leaves neither CSV.
    """
    plant, attack = cfg.plant, cfg.attack
    model = _plant_model(plant)
    floor = plant.n + plant.m + 1
    if min(attack.n_grid) < floor:
        _fail(
            "attack.n_grid",
            f"N={min(attack.n_grid)} below the identifiability floor n+m+1={floor}",
        )
    largest = max(attack.n_grid)
    _within_budget(f"attack.n_grid: N={largest}", largest * (2 * plant.n + plant.m))
    pair = _gramian_pair(plant)
    sigma_u2 = _sigma_u2(cfg)
    trials_path = out / "attack_trials.csv"
    summary_path = out / "attack_summary.csv"
    partial = out / "attack_trials.csv.partial"
    summary_rows = []

    def trial_rows():
        for j, N in enumerate(attack.n_grid):
            atk = identification.AttackConfig(sigma_u2=sigma_u2, N=N)
            result = identification.monte_carlo_error(model, atk, attack.trials, seed + j)
            for i, eps in enumerate(result.epsilons.tolist()):
                yield [N, i, "", "rank_deficient"] if math.isnan(eps) else [N, i, eps, "ok"]
            gamma = security_design.sic_full(
                plant.m, plant.n, plant.sigma_x2, sigma_u2, plant.sigma_w2,
                pair.Psi_u, pair.Psi_w, N,
            )
            summary_rows.append([N, result.mean_epsilon, gamma])

    try:
        _write_csv(partial, ["N", "trial", "epsilon", "status"], trial_rows())
        _write_csv(summary_path, ["N", "mean_epsilon", "gamma"], summary_rows)
        partial.replace(trials_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"wrote {trials_path} ({len(attack.n_grid) * attack.trials} trials)")
    print(f"wrote {summary_path} ({len(summary_rows)} grid points)")
    return EXIT_OK


def cmd_loop_demo(cfg: RunConfig, out: Path, seed: int) -> int:
    """Run the encrypted loop against its plaintext twin and report.

    Confirms structurally that the server-side interface admits no update
    token, and demonstrates on the plant side that the token would reveal
    the next secret key if it were ever shared.
    """
    plant, codec_block, loop = cfg.plant, cfg.codec, cfg.loop
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


# Every subcommand, once: name -> (its function, the config sections it
# reads, in the order main checks them before any work, its help text)
_COMMANDS = {
    "design": (cmd_design, ("requirement", "plant", "attack"),
               "compute the optimal security parameter and key length"),
    "complexity-curve": (cmd_complexity_curve, ("plant", "attack"),
                         "tabulate identification-error lower bounds over N"),
    "attack-sim": (cmd_attack_sim, ("plant", "attack"),
                   "Monte Carlo least-squares identification attack"),
    "loop-demo": (cmd_loop_demo, ("plant", "codec", "loop"),
                  "encrypted control loop vs plaintext reference"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encctl",
        description="Encrypted-control security toolkit: parameter design, "
        "complexity curves, identification-attack simulation, loop demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="path to a YAML run configuration")
        src.add_argument("--preset", help=f"shipped preset name, one of: {', '.join(preset_names())}")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, sections, _ = _COMMANDS[args.command]
    try:
        if args.seed is not None and args.seed < 0:
            _fail("--seed", f"expected a nonnegative integer, got {args.seed}")
        cfg = load_preset(args.preset) if args.preset else load_config(args.config)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail("--out", f"not a usable output directory: {exc}")
        for name in sections:
            if getattr(cfg, name) is None:
                _fail(name, "section required for this command")
        seed = args.seed
        if seed is None:
            seed = cfg.attack.seed if cfg.attack is not None else 0
        return command(cfg, args.out, seed)
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
