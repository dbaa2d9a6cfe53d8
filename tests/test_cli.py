import contextlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from encctl import cli, security_design
from encctl.cli import (
    ConfigError,
    load_preset,
    main,
    parse_config,
    preset_names,
)

SIM_CONFIG = """\
plant:
  n: 2
  m: 2
  A: 0.5
  B: 1.0
  sigma_w2: 0.1
  sigma_x2: 1.0
attack:
  sigma_u2: 1.0
  n_grid: [10, 20]
  trials: 3
  seed: 7
"""

LOOP_CONFIG = """\
plant:
  n: 2
  m: 2
  A: 0.5
  B: 1.0
  sigma_w2: 0.01
  sigma_x2: 1.0
codec:
  delta: 1.0e-2
  value_bound: 10.0
  key_bits: 32
loop:
  T: 1
  phi: -0.3
"""


DESIGN_CONFIG = SIM_CONFIG + """\
requirement:
  gamma_c: 1.0e-6
  tau_c: 3.1536e+8
  upsilon: 4.42e+17
"""


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_preset_inventory():
    names = preset_names()
    assert "reference_design" in names
    assert all(f"var_panel_{c}" in names for c in "abcdefghi")
    assert all(f"gramian_sweep_{c}" in names for c in "abcdef")


def test_all_presets_parse():
    for name in preset_names():
        cfg = load_preset(name)
        assert cfg.plant is not None


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("nope")


def test_parse_config_field_paths():
    with pytest.raises(ConfigError, match="plant.n"):
        parse_config({"plant": {"m": 2, "sigma_w2": 0.1, "sigma_x2": 1.0}})
    with pytest.raises(ConfigError, match="attack.n_grid"):
        parse_config({"attack": {"sigma_u2": 1.0, "n_grid": []}})
    with pytest.raises(ConfigError, match="unknown sections"):
        parse_config({"plan": {}})
    with pytest.raises(ConfigError, match=r"unknown sections \['0', 'plan'\]"):
        parse_config({"plan": {}, 0: {}})
    with pytest.raises(ConfigError, match="plant.A"):
        parse_config(
            {"plant": {"n": 2, "m": 2, "sigma_w2": 0.1, "sigma_x2": 1.0, "A": 1.5, "B": 1.0}}
        )


def test_design_reproduces_reference(tmp_path, capsys):
    code = main(["design", "--preset", "reference_design", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "13159" in out and "74" in out and "712" in out
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc == {"N_star": 13159, "lambda_star": 74, "k_star": 712}


def test_design_weak_requirement_needs_one_bit(tmp_path, capsys):
    # upsilon * tau_c = 100 < N*/2: breaking N* samples outlasts tau_c at
    # any security level, so the design asks for the least one
    doc = yaml.safe_load(DESIGN_CONFIG)
    doc["requirement"].update(tau_c=1.0, upsilon=100.0)
    path = write(tmp_path, yaml.safe_dump(doc))
    assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc["N_star"] > 200
    assert doc["lambda_star"] == 1
    assert doc["k_star"] == 2


def test_design_requires_requirement_block(tmp_path, capsys):
    path = write(tmp_path, SIM_CONFIG)
    code = main(["design", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "requirement" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    path = write(tmp_path, "plant:\n  n: 2\n  m: 2\n")
    code = main(["design", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "plant.sigma_w2" in capsys.readouterr().err


def test_invalid_yaml_exits_2_naming_the_file(tmp_path, capsys):
    path = write(tmp_path, "plant: [1, 2\n", name="broken.yaml")
    assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config: invalid YAML in {path}: " in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["design", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path)])
    assert code == 2


def _regular_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("x", encoding="utf-8")
    return path


def _latin1_config(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(SIM_CONFIG.replace("plant:", "plant: # caf\xe9").encode("latin-1"))
    return path


def _outside_preset(tmp_path):
    # a valid config outside the shipped presets, named relative to them
    path = write(tmp_path, DESIGN_CONFIG, name="outside.yaml")
    return os.path.relpath(path.with_suffix(""), str(resources.files("encctl") / "presets"))


@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(
            lambda d: ["attack-sim", "--preset", "var_panel_a", "--seed", "-1"], "--seed",
            id="attack-sim-negative-seed",
        ),
        pytest.param(
            lambda d: ["loop-demo", "--preset", "reference_design", "--seed", "-1"], "--seed",
            id="loop-demo-negative-seed",
        ),
        pytest.param(
            lambda d: ["design", "--preset", "reference_design", "--seed", "-1"], "--seed",
            id="design-negative-seed",
        ),
        pytest.param(
            lambda d: ["design", "--preset", "reference_design", "--out", str(_regular_file(d))],
            "--out", id="out-is-a-file",
        ),
        pytest.param(
            lambda d: ["design", "--preset", "reference_design", "--out", str(_regular_file(d) / "sub")],
            "--out", id="out-below-a-file",
        ),
        pytest.param(lambda d: ["design", "--config", str(d)], "config", id="config-is-a-directory"),
        pytest.param(
            lambda d: ["design", "--config", str(_latin1_config(d))], "config", id="config-not-utf8"
        ),
        pytest.param(
            lambda d: ["design", "--preset", _outside_preset(d)], "config",
            id="preset-outside-presets",
        ),
    ],
)
def test_command_line_boundary_exits_2(tmp_path, capsys, argv, field):
    argv = argv(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err
    if field == "config":
        source = "--config" if "--config" in argv else "--preset"
        assert argv[argv.index(source) + 1] in err


def test_complexity_curve_schema_and_ordering(tmp_path):
    code = main(["complexity-curve", "--preset", "reference_design", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "complexity_curve.csv").read_text().splitlines()
    assert lines[0] == "N,gamma_full,gamma_largeN,bound_input,bound_noise"
    rows = [line.split(",") for line in lines[1:]]
    cols = {
        name: np.array([float(r[i]) for r in rows])
        for i, name in enumerate(lines[0].split(","))
    }
    for key in ("gamma_full", "gamma_largeN", "bound_input", "bound_noise"):
        assert (np.diff(cols[key]) < 0).all(), f"{key} not decreasing"
    assert (cols["bound_input"] >= cols["gamma_largeN"]).all()
    assert (cols["bound_noise"] >= cols["gamma_largeN"]).all()
    # the reference boundary value appears on the shipped grid
    n_row = rows[[int(r[0]) for r in rows].index(10000)]
    assert float(n_row[2]) == pytest.approx(8 / (9999 * 608))


def test_complexity_curve_rejects_small_n(tmp_path, capsys):
    bad = SIM_CONFIG.replace("[10, 20]", "[1, 20]")
    path = write(tmp_path, bad)
    code = main(["complexity-curve", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "attack.n_grid" in capsys.readouterr().err


def test_attack_sim_shapes_and_determinism(tmp_path):
    path = write(tmp_path, SIM_CONFIG)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["attack-sim", "--config", str(path), "--out", str(out)]) == 0
    trials = (out1 / "attack_trials.csv").read_bytes()
    summary = (out1 / "attack_summary.csv").read_bytes()
    assert trials == (out2 / "attack_trials.csv").read_bytes()
    assert summary == (out2 / "attack_summary.csv").read_bytes()
    trial_lines = trials.decode().splitlines()
    assert trial_lines[0] == "N,trial,epsilon,status"
    assert len(trial_lines) == 1 + 2 * 3  # grid of 2, 3 trials each
    summary_lines = summary.decode().splitlines()
    assert summary_lines[0] == "N,mean_epsilon,gamma"
    assert len(summary_lines) == 1 + 2
    assert all(line.endswith("ok") for line in trial_lines[1:])


def test_attack_sim_seed_override_changes_output(tmp_path):
    path = write(tmp_path, SIM_CONFIG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["attack-sim", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["attack-sim", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "attack_trials.csv").read_bytes() != (out2 / "attack_trials.csv").read_bytes()


def test_attack_sim_writes_rank_deficient_rows_without_probing(tmp_path, monkeypatch):
    # the schema requires sigma_u2 > 0, so zero probing reaches the estimator
    # only past the parser; every trial must then be a rank_deficient row
    monkeypatch.setattr(cli, "_sigma_u2", lambda cfg: 0.0)
    path = write(tmp_path, SIM_CONFIG)
    assert main(["attack-sim", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "attack_trials.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 3 and all(row.endswith(",,rank_deficient") for row in rows)
    summary = (tmp_path / "attack_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in summary] == ["nan", "nan"]


def test_attack_sim_below_identifiability_floor_exits_2(tmp_path, capsys):
    bad = SIM_CONFIG.replace("[10, 20]", "[10, 3]")  # below identifiability floor
    path = write(tmp_path, bad)
    code = main(["attack-sim", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "identifiability" in err and "attack.n_grid" in err
    assert not (tmp_path / "attack_trials.csv").exists()


def test_attack_sim_reference_design_floor_is_config_error(tmp_path, capsys):
    code = main(["attack-sim", "--preset", "reference_design", "--out", str(tmp_path)])
    assert code == 2
    assert "attack.n_grid: N=2 below the identifiability floor n+m+1=9" in capsys.readouterr().err


def test_codec_precision_is_config_error(tmp_path, capsys):
    bad = LOOP_CONFIG.replace("delta: 1.0e-2", "delta: 1.0e-10").replace(
        "value_bound: 10.0", "value_bound: 1.0e+7"
    ).replace("key_bits: 32", "key_bits: 712")
    path = write(tmp_path, bad)
    code = main(["loop-demo", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "codec.delta" in capsys.readouterr().err


def test_codec_wrap_safety_is_config_error(tmp_path, capsys):
    bad = LOOP_CONFIG.replace("value_bound: 10.0", "value_bound: 1.0e+6")
    path = write(tmp_path, bad)
    code = main(["loop-demo", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "codec.value_bound" in capsys.readouterr().err


def test_codec_bounds_beyond_float_range(tmp_path, capsys):
    # (value_bound/delta)^2 and 2^(key_bits-2) both leave the float range
    # here; the checks must still decide, not raise OverflowError
    wide = yaml.safe_load(LOOP_CONFIG.replace("key_bits: 32", "key_bits: 1100"))
    assert parse_config(wide).codec.key_bits == 1100
    bad = LOOP_CONFIG.replace("value_bound: 10.0", "value_bound: 1.0e+300")
    path = write(tmp_path, bad)
    assert main(["loop-demo", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "codec.value_bound" in capsys.readouterr().err


def test_key_bits_above_the_limit_is_config_error(tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("safe-prime search started")

    monkeypatch.setattr(cli, "generate_group_params", no_search)
    path = write(tmp_path, LOOP_CONFIG.replace("key_bits: 32", "key_bits: 439242"))
    assert main(["loop-demo", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error: codec.key_bits: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["design", "complexity-curve"])
def test_plant_just_below_instability_is_designed(tmp_path, capsys, command):
    # the parser accepts rho < 1, and so must the Gramian solver
    path = write(tmp_path, DESIGN_CONFIG.replace("A: 0.5", "A: 0.9999999999"))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["design", "complexity-curve"])
def test_plant_stability_is_checked_once(tmp_path, capsys, monkeypatch, command):
    # the parser's check covers both Gramian solves
    calls = []
    real = security_design.spectral_radius

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(security_design, "spectral_radius", counted)
    path = write(tmp_path, DESIGN_CONFIG)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_loop_demo_smoke(tmp_path, capsys):
    path = write(tmp_path, LOOP_CONFIG)
    code = main(["loop-demo", "--config", str(path), "--out", str(tmp_path), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "token-free: True" in out
    report = json.loads((tmp_path / "loop_report.json").read_text())
    assert report["token_free_server_interface"] is True
    assert report["token_would_reveal_next_key"] is True
    trace_lines = (tmp_path / "loop_trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("t,x_1")
    assert len(trace_lines) == 2  # header + one step


def _encctl(*argv, cwd):
    # `python -m encctl` in a fresh process, importing this same package
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "encctl", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_reference_design_at_k_star_end_to_end(tmp_path):
    # the paper's headline case: the reference_design preset at the key
    # length that design computes for it, 712 bits instead of its 64
    doc = yaml.safe_load((resources.files("encctl") / "presets" / "reference_design.yaml").read_text())
    doc["codec"]["key_bits"] = 712
    write(tmp_path, yaml.safe_dump(doc))
    design = _encctl("design", "--config", "cfg.yaml", "--out", "out", cwd=tmp_path)
    assert design.returncode == 0, design.stderr
    assert json.loads((tmp_path / "out" / "design.json").read_text())["k_star"] == 712
    loop = _encctl("loop-demo", "--config", "cfg.yaml", "--out", "out", cwd=tmp_path)
    assert loop.returncode == 0, loop.stderr
    report = json.loads((tmp_path / "out" / "loop_report.json").read_text())
    assert report["key_bits"] == 712
    assert report["token_would_reveal_next_key"] is True
    assert report["token_free_server_interface"] is True


def test_plant_above_the_old_solver_cap_is_designed(tmp_path):
    # an (A, B) plant without Gramians at n = 64, above n = 50, the old cap
    # of the Lyapunov solver
    path = write(tmp_path, """\
plant: {n: 64, m: 4, A: 0.9, B: 1.0, sigma_w2: 0.1, sigma_x2: 1.0}
attack: {r_sigma: 100, n_grid: [50, 100, 200, 400, 800, 1600]}
requirement: {gamma_c: 1.0e-6, tau_c: 3.1536e+8, upsilon: 4.42e+17}
""")
    for command in ("design", "complexity-curve"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "complexity_curve.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize(
    "command, path, value",
    [
        pytest.param("design", ("plant",), 5, id="plant-not-a-mapping"),
        pytest.param("design", ("requirement", "gamma_c"), math.inf, id="gamma_c-inf"),
        pytest.param("loop-demo", ("loop", "phi"), math.inf, id="phi-inf"),
        pytest.param("design", ("requirement", "gamma_c"), math.nan, id="gamma_c-nan"),
        pytest.param("design", ("plant", "A"), math.nan, id="A-nan"),
        pytest.param("design", ("plant", "A"), [[0.5, math.nan], [0.0, 0.5]], id="A-entry-nan"),
        pytest.param("design", ("plant", "sigma_w2"), math.nan, id="sigma_w2-nan"),
        # YAML 1.1 reads yes/no/on/off/true/false as booleans, not numbers
        pytest.param("design", ("requirement", "gamma_c"), True, id="gamma_c-bool"),
        pytest.param("design", ("plant", "sigma_x2"), False, id="sigma_x2-bool"),
        pytest.param("design", ("plant", "B"), True, id="B-bool"),
        pytest.param("loop-demo", ("codec", "delta"), True, id="delta-bool"),
        # DESIGN_CONFIG gives sigma_u2; both of the two is ambiguous
        pytest.param("design", ("attack", "r_sigma"), 100.0, id="sigma_u2-and-r_sigma"),
        # misspelt or unknown fields would otherwise take the default
        pytest.param("design", ("attack", "trails"), 50, id="attack-trails"),
        pytest.param("attack-sim", ("attack", "trails"), 50, id="attack-sim-trails"),
        pytest.param("design", ("plant", "psi_U"), 0.5, id="plant-psi_U"),
        pytest.param("design", ("requirement", "extra"), 1.0, id="requirement-extra"),
    ],
)
def test_bad_field_is_config_error(tmp_path, capsys, command, path, value):
    base = LOOP_CONFIG if command == "loop-demo" else DESIGN_CONFIG
    doc = yaml.safe_load(base)
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    cfg = write(tmp_path, yaml.safe_dump(doc))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {'.'.join(path)}: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, field, value",
    [
        # -1 cancels the input term of N*'s denominator: design would exit 0
        # with N* = 1,000,002 and k* = 569
        pytest.param("design", "psi_u", -1.0, id="psi_u-minus-one"),
        pytest.param("design", "psi_u", -0.5, id="psi_u-negative"),
        pytest.param("design", "psi_u", [[1.0, 5.0], [-5.0, 1.0]], id="psi_u-antisymmetric"),
        pytest.param("complexity-curve", "psi_w", [[1.0, 2.0], [2.0, 1.0]], id="psi_w-indefinite"),
        pytest.param("attack-sim", "psi_w", [[1.0, 0.0], [1e-6, 1.0]], id="psi_w-asymmetric"),
    ],
)
def test_gramian_target_not_psd_is_config_error(tmp_path, capsys, command, field, value):
    doc = yaml.safe_load(DESIGN_CONFIG)
    doc["plant"].update(psi_u=2.0, psi_w=2.0)
    doc["plant"][field] = value
    path = write(tmp_path, yaml.safe_dump(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: plant.{field}: must be symmetric positive semidefinite")
    assert "1e-9 * n * the largest |entry|" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "psi_u",
    [
        pytest.param(0.0, id="zero"),
        pytest.param([[1.0, 1.0], [1.0, 1.0]], id="singular"),
        pytest.param([[2.0, 1.0], [1.0 + 1e-12, 2.0]], id="rounding-asymmetry"),
    ],
)
def test_gramian_target_psd_is_designed(tmp_path, psi_u):
    doc = yaml.safe_load(DESIGN_CONFIG)
    doc["plant"].update(psi_u=psi_u, psi_w=2.0)
    path = write(tmp_path, yaml.safe_dump(doc))
    assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_zero_variances_are_numerical_failure(tmp_path, capsys):
    doc = yaml.safe_load(SIM_CONFIG)
    doc["plant"].update(sigma_w2=0.0, sigma_x2=0.0)
    doc["attack"] = {"r_sigma": 1.0, "n_grid": [2]}
    path = write(tmp_path, yaml.safe_dump(doc))
    assert main(["complexity-curve", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


GRAMIAN_PLANT = DESIGN_CONFIG.replace("  sigma_x2: 1.0\n", "  sigma_x2: 1.0\n  psi_u: 2.0\n  psi_w: 2.0\n")


# A sample size beyond float range fails at once in the first float
# conversion; complexity-curve allocates nothing per N, so no memory is
# touched.
@pytest.mark.parametrize(
    "command, text, field",
    [
        pytest.param(
            "complexity-curve", SIM_CONFIG.replace("[10, 20]", f"[10, {'9' * 400}]"),
            "attack.n_grid: N=999",
            id="n_grid-beyond-float-range",
        ),
    ],
)
def test_outsized_value_is_numerical_failure(tmp_path, capsys, command, text, field):
    out = tmp_path / "out"
    assert main([command, "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert err.startswith(f"numerical failure: {field}")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


# Each size is one step beyond cli.MAX_ARRAY_BYTES (2^27 bytes per array) or
# far beyond memory, and is rejected before anything of its size is
# allocated.
@pytest.mark.parametrize(
    "command, text, field",
    [
        pytest.param(
            "design", GRAMIAN_PLANT.replace("  n: 2\n", "  n: 100000000\n"), "plant.n: ",
            id="plant-n-beyond-memory",
        ),
        pytest.param(
            "design",
            GRAMIAN_PLANT.replace("  n: 2\n", "  n: 100000000\n").replace("  A: 0.5\n  B: 1.0\n", ""),
            "plant.n: ", id="gramian-plant-n-beyond-memory",
        ),
        pytest.param(
            "attack-sim", SIM_CONFIG.replace("[10, 20]", "[10000000000000]"),
            "attack.n_grid: N=10000000000000: ", id="n_grid-beyond-memory",
        ),
        pytest.param(
            "design", GRAMIAN_PLANT.replace("  n: 2\n", "  n: 4097\n"), "plant.n: ",
            id="plant-n-above-bound",
        ),
        pytest.param(
            "design", GRAMIAN_PLANT.replace("  m: 2\n", "  m: 4097\n"), "plant.m: ",
            id="plant-m-above-bound",
        ),
        # one trial of N = 2,796,203 keeps N*(2n+m) = 16,777,218 floats, two above 2^24
        pytest.param(
            "attack-sim", SIM_CONFIG.replace("[10, 20]", "[10, 2796203]"),
            "attack.n_grid: N=2796203: ", id="n_grid-above-bound",
        ),
        pytest.param(
            "attack-sim", SIM_CONFIG.replace("trials: 3", "trials: 131073"), "attack.trials: ",
            id="trials-above-bound",
        ),
        pytest.param(
            "attack-sim", SIM_CONFIG.replace("trials: 3", "trials: 100000000"), "attack.trials: ",
            id="trials-beyond-memory",
        ),
        # T*(n+2m+1) = 2,396,746 * 7 trace floats, above 2^24
        pytest.param(
            "loop-demo", LOOP_CONFIG.replace("T: 1\n", "T: 2396746\n"), "loop.T: ",
            id="loop-T-above-bound",
        ),
    ],
)
def test_outsized_value_is_config_error(tmp_path, capsys, command, text, field):
    out = tmp_path / "out"
    assert main([command, "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_sizes_at_the_bound_parse():
    # parsing allocates nothing of these sizes: trials and T are counts
    doc = yaml.safe_load(SIM_CONFIG)
    doc["attack"]["trials"] = 131072
    doc["loop"] = {"T": 2396745, "phi": -0.3}
    cfg = parse_config(doc)
    assert (cfg.attack.trials, cfg.loop.T) == (131072, 2396745)


@pytest.mark.parametrize(
    "command, sigma_w2, attack, field",
    [
        ("design", 1e-300, {"sigma_u2": 1e300}, "attack.sigma_u2"),
        ("complexity-curve", 1e300, {"r_sigma": 1e300}, "attack.r_sigma"),
    ],
)
def test_variance_overflow_is_config_error(tmp_path, capsys, command, sigma_w2, attack, field):
    doc = yaml.safe_load(DESIGN_CONFIG)
    doc["plant"]["sigma_w2"] = sigma_w2
    doc["attack"] = dict(attack, n_grid=[10, 20])
    path = write(tmp_path, yaml.safe_dump(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


# -- config fuzzer: every document ends in exit 0, 2 or 3 -------------------

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),  # any float, nan and +-inf included
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.floats(), st.integers(-2, 3)), max_size=3),
)
SECTIONS = ("plant", "attack", "requirement", "codec", "loop")
NEEDS = {
    "design": ("plant", "attack", "requirement"),
    "complexity-curve": ("plant", "attack"),
    "attack-sim": ("plant", "attack"),
    "loop-demo": ("plant", "codec", "loop"),
}


@st.composite
def documents(draw, command, well_formed=False):
    """A well-formed config for ``command``; unless ``well_formed``, with up
    to three fields or sections replaced by junk, deleted, or added."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def num(lo, hi):
        return draw(st.floats(lo, hi))

    def mat(rows, cols, lo, hi):
        row = st.lists(st.floats(lo, hi), min_size=cols, max_size=cols)
        return draw(st.one_of(st.floats(lo, hi), st.lists(row, min_size=rows, max_size=rows)))

    def gramian(n):  # c*I or M M^T: symmetric positive semidefinite
        M = np.array(draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))).reshape(n, n)
        return draw(st.one_of(st.floats(0, 4), st.just((M @ M.T).tolist())))

    plant = {"n": n, "m": m, "sigma_w2": num(0, 2), "sigma_x2": num(0, 2)}
    plant.update(A=mat(n, n, -0.45, 0.45), B=mat(n, m, -2, 2))
    if draw(st.booleans()):
        plant.update(psi_u=gramian(n), psi_w=gramian(n))
    doc = {
        "plant": plant,
        "attack": {
            draw(st.sampled_from(["sigma_u2", "r_sigma"])): num(1e-3, 100),
            "n_grid": draw(st.lists(st.integers(2, 200), min_size=1, max_size=3)),
            "trials": draw(st.integers(1, 3)),
            "seed": draw(st.integers(0, 2**32)),
        },
        "requirement": {"gamma_c": num(1e-9, 1), "tau_c": num(1, 1e9), "upsilon": num(1, 1e18)},
        "codec": {"delta": num(1e-4, 1), "value_bound": num(1, 100), "key_bits": draw(st.integers(16, 64))},
        "loop": {"T": draw(st.integers(1, 5)), "phi": mat(m, n, -1, 1)},
    }
    doc = {name: doc[name] for name in SECTIONS if name in NEEDS[command] or draw(st.booleans())}
    if well_formed:
        return doc
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(SECTIONS + ("extra", 0)))
        block = doc.get(name)
        action = draw(st.sampled_from(["junk", "delete", "section"]))
        if action == "section" or not isinstance(block, dict):
            doc[name] = draw(JUNK)
        elif action == "delete" and block:
            del block[draw(st.sampled_from(sorted(block)))]
        else:
            block[draw(st.sampled_from(sorted(block) + ["extra"]))] = draw(JUNK)
    return draw(st.one_of(st.just(doc), JUNK)) if draw(st.integers(0, 20)) == 0 else doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(NEEDS))
def test_config_fuzz_exits_cleanly(fuzz_dir, command):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=documents(command))
    def run(doc):
        path = fuzz_dir / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main([command, "--config", str(path), "--out", str(fuzz_dir)]) in (0, 2, 3)

    run()


def _same_objects(text):
    # repr tells 1 from 1.0 and True, and nan equals itself there
    assert repr(yaml.load(text, Loader=cli._Loader)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize("name", preset_names())
def test_loader_matches_safe_load_on_presets(name):
    preset = resources.files("encctl") / "presets" / f"{name}.yaml"
    _same_objects(preset.read_text(encoding="utf-8"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=st.sampled_from(sorted(NEEDS)).flatmap(documents))
def test_loader_matches_safe_load_on_fuzz_documents(doc):
    _same_objects(yaml.safe_dump(doc))


FIELD_NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_unknown_field_is_config_error(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(NEEDS)))
    doc = data.draw(documents(command, well_formed=True))
    section = data.draw(st.sampled_from(sorted(doc)))
    key = data.draw(FIELD_NAMES.filter(lambda k: k not in cli._SCHEMA[section]))
    doc[section][key] = data.draw(JUNK)
    path = fuzz_dir / "unknown.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([command, "--config", str(path), "--out", str(fuzz_dir)]) == 2
    assert err.getvalue().startswith(f"error: {section}.{key}: ")


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param(
            DESIGN_CONFIG + "requirement:\n  gamma_c: 1.0\n", "'requirement'", id="section",
        ),
        pytest.param(
            SIM_CONFIG.replace("  trials: 3\n", "  trials: 3\n  trials: 50\n"), "'trials'",
            id="field",
        ),
    ],
)
def test_duplicate_key_is_config_error(tmp_path, capsys, text, key):
    path = write(tmp_path, text)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: invalid YAML in {path}: ")
    assert f"found duplicate key {key}" in err
    assert not (tmp_path / "out").exists()


def test_loader_matches_safe_load_on_special_keys():
    # a key that overrides a "<<" merge is no duplicate, and "=" is a plain key
    _same_objects("base: &b {trials: 3}\nother:\n  <<: *b\n  trials: 5\n")
    _same_objects("=: 1\n")


def test_readme_config_format_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config format\n\n```yaml\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(yaml.load(block, Loader=cli._Loader))
    assert all(getattr(cfg, name) is not None for name in cli._SCHEMA)
    for name, fields in cli._SCHEMA.items():
        for field in fields:
            assert re.search(rf"\b{field}\b", block), f"README does not document {name}.{field}"
