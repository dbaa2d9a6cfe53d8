import json
import re
from pathlib import Path

import numpy as np
import pytest

import golden

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def manifest():
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def moved(manifest):
    # every run is made once, for both comparisons below
    return golden.moved(manifest["runs"], golden.compute_manifest()["runs"])


def _report(changes):
    return "outputs differ from the golden manifest:\n" + "\n".join(
        f"  {entry}: {part}" for entry, part in changes
    )


def test_outputs_match_the_golden_manifest(moved):
    # every exit code, stdout, stderr, set of output files and file digest is
    # the manifest's on every numpy build, save attack-sim's CSV digests; a
    # change that moves bits regenerates the manifest (tests/golden.py) and says so
    changes = [change for change in moved if not golden.build_bound(*change)]
    assert not changes, _report(changes)


def test_build_bound_outputs_match_the_golden_manifest(manifest, moved):
    # attack-sim's CSVs go through LAPACK, so their digests hold on the
    # manifest's own numpy build only
    build = golden.numpy_build()
    recorded = {key: manifest[key] for key in build}
    if build != recorded:
        pytest.skip(
            f"attack-sim's CSV digests were made on numpy {recorded['numpy']} with "
            f"{recorded['blas']}; this is numpy {build['numpy']} with {build['blas']}"
        )
    changes = [change for change in moved if golden.build_bound(*change)]
    assert not changes, _report(changes)


def test_moved_names_each_entry_and_part():
    run = {"exit": 0, "stdout": "o", "stderr": "e", "files": {"a.csv": "1", "b.json": "2"}}
    runs = {"same": run, "changed": {**run, "exit": 2, "stderr": "x", "files": {"a.csv": "3"}}}
    assert golden.moved({"same": run, "changed": run, "gone": run}, {**runs, "new": run}) == [
        ("changed", "exit"),
        ("changed", "file a.csv"),
        ("changed", "file b.json"),
        ("changed", "files"),
        ("changed", "stderr"),
        ("gone", "not run"),
        ("new", "not in the manifest"),
    ]
    assert golden.build_bound("attack-sim --preset var_panel_a --seed 7", "file attack_trials.csv")
    assert not golden.build_bound("attack-sim --preset var_panel_a --seed 7", "files")
    assert not golden.build_bound("design --preset var_panel_a --seed 7", "file design.json")


def test_numpy_build_without_show_config_mode(monkeypatch):
    # numpy 1.24, the declared floor, has show_config() without mode
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert golden.numpy_build() == {"numpy": np.__version__, "blas": "unknown"}


def test_readme_examples_are_manifest_entries(manifest):
    # each `encctl ...` and `python demos/...` line in README's shell blocks
    # is a manifest run, --out aside; design and complexity-curve are given
    # no seed (cli.main), so the manifest's --seed 7 run is theirs
    lines = [
        line.split("#")[0].split()
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        for line in block.splitlines()
    ]
    keys = []
    for words in lines:
        if words[:1] == ["python"] and words[1].startswith("demos/"):
            keys.append(words[1])
        elif words[:1] == ["encctl"]:
            argv = words[1:]
            if "--out" in argv:
                at = argv.index("--out")
                del argv[at:at + 2]
            if argv[0] in ("design", "complexity-curve") and "--seed" not in argv:
                argv += ["--seed", "7"]
            keys.append(" ".join(argv))
    # README shows every subcommand and every demo
    demos = {f"demos/{path.name}" for path in golden.DEMOS.glob("*.py")}
    assert {key.split()[0] for key in keys} == {*golden.COMMANDS, *demos}
    assert [key for key in keys if key not in manifest["runs"]] == []
