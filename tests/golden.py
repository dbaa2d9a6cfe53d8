"""Golden-output manifest: the digests of every CLI subcommand on every
preset and of every demo, so that "byte-identical outputs" is a test.

Each run records its exit code, the SHA-256 of its stdout and stderr (the
output directory's path replaced by ``<out>``) and the SHA-256 of every
file it writes.  The runs are every subcommand on every preset at
``--seed 7``, ``loop-demo --preset reference_design`` at seeds 1 and 11,
and the four demos, each in a fresh working directory.  Everything runs
in-process, through ``cli.main`` and ``runpy``.

attack-sim's CSVs go through LAPACK and the Gramians through BLAS, so the
manifest names the numpy build it was made on; ``test_golden.py`` skips
on another build.  A change that moves output bits regenerates the
manifest and lists the entries that changed:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from encctl import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_manifest.json"
DEMOS = HERE.parent / "demos"
COMMANDS = ("design", "complexity-curve", "attack-sim", "loop-demo")


def numpy_build() -> dict:
    """The numpy version and its BLAS, which the float outputs depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(run, workdir: Path) -> dict:
    """Run ``run()`` with stdout, stderr and warnings captured, and digest
    what it printed and every file it left under ``workdir``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run()
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().replace(str(workdir), "<out>").encode()),
        "stderr": _sha(err.getvalue().replace(str(workdir), "<out>").encode()),
        "files": {
            path.relative_to(workdir).as_posix(): _sha(path.read_bytes())
            for path in sorted(workdir.rglob("*"))
            if path.is_file()
        },
    }


def _cli_run(argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return _record(lambda: cli.main([*argv, "--out", tmp]), Path(tmp))


def _demo_run(path: Path) -> dict:
    def run() -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return _record(run, Path(tmp))
        finally:
            os.chdir(cwd)


def compute_manifest() -> dict:
    runs = {}
    for preset in cli.preset_names():
        for command in COMMANDS:
            argv = [command, "--preset", preset, "--seed", "7"]
            runs[" ".join(argv)] = _cli_run(argv)
    for seed in ("1", "11"):
        argv = ["loop-demo", "--preset", "reference_design", "--seed", seed]
        runs[" ".join(argv)] = _cli_run(argv)
    for demo in sorted(DEMOS.glob("*.py")):
        runs[f"demos/{demo.name}"] = _demo_run(demo)
    return {**numpy_build(), "runs": runs}


if __name__ == "__main__":
    manifest = compute_manifest()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(run["exit"] != 0 for run in manifest["runs"].values())
    print(f"wrote {MANIFEST} ({len(manifest['runs'])} runs, {failed} with a nonzero exit)", file=sys.stderr)
