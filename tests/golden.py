"""Golden-output manifest: the digests of every CLI subcommand on every
preset and of every demo, so that "byte-identical outputs" is a test.

Each run records its exit code, the SHA-256 of its stdout and stderr (the
output directory's path replaced by ``<out>``) and the SHA-256 of every
file it writes.  The runs are every subcommand on every preset at
``--seed 7``, ``loop-demo --preset reference_design`` at its own seed and
at seeds 1 and 11, and the four demos, each in a fresh working directory.
Everything runs in-process, through ``cli.main`` and ``runpy``.

attack-sim's least squares is an einsum and Cholesky solve, not LAPACK's
``lstsq``, and every digest held under the default OpenBLAS kernel, under
``OPENBLAS_CORETYPE=Prescott`` and under Haswell with numpy's SIMD cut to
X86_V2, so ``test_golden.py`` compares every digest on every numpy build.
A change that moves output bits regenerates the manifest, which prints
each entry and part that moved:

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

from encctl import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_manifest.json"
DEMOS = HERE.parent / "demos"
COMMANDS = ("design", "complexity-curve", "attack-sim", "loop-demo")


def _parts(run: dict) -> dict:
    return {
        "exit": run["exit"],
        "stdout": run["stdout"],
        "stderr": run["stderr"],
        "files": sorted(run["files"]),
        **{f"file {name}": digest for name, digest in run["files"].items()},
    }


def moved(recorded: dict, runs: dict) -> list[tuple[str, str]]:
    """Each (entry, part) where ``runs`` differ from the ``recorded`` ones:
    the part is ``exit``, ``stdout``, ``stderr``, ``files`` (the set of
    names), ``file <name>``, or ``not run`` / ``not in the manifest`` for
    an entry on one side only."""
    changes = []
    for entry in sorted(recorded.keys() | runs.keys()):
        if entry not in runs:
            changes.append((entry, "not run"))
        elif entry not in recorded:
            changes.append((entry, "not in the manifest"))
        else:
            old, new = _parts(recorded[entry]), _parts(runs[entry])
            changes += [(entry, part) for part in sorted(old.keys() | new.keys())
                        if old.get(part) != new.get(part)]
    return changes


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
    loop = ["loop-demo", "--preset", "reference_design"]
    for argv in (loop, [*loop, "--seed", "1"], [*loop, "--seed", "11"]):
        runs[" ".join(argv)] = _cli_run(argv)
    for demo in sorted(DEMOS.glob("*.py")):
        runs[f"demos/{demo.name}"] = _demo_run(demo)
    return {"runs": runs}


if __name__ == "__main__":
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))["runs"] if MANIFEST.exists() else {}
    manifest = compute_manifest()
    for entry, part in moved(recorded, manifest["runs"]):
        print(f"{entry}: {part}", file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(run["exit"] != 0 for run in manifest["runs"].values())
    print(f"wrote {MANIFEST} ({len(manifest['runs'])} runs, {failed} with a nonzero exit)", file=sys.stderr)
