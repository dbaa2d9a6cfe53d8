import json
import re
from pathlib import Path

import pytest

import golden

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def manifest():
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


def test_outputs_match_the_golden_manifest(manifest):
    # every exit code, stdout, stderr, set of output files and file digest is
    # the manifest's on every numpy build; a change that moves bits
    # regenerates the manifest (tests/golden.py) and says so
    moved = golden.moved(manifest["runs"], golden.compute_manifest()["runs"])
    assert not moved, "outputs differ from the golden manifest:\n" + "\n".join(
        f"  {entry}: {part}" for entry, part in moved
    )


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
