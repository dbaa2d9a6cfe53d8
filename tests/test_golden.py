import json

import pytest

from golden import MANIFEST, compute_manifest, numpy_build


def test_outputs_match_the_golden_manifest():
    # every preset, seed and demo output is byte-identical to the manifest's;
    # a change that moves bits regenerates it (tests/golden.py) and says so
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    build = numpy_build()
    recorded = {key: manifest[key] for key in build}
    if build != recorded:
        pytest.skip(f"manifest made on {recorded}, this is {build}")
    runs = compute_manifest()["runs"]
    changed = sorted(key for key in manifest["runs"].keys() | runs.keys()
                     if manifest["runs"].get(key) != runs.get(key))
    assert changed == []
