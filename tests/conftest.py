import random
import sys

import pytest

from encctl import modgroup
from encctl.modgroup import GroupParams, generate_group_params

# smallest safe-prime group; subgroup members are {1,2,3,4,6,8,9,12,13,16,18}
TOY = GroupParams(p=23, q=11, g=2)


class ScriptedRng:
    """Feeds predetermined values to code expecting random.Random."""

    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


def count_calls(monkeypatch, name: str) -> list:
    """Record every call to ``modgroup.<name>`` made through any encctl
    module that imported it by name."""
    real = getattr(modgroup, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "encctl" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture(scope="session")
def toy_group():
    return TOY


@pytest.fixture(scope="session")
def group64():
    return generate_group_params(64, random.Random(0xC0FFEE))


@pytest.fixture(scope="session")
def group712():
    return generate_group_params(712, random.Random(0x5EED))
