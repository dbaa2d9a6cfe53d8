import random
import sys

import pytest
from hypothesis import settings, strategies as st

from encctl import modgroup
from encctl.modgroup import GroupParams, generate_group_params, nearest_member

# smallest safe-prime group; subgroup members are {1,2,3,4,6,8,9,12,13,16,18}
TOY = GroupParams(p=23, q=11, g=2)


class ScriptedRng:
    """Feeds predetermined values to code expecting random.Random."""

    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


# every Hypothesis law: 200 examples per group, the same ones on every run
LAW = settings(max_examples=200, derandomize=True, deadline=None)
# integers spanning every law group's residues, for ``member`` and exponents
WIDE = st.integers(-(2**64), 2**64)


def member(params: GroupParams, u: int) -> int:
    """A subgroup member for any integer ``u``, for Hypothesis laws: u = 0
    gives 1 and u = -1 the group's largest member."""
    return nearest_member(params, 1 + u % (params.p - 1))


def count_calls(monkeypatch, name: str, owner=None) -> list:
    """Record every call to ``owner.<name>``; without an owner, every call
    to ``modgroup.<name>`` made through any encctl module that imported it
    by name."""
    real = getattr(modgroup if owner is None else owner, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    if owner is not None:
        monkeypatch.setattr(owner, name, counted)
        return calls
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
def group160():
    return generate_group_params(160, random.Random(0x160))


@pytest.fixture(scope="session")
def group712():
    return generate_group_params(712, random.Random(0x5EED))


@pytest.fixture(scope="session", params=["toy_group", "group64", "group160"])
def law_group(request):
    """The groups every Hypothesis law runs on: two that draw exponents
    from all of [0, q), and a 160-bit one that draws them below
    2^exponent_bits."""
    return request.getfixturevalue(request.param)
