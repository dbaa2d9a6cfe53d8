"""Span tracer that wraps the public functions of the encctl modules from outside.

Wrappers are installed by identity: every name in an ``encctl.*`` module
namespace that is bound to an original function is rebound to its wrapper,
so a function imported by name into another module (``powmod`` into
``elgamal`` and ``updatable``, ``encode`` into ``enc_control``) is traced
at every call site.  Spans stay in memory; ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "encctl"
# the package's modules are the benchmark's layers
LAYERS = (
    "modgroup",
    "elgamal",
    "updatable",
    "codec",
    "enc_control",
    "identification",
    "security_design",
    "cli",
)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    tag: object = None  # set on the benchmark's own spans
    out_bytes: int = 0  # ciphertext bytes returned, for the probed functions


def ciphertext_bytes(obj) -> int:
    """Bytes of every integer in a (nested) ciphertext container."""
    if isinstance(obj, int):
        return (obj.bit_length() + 7) // 8
    return sum(ciphertext_bytes(x) for x in obj)


# functions whose return value is measured in ciphertext bytes
BYTE_PROBES = {"enc_control.encrypt_vector", "enc_control.encrypted_controller"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter(), tag=tag))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """A span opened by the benchmark itself, e.g. one workload case."""
        idx = self._enter(name, tag)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn):
        probe = name in BYTE_PROBES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if probe:
                self.spans[idx].out_bytes = ciphertext_bytes(result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> int:
        """Rebind every traced function in every encctl namespace; returns
        the number of bindings replaced."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                public_fn = (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                )
                # powmod is the builtin pow unless gmpy2 is installed
                if public_fn or (layer == "modgroup" and attr == "powmod"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        return len(self._patched)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class SpanIndex:
    """Derived per-span quantities: self time and inherited context."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self.self_s = [s.end - s.start - c for s, c in zip(spans, child_time)]
        # the nearest enclosing span carrying a benchmark tag
        self.tag = []
        for s in spans:
            self.tag.append(s.tag if s.tag is not None else (self.tag[s.parent] if s.parent >= 0 else None))

    def ancestors(self, i: int):
        p = self.spans[i].parent
        while p >= 0:
            yield p
            p = self.spans[p].parent

    def select(self, name: str, tag=None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and (tag is None or self.tag[i] == tag)
        ]

    def calls(self, name: str, tag=None) -> int:
        return len(self.select(name, tag))

    def self_time(self, name: str, tag=None) -> float:
        return sum(self.self_s[i] for i in self.select(name, tag))

    def layer_self_time(self, layer: str, tag=None) -> float:
        return sum(
            self.self_s[i] for i, s in enumerate(self.spans)
            if s.name.startswith(layer + ".") and (tag is None or self.tag[i] == tag)
        )

    def descendants_named(self, ancestor: str, name: str) -> int:
        """Number of ``name`` spans nested (at any depth) under ``ancestor`` spans."""
        return sum(
            1 for i in self.select(name)
            if any(self.spans[a].name == ancestor for a in self.ancestors(i))
        )
