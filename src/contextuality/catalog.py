"""Built-in systems: the EPR/Bohm deterministic tables, the four-component
conspiracy construction and its PR-box mixture, and the 40x33 Kochen-Specker
support system.

A deterministic table with spacelike-separated sides is given by its
per-side functions (f, g): context (x, y) gives the pair (f(x), g(y)) with
probability 1, so the table is non-signaling.  The signaling d_prime_eprb
is no such pair and lists its outcome pairs.  Each built-in is built in
code on first use, and every later lookup shares that one spec.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import peres
from .systems import Context, SupportSpec, SystemSpec, mix_context_dependent

HALF = Fraction(1, 2)
BINARY = {"1": ("0", "1"), "2": ("0", "1")}
CONTEXTS = [Context(x, y) for x in "12" for y in "12"]  # canonical order
FULL = [(a, b) for a in "01" for b in "01"]


class NamedSystem(NamedTuple):
    id: str
    system: SystemSpec | SupportSpec
    provenance: str


class UnknownSystemError(KeyError):
    def __str__(self) -> str:  # the message, not the repr KeyError gives
        return self.args[0]


def _table(*pairs: str):
    """A builder of the 2x2 binary system giving, with probability 1, each
    outcome pair (written "ab") in the contexts (1,1), (1,2), (2,1), (2,2)."""
    return lambda id: SystemSpec(
        id, BINARY, BINARY, {ctx: {tuple(ab): 1} for ctx, ab in zip(CONTEXTS, pairs)}
    )


def _functions(f: str, g: str):
    """A builder of the deterministic table of f and g, each written as its
    outcomes on settings 1 and 2."""
    return _table(*(f[int(x) - 1] + g[int(y) - 1] for x, y in CONTEXTS))


def _conspiracy(id: str) -> SystemSpec:
    d1, d2, d3, d4 = (_build(d) for d in ("d1", "d2", "d3", "d4"))
    rule = {}
    for x in ("1", "2"):
        rule[Context(x, "1")] = [(d1, HALF), (d2, HALF)]
        rule[Context(x, "2")] = [(d3, HALF), (d4, HALF)]
    return mix_context_dependent(rule, name=id)


# Every id in listing order: (provenance, builder of the spec named id).
_BUILTINS = {
    "d_eprb": ("non-signaling deterministic EPR/Bohm table", _functions("10", "01")),
    "d_prime_eprb": ("signaling deterministic EPR/Bohm table", _table("10", "01", "01", "01")),
    "d1": ("conspiracy component 1 (all outcomes 1)", _functions("11", "11")),
    "d2": ("conspiracy component 2 (all outcomes 0)", _functions("00", "00")),
    "d3": ("conspiracy component 3", _functions("01", "01")),
    "d4": ("conspiracy component 4", _functions("10", "00")),
    "eprb_shape": (
        "2x2 binary scenario with full supports",
        lambda id: SupportSpec(id, BINARY, BINARY, dict.fromkeys(CONTEXTS, FULL)),
    ),
    "conspiracy": (
        "setting-dependent mixture of the four conspiracy components (a PR box)",
        _conspiracy,
    ),
    "ksp_support": (
        "40-triad x 33-ray Kochen-Specker support system",
        lambda id: peres.build_ksp_support(),
    ),
}


@cache
def _build(id: str) -> SystemSpec | SupportSpec:
    return _BUILTINS[id][1](id)


def catalog_ids() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def provenance(id: str) -> str:
    """Where a built-in system comes from, without building it."""
    if id not in _BUILTINS:
        raise UnknownSystemError(
            f"unknown system id {id!r}; known: {', '.join(catalog_ids())}"
        )
    return _BUILTINS[id][0]


def get(id: str) -> NamedSystem:
    """Look up a built-in system by its stable public id."""
    description = provenance(id)
    return NamedSystem(id=id, system=_build(id), provenance=description)


def conspiracy_system() -> SystemSpec:
    """A PR box from setting-dependent mixing of four ns deterministic systems.

    On contexts with y=1 the source alternates equiprobably between d1 and
    d2; on contexts with y=2, between d3 and d4.  Every marginal comes out
    uniform and the system is non-signaling yet contextual.
    """
    return get("conspiracy").system
