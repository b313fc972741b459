"""Built-in systems: the EPR/Bohm deterministic tables, the four-component
conspiracy construction and its PR-box mixture, and the 40x33 Kochen-Specker
support system.

The probabilistic tables are stored as JSON in the CLI file format under
``data/`` and parsed on first use, so the same files double as format
documentation.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import peres
from .serialize import loads_system
from .systems import (
    Context,
    SupportSpec,
    SystemSpec,
    mix_context_dependent,
)

HALF = Fraction(1, 2)

# Every id in listing order; all but the last two are `data/<id>.json`.
_PROVENANCE = {
    "d_eprb": "non-signaling deterministic EPR/Bohm table",
    "d_prime_eprb": "signaling deterministic EPR/Bohm table",
    "d1": "conspiracy component 1 (all outcomes 1)",
    "d2": "conspiracy component 2 (all outcomes 0)",
    "d3": "conspiracy component 3",
    "d4": "conspiracy component 4",
    "eprb_shape": "2x2 binary scenario with full supports",
    "conspiracy": "setting-dependent mixture of the four conspiracy components (a PR box)",
    "ksp_support": "40-triad x 33-ray Kochen-Specker support system",
}


class NamedSystem(NamedTuple):
    id: str
    system: SystemSpec | SupportSpec
    provenance: str


class UnknownSystemError(KeyError):
    def __str__(self) -> str:  # the message, not the repr KeyError gives
        return self.args[0]


@lru_cache(maxsize=None)
def _load_file(id: str) -> SystemSpec | SupportSpec:
    # A plain path next to this module: `importlib.resources` would cost
    # every CLI process its imports (zipfile, tempfile, pathlib) at start-up.
    path = os.path.join(os.path.dirname(__file__), "data", f"{id}.json")
    with open(path, encoding="utf-8") as file:
        return loads_system(file.read())


def catalog_ids() -> tuple[str, ...]:
    return tuple(_PROVENANCE)


def provenance(id: str) -> str:
    """Where a built-in system comes from, without building it."""
    if id not in _PROVENANCE:
        raise UnknownSystemError(
            f"unknown system id {id!r}; known: {', '.join(catalog_ids())}"
        )
    return _PROVENANCE[id]


def get(id: str) -> NamedSystem:
    """Look up a built-in system by its stable public id."""
    description = provenance(id)
    if id == "conspiracy":
        system = conspiracy_system()
    elif id == "ksp_support":
        system = _ksp_support()
    else:
        system = _load_file(id)
    return NamedSystem(id=id, system=system, provenance=description)


@lru_cache(maxsize=1)
def _ksp_support() -> SupportSpec:
    return peres.build_ksp_support()


@lru_cache(maxsize=1)
def conspiracy_system() -> SystemSpec:
    """A PR box from setting-dependent mixing of four ns deterministic systems.

    On contexts with y=1 the source alternates equiprobably between d1 and
    d2; on contexts with y=2, between d3 and d4.  Every marginal comes out
    uniform and the system is non-signaling yet contextual.
    """
    d1, d2 = _load_file("d1"), _load_file("d2")
    d3, d4 = _load_file("d3"), _load_file("d4")
    rule = {}
    for x in ("1", "2"):
        rule[Context(x, "1")] = [(d1, HALF), (d2, HALF)]
        rule[Context(x, "2")] = [(d3, HALF), (d4, HALF)]
    return mix_context_dependent(rule, name="conspiracy")


class PairMixture(NamedTuple):
    """One AB-pair written as a two-component mixture.

    Components are pmfs over the pairs (1,1) and (1,0); the mixing weight q
    and component masses satisfy q*p1 + (1-q)*p2 = p exactly.
    """

    q: Fraction
    x_pmf: dict[tuple[str, str], Fraction]
    y_pmf: dict[tuple[str, str], Fraction]

    def mixed_probability(self) -> Fraction:
        key = ("1", "1")
        return self.q * self.x_pmf.get(key, Fraction(0)) + (1 - self.q) * (
            self.y_pmf.get(key, Fraction(0))
        )


def pair_as_mixture(p: Fraction, q: Fraction, p1: Fraction) -> PairMixture:
    """Split a pair distributed {(1,1): p, (1,0): 1-p} into two components.

    The first component puts mass p1 on (1,1) and gets weight q; the second
    component's mass p2 is solved from q*p1 + (1-q)*p2 = p and must land in
    [0, 1].  With p1 in {0, 1} and p2 in {0, 1} both components are
    deterministic.
    """
    p, q, p1 = Fraction(p), Fraction(q), Fraction(p1)
    for label, v in (("p", p), ("q", q), ("p1", p1)):
        if not 0 <= v <= 1:
            raise ValueError(f"{label} = {v} outside [0, 1]")
    if q == 1:
        if p1 != p:
            raise ValueError("q = 1 requires p1 = p (second component has no weight)")
        p2 = p
    else:
        p2 = (p - q * p1) / (1 - q)
        if not 0 <= p2 <= 1:
            raise ValueError(f"p2 = {p2} outside [0, 1] for (p={p}, q={q}, p1={p1})")
    def pmf(mass: Fraction) -> dict[tuple[str, str], Fraction]:
        out = {}
        if mass > 0:
            out[("1", "1")] = mass
        if mass < 1:
            out[("1", "0")] = 1 - mass
        return out
    return PairMixture(q=q, x_pmf=pmf(p1), y_pmf=pmf(p2))
