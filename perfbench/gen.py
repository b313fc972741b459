"""Seeded input generators for the benchmark workloads.

Systems are plain data so the checker can read them without the library:
``(a_alph, b_alph, pmfs)`` with ``a_alph = {x: outcomes}``, the same for B,
and ``pmfs = {(x, y): {(a, b): Fraction}}`` holding only nonzero masses.
Every generated input carries its known answer: by construction, or for
2x2 binary draws by Fine's CHSH criterion.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import checker

BIN = ("0", "1")
SETTINGS_2 = ("1", "2")


@dataclass(frozen=True)
class Case:
    """One generated system with its known verdict."""

    name: str
    a_alph: dict
    b_alph: dict
    pmfs: dict
    expected: str  # "noncontextual" | "contextual" | "signaling"


def alphabet(settings: int, outcomes: int) -> dict:
    return {str(i + 1): tuple(str(v) for v in range(outcomes)) for i in range(settings)}


def mixture(a_alph, b_alph, parts) -> dict:
    """Context-wise mixture of ``(pmfs, weight)`` parts; weights sum to 1."""
    out = {}
    for x in a_alph:
        for y in b_alph:
            acc = {}
            for pmfs, w in parts:
                for pair, p in pmfs[(x, y)].items():
                    if w * p:
                        acc[pair] = acc.get(pair, 0) + w * p
            out[(x, y)] = acc
    return out


def deterministic(a_alph, b_alph, f, g) -> dict:
    return {(x, y): {(f[x], g[y]): Fraction(1)} for x in a_alph for y in b_alph}


def random_strategy(rng, a_alph, b_alph):
    return (
        {x: rng.choice(a_alph[x]) for x in a_alph},
        {y: rng.choice(b_alph[y]) for y in b_alph},
    )


def local_mixture(a_alph, b_alph, strategies, weights) -> dict:
    total = sum(weights)
    return mixture(
        a_alph,
        b_alph,
        [
            (deterministic(a_alph, b_alph, f, g), Fraction(w, total))
            for (f, g), w in zip(strategies, weights)
        ],
    )


def twisted_box(a_alph, b_alph) -> dict:
    """Generalized PR box: b - a = 1 (mod k) on context (1, 2), else b = a.

    On the four contexts over settings 1 and 2 it satisfies all of
    b_y - a_x = c(x, y) (mod k), which no deterministic strategy can do for
    more than three of them; see ``checker.chained_score``.
    """
    k = len(a_alph["1"])
    out = {}
    for x in a_alph:
        for y in b_alph:
            shift = 1 if (x, y) == ("1", "2") else 0
            out[(x, y)] = {
                (str(a), str((a + shift) % k)): Fraction(1, k) for a in range(k)
            }
    return out


# ---------------------------------------------------------------- batch-2x2

BATCH_SIZE = 2000
# The mix of a batch is fixed, so a seed moves which systems are drawn but
# not how many of each kind: the contextual ones take the slower Farkas and
# witness path.  The rest are Frechet-endpoint draws, the 2x2 systems the
# acceptance and analysis tests classify; at seed 1701, 81 of 2,000 of them
# (4.05%) are contextual, and that share is kept.  One system in 100 is
# signaling, as in the repository's signaling-detection acceptance test
# (1 signaling system of 102 checked).
CONTEXTUAL_PER_10000 = 405
SIGNALING_PER_10000 = 100


def random_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def frechet_pmf(rng: random.Random, alpha: Fraction, beta: Fraction) -> dict:
    """A pmf with P(a = 1) = alpha and P(b = 1) = beta whose joint mass
    leans on the Frechet bounds, where the extremal patterns lie."""
    lo = max(Fraction(0), alpha + beta - 1)
    hi = min(alpha, beta)
    roll = rng.random()
    if roll < Fraction(1, 3):
        t = Fraction(0)
    elif roll < Fraction(2, 3):
        t = Fraction(1)
    else:
        t = Fraction(rng.randint(0, 16), 16)
    p11 = lo + t * (hi - lo)
    pmf = {
        ("1", "1"): p11,
        ("1", "0"): alpha - p11,
        ("0", "1"): beta - p11,
        ("0", "0"): 1 - alpha - beta + p11,
    }
    return {pair: p for pair, p in pmf.items() if p}


def frechet_2x2(rng: random.Random) -> tuple[dict, dict, dict]:
    """Exact marginals per setting, then a joint mass inside the Frechet
    bounds per context: non-signaling by construction.  Draws the same
    systems from the same ``rng`` state as ``random_ns_2x2`` in the
    repository's test helpers.  Returns ``(alpha, beta, pmfs)``."""
    alpha = {x: random_fraction(rng) for x in SETTINGS_2}
    beta = {y: random_fraction(rng) for y in SETTINGS_2}
    pmfs = {
        (x, y): frechet_pmf(rng, alpha[x], beta[y]) for x in SETTINGS_2 for y in SETTINGS_2
    }
    return alpha, beta, pmfs


def batch_case(rng: random.Random, kind: str, index: int) -> Case:
    """A Frechet draw of the given kind, drawn again until it is one; for
    ``signaling`` one whose context (1, 1) is redrawn with another
    P(a = 1) for setting 1 than context (1, 2) has."""
    al = {s: BIN for s in SETTINGS_2}
    while True:
        alpha, beta, pmfs = frechet_2x2(rng)
        if kind == "signaling":
            shifted = alpha["1"]
            while shifted == alpha["1"]:
                shifted = random_fraction(rng)
            pmfs[("1", "1")] = frechet_pmf(rng, shifted, beta["1"])
            return Case(f"signaling-{index}", al, al, pmfs, "signaling")
        # Fine: local iff no CHSH sum exceeds 2; see ``checker.chsh_local``.
        if (kind == "noncontextual") == checker.chsh_local(pmfs):
            return Case(f"frechet-{index}", al, al, pmfs, kind)


def batch_mix(size: int) -> dict:
    """How many systems of each kind a batch of ``size`` holds."""
    contextual = round(size * CONTEXTUAL_PER_10000 / 10000)
    signaling = round(size * SIGNALING_PER_10000 / 10000)
    return {"contextual": contextual, "signaling": signaling,
            "noncontextual": size - contextual - signaling}


def batch_cases(seed: int, size: int = BATCH_SIZE) -> list[Case]:
    rng = random.Random(f"batch-2x2:{seed}")
    kinds = [kind for kind, count in batch_mix(size).items() for _ in range(count)]
    rng.shuffle(kinds)
    return [batch_case(rng, kind, i) for i, kind in enumerate(kinds)]


# ------------------------------------------------------------------- ladder

# (rung, settings per side, outcomes per setting, strategies in the
# noncontextual instance, noise strategies in the contextual instance).
# The strategies are fixed per rung, so every seed gives the same supports
# and the same LP shape; the seed draws the noncontextual mixing weights.
LADDER_RUNGS = (
    ("3x3-binary", 3, 2, 6, 6),
    ("2x2-ternary", 2, 3, 6, 6),
    ("4x4-binary", 4, 2, 8, 7),
    ("3x3-ternary", 3, 3, 10, 10),
)
CONTEXTUAL_WEIGHT = Fraction(3, 4)


def _fixed_strategies(rung: str, kind: str, al, count: int):
    rng = random.Random(f"ladder-structure:{rung}:{kind}")
    strategies = [random_strategy(rng, al, al) for _ in range(count)]
    if kind == "contextual":
        # The all-first-outcome strategy meets three of the four chained
        # constraints, so the noise scores above 0 and the mixture above 3.
        first = {s: outs[0] for s, outs in al.items()}
        strategies[0] = (first, dict(first))
    return strategies


def ladder_case(rng: random.Random, rung: str, settings: int, outcomes: int,
                kind: str, count: int) -> Case:
    """The noncontextual instance mixes its strategies at seeded weights.

    The contextual one mixes its noise strategies equally, whatever the
    seed: the simplex's path to a Farkas certificate swings by a factor of
    two with the noise weights, more than a run's few draws average out.
    """
    al = alphabet(settings, outcomes)
    strategies = _fixed_strategies(rung, kind, al, count)
    if kind == "noncontextual":
        weights = [rng.randint(40, 60) for _ in strategies]
        return Case(f"{rung}-nc", al, al, local_mixture(al, al, strategies, weights), kind)
    local = local_mixture(al, al, strategies, [1] * len(strategies))
    w = CONTEXTUAL_WEIGHT
    pmfs = mixture(al, al, [(twisted_box(al, al), w), (local, 1 - w)])
    return Case(f"{rung}-c", al, al, pmfs, kind)


def ladder_pass(rng: random.Random) -> list[Case]:
    """One instance of each rung and kind, rung by rung."""
    return [
        ladder_case(rng, rung, settings, outcomes, kind, count)
        for rung, settings, outcomes, n_nc, n_c in LADDER_RUNGS
        for kind, count in (("noncontextual", n_nc), ("contextual", n_c))
    ]


def ladder_passes(seed: int, draws: int) -> list[list[Case]]:
    """``draws`` passes, each with its own weights."""
    rng = random.Random(f"ladder:{seed}")
    return [ladder_pass(rng) for _ in range(draws)]


# ---------------------------------------------------------------------- cli

def cli_file_case(seed: int) -> Case:
    """A 3x3 binary local mixture of five fixed strategies, seeded weights,
    for ``analyze FILE``."""
    al = alphabet(3, 2)
    structure = random.Random("cli-structure")
    strategies = [random_strategy(structure, al, al) for _ in range(5)]
    rng = random.Random(f"cli:{seed}")
    pmfs = local_mixture(al, al, strategies, [rng.randint(40, 60) for _ in strategies])
    return Case(f"cli-file-{seed}", al, al, pmfs, "noncontextual")


def system_json(case: Case) -> str:
    """The case in the CLI file format (rational strings, sorted contexts)."""
    doc = {
        "name": case.name,
        "a_settings": list(case.a_alph),
        "b_settings": list(case.b_alph),
        "a_alphabet": {x: list(o) for x, o in case.a_alph.items()},
        "b_alphabet": {y: list(o) for y, o in case.b_alph.items()},
        "contexts": [
            {
                "x": x,
                "y": y,
                "pmf": [
                    {"a": a, "b": b, "p": str(p)}
                    for (a, b), p in sorted(case.pmfs[(x, y)].items())
                ],
            }
            for (x, y) in sorted(case.pmfs)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def invalid_json(seed: int) -> str:
    """A file whose first context's pmf sums to 1/2: must be refused."""
    case = cli_file_case(seed)
    first = min(case.pmfs)
    halved = {pair: p / 2 for pair, p in case.pmfs[first].items()}
    return system_json(Case(case.name + "-invalid", case.a_alph, case.b_alph,
                            {**case.pmfs, first: halved}, "invalid"))
