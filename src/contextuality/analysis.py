"""Deciding contextuality of non-signaling systems.

A system is noncontextual iff it is a convex mixture of its non-signaling
realizations, i.e. of pairs of per-side setting functions compatible with
every context's support.  The decision is an exact linear feasibility
problem: one column per non-signaling realization, one row per supported
outcome pair of each context, plus normalization.  A feasible point is a
decomposition; a Farkas certificate folds into a Bell-type witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .feasibility import (
    FarkasCertificate,
    FeasibleSolution,
    make_problem,
    solve_feasibility,
    verify,
)
from .systems import (
    ONE,
    ZERO,
    Context,
    Outcome,
    Pair,
    Realization,
    SignalingWitness,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
    expectation_product,
    setting_key,
    support_of,
    validate,
)

DEFAULT_LIMIT = 10**6


class RealizationLimitExceeded(Exception):
    def __init__(self, limit: int):
        super().__init__(f"more than {limit} non-signaling realizations")
        self.limit = limit


class SignalingSystemError(Exception):
    """Raised when a signaling system is passed where contextuality is undefined."""

    def __init__(self, witness: SignalingWitness):
        super().__init__(f"system is signaling: {witness.describe()}")
        self.witness = witness


class InvalidSystemError(ValueError):
    """Raised when a system breaks an invariant `validate` checks."""

    def __init__(self, name: str, violations: list[str]):
        super().__init__(f"{name}: " + "; ".join(violations))
        self.violations = violations


class CertificateError(Exception):
    """Raised when a certificate fails its independent check (a solver bug)."""


@dataclass(frozen=True)
class Decomposition:
    """Positive-weight mixture of ns realizations reproducing a system."""

    components: tuple[tuple[Realization, Fraction], ...]


@dataclass(frozen=True)
class BellWitness:
    """Linear functional separating a system from all its ns realizations.

    Every non-signaling realization scores <= bound; the certified system
    scores strictly above it.
    """

    coefficients: Mapping[tuple[Context, Outcome, Outcome], Fraction]
    bound: Fraction


@dataclass(frozen=True)
class Verdict:
    kind: str  # "noncontextual" | "contextual" | "no_ns_realizations"
    decomposition: Decomposition | None = None
    witness: BellWitness | None = None
    realization_count: int = 0


def _ns_functions(
    support: SupportSpec, limit: int
) -> list[tuple[dict[str, Outcome], dict[str, Outcome]]]:
    """All (f, g) per-side setting functions compatible with every support.

    Backtracking over settings with forward checking; at each step the
    setting with the smallest remaining domain is assigned next.
    """
    by_x: dict[str, list[Context]] = {x: [] for x in support.a_settings}
    by_y: dict[str, list[Context]] = {y: [] for y in support.b_settings}
    for ctx in support.contexts:
        by_x[ctx.x].append(ctx)
        by_y[ctx.y].append(ctx)

    domains: dict[tuple[str, str], frozenset[Outcome]] = {}
    for x in support.a_settings:
        opts = set(support.a_alphabet[x])
        for ctx in by_x[x]:
            opts &= {a for a, _ in support.supports[ctx]}
        domains[("A", x)] = frozenset(opts)
    for y in support.b_settings:
        opts = set(support.b_alphabet[y])
        for ctx in by_y[y]:
            opts &= {b for _, b in support.supports[ctx]}
        domains[("B", y)] = frozenset(opts)

    solutions: list[tuple[dict[str, Outcome], dict[str, Outcome]]] = []

    def recurse(assigned: dict[tuple[str, str], Outcome],
                live: dict[tuple[str, str], frozenset[Outcome]]) -> None:
        if len(solutions) > limit:
            return
        free = [v for v in live if v not in assigned]
        if not free:
            f = {x: assigned[("A", x)] for x in support.a_settings}
            g = {y: assigned[("B", y)] for y in support.b_settings}
            solutions.append((f, g))
            return
        var = min(free, key=lambda v: (len(live[v]), v[0], setting_key(v[1])))
        for value in sorted(live[var]):
            assigned[var] = value
            pruned = dict(live)
            ok = True
            contexts = by_x[var[1]] if var[0] == "A" else by_y[var[1]]
            for ctx in contexts:
                other = ("B", ctx.y) if var[0] == "A" else ("A", ctx.x)
                if other in assigned:
                    pair = (
                        (value, assigned[other])
                        if var[0] == "A"
                        else (assigned[other], value)
                    )
                    if pair not in support.supports[ctx]:
                        ok = False
                        break
                    continue
                if var[0] == "A":
                    allowed = {
                        b for a, b in support.supports[ctx] if a == value
                    }
                else:
                    allowed = {
                        a for a, b in support.supports[ctx] if b == value
                    }
                narrowed = pruned[other] & allowed
                if not narrowed:
                    ok = False
                    break
                pruned[other] = frozenset(narrowed)
            if ok:
                recurse(assigned, pruned)
            del assigned[var]
            if len(solutions) > limit:
                return

    if all(domains.values()):
        recurse({}, domains)
    if len(solutions) > limit:
        raise RealizationLimitExceeded(limit)
    return solutions


def _functions_key(f: dict, g: dict, support: SupportSpec):
    return (
        tuple(f[x] for x in support.a_settings),
        tuple(g[y] for y in support.b_settings),
    )


def enumerate_ns_realizations(
    support: SupportSpec, limit: int = DEFAULT_LIMIT
) -> tuple[Realization, ...]:
    """All non-signaling realizations of a support, in canonical order."""
    found = _ns_functions(support, limit)
    found.sort(key=lambda fg: _functions_key(*fg, support))
    contexts = support.sorted_contexts()
    return tuple(
        Realization(f=f, g=g, values={ctx: (f[ctx.x], g[ctx.y]) for ctx in contexts})
        for f, g in found
    )


def witness_score(
    witness: BellWitness, target: SystemSpec | Realization
) -> Fraction:
    """Sum of coefficients times probabilities (realizations read as 0/1 pmfs)."""
    score = ZERO
    for (ctx, a, b), coeff in witness.coefficients.items():
        if isinstance(target, SystemSpec):
            score += coeff * target.prob(ctx, (a, b))
        elif target.values[ctx] == (a, b):
            score += coeff
    return score


def full_support(system: SystemSpec) -> SupportSpec:
    """The system's shape with every alphabet pair allowed in every context."""
    return SupportSpec(
        name=system.name,
        a_alphabet=system.a_alphabet,
        b_alphabet=system.b_alphabet,
        contexts=system.contexts,
        supports={ctx: frozenset(system.pairs(ctx)) for ctx in system.contexts},
    )


def _membership_problem(
    system: SystemSpec,
    realizations: tuple[Realization, ...],
    pairs_of,
):
    """One row per (context, pair), one column per realization, plus
    normalization; feasibility of M p = d, p >= 0 is exactly decomposability."""
    rows: list[tuple[Context, Pair]] = []
    for ctx in system.sorted_contexts():
        for pair in pairs_of(ctx):
            rows.append((ctx, pair))
    matrix = [
        [ONE if r.values[ctx] == pair else ZERO for r in realizations]
        for ctx, pair in rows
    ]
    rhs = [system.prob(ctx, pair) for ctx, pair in rows]
    matrix.append([ONE] * len(realizations))
    rhs.append(ONE)
    return make_problem(matrix, rhs), rows


def _witness_from_certificate(
    rows: list[tuple[Context, Pair]],
    certificate: FarkasCertificate,
    realizations: tuple[Realization, ...],
    system: SystemSpec,
) -> BellWitness:
    coefficients = {
        (ctx, pair[0], pair[1]): y
        for (ctx, pair), y in zip(rows, certificate.y)
        if y != 0
    }
    witness = BellWitness(coefficients=coefficients, bound=ZERO)
    # Normalize the bound to the best realization score; the Farkas
    # inequalities guarantee the system still scores strictly above it.
    bound = max(witness_score(witness, r) for r in realizations)
    witness = BellWitness(coefficients=coefficients, bound=bound)
    if not witness_score(witness, system) > bound:
        raise CertificateError("the system does not beat the witness bound")
    return witness


def classify(system: SystemSpec, limit: int = DEFAULT_LIMIT) -> Verdict:
    """Decide contextuality of a non-signaling system, with certificate.

    Candidate mixture components are the support-restricted non-signaling
    realizations; positive weight in a decomposition forces support
    membership, so nothing is lost by excluding zero-probability pairs.
    When that set is empty the system is immediately contextual, and the
    separating witness is built over the alphabet-wide non-signaling
    assignment set instead (so it is never vacuous).

    Raises InvalidSystemError on a system `validate` rejects, and
    SignalingSystemError on signaling input; contextuality is only defined
    here for non-signaling systems.  Raises CertificateError if the solver's
    decomposition or witness fails its exact check.
    """
    violations = validate(system)
    if violations:
        raise InvalidSystemError(system.name, violations)
    sw = check_nonsignaling(system)
    if sw is not None:
        raise SignalingSystemError(sw)

    support = support_of(system)
    realizations = enumerate_ns_realizations(support, limit)
    if realizations:
        columns = realizations
        pairs_of = lambda ctx: sorted(support.supports[ctx])
    else:
        # No support-restricted ns realization: no decomposition can exist.
        # Certify against the alphabet-wide set, never empty for a valid system.
        columns = enumerate_ns_realizations(full_support(system), limit)
        pairs_of = system.pairs
    problem, rows = _membership_problem(system, columns, pairs_of)
    outcome = solve_feasibility(problem)
    if not verify(problem, outcome):
        raise CertificateError("the solver's outcome fails verification")
    if isinstance(outcome, FeasibleSolution):
        components = tuple((r, w) for r, w in zip(columns, outcome.p) if w > 0)
        return Verdict(
            kind="noncontextual",
            decomposition=Decomposition(components=components),
            realization_count=len(realizations),
        )
    return Verdict(
        kind="contextual",
        witness=_witness_from_certificate(rows, outcome, columns, system),
        realization_count=len(realizations),
    )


def classify_support(support: SupportSpec, limit: int = DEFAULT_LIMIT) -> Verdict:
    """Possibilistic classification: only the empty case is decidable.

    Raises ValueError when non-signaling realizations exist, since without
    probabilities their mixtures cannot be compared to the system.
    """
    realizations = enumerate_ns_realizations(support, limit)
    if len(realizations) == 0:
        return Verdict(kind="no_ns_realizations", realization_count=0)
    raise ValueError(
        f"{support.name}: {len(realizations)} non-signaling realizations "
        "exist; probabilities are required to decide contextuality"
    )


def decomposition_reproduces(
    system: SystemSpec, decomposition: Decomposition
) -> bool:
    """Exact context-wise equality of the weighted mixture and the system."""
    total = sum((w for _, w in decomposition.components), ZERO)
    if total != 1 or any(w <= 0 for _, w in decomposition.components):
        return False
    for ctx in system.contexts:
        for pair in system.pairs(ctx):
            mixed = sum(
                (w for r, w in decomposition.components if r.values[ctx] == pair),
                ZERO,
            )
            if mixed != system.prob(ctx, pair):
                return False
    return True


def _binary_shape(system: SystemSpec) -> tuple[list[str], list[str]]:
    a_settings = list(system.a_settings)
    b_settings = list(system.b_settings)
    if len(a_settings) != 2 or len(b_settings) != 2:
        raise ValueError("CHSH needs exactly 2 settings per side")
    for x in a_settings:
        if len(system.a_alphabet[x]) != 2:
            raise ValueError("CHSH needs binary A-alphabets")
    for y in b_settings:
        if len(system.b_alphabet[y]) != 2:
            raise ValueError("CHSH needs binary B-alphabets")
    if len(system.contexts) != 4:
        raise ValueError("CHSH needs all four contexts")
    return a_settings, b_settings


def chsh(
    system: SystemSpec,
    coding: Mapping[Outcome, Fraction] | None = None,
) -> Fraction:
    """Max over the four odd-sign CHSH combinations, +-1 coding.

    Default coding sends the first alphabet label of each setting to -1
    and the second to +1.
    """
    a_settings, b_settings = _binary_shape(system)
    if coding is None:
        alphabets = [system.a_alphabet[x] for x in a_settings]
        alphabets += [system.b_alphabet[y] for y in b_settings]
        coding = {}
        for lo, hi in alphabets:
            for label, val in ((lo, Fraction(-1)), (hi, Fraction(1))):
                if coding.setdefault(label, val) != val:
                    raise ValueError(
                        "alphabets disagree on a default +-1 coding; pass one"
                    )
    corr = {}
    for x in a_settings:
        for y in b_settings:
            corr[(x, y)] = expectation_product(system, Context(x, y), coding)
    x1, x2 = a_settings
    y1, y2 = b_settings
    best = ZERO
    for sx, sy in ((x1, y1), (x1, y2), (x2, y1), (x2, y2)):
        s = sum(
            (-corr[(x, y)] if (x, y) == (sx, sy) else corr[(x, y)])
            for x in (x1, x2)
            for y in (y1, y2)
        )
        best = max(best, abs(s))
    return best


def fine_oracle(system: SystemSpec) -> str:
    """Independent 2x2-binary oracle: noncontextual iff all CHSH values <= 2."""
    sw = check_nonsignaling(system)
    if sw is not None:
        raise SignalingSystemError(sw)
    return "noncontextual" if chsh(system) <= 2 else "contextual"


def hidden_variable_model(
    decomposition: Decomposition,
) -> list[tuple[Fraction, dict[str, Outcome], dict[str, Outcome]]]:
    """The decomposition as a local model: weight and per-side functions per
    hidden-state value."""
    return [(w, dict(r.f), dict(r.g)) for r, w in decomposition.components]
