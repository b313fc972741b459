"""Deciding contextuality of non-signaling systems.

A system is noncontextual iff it is a convex mixture of its non-signaling
realizations, i.e. of pairs of per-side setting functions compatible with
every context's support.  The decision is an exact linear feasibility
problem: one column per non-signaling realization, one row per supported
outcome pair of each context that the rule below keeps, plus
normalization.  A feasible point is a decomposition; a Farkas certificate
folds into a Bell-type witness.

The rule keeps the rows Collins & Gisin (2004, arXiv:quant-ph/0306129)
count as independent.  In context c = (x, y), let a and b be the last
outcomes of x and y.  The row of (a, b) goes; the row of (a, b') goes
unless c is the first context (sorted order) holding y; the row of (a', b)
goes unless c is the first holding x.  Nothing is lost.  Every column is a
deterministic (f, g), and the system has passed `check_nonsignaling`, so
on both the entries of (a'', b') summed over a'' give the B-marginal of b'
at y, the same in every context holding y.  In the first one, c_y, every
row (a'', b') with b' not last is kept, so row (a, b') of c is that sum in
c_y less the kept rows (a'', b'), a'' != a, of c; (a', b) is the mirror
image, and (a, b) is normalization less every other pair of c.  Pairs
outside the support have all-zero rows on both sides, so the identities
hold among the supported rows alone.  Each dropped row is thus one fixed
combination of kept rows, on every column and on the system alike: the
two LPs have the same solutions, and a Farkas y on the kept rows, zero on
the dropped ones, certifies the full LP.  At full support this takes 65
rows to 25 at 4x4 binary, 82 to 49 at 3x3 ternary and 101 to 36 at 5x5
binary.

Inside `classify` a realization is the search's outcome tuple, A-settings
first; the LP reads its columns from these, and only returned components
become `Realization`s.  The witness arithmetic runs over integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Mapping, NamedTuple

from .feasibility import FarkasCertificate, FeasibleSolution, solve_feasibility
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


def _require_valid(spec: SystemSpec | SupportSpec) -> None:
    """Raise on a spec `validate` rejects, or a signaling system."""
    violations = validate(spec)
    if violations:
        raise InvalidSystemError(spec.name, violations)
    sw = check_nonsignaling(spec) if isinstance(spec, SystemSpec) else None
    if sw is not None:
        raise SignalingSystemError(sw)


class Decomposition(NamedTuple):
    """Positive-weight mixture of ns realizations reproducing a system."""

    components: tuple[tuple[Realization, Fraction], ...]


class BellWitness(NamedTuple):
    """Linear functional separating a system from all its ns realizations.

    Every non-signaling realization over the full alphabets scores <= bound,
    whatever its support; the certified system scores strictly above it.
    """

    coefficients: Mapping[tuple[Context, Outcome, Outcome], Fraction]
    bound: Fraction


class Verdict(NamedTuple):
    kind: str  # "noncontextual" | "contextual" | "no_ns_realizations"
    decomposition: Decomposition | None = None
    witness: BellWitness | None = None
    realization_count: int = 0


def enumerate_ns_realizations(
    support: SupportSpec, limit: int = DEFAULT_LIMIT
) -> tuple[Realization, ...]:
    """All non-signaling realizations of a support, in `_ns_outcomes` order."""
    return tuple(_realization(support, values) for values in _ns_outcomes(support, limit))


def _realization(spec: SupportSpec | SystemSpec, values: tuple[Outcome, ...]) -> Realization:
    """The realization whose outcome tuple, A-settings first, is `values`."""
    a_settings = spec.a_settings
    f = dict(zip(a_settings, values))
    g = dict(zip(spec.b_settings, values[len(a_settings):]))
    return Realization(f=f, g=g, values={ctx: (f[ctx.x], g[ctx.y]) for ctx in spec.contexts})


def _ns_outcomes(support: SupportSpec, limit: int) -> list[tuple[Outcome, ...]]:
    """The outcome tuple of every non-signaling realization of a support,
    one outcome per setting, A-settings first, in sorted order.

    Every setting of either side is one variable, A-settings first; its
    domain holds the outcomes still possible, one outcome once assigned.
    Each context gives each of its two settings a table from an outcome to
    the outcomes the support allows the other setting, so assigning a value
    intersects every neighbour's domain with one table entry.  Backtracking
    assigns the smallest domain first, ties to the earlier variable.
    """
    a_settings, b_settings = support.a_settings, support.b_settings
    alphabets = [support.a_alphabet[x] for x in a_settings]
    alphabets += [support.b_alphabet[y] for y in b_settings]
    a_index = {x: i for i, x in enumerate(a_settings)}
    b_index = {y: len(a_settings) + j for j, y in enumerate(b_settings)}
    tables: list[dict[int, dict[Outcome, set[Outcome]]]] = [{} for _ in alphabets]
    for ctx in support.contexts:
        i, j = a_index[ctx.x], b_index[ctx.y]
        forward, backward = tables[i].setdefault(j, {}), tables[j].setdefault(i, {})
        for a, b in support.supports[ctx]:
            forward.setdefault(a, set()).add(b)
            backward.setdefault(b, set()).add(a)
    # An outcome with no supported pair in some context is out from the start.
    domains = [
        set(alphabet).intersection(*tables[i].values())
        for i, alphabet in enumerate(alphabets)
    ]

    found: list[tuple[Outcome, ...]] = []

    def search(live: list[set[Outcome]], free: list[int]) -> None:
        if not free:
            found.append(tuple(value for (value,) in live))
            if len(found) > limit:
                raise RealizationLimitExceeded(limit)
            return
        var = min(free, key=lambda v: len(live[v]))
        rest = [v for v in free if v != var]
        for value in sorted(live[var]):
            narrowed = list(live)
            narrowed[var] = {value}
            for other, table in tables[var].items():
                narrowed[other] = narrowed[other] & table[value]
                if not narrowed[other]:
                    break
            else:
                search(narrowed, rest)

    search(domains, list(range(len(alphabets))))
    found.sort()
    return found


def witness_score(
    witness: BellWitness, target: SystemSpec | Realization
) -> Fraction:
    """Sum of coefficients times probabilities (realizations read as 0/1 pmfs);
    on a system, over ints: coefficients and counts (`SystemSpec._counts`)
    each over their common denominator."""
    coefficients = witness.coefficients
    if isinstance(target, SystemSpec):
        system_scale, counts = target._counts
        scale = lcm(*(c.denominator for c in coefficients.values()))
        total = sum(
            c.numerator * (scale // c.denominator) * counts[ctx].get((a, b), 0)
            for (ctx, a, b), c in coefficients.items()
        )
        return Fraction(total, scale * system_scale)
    values = target.values
    return sum((c for (ctx, a, b), c in coefficients.items() if values[ctx] == (a, b)), ZERO)


def _membership_problem(
    system: SystemSpec,
    outcomes: list[tuple[Outcome, ...]],
    supported: list[tuple[Context, Pair]],
) -> tuple[list[dict[int, int]], list[Fraction], list[tuple[Context, Pair]]]:
    """One row per supported (context, pair) the Collins-Gisin rule keeps
    (module docstring), one column per realization, given by its outcome
    tuple (`_ns_outcomes`), plus normalization; feasibility of M p = d,
    p >= 0 is exactly decomposability.

    Returns M as sparse rows, d, and the (context, pair) of each row but the
    last.  Column j has a 1 in the row of each kept pair outcome tuple j
    gives, and in the normalization row: each context with kept rows holds
    the tuple positions of its x and y and a {pair: row} table.
    """
    first_with_x: dict[str, Context] = {}
    first_with_y: dict[str, Context] = {}
    for ctx in system.contexts:
        first_with_x.setdefault(ctx.x, ctx)
        first_with_y.setdefault(ctx.y, ctx)
    keys = []
    kept: dict[Context, dict[Pair, int]] = {}  # each context's {pair: row}
    for ctx, (a, b) in supported:
        a_last = a == system.a_alphabet[ctx.x][-1]
        b_last = b == system.b_alphabet[ctx.y][-1]
        if a_last and (b_last or ctx != first_with_y[ctx.y]):
            continue
        if b_last and ctx != first_with_x[ctx.x]:
            continue
        kept.setdefault(ctx, {})[(a, b)] = len(keys)
        keys.append((ctx, (a, b)))
    a_position = {x: i for i, x in enumerate(system.a_settings)}
    b_position = {y: i for i, y in enumerate(system.b_settings, len(a_position))}
    tables = [(a_position[ctx.x], b_position[ctx.y], row_of) for ctx, row_of in kept.items()]
    rows: list[dict[int, int]] = [{} for _ in keys]
    for j, values in enumerate(outcomes):
        for x, y, row_of in tables:
            i = row_of.get((values[x], values[y]))
            if i is not None:
                rows[i][j] = 1
    rows.append(dict.fromkeys(range(len(outcomes)), 1))
    rhs = [system.prob(ctx, pair) for ctx, pair in keys] + [ONE]
    return rows, rhs, keys


def _witness_from_certificate(
    keys: list[tuple[Context, Pair]],
    certificate: FarkasCertificate,
    system: SystemSpec,
    supported: set[tuple[Context, Pair]],
) -> BellWitness:
    coefficients = {
        (ctx, pair[0], pair[1]): y
        for (ctx, pair), y in zip(keys, certificate.y)
        if y != 0
    }
    # Normalize the bound to the best score of a realization that uses only
    # supported pairs: the LP columns are exactly those realizations, so the
    # Farkas inequalities guarantee the system still scores strictly above.
    bound = _local_bound(coefficients, system, supported)
    # A realization outside the columns uses some pair of probability zero.
    # On the supported pairs it scores at most the sum over contexts of
    # max(0, largest coefficient), so charging each unsupported pair -K, K
    # that sum less the bound, holds it to the bound as well, and leaves
    # the system's score as it was.  The maxima and K run over y times
    # their common denominator, which the bound's divides.
    scale = lcm(*(y.denominator for y in certificate.y))
    best: dict[Context, int] = {}
    for (ctx, _), y in zip(keys, certificate.y):
        best[ctx] = max(best.get(ctx, 0), y.numerator * (scale // y.denominator))
    k = sum(best.values()) - bound.numerator * (scale // bound.denominator)
    if k > 0:
        charge = Fraction(-k, scale)
        for ctx in system.contexts:
            for a, b in system.pairs(ctx):
                if (ctx, (a, b)) not in supported:
                    coefficients[(ctx, a, b)] = charge
    return _checked_witness(coefficients, system, bound)


def _checked_witness(
    coefficients: dict[tuple[Context, Outcome, Outcome], Fraction],
    system: SystemSpec,
    bound: Fraction | None = None,
) -> BellWitness:
    """The witness, once the system beats its bound and no (f, g) over the
    full alphabets does; the bound defaults to the best such (f, g)'s score."""
    best = _local_bound(coefficients, system)
    if bound is None:
        bound = best
    witness = BellWitness(coefficients=coefficients, bound=bound)
    if not witness_score(witness, system) > bound:
        raise CertificateError("the system does not beat the witness bound")
    if best > bound:
        raise CertificateError("a realization beats the witness bound")
    return witness


def _local_bound(
    coefficients: Mapping[tuple[Context, Outcome, Outcome], Fraction],
    system: SystemSpec,
    allowed: set[tuple[Context, Pair]] | None = None,
) -> Fraction:
    """Exact largest score of the coefficients on any (f, g) over the full
    alphabets or, given `allowed`, on any (f, g) whose pair in every context
    is an allowed (context, pair).

    For each f over the A-settings the best g is picked setting by setting:
    B-setting y takes, of the outcomes b allowed with f in each of its
    contexts ctx = (x, y), the largest sum of the coefficients at
    (ctx, f[x], b).  Each B-setting holds, per context, the position of x
    and a table over outcome indices: table[a][b] is the coefficient times
    the common denominator of all of them, or None where (a, b) is not
    allowed; f runs over tuples of outcome indices.
    """
    scale = lcm(*(c.denominator for c in coefficients.values()))
    scaled = {
        key: c.numerator * (scale // c.denominator)
        for key, c in coefficients.items()
    }
    xs = system.a_settings
    position = {x: i for i, x in enumerate(xs)}
    tables: dict[str, list[tuple[int, list[list[int | None]]]]] = {}
    for ctx in system.contexts:
        b_alphabet = system.b_alphabet[ctx.y]
        table = [
            [
                scaled.get((ctx, a, b), 0)
                if allowed is None or (ctx, (a, b)) in allowed
                else None
                for b in b_alphabet
            ]
            for a in system.a_alphabet[ctx.x]
        ]
        tables.setdefault(ctx.y, []).append((position[ctx.x], table))

    def best_score(f: tuple[int, ...]) -> int | None:
        total = 0
        for entries in tables.values():
            # One column per outcome b of y, one entry per context of y.
            columns = zip(*(table[f[i]] for i, table in entries))
            sums = [sum(column) for column in columns if None not in column]
            if not sums:
                return None  # no g goes with this f
            total += max(sums)
        return total

    scores = map(best_score, product(*(range(len(system.a_alphabet[x])) for x in xs)))
    return Fraction(max(s for s in scores if s is not None), scale)


def classify(system: SystemSpec, limit: int = DEFAULT_LIMIT) -> Verdict:
    """Decide contextuality of a non-signaling system, with certificate.

    Candidate mixture components are the support-restricted non-signaling
    realizations; positive weight in a decomposition forces support
    membership, so nothing is lost by excluding zero-probability pairs.
    `limit` caps their number, the LP's columns.  With none, the support is
    the witness: coefficient 1 on each supported (context, pair).  The
    system scores N, its number of contexts; an (f, g) over the full
    alphabets misses the support in some context, so scores at most N - 1.
    The bound is the best such score, from the local-bound oracle, and no
    LP is solved.

    Raises InvalidSystemError on a system `validate` rejects, and
    SignalingSystemError on signaling input; contextuality is only defined
    here for non-signaling systems.  Raises CertificateError if the returned
    decomposition or witness fails the check a reader would run on it:
    `decomposition_reproduces`, or the system beating the witness bound
    while no realization over the full alphabets does.
    """
    _require_valid(system)

    support = support_of(system)
    columns = _ns_outcomes(support, limit)
    supported = [
        (ctx, pair) for ctx in system.contexts for pair in sorted(support.supports[ctx])
    ]
    if not columns:
        coefficients = {(ctx, a, b): ONE for ctx, (a, b) in supported}
        return Verdict("contextual", witness=_checked_witness(coefficients, system))
    rows, rhs, keys = _membership_problem(system, columns, supported)
    outcome = solve_feasibility(rows, rhs, len(columns))
    if isinstance(outcome, FeasibleSolution):
        # Keep every nonzero weight: a negative one must fail the check, not vanish.
        decomposition = Decomposition(
            tuple((_realization(system, c), w) for c, w in zip(columns, outcome.p) if w != 0)
        )
        if not decomposition_reproduces(system, decomposition):
            raise CertificateError("the decomposition does not reproduce the system")
        return Verdict("noncontextual", decomposition, realization_count=len(columns))
    witness = _witness_from_certificate(keys, outcome, system, set(supported))
    return Verdict("contextual", witness=witness, realization_count=len(columns))


def classify_support(support: SupportSpec, limit: int = DEFAULT_LIMIT) -> Verdict:
    """Possibilistic classification: only the empty case is decidable.

    Raises InvalidSystemError on a support `validate` rejects, and
    ValueError when non-signaling realizations exist, since without
    probabilities their mixtures cannot be compared to the system.
    """
    _require_valid(support)
    count = len(_ns_outcomes(support, limit))
    if count == 0:
        return Verdict(kind="no_ns_realizations", realization_count=0)
    raise ValueError(
        f"{support.name}: {count} non-signaling realizations "
        "exist; probabilities are required to decide contextuality"
    )


def decomposition_reproduces(
    system: SystemSpec, decomposition: Decomposition
) -> bool:
    """Exact context-wise equality of the weighted mixture and the system.

    The weights are read as integers over their common denominator W and
    the system as counts over its own, D (`SystemSpec._counts`, built once
    per system and shared with `validate` and `check_nonsignaling`); the
    mixture matches where its sum times D equals the system's count times
    W.  One pass over the components sums their weights into every context.
    """
    weights = [w for _, w in decomposition.components]
    scale = lcm(*(w.denominator for w in weights))
    weights = [w.numerator * (scale // w.denominator) for w in weights]
    if sum(weights) != scale or any(w <= 0 for w in weights):
        return False
    mixed: dict[Context, dict[Pair, int]] = {ctx: {} for ctx in system.contexts}
    for (r, _), w in zip(decomposition.components, weights):
        for ctx, sums in mixed.items():
            pair = r.values[ctx]
            sums[pair] = sums.get(pair, 0) + w
    system_scale, counts = system._counts
    for ctx, sums in mixed.items():
        for pair in system.pairs(ctx):
            if sums.get(pair, 0) * system_scale != counts[ctx].get(pair, 0) * scale:
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


def chsh(system: SystemSpec) -> Fraction:
    """Max over the four odd-sign CHSH combinations, +-1 coding.

    The first alphabet label of each setting codes -1, the second +1.  The
    combination flipping the sign of context c is the sum of all four
    correlators less twice the one at c.
    """
    a_settings, b_settings = _binary_shape(system)
    alphabets = [system.a_alphabet[x] for x in a_settings]
    alphabets += [system.b_alphabet[y] for y in b_settings]
    coding: dict[Outcome, Fraction] = {}
    for lo, hi in alphabets:
        for label, val in ((lo, -ONE), (hi, ONE)):
            if coding.setdefault(label, val) != val:
                raise ValueError("alphabets disagree on the +-1 coding")
    corr = [
        expectation_product(system, Context(x, y), coding)
        for x in a_settings
        for y in b_settings
    ]
    total = sum(corr, ZERO)
    return max(abs(total - 2 * c) for c in corr)


def fine_oracle(system: SystemSpec) -> str:
    """Independent 2x2-binary oracle: noncontextual iff all CHSH values <= 2.

    Raises InvalidSystemError on a system `validate` rejects, and
    SignalingSystemError on signaling input.
    """
    _require_valid(system)
    return "noncontextual" if chsh(system) <= 2 else "contextual"


def hidden_variable_model(
    decomposition: Decomposition,
) -> list[tuple[Fraction, dict[str, Outcome], dict[str, Outcome]]]:
    """The decomposition as a local model: weight and per-side functions per
    hidden-state value."""
    return [(w, dict(r.f), dict(r.g)) for r, w in decomposition.components]
