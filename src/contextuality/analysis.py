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
goes unless c is the first holding x.  Nothing is lost on a non-signaling
system.  Every column is a deterministic (f, g), so on every column, and
on a non-signaling system, the entries of (a'', b') summed over a'' give
the B-marginal of b' at y, the same in every context holding y.  In the
first one, c_y, every row (a'', b') with b' not last is kept, so row
(a, b') of c is that sum in c_y less the kept rows (a'', b'), a'' != a,
of c; (a', b) is the mirror image, and (a, b) is normalization less every
other pair of c.  Pairs outside the support have all-zero rows on both
sides, so the identities hold among the supported rows alone.  Each
dropped row is thus one fixed combination of kept rows, on every column
and on such a system alike: the two LPs have the same solutions, and a
Farkas y on the kept rows, zero on the dropped ones, certifies the full
LP.  At full support this takes 65 rows to 25 at 4x4 binary, 82 to 49 at
3x3 ternary and 101 to 36 at 5x5 binary.

No scan for signaling is needed to trust a decomposition: a positive
mixture of columns is non-signaling, so one that reproduces the system
(`decomposition_reproduces`) shows the system is non-signaling too.  A
signaling system's kept rows may still be feasible, but the point fails
that check.  So `classify` runs `check_nonsignaling` only where a result
rests on it: when the check fails, before it builds a witness, and when
the search exceeds its limit.

Inside `classify` a realization is the search's outcome tuple, A-settings
first, and only returned components become `Realization`s.  The LP reads
each column off a tuple as the kept rows its pairs hit, and its
right-hand side is the system's integer counts (`SystemSpec._counts`), so
it goes straight into `feasibility.incidence_tableau`: no rational row is
built between the search and the simplex.  The witness arithmetic runs
over integers too.  Both searches below run on explicit stacks, not
self-referring closures, so reference counting alone frees what
`classify` builds.

The search (`_ns_outcomes`) branches on one side only.  A deterministic
system with spacelike-separated components is a pair of per-side
functions (f, g), and each context ties one A-setting to one B-setting, so
once f is fixed each B-setting picks its outcome independently of the
others: the realizations of a support are a union, over f, of products
over the B-settings.  Branching on the A-settings and listing each product
whole is thus exact.

A Farkas witness's bound is the largest score of an LP column, read off
the LP's own columns, since they are every realization of the support.
Each witness is then checked by one call of the local-bound oracle
(`_local_bound`), a branch and bound on the same observation: once one
side's function is fixed, every setting of the other side picks its best
outcome alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import lcm, prod
from operator import add, itemgetter, sub
from typing import Mapping, NamedTuple

from .feasibility import (
    FarkasCertificate,
    FeasibleSolution,
    incidence_tableau,
    solve_feasibility,
)
from .systems import (
    ONE,
    Context,
    Outcome,
    Pair,
    Realization,
    SignalingWitness,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
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


class CertificateError(Exception):
    """Raised when a certificate fails its independent check (a solver bug)."""


def _require_nonsignaling(system: SystemSpec) -> None:
    witness = check_nonsignaling(system)
    if witness is not None:
        raise SignalingSystemError(witness)


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
    spec: SystemSpec | SupportSpec, limit: int = DEFAULT_LIMIT
) -> tuple[Realization, ...]:
    """All non-signaling realizations of a spec's support, in `_ns_outcomes`
    order; a system gives the same ones as its `support_of`."""
    return tuple(_realization(spec, values) for values in _ns_outcomes(spec, limit))


def _realization(spec: SupportSpec | SystemSpec, values: tuple[Outcome, ...]) -> Realization:
    """The realization whose outcome tuple, A-settings first, is `values`."""
    a_settings = spec.a_settings
    f = dict(zip(a_settings, values))
    g = dict(zip(spec.b_settings, values[len(a_settings):]))
    return Realization(f, g, {ctx: (f[ctx.x], g[ctx.y]) for ctx in spec.contexts})


def _ns_outcomes(spec: SystemSpec | SupportSpec, limit: int) -> list[tuple[Outcome, ...]]:
    """The outcome tuple of every non-signaling realization of a spec's
    `supports`, one outcome per setting, A-settings first, in sorted order.

    A realization is a pair (f, g) of per-side setting functions, and each
    context constrains one A-setting and one B-setting only.  So once f is
    fixed, B-setting y may take any outcome the support allows with f[x] in
    every context (x, y), whatever the other B-settings take: the
    realizations with that f are the Cartesian product of these B-domains,
    and the search branches on the A-settings alone.

    Every setting has a domain, the outcomes still possible.  Each context
    gives its A-setting a table from an outcome to the B-outcomes the
    support allows with it, and its B-setting the table back; a context
    whose support is its whole alphabet product constrains nothing and
    gives no tables.  Each domain starts as the outcomes that every one of
    its tables holds, narrowed as the tables are built.  Assigning a to x
    intersects each B-neighbour's domain with x's table at a; a B-domain
    that shrinks then intersects each unassigned A-neighbour's domain with
    the union of its own tables at the outcomes left, one step.
    Both drop only outcomes that no realization extending the assignment
    takes, so none is lost.  The A-setting with the fewest live outcomes is
    assigned first, ties to the earlier one.  Once the last is assigned,
    f's product is listed at once.  The walk order is free: the tuples are
    sorted at the end, and whether RealizationLimitExceeded is raised (as
    soon as the realizations found and the next product together exceed
    `limit`, before that product is built) depends only on their total.
    """
    a_settings, b_settings = spec.a_settings, spec.b_settings
    a_index = {x: i for i, x in enumerate(a_settings)}
    b_index = {y: j for j, y in enumerate(b_settings)}
    # ahead[i]: (j, table) per context of A-setting i; back[j]: (i, table back).
    ahead: list[list[tuple[int, dict[Outcome, set[Outcome]]]]] = [[] for _ in a_settings]
    back: list[list[tuple[int, dict[Outcome, set[Outcome]]]]] = [[] for _ in b_settings]
    a_alphabet, b_alphabet = spec.a_alphabet, spec.b_alphabet
    a_domains = [set(a_alphabet[x]) for x in a_settings]
    b_domains = [set(b_alphabet[y]) for y in b_settings]
    for (x, y), pairs in spec.supports.items():
        if len(pairs) == len(a_alphabet[x]) * len(b_alphabet[y]):
            continue  # the whole alphabet product: no constraint
        i, j = a_index[x], b_index[y]
        forward: dict[Outcome, set[Outcome]] = {}
        backward: dict[Outcome, set[Outcome]] = {}
        for a, b in pairs:
            forward.setdefault(a, set()).add(b)
            backward.setdefault(b, set()).add(a)
        ahead[i].append((j, forward))
        back[j].append((i, backward))
        # An outcome with no supported pair in some context is out from the start.
        a_domains[i].intersection_update(forward)
        b_domains[j].intersection_update(backward)

    found: list[tuple[Outcome, ...]] = []

    def assign(a_live: list[set[Outcome]], b_live: list[set[Outcome]], var: int, value: Outcome,
               free: set[int]) -> bool:
        """Narrow the domains, in place, for var = value; False if one empties."""
        a_live[var] = {value}
        for j, table in ahead[var]:
            narrowed = b_live[j] & table[value]
            if not narrowed:
                return False
            if len(narrowed) < len(b_live[j]):
                b_live[j] = narrowed
                for i, table_back in back[j]:
                    if i in free:
                        a_live[i] = a_live[i] & set().union(*(table_back[b] for b in narrowed))
                        if not a_live[i]:
                            return False
        return True

    # Depth first, on a stack of (A-domains, B-domains, unassigned A-settings);
    # a spec has a context, so some A-setting is unassigned at the root.  An
    # empty B-domain leaves no g for any f.
    stack = [(a_domains, b_domains, list(range(len(a_settings))))] if all(b_domains) else []
    while stack:
        a_live, b_live, free = stack.pop()
        var = min(free, key=lambda i: len(a_live[i]))
        rest = [i for i in free if i != var]
        unassigned = set(rest)
        for value in a_live[var]:
            a_next, b_next = list(a_live), list(b_live)
            if not assign(a_next, b_next, var, value, unassigned):
                continue
            if rest:
                stack.append((a_next, b_next, rest))
                continue
            # Every A-setting is assigned: list f's product of B-domains now.
            if len(found) + prod(map(len, b_next)) > limit:
                raise RealizationLimitExceeded(limit)
            f = tuple(chain.from_iterable(a_next))
            found += map(f.__add__, product(*b_next))
    found.sort()
    return found


def witness_score(witness: BellWitness, system: SystemSpec) -> Fraction:
    """Sum of coefficients times probabilities, over ints: coefficients and
    counts (`SystemSpec._counts`) each over their common denominator."""
    coefficients = witness.coefficients
    system_scale, counts = system._counts
    scale = lcm(*(c.denominator for c in coefficients.values()))
    total = sum(
        c.numerator * (scale // c.denominator) * counts[ctx].get((a, b), 0)
        for (ctx, a, b), c in coefficients.items()
    )
    return Fraction(total, scale * system_scale)


def _membership_problem(
    system: SystemSpec,
    outcomes: list[tuple[Outcome, ...]],
    supported: list[tuple[Context, Pair]],
) -> tuple[list[list[int]], list[int], int, list[tuple[Context, Pair]]]:
    """One row per supported (context, pair) the Collins-Gisin rule keeps
    (module docstring), one column per realization, given by its outcome
    tuple (`_ns_outcomes`), plus normalization; feasibility of M p = d,
    p >= 0 is exactly decomposability.

    Returns what `incidence_tableau` takes, and the (context, pair) of each
    row but the last: per column, the kept rows holding its 1s, the pair
    each kept context reads off the tuple by one `itemgetter`; and d as the
    system's integer counts (`SystemSpec._counts`) over their denominator,
    the normalization row left implied.  `supported` lists each context's
    pairs together, as `classify` does, so a context's last outcomes and
    whether it is the first holding its settings are read once per run of
    its pairs.
    """
    first_with_x: dict[str, Context] = {}
    first_with_y: dict[str, Context] = {}
    for ctx in system.contexts:
        first_with_x.setdefault(ctx.x, ctx)
        first_with_y.setdefault(ctx.y, ctx)
    keys = []
    kept: dict[Context, dict[Pair, int]] = {}  # each context's {pair: row}
    current = None
    for key in supported:
        ctx, pair = key
        if ctx is not current:  # a context's pairs come together: read its set-up once
            current = ctx
            a_last, b_last = system.a_alphabet[ctx.x][-1], system.b_alphabet[ctx.y][-1]
            first_x, first_y = ctx == first_with_x[ctx.x], ctx == first_with_y[ctx.y]
            row_of = kept.setdefault(ctx, {})
        a, b = pair
        if a == a_last and (b == b_last or not first_y):
            continue
        if b == b_last and not first_x:
            continue
        row_of[pair] = len(keys)
        keys.append(key)
    a_position = {x: i for i, x in enumerate(system.a_settings)}
    b_position = {y: i for i, y in enumerate(system.b_settings, len(a_position))}
    tables = [
        (itemgetter(a_position[ctx.x], b_position[ctx.y]), row_of.get)
        for ctx, row_of in kept.items()
        if row_of
    ]
    columns = []
    for values in outcomes:
        column = []
        for pair_of, row_of in tables:
            i = row_of(pair_of(values))
            if i is not None:
                column.append(i)
        columns.append(column)
    scale, counts = system._counts
    return columns, [counts[ctx].get(pair, 0) for ctx, pair in keys], scale, keys


def _witness_from_certificate(
    keys: list[tuple[Context, Pair]],
    certificate: FarkasCertificate,
    system: SystemSpec,
    columns: list[list[int]],
) -> BellWitness:
    # Normalize the bound to the best score of a realization that uses only
    # supported pairs.  `classify` lists every such realization as a column,
    # or raises RealizationLimitExceeded, so that score is the largest
    # column score: the sum of y over the kept rows holding the column's 1s,
    # the normalization row (the last) left out.  The Farkas inequalities
    # guarantee the system still scores strictly above it.  An LP over only
    # some of the columns would need the oracle limited to supported pairs
    # instead.  The scores run over y times their common denominator, and so
    # does the oracle.
    scale = lcm(*(y.denominator for y in certificate.y))
    ys = [y.numerator * (scale // y.denominator) for y in certificate.y]
    bound = max(sum(map(ys.__getitem__, column)) for column in columns)
    coefficients: dict[tuple[Context, Outcome, Outcome], Fraction] = {}
    scaled: dict[tuple[Context, Outcome, Outcome], int] = {}
    best: dict[Context, int] = {}
    for (ctx, (a, b)), y, v in zip(keys, certificate.y, ys):
        if v:
            coefficients[ctx, a, b], scaled[ctx, a, b] = y, v
            best[ctx] = max(best.get(ctx, 0), v)
    # A realization outside the columns uses some pair of probability zero.
    # On the supported pairs it scores at most the sum over contexts of
    # max(0, largest coefficient), so charging each unsupported pair -K, K
    # that sum less the bound, holds it to the bound as well, and leaves
    # the system's score as it was.  A context whose support is its whole
    # alphabet product has no pair to charge.
    k = sum(best.values()) - bound
    if k > 0:
        charge = Fraction(-k, scale)
        for ctx, support in system.supports.items():
            a_outcomes, b_outcomes = system.a_alphabet[ctx.x], system.b_alphabet[ctx.y]
            if len(support) < len(a_outcomes) * len(b_outcomes):
                for a, b in product(a_outcomes, b_outcomes):
                    if (a, b) not in support:
                        coefficients[ctx, a, b], scaled[ctx, a, b] = charge, -k
    return _checked_witness(coefficients, scaled, scale, system, bound)


def _checked_witness(
    coefficients: dict[tuple[Context, Outcome, Outcome], Fraction],
    scaled: Mapping[tuple[Context, Outcome, Outcome], int],
    scale: int,
    system: SystemSpec,
    bound: int | None = None,
) -> BellWitness:
    """The witness, once the system beats its bound and no (f, g) over the
    full alphabets does.  `scaled` holds the coefficients times `scale`,
    each an integer, and `bound` is over `scale` too; it defaults to the
    best such (f, g)'s score."""
    best = _local_bound(scaled, system)
    if bound is None:
        bound = best
    witness = BellWitness(coefficients=coefficients, bound=Fraction(bound, scale))
    if not witness_score(witness, system) > witness.bound:
        raise CertificateError("the system does not beat the witness bound")
    if best > bound:
        raise CertificateError("a realization beats the witness bound")
    return witness


def _local_bound(
    coefficients: Mapping[tuple[Context, Outcome, Outcome], int],
    system: SystemSpec,
) -> int:
    """Exact largest score of integer coefficients on any (f, g) over the
    full alphabets, by branch and bound.

    Each context with a coefficient gets a table over outcome indices,
    table[a][b] the coefficient; a context with none adds 0 to every
    (f, g), and so does a setting in no such context.  The search runs
    over the A-settings: once f is fixed, each B-setting y takes the
    outcome b with the largest sum of table[f[x]][b] over its contexts
    (x, y), independently of the other B-settings.

    The A-settings in the most contexts are assigned first.  A node's
    optimistic total takes, per B-setting, the best b of the sum so far at b
    plus the largest entry of column b of each of its tables still
    unassigned.  No leaf below scores more, so a node whose optimistic total
    cannot beat the best leaf found is cut.  The sums start at those column
    maxima, and assigning x = a adds, per table of x, row a less the column
    maxima: a regret table built once, so a node costs one vector sum per
    context of its setting.  Children are tried best optimistic total first,
    so a good leaf comes early.  The worst case stays exponential: a local
    bound is NP-hard in general.
    """
    a_alphabet, b_alphabet = system.a_alphabet, system.b_alphabet
    tables: dict[tuple[str, str], list] = {}
    for (ctx, a, b), c in coefficients.items():
        table = tables.get(ctx)
        if table is None:
            width = len(b_alphabet[ctx.y])
            table = tables[ctx] = [[0] * width for _ in a_alphabet[ctx.x]]
        row = table[a_alphabet[ctx.x].index(a)]
        row[b_alphabet[ctx.y].index(b)] = c
    # Per A-setting, (index of the B-setting, regrets) per context:
    # regrets[a][b] is table[a][b] less the largest entry of column b.
    # optimistic[t][b] sums those largest entries over the contexts of t.
    by_setting: dict[str, list[tuple[int, list[list[int]]]]] = {}
    other: dict[str, int] = {}
    optimistic: list[list[int]] = []
    for (x, y), table in tables.items():
        top = list(map(max, zip(*table)))
        if y in other:
            optimistic[other[y]] = list(map(add, optimistic[other[y]], top))
        else:
            other[y] = len(optimistic)
            optimistic.append(top)
        regrets = [list(map(sub, row, top)) for row in table]
        by_setting.setdefault(x, []).append((other[y], regrets))
    order = sorted(by_setting.values(), key=len, reverse=True)
    if not order:
        return 0
    # Depth first, on a stack of (optimistic total, depth, sums, maxima):
    # sums[t][b] is the score of t at b so far, plus the largest entry of
    # column b of each table of t not yet assigned; maxima[t] = max(sums[t])
    # and the total is sum(maxima), which no leaf below exceeds.
    maxima = list(map(max, optimistic))
    stack = [(sum(maxima), 0, optimistic, maxima)]
    best = None
    while stack:
        total, depth, sums, maxima = stack.pop()
        if best is not None and total <= best:
            continue  # cut: no leaf below beats the best
        if depth == len(order):  # every table is assigned: total is a score
            best = total
            continue
        entries = order[depth]
        children = []
        for row in range(len(entries[0][1])):
            child_sums, child_maxima, child_total = list(sums), list(maxima), total
            for t, regrets in entries:
                child_sums[t] = list(map(add, sums[t], regrets[row]))
                child_maxima[t] = max(child_sums[t])
                child_total += child_maxima[t] - maxima[t]
            children.append((child_total, depth + 1, child_sums, child_maxima))
        # Best total first, ties in row order: pushed in reverse.
        children.sort(key=itemgetter(0), reverse=True)
        stack += reversed(children)
    return best


def classify(system: SystemSpec | SupportSpec, limit: int = DEFAULT_LIMIT) -> Verdict:
    """Decide contextuality of a non-signaling system, with certificate.

    Candidate mixture components are the non-signaling realizations of the
    system's own `supports`; positive weight in a decomposition forces
    support membership, so nothing is lost by excluding zero-probability
    pairs.
    `limit` caps their number, the LP's columns.  With none, the support is
    the witness: coefficient 1 on each supported (context, pair).  The
    system scores N, its number of contexts; an (f, g) over the full
    alphabets misses the support in some context, so scores at most N - 1.
    The bound is the best such score, from the local-bound oracle, and no
    LP is solved.

    A `SupportSpec` has no probabilities, so only its empty case is
    decidable: with no realizations the verdict is `no_ns_realizations`, and
    otherwise ValueError is raised, since their mixtures cannot be compared
    to the system.

    Raises SignalingSystemError on signaling input; contextuality is only
    defined here for non-signaling systems.  A decomposition that passes
    `decomposition_reproduces` is itself the proof that the system is
    non-signaling, since a positive mixture of non-signaling realizations
    is non-signaling.  So `check_nonsignaling` runs only where a result
    rests on it: before either witness is built, when the decomposition
    fails its check, and when the limit is exceeded.  A signaling system
    thus pays for its support's search, and often for the LP, before it
    is refused.  Raises CertificateError if the returned decomposition or
    witness fails the check a reader would run on it:
    `decomposition_reproduces`, or the system beating the witness bound
    while no realization over the full alphabets does.
    """
    if isinstance(system, SupportSpec):
        count = len(_ns_outcomes(system, limit))
        if count:
            raise ValueError(
                f"{system.name}: {count} non-signaling realizations "
                "exist; probabilities are required to decide contextuality"
            )
        return Verdict("no_ns_realizations")
    try:
        columns = _ns_outcomes(system, limit)
    except RealizationLimitExceeded:
        _require_nonsignaling(system)
        raise
    supported = [(ctx, pair) for ctx, pairs in system.supports.items() for pair in sorted(pairs)]
    if not columns:
        _require_nonsignaling(system)
        coefficients = {(ctx, a, b): ONE for ctx, (a, b) in supported}
        witness = _checked_witness(coefficients, dict.fromkeys(coefficients, 1), 1, system)
        return Verdict("contextual", witness=witness)
    incidence, rhs, scale, keys = _membership_problem(system, columns, supported)
    outcome = solve_feasibility(incidence_tableau(incidence, rhs, scale))
    if isinstance(outcome, FeasibleSolution):
        # Keep every nonzero weight: a negative one must fail the check, not vanish.
        decomposition = Decomposition(
            tuple((_realization(system, c), w) for c, w in zip(columns, outcome.p) if w != 0)
        )
        if not decomposition_reproduces(system, decomposition):
            # The kept rows hold the whole LP only on a non-signaling system.
            _require_nonsignaling(system)
            raise CertificateError("the decomposition does not reproduce the system")
        return Verdict("noncontextual", decomposition, realization_count=len(columns))
    # A Farkas vector on the kept rows certifies the full LP only then too.
    _require_nonsignaling(system)
    witness = _witness_from_certificate(keys, outcome, system, incidence)
    return Verdict("contextual", witness=witness, realization_count=len(columns))


def decomposition_reproduces(
    system: SystemSpec, decomposition: Decomposition
) -> bool:
    """Exact context-wise equality of the weighted mixture and the system.

    The weights are read as integers over their common denominator W and
    the system as counts over its own, D (`SystemSpec._counts`, built once
    per system and shared with `validate` and `check_nonsignaling`); the
    mixture matches where its sum times D equals the system's count times
    W.  Per context, one pass over the components sums their weights into
    the pairs the mixture hits, and only those pairs are compared.  That is
    complete: the weights are positive and sum to W, and a built system's
    counts are non-negative and sum to D in every context.  So once every
    pair the mixture hits matches, those pairs already hold all of the
    system's D, and every other pair's count, like the mixture's sum there,
    is 0.  The check that the weights sum to W is thus what makes it sound.
    """
    weights = [w for _, w in decomposition.components]
    scale = lcm(*(w.denominator for w in weights))
    weights = [w.numerator * (scale // w.denominator) for w in weights]
    if sum(weights) != scale or any(w <= 0 for w in weights):
        return False
    values = [r.values for r, _ in decomposition.components]
    system_scale, counts = system._counts
    try:
        for ctx, pmf in counts.items():
            sums: dict[Pair, int] = {}
            for assignment, w in zip(values, weights):
                pair = assignment[ctx]
                sums[pair] = sums.get(pair, 0) + w
            for pair, total in sums.items():
                if total * system_scale != pmf.get(pair, 0) * scale:
                    return False
    except KeyError:  # a component without one of the system's contexts
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
    correlators less twice the one at c.  The correlators are read as
    integer counts over the system's common denominator.
    """
    a_settings, b_settings = _binary_shape(system)
    scale, counts = system._counts
    corr = []
    for x in a_settings:
        a_plus = system.a_alphabet[x][1]
        for y in b_settings:
            b_plus = system.b_alphabet[y][1]
            corr.append(sum(
                c if (a == a_plus) == (b == b_plus) else -c
                for (a, b), c in counts[Context(x, y)].items()
            ))
    total = sum(corr)
    return Fraction(max(abs(total - 2 * c) for c in corr), scale)
