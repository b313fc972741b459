"""Exact representation of bipartite compound systems of random variables.

A system assigns to every context (x, y) -- a pair of measurement settings,
one per side -- a joint probability mass function over the outcome pair
alphabet of that context.  All probabilities are `fractions.Fraction`;
nothing in this module touches floating point.  Fractions stay at the
boundary: a system holds them, and every function takes and returns them.
A spec kind has one builder, its constructor, also named `make_system` or
`make_support`: it stores plain data frozen, its contexts being the keys of
its table, in canonical order.  A spec that exists is valid: its
constructor runs `validate` and raises `InvalidSystemError` with every
violation, so no function taking a spec checks it again.  A signaling
system is a valid spec; `check_nonsignaling` tells it apart.
Inside, `validate`, `check_nonsignaling` and
`analysis.decomposition_reproduces` read the pmfs as integer counts over
one common denominator, built once per system (`SystemSpec._counts`), so
their sums and comparisons run over ints.  The support of a system is built
once the same way (`SystemSpec.supports`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import lcm, prod
from types import MappingProxyType
from typing import NamedTuple

Outcome = str
Pair = tuple[Outcome, Outcome]

ZERO = Fraction(0)
ONE = Fraction(1)


class Context(NamedTuple):
    x: str
    y: str


def setting_key(label: str):
    """Sort key placing numeric labels in numeric order, others lexically."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def context_key(ctx: Context):
    return (setting_key(ctx.x), setting_key(ctx.y))


class InvalidSystemError(ValueError):
    """Raised when a spec is built that breaks an invariant `validate` checks."""

    def __init__(self, name: str, violations: list[str]):
        super().__init__(f"{name}: " + "; ".join(violations))
        self.violations = violations


class Spec:
    """The shape of a compound system: settings, alphabets and contexts.

    `a_alphabet` is keyed by the A-side setting, `b_alphabet` by the B-side
    setting; a context's outcome pairs range over the product of the two.
    The constructor takes plain data and stores one form of it, since specs
    (catalog systems in particular) are shared between callers: each
    alphabet is a tuple in a read-only mapping, and the per-context table is
    a read-only {Context: ...} in canonical context order (`context_key`),
    whatever order it was given in, holding read-only pmfs, their int
    probabilities made `Fraction`s, or frozenset supports.  `contexts`
    holds its keys.  Every spec answers `supports`, a read-only
    {context: frozenset of pairs} of the pairs each context allows: a
    `SupportSpec` stores it, a `SystemSpec` reads it off its pmfs.  Building
    a spec checks it: one `validate` rejects raises `InvalidSystemError`.
    A spec is immutable: assigning or deleting an attribute raises
    `AttributeError`.  Specs of one type with equal fields are equal.
    """

    name: str
    a_alphabet: Mapping[str, tuple[Outcome, ...]]
    b_alphabet: Mapping[str, tuple[Outcome, ...]]
    contexts: tuple[Context, ...]
    _fields = ("name", "a_alphabet", "b_alphabet", "contexts")

    def __init__(self, name, a_alphabet, b_alphabet, table):
        contexts = tuple(sorted(map(Context._make, table), key=context_key))
        fields = self.__dict__  # past the spec's own `__setattr__`
        fields["name"] = name
        fields["a_alphabet"], fields["b_alphabet"] = (
            MappingProxyType({s: tuple(outcomes) for s, outcomes in alphabets.items()})
            for alphabets in (a_alphabet, b_alphabet)
        )
        fields["contexts"] = contexts
        # A subclass's last field names its table: `pmfs` or `supports`.
        fields[self._fields[-1]] = MappingProxyType(
            {ctx: self._freeze(table[ctx]) for ctx in contexts}
        )
        violations = validate(self)
        if violations:
            raise InvalidSystemError(name, violations)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self) -> int:
        # Read-only mappings cannot be hashed; equal specs share these fields.
        return hash((type(self), self.name, self.contexts))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    @cached_property
    def a_settings(self) -> tuple[str, ...]:
        return tuple(sorted(self.a_alphabet, key=setting_key))

    @cached_property
    def b_settings(self) -> tuple[str, ...]:
        return tuple(sorted(self.b_alphabet, key=setting_key))

    def pairs(self, ctx: Context) -> list[Pair]:
        return list(product(self.a_alphabet[ctx.x], self.b_alphabet[ctx.y]))


class SystemSpec(Spec):
    """A compound system: contexts with exact joint pmfs."""

    pmfs: Mapping[Context, Mapping[Pair, Fraction]]
    _fields = Spec._fields + ("pmfs",)

    def __init__(self, name, a_alphabet, b_alphabet, pmfs):
        super().__init__(name, a_alphabet, b_alphabet, pmfs)

    @staticmethod
    def _freeze(pmf) -> Mapping[Pair, Fraction]:
        # A float or string is kept as given, for `validate` to report.
        return MappingProxyType(
            {pair: Fraction(p) if isinstance(p, int) else p for pair, p in pmf.items()}
        )

    def pmf(self, ctx: Context) -> Mapping[Pair, Fraction]:
        if ctx not in self.pmfs:
            raise KeyError(f"unknown context {ctx}")
        return self.pmfs[ctx]

    def prob(self, ctx: Context, pair: Pair) -> Fraction:
        return self.pmfs[ctx].get(pair, ZERO)

    @cached_property
    def _counts(self) -> tuple[int, dict[Context, dict[Pair, int]]]:
        """The pmfs as integer counts over D, the lcm of every denominator:
        (D, {context: {pair: probability * D}}), for every context with a pmf.
        Built once, since the pmfs are read-only; `cached_property` writes
        the instance `__dict__` directly, past the spec's `__setattr__`."""
        pmfs = self.pmfs
        scale = lcm(*[p.denominator for pmf in pmfs.values() for p in pmf.values()])
        return scale, {
            ctx: {pair: p.numerator * (scale // p.denominator) for pair, p in pmf.items()}
            for ctx, pmf in pmfs.items()
        }

    @cached_property
    def supports(self) -> Mapping[Context, frozenset[Pair]]:
        """The pairs of probability > 0 in each context, read-only and keyed
        in canonical context order; built once, as `_counts` is."""
        return MappingProxyType({
            ctx: frozenset(pair for pair, p in pmf.items() if p.numerator > 0)
            for ctx, pmf in self.pmfs.items()
        })


class SupportSpec(Spec):
    """Possibilistic counterpart of `SystemSpec`: per-context supports only."""

    supports: Mapping[Context, frozenset[Pair]]
    _fields = Spec._fields + ("supports",)

    def __init__(self, name, a_alphabet, b_alphabet, supports):
        super().__init__(name, a_alphabet, b_alphabet, supports)

    @staticmethod
    def _freeze(pairs) -> frozenset[Pair]:
        pairs = tuple(pairs)
        try:
            return frozenset(pairs)
        except TypeError:  # an unhashable pair, kept for `validate` to report
            return pairs


# The one builder of each spec kind, under the names the package has long used.
make_system = SystemSpec
make_support = SupportSpec


class Realization(NamedTuple):
    """A non-signaling deterministic realization: one function per side.

    `f` maps each A-setting to Alice's outcome and `g` each B-setting to
    Bob's; `values` holds what they give in every context, (f[x], g[y]) at
    context (x, y).
    """

    f: Mapping[str, Outcome]
    g: Mapping[str, Outcome]
    values: Mapping[Context, Pair]

    @property
    def assignment(self) -> Realization:
        # perfbench/workloads.py reads decompositions as `r.assignment.values`.
        return self


class SignalingWitness(NamedTuple):
    """Two contexts sharing a setting whose one-sided marginals differ."""

    side: str  # "A" or "B"
    setting: str
    context1: Context
    context2: Context
    marginal1: Mapping[Outcome, Fraction]
    marginal2: Mapping[Outcome, Fraction]

    def describe(self) -> str:
        return (
            f"side {self.side}, setting {self.setting}: marginal in "
            f"{tuple(self.context1)} differs from {tuple(self.context2)}"
        )


def validate(spec: Spec) -> list[str]:
    """Return every invariant violation; an empty list means the spec is valid.

    Holds for both kinds of spec: every alphabet is non-empty and
    duplicate-free, contexts use declared settings, and each context's pmf
    or support lies inside its alphabet product.  A pmf holds ints or
    Fractions, non-negative, summing to 1; a support is non-empty.  Every
    spec constructor runs it and refuses a spec it rejects, so on a built
    spec it returns [].
    """
    violations: list[str] = []
    a_sets = {x: set(outcomes) for x, outcomes in spec.a_alphabet.items()}
    b_sets = {y: set(outcomes) for y, outcomes in spec.b_alphabet.items()}
    for side, alphabets, sets in (("A", spec.a_alphabet, a_sets), ("B", spec.b_alphabet, b_sets)):
        for s, outcomes in alphabets.items():
            if not outcomes or len(sets[s]) != len(outcomes):
                violations.append(
                    f"{side}-setting {s!r}: alphabet must be non-empty and duplicate-free"
                )
    if not spec.contexts:
        violations.append("no contexts")
    probabilistic = isinstance(spec, SystemSpec)
    tables = spec.pmfs if probabilistic else spec.supports
    counts = None
    if probabilistic:
        try:
            scale, counts = spec._counts
        except (AttributeError, TypeError):  # a probability with no exact counts
            violations += [
                f"context {tuple(ctx)}: probability {p!r} at {pair} is not an int or Fraction"
                for ctx, pmf in tables.items()
                for pair, p in pmf.items()
                if not isinstance(p, (int, Fraction))
            ]
    for ctx in spec.contexts:
        if ctx.x not in spec.a_alphabet:
            violations.append(f"context {tuple(ctx)}: unknown A-setting {ctx.x!r}")
            continue
        if ctx.y not in spec.b_alphabet:
            violations.append(f"context {tuple(ctx)}: unknown B-setting {ctx.y!r}")
            continue
        table = tables[ctx]
        # A pair is in the alphabet product iff it is a 2-tuple of an
        # outcome of x and one of y; any other key is reported, not raised.
        a_set, b_set = a_sets[ctx.x], b_sets[ctx.y]
        for pair in table:
            try:
                inside = (
                    isinstance(pair, tuple) and len(pair) == 2
                    and pair[0] in a_set and pair[1] in b_set
                )
            except TypeError:  # an unhashable outcome
                inside = False
            if not inside:
                violations.append(f"context {tuple(ctx)}: pair {pair} outside alphabet product")
        if not (probabilistic or table):
            violations.append(f"context {tuple(ctx)}: empty support")
        if counts is None:
            continue
        for pair, c in counts[ctx].items():
            if c < 0:
                violations.append(
                    f"context {tuple(ctx)}: negative probability {table[pair]} "
                    f"at {pair}"
                )
        total = sum(counts[ctx].values())
        if total != scale:
            total = Fraction(total, scale)
            violations.append(f"context {tuple(ctx)}: sum {total} != 1")
    return violations


def marginal(
    system: SystemSpec, context: Context, side: str
) -> dict[Outcome, Fraction]:
    """Exact one-sided marginal of the context's joint pmf."""
    context = Context(*context)
    pmf = system.pmf(context)
    if side == "A":
        outcomes = system.a_alphabet[context.x]
        out = {o: ZERO for o in outcomes}
        for (a, _b), p in pmf.items():
            out[a] += p
    elif side == "B":
        outcomes = system.b_alphabet[context.y]
        out = {o: ZERO for o in outcomes}
        for (_a, b), p in pmf.items():
            out[b] += p
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return out


def check_nonsignaling(system: SystemSpec) -> SignalingWitness | None:
    """None if every shared setting has context-independent marginals.

    Otherwise the first witness in canonical order: A-side settings before
    B-side, settings and contexts in canonical label order.  Each side is
    one scan over the integer counts: A in the stored (canonical) order, B
    in that order stably sorted by its setting.  Each context's marginal is
    compared with that of the first context holding its setting; only a
    mismatch reads the two as Fractions.
    """
    scale, counts = system._counts
    by_y = sorted(system.contexts, key=lambda ctx: setting_key(ctx.y))
    for side, index, alphabets, contexts in (
        ("A", 0, system.a_alphabet, system.contexts),
        ("B", 1, system.b_alphabet, by_y),
    ):
        first: dict[str, tuple[Context, dict[Outcome, int]]] = {}
        for ctx in contexts:
            setting = ctx[index]
            sums = dict.fromkeys(alphabets[setting], 0)
            for pair, c in counts[ctx].items():
                sums[pair[index]] += c
            ref_ctx, ref = first.setdefault(setting, (ctx, sums))
            if ref != sums:
                return SignalingWitness(
                    side=side,
                    setting=setting,
                    context1=ref_ctx,
                    context2=ctx,
                    marginal1={o: Fraction(c, scale) for o, c in ref.items()},
                    marginal2={o: Fraction(c, scale) for o, c in sums.items()},
                )
    return None


def support_of(system: SystemSpec) -> SupportSpec:
    """The system as a `SupportSpec`: its shape and `supports`, no pmfs."""
    return SupportSpec(system.name, system.a_alphabet, system.b_alphabet, system.supports)


# Too long to print in full: Python refuses to print an int past 4,300 digits.
LARGE_COUNT = 10**40


class AssignmentCount(NamedTuple):
    """Exact assignment count and its factors, (context size, multiplicity)
    pairs with sizes ascending.  It prints factored (`4^4`, `4^3200 * 6^3200`)
    when several contexts all have one size or the value is at least
    `LARGE_COUNT`, and as the value otherwise."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        if (len(self.factors) == 1 and self.factors[0][1] > 1) or self.value >= LARGE_COUNT:
            return " * ".join(f"{s}^{m}" if m > 1 else str(s) for s, m in self.factors)
        return str(self.value)


def count_assignments(system: Spec) -> AssignmentCount:
    """Number of assignments: product over contexts of the alphabet pair counts."""
    sizes = Counter(
        len(system.a_alphabet[ctx.x]) * len(system.b_alphabet[ctx.y])
        for ctx in system.contexts
    )
    factors = tuple(sorted(sizes.items()))
    return AssignmentCount(value=prod(s**m for s, m in factors), factors=factors)


def _check_same_shape(a: SystemSpec, b: SystemSpec) -> None:
    if (
        set(a.contexts) != set(b.contexts)
        or a.a_alphabet != b.a_alphabet
        or a.b_alphabet != b.b_alphabet
    ):
        raise ValueError(f"shape mismatch between {a.name!r} and {b.name!r}")


def mix(
    components: list[tuple[SystemSpec, Fraction]], name: str = "mixture"
) -> SystemSpec:
    """Context-wise convex combination of systems sharing one shape."""
    if not components:
        raise ValueError("empty mixture")
    rule = {ctx: components for ctx in components[0][0].contexts}
    return mix_context_dependent(rule, name=name)


def mix_context_dependent(
    rule: Mapping[Context, list[tuple[SystemSpec, Fraction]]],
    name: str = "context-dependent mixture",
) -> SystemSpec:
    """Mixture whose component weights may differ per context.

    Each context's pmf is the convex combination prescribed for that
    context; the result need not be non-signaling even when every
    component is.
    """
    if not rule:
        raise ValueError("empty rule")
    base = next(iter(rule.values()))[0][0]
    pmfs: dict[Context, dict[Pair, Fraction]] = {}
    for ctx, components in rule.items():
        total = ZERO
        acc: dict[Pair, Fraction] = {}
        for sys_i, w in components:
            _check_same_shape(base, sys_i)
            if w < 0:
                raise ValueError(f"negative weight {w} at context {tuple(ctx)}")
            total += w
            for pair, p in sys_i.pmfs[ctx].items():
                if w * p != 0:
                    acc[pair] = acc.get(pair, ZERO) + w * p
        if total != 1:
            raise ValueError(
                f"context {tuple(ctx)}: weights sum to {total}, not 1"
            )
        pmfs[ctx] = acc
    return SystemSpec(
        name=name,
        a_alphabet=base.a_alphabet,
        b_alphabet=base.b_alphabet,
        pmfs=pmfs,
    )


def expectation_product(
    system: SystemSpec,
    context: Context,
    coding: Mapping[Outcome, Fraction] | None = None,
) -> Fraction:
    """Expectation of code(a)*code(b) in one context.

    Default coding maps each outcome label to its integer reading
    (so "0"/"1" outcomes give the usual 0/1 product expectation).
    """
    context = Context(*context)
    pmf = system.pmf(context)
    out = ZERO
    for (a, b), p in pmf.items():
        if coding is None:
            ca, cb = Fraction(int(a)), Fraction(int(b))
        else:
            if a not in coding or b not in coding:
                missing = a if a not in coding else b
                raise KeyError(f"no code for outcome {missing!r}")
            ca, cb = coding[a], coding[b]
        out += p * ca * cb
    return out


def realization_system(
    realization: Realization, shape: Spec, name: str = "realization"
) -> SystemSpec:
    """View a realization as a deterministic system of the given shape."""
    pmfs = {ctx: {pair: ONE} for ctx, pair in realization.values.items()}
    return SystemSpec(
        name=name,
        a_alphabet=shape.a_alphabet,
        b_alphabet=shape.b_alphabet,
        pmfs=pmfs,
    )
