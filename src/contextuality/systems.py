"""Exact representation of bipartite compound systems of random variables.

A system assigns to every context (x, y) -- a pair of measurement settings,
one per side -- a joint probability mass function over the outcome pair
alphabet of that context.  All probabilities are `fractions.Fraction`;
nothing in this module touches floating point.  Fractions stay at the
boundary: a system holds them, and every function takes and returns them.
A spec's contexts are the keys of its pmf or support table, held as
`Context`s in canonical order, fixed when it is built.  Inside, `validate`,
`check_nonsignaling` and `analysis.decomposition_reproduces` read the pmfs
as integer counts over one common denominator, built once per system
(`SystemSpec._counts`), so their sums and comparisons run over ints.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import lcm
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


def _read_only(mapping: Mapping) -> Mapping:
    """A read-only copy of a mapping; nested dicts are copied the same way."""
    return MappingProxyType(
        {k: _read_only(v) if isinstance(v, dict) else v for k, v in mapping.items()}
    )


class Spec:
    """The shape of a compound system: settings, alphabets and contexts.

    `a_alphabet` is keyed by the A-side setting, `b_alphabet` by the B-side
    setting; a context's outcome pairs range over the product of the two.
    Every mapping field is stored as a read-only copy, since specs (catalog
    systems in particular) are shared between callers.  `contexts` holds
    the keys of the per-context table as `Context`s in canonical order
    (`context_key`), whatever order the table has; the table is looked up
    by context, which equals its plain (x, y) tuple.  A spec is immutable:
    assigning or deleting an attribute raises `AttributeError`.  Specs of
    one type with equal fields are equal.
    """

    name: str
    a_alphabet: Mapping[str, tuple[Outcome, ...]]
    b_alphabet: Mapping[str, tuple[Outcome, ...]]
    contexts: tuple[Context, ...]
    _fields = ("name", "a_alphabet", "b_alphabet", "contexts")

    def __init__(self, name, a_alphabet, b_alphabet, table):
        contexts = sorted(map(Context._make, table), key=context_key)
        self._store(name=name, a_alphabet=a_alphabet, b_alphabet=b_alphabet)
        self._store(contexts=tuple(contexts))

    def _store(self, **fields) -> None:
        for name, value in fields.items():
            self.__dict__[name] = _read_only(value) if isinstance(value, Mapping) else value

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
        self._store(pmfs=pmfs)

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


class SupportSpec(Spec):
    """Possibilistic counterpart of `SystemSpec`: per-context supports only."""

    supports: Mapping[Context, frozenset[Pair]]
    _fields = Spec._fields + ("supports",)

    def __init__(self, name, a_alphabet, b_alphabet, supports):
        super().__init__(name, a_alphabet, b_alphabet, supports)
        self._store(supports=supports)


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


def make_system(
    name: str,
    a_alphabet: Mapping[str, Iterable[Outcome]],
    b_alphabet: Mapping[str, Iterable[Outcome]],
    pmfs: Mapping[tuple[str, str], Mapping[Pair, Fraction | int]],
) -> SystemSpec:
    """Build a SystemSpec from plain dicts, coercing probabilities to Fraction."""
    return SystemSpec(
        name=name,
        a_alphabet={x: tuple(al) for x, al in a_alphabet.items()},
        b_alphabet={y: tuple(al) for y, al in b_alphabet.items()},
        pmfs={
            ctx: {pair: Fraction(p) for pair, p in pmf.items()}
            for ctx, pmf in pmfs.items()
        },
    )


def make_support(
    name: str,
    a_alphabet: Mapping[str, Iterable[Outcome]],
    b_alphabet: Mapping[str, Iterable[Outcome]],
    supports: Mapping[tuple[str, str], Iterable[Pair]],
) -> SupportSpec:
    return SupportSpec(
        name=name,
        a_alphabet={x: tuple(al) for x, al in a_alphabet.items()},
        b_alphabet={y: tuple(al) for y, al in b_alphabet.items()},
        supports={ctx: frozenset(pairs) for ctx, pairs in supports.items()},
    )


def validate(spec: Spec) -> list[str]:
    """Return every invariant violation; an empty list means the spec is valid.

    Holds for both kinds of spec: every alphabet is non-empty and
    duplicate-free, contexts use declared settings, and each context's pmf
    or support lies inside its alphabet product.  A pmf holds ints or
    Fractions, non-negative, summing to 1; a support is non-empty.
    """
    violations: list[str] = []
    for side, alphabets in (("A", spec.a_alphabet), ("B", spec.b_alphabet)):
        for s, outcomes in alphabets.items():
            if not outcomes or len(set(outcomes)) != len(outcomes):
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
        allowed = set(spec.pairs(ctx))
        if not allowed.issuperset(table):
            violations += [
                f"context {tuple(ctx)}: pair {pair} outside alphabet product"
                for pair in table
                if pair not in allowed
            ]
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
    mismatch reads the two as Fractions.  A system whose contexts, pmfs and
    alphabets do not fit together raises `ValueError` with what `validate`
    reports.
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
            try:
                sums = dict.fromkeys(alphabets[setting], 0)
                for pair, c in counts[ctx].items():
                    sums[pair[index]] += c
            except KeyError:  # an undeclared setting or a stray outcome
                raise ValueError(f"{system.name}: " + "; ".join(validate(system))) from None
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
    """Drop probabilities, keeping the pairs with probability > 0."""
    return SupportSpec(
        name=system.name,
        a_alphabet=system.a_alphabet,
        b_alphabet=system.b_alphabet,
        supports={
            ctx: frozenset(p for p, v in system.pmfs[ctx].items() if v.numerator > 0)
            for ctx in system.contexts
        },
    )


class AssignmentCount(NamedTuple):
    """Exact assignment count, with a factored base^exponent display when uniform."""

    value: int
    base: int | None = None
    exponent: int | None = None

    def __str__(self) -> str:
        if self.base is not None and self.exponent is not None and self.exponent > 1:
            return f"{self.base}^{self.exponent}"
        return str(self.value)


def count_assignments(system: Spec) -> AssignmentCount:
    """Number of assignments: product over contexts of the alphabet pair counts."""
    sizes = [
        len(system.a_alphabet[ctx.x]) * len(system.b_alphabet[ctx.y])
        for ctx in system.contexts
    ]
    value = 1
    for s in sizes:
        value *= s
    if sizes and len(set(sizes)) == 1:
        return AssignmentCount(value=value, base=sizes[0], exponent=len(sizes))
    return AssignmentCount(value=value)


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
