"""Exact representation of bipartite compound systems of random variables.

A system assigns to every context (x, y) -- a pair of measurement settings,
one per side -- a joint probability mass function over the outcome pair
alphabet of that context.  All probabilities are `fractions.Fraction`;
nothing in this module touches floating point.  Fractions stay at the
boundary: a system holds them, and every function takes and returns them.
A spec kind has one builder, its constructor, also named `make_system` or
`make_support`: one walk over the plain data stores it frozen, its contexts
being the keys of its table, in canonical order, or names each piece it
cannot store.  Every setting and outcome label is a string, and every
declared setting is in some context: a system is the random variables of
its contexts, and a setting in none indexes none of them.  A spec that
exists is valid: its constructor runs `validate` on what it stored and
raises `InvalidSystemError` with every violation, so no function taking a
spec checks it again.  A signaling system is a valid spec;
`check_nonsignaling` tells it apart.
Inside, `validate`, `check_nonsignaling` and
`analysis.decomposition_reproduces` read the pmfs as integer counts over
one common denominator, built once per system (`SystemSpec._counts`), so
their sums and comparisons run over ints.  `check_nonsignaling` scans the
counts once, both sides' marginals together, and names the first witness
in canonical order from that scan; `marginal` sums one context the same
way, and gives the witness its two marginals.  A refused spec's messages
quote plain data as `repr` does, but list a set sorted, the same in every
process.  `decomposition_reproduces` compares only the pairs the mixture
hits, which the weights summing to 1 make complete.  The support of a
system is built once the same way as its counts (`SystemSpec.supports`).
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
_RENDER_DEPTH = 100  # how many containers deep `_render` quotes refused data


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
    """Raised on spec data that cannot be stored or that `validate` rejects."""

    def __init__(self, name: str, violations: list[str]):
        name = name if isinstance(name, str) else _render(name)
        super().__init__(f"{name}: " + "; ".join(violations))
        self.violations = violations


def _render(value, _open=()) -> str:
    """`repr` of plain data, but a set's members are listed sorted by their
    own text, which the string hash does not change: refused plain data is
    quoted through it.  Lists, tuples and dicts are read recursively, to
    `_RENDER_DEPTH` containers deep: one deeper, or one holding itself, is
    shown as `[...]`, `(...)` or `{...}`."""
    kind = type(value)
    if kind not in (list, tuple, dict, set, frozenset):
        return repr(value)
    if id(value) in _open or len(_open) == _RENDER_DEPTH:
        return "[...]" if kind is list else "(...)" if kind is tuple else "{...}"
    _open += (id(value),)
    if kind is dict:
        return "{" + ", ".join(f"{_render(k, _open)}: {_render(v, _open)}"
                               for k, v in value.items()) + "}"
    items = [_render(v, _open) for v in value]
    if kind is list:
        return "[" + ", ".join(items) + "]"
    if kind is tuple:
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    if not items:
        return repr(value)
    text = "{" + ", ".join(sorted(items)) + "}"
    return text if kind is set else f"frozenset({text})"


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
    holds its keys, and `a_settings` and `b_settings` each side's settings
    in canonical order (`setting_key`).  Every spec answers `supports`, a read-only
    {context: frozenset of pairs} of the pairs each context allows: a
    `SupportSpec` stores it, a `SystemSpec` reads it off its pmfs.  Building
    a spec checks it.  One walk stores the alphabets and the table, or
    raises `InvalidSystemError` before `validate` runs, naming each piece
    it cannot store: a name, setting or outcome that is no string, an
    alphabet, table or pmf that is no mapping, outcomes or a support that
    is no collection, outcomes given as a set (whose order changes from
    process to process), a table key that is no 2-tuple, a probability
    that is no int or `Fraction`, and a pmf or support pair that is not
    two strings, which nothing hashes before it is checked.
    A spec is immutable: assigning or deleting an attribute raises
    `AttributeError`.  Specs of one type with equal fields are equal.
    """

    name: str
    a_alphabet: Mapping[str, tuple[Outcome, ...]]
    b_alphabet: Mapping[str, tuple[Outcome, ...]]
    a_settings: tuple[str, ...]
    b_settings: tuple[str, ...]
    contexts: tuple[Context, ...]
    _fields = ("name", "a_alphabet", "b_alphabet", "contexts")

    def __init__(self, name, a_alphabet, b_alphabet, table):
        fields = self.__dict__  # past the spec's own `__setattr__`
        fields["name"] = name
        unstored = [] if isinstance(name, str) else [f"name {_render(name)} is not a string"]
        for side, alphabets in (("A", a_alphabet), ("B", b_alphabet)):
            try:
                items = alphabets.items()
            except AttributeError:
                unstored.append(
                    f"{side}-alphabet {_render(alphabets)} is not a mapping from settings "
                    "to outcomes"
                )
                continue
            stored = {}
            for s, outcomes in items:
                if not isinstance(s, str):
                    unstored.append(f"{side}-setting {_render(s)} is not a string")
                # The order of outcomes carries meaning (the LP drops each
                # setting's last outcome, and `chsh` codes the first as -1),
                # and a set's order changes with the string hash.
                if isinstance(outcomes, (set, frozenset)):
                    unstored.append(
                        f"{side}-setting {_render(s)}: alphabet is a set, which has no "
                        "outcome order"
                    )
                    continue
                try:
                    stored[s] = outcomes = tuple(outcomes)
                except TypeError:
                    unstored.append(
                        f"{side}-setting {_render(s)}: alphabet {_render(outcomes)} is not "
                        "a collection of outcomes"
                    )
                    continue
                unstored += [
                    f"{side}-setting {_render(s)}: outcome {_render(o)} is not a string"
                    for o in outcomes
                    if not isinstance(o, str)
                ]
            fields[f"{side.lower()}_alphabet"] = MappingProxyType(stored)
        try:
            items = table.items()
        except AttributeError:
            unstored.append(
                f"table {_render(table)} is not a mapping from contexts to {self._fields[-1]}"
            )
            items = ()
        given = {}
        for key, value in items:
            if not (isinstance(key, tuple) and len(key) == 2):
                unstored.append(f"table key {_render(key)} is not an (A-setting, B-setting) pair")
            elif all(isinstance(s, str) for s in key):
                given[Context._make(key)] = value
            else:
                unstored += [
                    f"table key {_render(key)}: {side}-setting {_render(s)} is not a string"
                    for side, s in zip("AB", key) if not isinstance(s, str)
                ]
        contexts = tuple(sorted(given, key=context_key))
        frozen = {}
        for ctx in contexts:
            frozen[ctx], problems = self._freeze(given[ctx])
            unstored += [f"context {tuple(ctx)}: {problem}" for problem in problems]
        if unstored:
            raise InvalidSystemError(name, unstored)
        fields["a_settings"] = tuple(sorted(self.a_alphabet, key=setting_key))
        fields["b_settings"] = tuple(sorted(self.b_alphabet, key=setting_key))
        fields["contexts"] = contexts
        # A subclass's last field names its table: `pmfs` or `supports`.
        fields[self._fields[-1]] = MappingProxyType(frozen)
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

    def pairs(self, ctx: Context) -> list[Pair]:
        return list(product(self.a_alphabet[ctx.x], self.b_alphabet[ctx.y]))


class SystemSpec(Spec):
    """A compound system: contexts with exact joint pmfs."""

    pmfs: Mapping[Context, Mapping[Pair, Fraction]]
    _fields = Spec._fields + ("pmfs",)

    def __init__(self, name, a_alphabet, b_alphabet, pmfs):
        super().__init__(name, a_alphabet, b_alphabet, pmfs)

    @staticmethod
    def _freeze(pmf) -> tuple[Mapping[Pair, Fraction] | None, list[str]]:
        # The pmf read-only, its ints made `Fraction`s, and what cannot be stored.
        try:
            items = pmf.items()
        except AttributeError:
            return None, [f"pmf {_render(pmf)} is not a mapping from pairs to probabilities"]
        frozen, outside, problems = {}, [], []
        for pair, p in items:
            if isinstance(p, int):
                p = Fraction(p)
            elif not isinstance(p, Fraction):
                problems.append(
                    f"probability {_render(p)} at {_render(pair)} is not an int or Fraction"
                )
            if _is_pair(pair):
                frozen[pair] = p
            else:
                outside.append(_outside(pair))
        return MappingProxyType(frozen), sorted(outside) + problems

    @cached_property
    def _counts(self) -> tuple[int, dict[Context, dict[Pair, int]]]:
        """The pmfs as integer counts over D, the lcm of every denominator:
        (D, {context: {pair: probability * D}}), for every context.
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

    @property
    def _counts(self):  # where every function reading probabilities reads them
        raise TypeError(f"{self.name!r} is a SupportSpec: it has no probabilities")

    @staticmethod
    def _freeze(pairs) -> tuple[frozenset[Pair] | None, list[str]]:
        # The pairs are hashed only once each is two strings.  They may come
        # from a set, whose order changes: those that are not are listed sorted.
        try:
            pairs = tuple(pairs)
        except TypeError:
            return None, [f"support {_render(pairs)} is not a collection of pairs"]
        if all(map(_is_pair, pairs)):
            return frozenset(pairs), []
        return None, sorted(_outside(pair) for pair in pairs if not _is_pair(pair))


def _is_pair(value) -> bool:
    """Whether a table pair can be stored: a 2-tuple of two strings.  Any
    other value lies outside every alphabet product, and is not hashed."""
    return (isinstance(value, tuple) and len(value) == 2
            and isinstance(value[0], str) and isinstance(value[1], str))


def _outside(pair) -> str:
    return f"pair {_render(pair)} outside alphabet product"


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

    It reads the stored, well-typed values of either kind of spec: every
    alphabet is non-empty and duplicate-free, there is a context, contexts
    use declared settings, every declared setting is in a context, and
    each context's pmf or support lies inside its alphabet product.  A
    support is non-empty; a pmf's probabilities are non-negative and sum
    to 1.  Every spec constructor runs it and refuses a spec it rejects, so
    on a built spec it returns [].
    """
    violations: list[str] = []
    a_sets: dict[str, set[Outcome]] = {}
    b_sets: dict[str, set[Outcome]] = {}
    for side, alphabets, sets in (("A", spec.a_alphabet, a_sets), ("B", spec.b_alphabet, b_sets)):
        for s, outcomes in alphabets.items():
            sets[s] = outcome_set = set(outcomes)
            if not outcomes or len(outcome_set) != len(outcomes):
                violations.append(
                    f"{side}-setting {_render(s)}: alphabet must be non-empty and duplicate-free"
                )
    if not spec.contexts:
        violations.append("no contexts")
    probabilistic = isinstance(spec, SystemSpec)
    tables = spec.pmfs if probabilistic else spec.supports
    if probabilistic:
        scale, counts = spec._counts
    a_unused, b_unused = set(a_sets), set(b_sets)  # settings no context holds
    for ctx in spec.contexts:
        a_unused.discard(ctx.x)
        b_unused.discard(ctx.y)
        if ctx.x not in spec.a_alphabet:
            violations.append(f"context {tuple(ctx)}: unknown A-setting {_render(ctx.x)}")
            continue
        if ctx.y not in spec.b_alphabet:
            violations.append(f"context {tuple(ctx)}: unknown B-setting {_render(ctx.y)}")
            continue
        table = tables[ctx]
        # Every stored pair is two strings.  A support iterates in
        # string-hash order, which changes from process to process: the
        # pairs outside the product are listed sorted.
        a_set, b_set = a_sets[ctx.x], b_sets[ctx.y]
        outside = []
        for pair in table:
            if not (pair[0] in a_set and pair[1] in b_set):
                outside.append(pair)
        if outside:
            violations += sorted(f"context {tuple(ctx)}: {_outside(pair)}" for pair in outside)
        if not probabilistic:
            if not table:
                violations.append(f"context {tuple(ctx)}: empty support")
            continue
        for pair, c in counts[ctx].items():
            if c < 0:
                violations.append(
                    f"context {tuple(ctx)}: negative probability {table[pair]} at {pair}"
                )
        total = sum(counts[ctx].values())
        if total != scale:
            total = Fraction(total, scale)
            violations.append(f"context {tuple(ctx)}: sum {total} != 1")
    for side, unused in (("A", a_unused), ("B", b_unused)):
        for s in sorted(unused, key=setting_key):
            violations.append(f"{side}-setting {_render(s)} is in no context")
    return violations


def marginal(system: SystemSpec, context: Context, side: str) -> dict[Outcome, Fraction]:
    """Exact one-sided marginal of the context's joint pmf, keyed by the
    side's alphabet in its order; an unknown context raises KeyError."""
    x, y = context = Context(*context)
    scale, counts = system._counts
    sums = _marginal_counts(system.a_alphabet[x], system.b_alphabet[y], counts[context])
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return {o: Fraction(c, scale) for o, c in sums[side == "B"].items()}


def _marginal_counts(a_outcomes, b_outcomes, pmf):
    """Both one-sided marginals of one context's counts, in alphabet order."""
    a_sums, b_sums = dict.fromkeys(a_outcomes, 0), dict.fromkeys(b_outcomes, 0)
    for (a, b), c in pmf.items():
        a_sums[a] += c
        b_sums[b] += c
    return a_sums, b_sums


def check_nonsignaling(system: SystemSpec) -> SignalingWitness | None:
    """None if every shared setting has context-independent marginals.

    Otherwise the first witness in canonical order: A-side settings before
    B-side, settings and contexts in canonical label order.  One scan of
    the integer counts, in the stored (canonical) order, compares each
    context's marginals with those of the first context holding its
    setting.  A's first mismatch is the witness at once; else the least
    B-setting's first mismatch is, and only its marginals are `Fraction`s.
    """
    _, counts = system._counts
    a_alphabet, b_alphabet = system.a_alphabet, system.b_alphabet
    ref_x = None  # the stored order holds each A-setting's contexts together
    first_b, b_found = {}, {}  # each B-setting's first (context, sums), first mismatch
    for ctx, pmf in counts.items():
        x, y = ctx
        a_sums, b_sums = _marginal_counts(a_alphabet[x], b_alphabet[y], pmf)
        if x != ref_x:
            ref_x, ref_ctx, ref_sums = x, ctx, a_sums
        elif a_sums != ref_sums:
            found = ("A", x, ref_ctx, ctx)
            break
        first = first_b.get(y)
        if first is None:
            first_b[y] = ctx, b_sums
        elif first[1] != b_sums:
            b_found.setdefault(y, ("B", y, first[0], ctx))
    else:
        if not b_found:
            return None
        found = b_found[min(b_found, key=setting_key)]
    side, _, ctx1, ctx2 = found
    return SignalingWitness(*found, marginal(system, ctx1, side), marginal(system, ctx2, side))


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


def mix_context_dependent(
    rule: Mapping[Context, list[tuple[SystemSpec, Fraction]]],
    name: str = "context-dependent mixture",
) -> SystemSpec:
    """Mixture whose component weights may differ per context.

    Each context's pmf is the convex combination prescribed for that
    context; the result need not be non-signaling even when every
    component is.
    """
    base = next((components[0][0] for components in rule.values() if components), None)
    if base is None:
        raise ValueError("empty rule")
    pmfs: dict[Context, dict[Pair, Fraction]] = {}
    for ctx, components in rule.items():
        if ctx not in base.pmfs:
            raise ValueError(f"context {tuple(ctx)} is not a context of {base.name!r}")
        total = ZERO
        acc: dict[Pair, Fraction] = {}
        for sys_i, w in components:
            _check_same_shape(base, sys_i)
            if not isinstance(w, (int, Fraction)):
                raise ValueError(f"weight {_render(w)} at context {tuple(ctx)} "
                                 "is not an int or Fraction")
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
