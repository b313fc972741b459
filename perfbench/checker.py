"""Independent checks of verdicts and certificates.

Nothing here imports the library: inputs and outputs arrive as plain data
(see ``gen``), so a defect in the library's own ``verify`` cannot hide a
defect in what it returns.  Each check returns ``None`` when the output holds
and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

FAIL_KINDS = (
    "wrong_verdict",
    "bad_decomposition",
    "bad_witness",
    "bad_exit_or_stdout",
    "unexpected_error",
)


class Problem(NamedTuple):
    """One failed check of one operation.

    ``known_defect`` marks a ``bad_witness`` that the library's documented
    witness-scope defect (ROADMAP item 1) explains: the bound was taken over
    the support-restricted realizations only, so every (f, g) that beats it
    reads a zero-probability pair.  It is still a failure; it only does not
    make the run incorrect.
    """

    kind: str
    reason: str
    known_defect: bool = False


class Tally:
    """Attempted operations and failures by kind, with the first reasons.

    An operation is one input: a timed loop runs an input as often as the
    run's length allows, and every run of it is checked, but it counts once.
    It has failed if any of its runs failed, with every kind any run showed.
    So ``attempted`` and ``failed`` depend on the inputs, that is on the
    seed, and not on how many repetitions fit into the run.
    """

    def __init__(self):
        self.problems: dict = {}  # input key -> kinds of its failures
        self.unexplained = 0  # problems the known defect does not explain
        self.examples: list[str] = []

    def record(self, problems: list[Problem], key=None) -> None:
        """Count one run of input ``key`` (a fresh input if None)."""
        if key is None:
            key = ("input", len(self.problems))
        kinds = self.problems.setdefault(key, set())
        for problem in problems:
            if problem.kind not in FAIL_KINDS:
                raise ValueError(f"unknown failure kind {problem.kind!r}")
            kinds.add(problem.kind)
            self.unexplained += not problem.known_defect
            if len(self.examples) < 5:
                self.examples.append(f"{problem.kind}: {problem.reason}")

    def merge(self, other: "Tally") -> None:
        for key, kinds in other.problems.items():
            self.problems.setdefault(key, set()).update(kinds)
        self.unexplained += other.unexplained
        self.examples.extend(other.examples[: 5 - len(self.examples)])

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for kinds in self.problems.values() if kinds)

    def counts(self) -> dict:
        """Failed inputs per kind."""
        found = Counter(kind for kinds in self.problems.values() for kind in kinds)
        return {kind: found[kind] for kind in FAIL_KINDS}

    @property
    def correct(self) -> bool:
        """Something was checked, and every failure is the known defect."""
        return self.attempted > 0 and self.unexplained == 0


def nonsignaling(a_alph, b_alph, pmfs) -> bool:
    """Every one-sided marginal is the same in every context that shares it."""
    def marginal(x, y, side):
        out = Counter()
        for (a, b), p in pmfs[(x, y)].items():
            out[a if side == 0 else b] += p
        return {o: p for o, p in out.items() if p}

    for x in a_alph:
        if len({tuple(sorted(marginal(x, y, 0).items())) for y in b_alph}) > 1:
            return False
    for y in b_alph:
        if len({tuple(sorted(marginal(x, y, 1).items())) for x in a_alph}) > 1:
            return False
    return True


def chsh_local(pmfs) -> bool:
    """Fine's criterion for a non-signaling 2x2 binary system.

    Local iff all four odd-sign CHSH sums of correlators are at most 2 in
    absolute value; outcomes are coded by their position in "0", "1".
    """
    corr = {}
    for x in ("1", "2"):
        for y in ("1", "2"):
            corr[(x, y)] = sum(
                (p if a == b else -p) for (a, b), p in pmfs[(x, y)].items()
            )
    contexts = list(corr)
    for odd in contexts:
        s = sum((-corr[c] if c == odd else corr[c]) for c in contexts)
        if abs(s) > 2:
            return False
    return True


def expected_2x2(a_alph, b_alph, pmfs) -> str:
    """The verdict of a 2x2 binary system, from marginals and CHSH alone."""
    if not nonsignaling(a_alph, b_alph, pmfs):
        return "signaling"
    return "noncontextual" if chsh_local(pmfs) else "contextual"


def chained_score(pmfs, k: int) -> Fraction:
    """Sum over contexts (x, y) in {1, 2}^2 of P(b - a = c(x, y) mod k).

    c is 1 on context (1, 2) and 0 elsewhere.  The four conditions sum to a
    contradiction mod k, so every deterministic strategy meets at most
    three and every local mixture scores at most 3.
    """
    total = Fraction(0)
    for x in ("1", "2"):
        for y in ("1", "2"):
            shift = 1 if (x, y) == ("1", "2") else 0
            total += sum(
                p for (a, b), p in pmfs[(x, y)].items()
                if (int(b) - int(a) - shift) % k == 0
            )
    return total


def check_verdict(expected: str, got: str) -> str | None:
    if expected != got:
        return f"expected {expected}, got {got}"
    return None


def check_decomposition(a_alph, b_alph, pmfs, components) -> str | None:
    """``components`` is ``[(weight, values)]`` with ``values = {(x, y): (a, b)}``.

    The weights must be positive and sum to 1, each realization must read
    one outcome per setting on each side, and the weighted realizations
    must reproduce every probability, zero ones included.
    """
    if not components:
        return "empty decomposition"
    if any(w <= 0 for w, _ in components):
        return "nonpositive weight"
    if sum(w for w, _ in components) != 1:
        return "weights do not sum to 1"
    mixed = Counter()
    for w, values in components:
        if set(values) != set(pmfs):
            return "realization does not cover the contexts"
        f, g = {}, {}
        for (x, y), (a, b) in values.items():
            if a not in a_alph[x] or b not in b_alph[y]:
                return f"outcome outside the alphabet at {(x, y)}"
            if f.setdefault(x, a) != a or g.setdefault(y, b) != b:
                return "signaling realization"
            mixed[(x, y, a, b)] += w
    for (x, y), pmf in pmfs.items():
        for a in a_alph[x]:
            for b in b_alph[y]:
                if mixed[(x, y, a, b)] != pmf.get((a, b), 0):
                    return f"mixture differs at {(x, y, a, b)}"
    return None


def strategies(a_alph, b_alph):
    """Every alphabet-wide deterministic strategy (f, g)."""
    xs, ys = list(a_alph), list(b_alph)
    for fa in itertools.product(*(a_alph[x] for x in xs)):
        f = dict(zip(xs, fa))
        for gb in itertools.product(*(b_alph[y] for y in ys)):
            yield f, dict(zip(ys, gb))


def in_support(pmfs, f, g) -> bool:
    """Whether (f, g) reads a positive-probability pair in every context."""
    return all(pmf.get((f[x], g[y]), 0) > 0 for (x, y), pmf in pmfs.items())


def check_witness(a_alph, b_alph, pmfs, coefficients, bound) -> Problem | None:
    """The documented witness contract, by brute force.

    ``coefficients`` maps ``(x, y, a, b)`` to a rational.  Every
    alphabet-wide non-signaling realization, i.e. every (f, g), scores at
    most ``bound``, and the system scores strictly above it.  A breach is
    the known defect only if the system beats the bound, some (f, g) lies
    inside the support, and every (f, g) above the bound lies outside it.
    """
    system_score = sum(
        (c * pmfs[(x, y)].get((a, b), 0) for (x, y, a, b), c in coefficients.items()),
        Fraction(0),
    )
    if not system_score > bound:
        return Problem("bad_witness", f"system scores {system_score}, not above bound {bound}")
    by_context = {}
    for (x, y, a, b), c in coefficients.items():
        by_context.setdefault((x, y), {})[(a, b)] = c
    first = None
    any_in_support = False
    for f, g in strategies(a_alph, b_alph):
        inside = in_support(pmfs, f, g)
        any_in_support |= inside
        score = sum(
            (terms.get((f[x], g[y]), 0) for (x, y), terms in by_context.items()),
            Fraction(0),
        )
        if score > bound:
            reason = (f"strategy {tuple(f.values())}/{tuple(g.values())} scores "
                      f"{score} above bound {bound}")
            if inside:
                return Problem("bad_witness", reason + ", inside the support")
            first = first or reason + ", outside the support"
    if first is None:
        return None
    return Problem("bad_witness", first, known_defect=any_in_support)


def check_classification(case, verdict: str, components=None, witness=None) -> list[Problem]:
    """All failures of one classification.

    ``witness`` is ``(coefficients, bound)`` as in ``check_witness``.
    """
    problems = []
    reason = check_verdict(case.expected, verdict)
    if reason:
        problems.append(Problem("wrong_verdict", f"{case.name}: {reason}"))
    if verdict == "noncontextual":
        reason = check_decomposition(case.a_alph, case.b_alph, case.pmfs, components)
        if reason:
            problems.append(Problem("bad_decomposition", f"{case.name}: {reason}"))
    elif verdict == "contextual":
        if witness is None:
            problems.append(Problem("bad_witness", f"{case.name}: no witness"))
        else:
            problem = check_witness(case.a_alph, case.b_alph, case.pmfs, *witness)
            if problem:
                problems.append(problem._replace(reason=f"{case.name}: {problem.reason}"))
    return problems
