"""The JSON system-file format used by the CLI.

Probabilities travel as "num/den" strings, never JSON numbers: the whole
toolkit is exact, and accepting floats would silently break that contract.
Emission is canonical (sorted contexts, lowest-terms rationals, stable key
order), so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .systems import (
    InvalidSystemError,
    SupportSpec,
    SystemSpec,
    make_support,
    make_system,
)

# ASCII digits only, and `\Z`, not `$`, so a trailing newline is rejected.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


class SystemFileError(ValueError):
    pass


def parse_rational(text: Any) -> Fraction:
    if isinstance(text, float) or not isinstance(text, str):
        raise SystemFileError(
            f"probabilities must be 'num/den' strings, got {text!r}"
        )
    if not _RATIONAL_RE.match(text):
        raise SystemFileError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise SystemFileError(f"rational literal too long: {len(text)} characters") from exc


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _require(doc: dict, key: str, kind, what: str):
    if key not in doc:
        raise SystemFileError(f"{what}: missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SystemFileError(f"{what}: {key!r} has wrong type")
    return value


def _alphabet_map(doc: dict, key: str, settings: list[str]) -> dict[str, tuple[str, ...]]:
    raw = _require(doc, key, dict, "system file")
    if not all(isinstance(s, str) for s in settings) or set(raw) != set(settings):
        raise SystemFileError(f"{key} keys do not match the declared settings")
    if len(set(settings)) != len(settings):
        raise SystemFileError(f"{key[0]}_settings declares a setting twice")
    out = {}
    for s, labels in raw.items():
        if not isinstance(labels, list) or not all(
            isinstance(v, str) for v in labels
        ):
            raise SystemFileError(f"{key}[{s!r}] must be a list of strings")
        out[s] = tuple(labels)
    return out


def parse_system_doc(doc: Any) -> SystemSpec | SupportSpec:
    """Parse a system-file document into a SystemSpec or SupportSpec."""
    if not isinstance(doc, dict):
        raise SystemFileError("top level must be a JSON object")
    name = _require(doc, "name", str, "system file")
    a_settings = _require(doc, "a_settings", list, "system file")
    b_settings = _require(doc, "b_settings", list, "system file")
    a_alphabet = _alphabet_map(doc, "a_alphabet", a_settings)
    b_alphabet = _alphabet_map(doc, "b_alphabet", b_settings)
    contexts = _require(doc, "contexts", list, "system file")

    pmfs: dict[tuple[str, str], dict] = {}
    supports: dict[tuple[str, str], list] = {}
    for entry in contexts:
        if not isinstance(entry, dict):
            raise SystemFileError("each context must be an object")
        x = _require(entry, "x", str, "context")
        y = _require(entry, "y", str, "context")
        if (x, y) in pmfs or (x, y) in supports:
            raise SystemFileError(f"duplicate context ({x!r}, {y!r})")
        if "pmf" in entry:
            if "support" in entry:
                raise SystemFileError("a context cannot carry both pmf and support")
            rows = _require(entry, "pmf", list, "context")
            pmf = {}
            for row in rows:
                a, b, p = _pmf_row(row)
                if (a, b) in pmf:
                    raise SystemFileError(f"duplicate pmf entry ({a!r}, {b!r})")
                pmf[(a, b)] = p
            pmfs[(x, y)] = pmf
        elif "support" in entry:
            rows = _require(entry, "support", list, "context")
            supp = []
            for row in rows:
                if (
                    not isinstance(row, list)
                    or len(row) != 2
                    or not all(isinstance(v, str) for v in row)
                ):
                    raise SystemFileError("support entries must be [a, b] pairs")
                supp.append((row[0], row[1]))
            supports[(x, y)] = supp
        else:
            raise SystemFileError(f"context ({x!r}, {y!r}) carries neither pmf nor support")

    if pmfs and supports:
        raise SystemFileError("mixing pmf and support contexts is not allowed")
    try:
        if pmfs:
            return make_system(name, a_alphabet, b_alphabet, pmfs)
        return make_support(name, a_alphabet, b_alphabet, supports)
    except InvalidSystemError as exc:
        raise SystemFileError("; ".join(exc.violations)) from exc


def _pmf_row(row: Any) -> tuple[str, str, Fraction]:
    if not isinstance(row, dict):
        raise SystemFileError("pmf entries must be objects {a, b, p}")
    a = _require(row, "a", str, "pmf entry")
    b = _require(row, "b", str, "pmf entry")
    return a, b, parse_rational(_require(row, "p", object, "pmf entry"))


def system_to_doc(system: SystemSpec | SupportSpec) -> dict:
    """Canonical document form (stable order, lowest-terms rationals)."""
    a_settings = list(system.a_settings)
    b_settings = list(system.b_settings)
    doc: dict = {
        "name": system.name,
        "a_settings": a_settings,
        "b_settings": b_settings,
        "a_alphabet": {x: list(system.a_alphabet[x]) for x in a_settings},
        "b_alphabet": {y: list(system.b_alphabet[y]) for y in b_settings},
        "contexts": [],
    }
    for ctx in system.contexts:
        entry: dict = {"x": ctx.x, "y": ctx.y}
        pair_order = {pair: i for i, pair in enumerate(system.pairs(ctx))}
        if isinstance(system, SystemSpec):
            entry["pmf"] = [
                {"a": a, "b": b, "p": format_rational(p)}
                for (a, b), p in sorted(
                    system.pmfs[ctx].items(), key=lambda kv: pair_order[kv[0]]
                )
                if p != 0
            ]
        else:
            entry["support"] = [
                [a, b]
                for a, b in sorted(system.supports[ctx], key=pair_order.get)
            ]
        doc["contexts"].append(entry)
    return doc


def loads_system(text: str) -> SystemSpec | SupportSpec:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or a number past the digit limit
        raise SystemFileError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SystemFileError("invalid JSON: nested too deeply") from exc
    return parse_system_doc(doc)


def dumps_system(system: SystemSpec | SupportSpec) -> str:
    return json.dumps(system_to_doc(system), indent=2, ensure_ascii=False) + "\n"
