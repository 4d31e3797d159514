"""Orchestration: walk source trees, run lint rules and built-in self-checks.

:func:`run_lint` is what ``repro lint`` calls: it lints every ``.py``
file under the given paths with the AST rules of
:mod:`repro.analysis.rules`, every ``.json`` spec artifact with the
``SPEC0xx`` checker of :mod:`repro.specs.checker`, and, unless disabled,
runs the *self-check* — the hardware-spec validator over every shipped
device spec and the IR verifier over the shipped static application
specs and feature tables. The self-check is what makes ``repro lint`` a
verification gate for the static layer rather than a style checker.

``--select`` accepts exact rule ids (``SPEC003``) and whole families by
alphabetic prefix (``SPEC``, ``HW``); both are validated against
:data:`KNOWN_RULE_IDS` so a typo reports an error instead of silently
linting nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, filter_diagnostics
from repro.analysis.rules import RULE_REGISTRY, lint_source

__all__ = [
    "KNOWN_RULE_IDS",
    "KNOWN_RULE_FAMILIES",
    "expand_select",
    "iter_lint_targets",
    "lint_file",
    "lint_paths",
    "self_check",
    "run_lint",
]

#: Every rule id any analyzer can emit; ``--select`` is validated against it.
KNOWN_RULE_IDS = frozenset(RULE_REGISTRY) | {
    "SYN001",
    "IO001",
    "IR001",
    "IR002",
    "IR003",
    "IR004",
    "IR005",
    "HW001",
    "HW002",
    "HW003",
    "HW004",
    "HW005",
    "SPEC001",
    "SPEC002",
    "SPEC003",
    "SPEC004",
    "SPEC005",
}


def _family(rule_id: str) -> str:
    """Alphabetic prefix of a rule id (``SPEC003`` -> ``SPEC``)."""
    alpha = []
    for ch in rule_id:
        if not ch.isalpha():
            break
        alpha.append(ch)
    return "".join(alpha)


#: Rule-family prefixes ``--select`` accepts (``SPEC`` selects SPEC001-005).
KNOWN_RULE_FAMILIES = frozenset(_family(r) for r in KNOWN_RULE_IDS)


def expand_select(
    select: Optional[Sequence[str]],
) -> Optional[frozenset]:
    """Normalize ``--select`` tokens into a set of exact rule ids.

    Each token is either an exact id or a family prefix (all-letter
    token such as ``SPEC``); family tokens expand to every known id in
    that family. Unknown tokens raise :class:`ValueError` — a typo'd id
    would otherwise silently report a clean tree.
    """
    if select is None:
        return None
    expanded = set()
    unknown = []
    for raw in select:
        token = raw.strip().upper()
        if not token:
            continue
        if token in KNOWN_RULE_IDS:
            expanded.add(token)
        elif token in KNOWN_RULE_FAMILIES:
            expanded.update(r for r in KNOWN_RULE_IDS if _family(r) == token)
        else:
            unknown.append(token)
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(sorted(set(unknown)))}; "
            f"known: {', '.join(sorted(KNOWN_RULE_IDS))} "
            f"(families: {', '.join(sorted(KNOWN_RULE_FAMILIES))})"
        )
    return frozenset(expanded)


def iter_lint_targets(
    paths: Iterable[str], suffixes: Tuple[str, ...] = (".py", ".json")
) -> List[Tuple[Path, bool]]:
    """Expand files/directories into sorted ``(path, explicit)`` lint targets.

    ``explicit`` marks files the caller named directly (as opposed to
    found while walking a directory); the JSON checker is strict about
    explicit files but silently skips unrecognized JSON met on a walk.
    """
    seen = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = [
                (c, False)
                for suffix in suffixes
                for c in sorted(p.rglob(f"*{suffix}"))
            ]
        else:
            candidates = [(p, True)]
        for c, explicit in candidates:
            key = os.path.normpath(str(c))
            seen[key] = (c, explicit or seen.get(key, (c, False))[1])
    return [seen[k] for k in sorted(seen)]


def lint_file(
    path: Path,
    select: Optional[Sequence[str]] = None,
    explicit: bool = True,
) -> List[Diagnostic]:
    """Lint one file; unreadable files yield an ``IO001`` error diagnostic.

    Dispatches on suffix: ``.json`` goes to the SPEC0xx spec checker,
    everything else is linted as Python source.
    """
    if path.suffix.lower() == ".json":
        from repro.specs.checker import check_json_file

        return filter_diagnostics(check_json_file(path, explicit=explicit), select)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Diagnostic(
                rule="IO001",
                severity=Severity.ERROR,
                message=f"cannot read file: {exc}",
                file=str(path).replace("\\", "/"),
            )
        ]
    return lint_source(source, str(path), select=select)


def lint_paths(
    paths: Iterable[str], select: Optional[Sequence[str]] = None
) -> List[Diagnostic]:
    """Lint every Python file and JSON spec under ``paths``."""
    diags: List[Diagnostic] = []
    for path, explicit in iter_lint_targets(paths):
        diags.extend(lint_file(path, select=select, explicit=explicit))
    return diags


def self_check() -> List[Diagnostic]:
    """Verify the shipped static layer: device specs, static specs, tables.

    Imports lazily so that ``repro lint`` on arbitrary trees does not pay
    for (or depend on) the simulator stack until the self-check runs.
    """
    from repro.analysis.hw_validator import verify_device_spec
    from repro.analysis.ir_verifier import verify_feature_tables, verify_spec
    from repro.hw.specs import (
        make_a100_spec,
        make_h100_spec,
        make_intel_max_spec,
        make_mi100_spec,
        make_mi250_spec,
        make_v100_spec,
    )
    from repro.modeling.general import cronos_static_spec, ligen_static_spec

    diags = verify_feature_tables()
    for factory in (
        make_v100_spec,
        make_mi100_spec,
        make_intel_max_spec,
        make_a100_spec,
        make_h100_spec,
        make_mi250_spec,
    ):
        diags.extend(verify_device_spec(factory()))
    for spec_factory in (cronos_static_spec, ligen_static_spec):
        diags.extend(verify_spec(spec_factory()))
    return diags


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    with_self_check: bool = True,
) -> List[Diagnostic]:
    """Full ``repro lint`` pipeline: AST rules + spec checks + self-check.

    Returns diagnostics sorted for stable output; ``select`` filters every
    source of diagnostics, including the self-check, and accepts family
    prefixes (see :func:`expand_select`).
    """
    selected = expand_select(select)
    diags = lint_paths(paths, select=selected)
    if with_self_check:
        diags.extend(filter_diagnostics(self_check(), selected))
    diags.sort(key=lambda d: (d.file, d.line, d.col, d.rule))
    return diags
