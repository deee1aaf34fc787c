"""Docstring-coverage linting for the ``repro`` package.

Every *public* module-level function, class and method in the package is
expected to carry a docstring — the codebase doubles as the paper
reproduction's documentation, so an undocumented public name is a
defect, not a style nit. This module walks the source tree with
:mod:`ast` (no imports, no side effects), reports every public
definition without a docstring, and supports an allowlist file for the
gaps that are known and accepted.

Allowlist format: one ``path:qualname`` entry per line, ``#`` comments
and blank lines ignored, paths relative to the scanned root with ``/``
separators, e.g.::

    beagle/kernels.py:operation_flops
    exec/pool.py:LikelihoodPool.submit

Entries that no longer match anything are reported as *stale* so the
allowlist can only shrink. The CLI front end is
``python -m repro.analysis --docstrings`` (wired into CI).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Union

__all__ = [
    "MissingDocstring",
    "DocstringReport",
    "scan_source",
    "scan_file",
    "scan_package",
    "load_allowlist",
    "check_package",
]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class MissingDocstring:
    """One public definition that lacks a docstring."""

    path: str
    lineno: int
    qualname: str
    kind: str

    @property
    def key(self) -> str:
        """The allowlist entry that would suppress this finding."""
        return f"{self.path}:{self.qualname}"

    def format(self) -> str:
        """One grep-able line: ``path:lineno: kind qualname``."""
        return f"{self.path}:{self.lineno}: undocumented {self.kind} {self.qualname}"


@dataclass
class DocstringReport:
    """Outcome of a package scan.

    ``missing`` holds findings not covered by the allowlist;
    ``suppressed`` the allowlisted ones; ``stale_entries`` allowlist
    lines that matched nothing (these also fail the gate, so the
    allowlist can only shrink as gaps are burned down).
    """

    total_public: int = 0
    documented: int = 0
    missing: List[MissingDocstring] = field(default_factory=list)
    suppressed: List[MissingDocstring] = field(default_factory=list)
    stale_entries: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Documented fraction of public definitions (1.0 when empty)."""
        if not self.total_public:
            return 1.0
        return self.documented / self.total_public

    @property
    def ok(self) -> bool:
        """Gate verdict: no unsuppressed gaps and no stale allowlist."""
        return not self.missing and not self.stale_entries

    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"docstrings: {self.documented}/{self.total_public} public "
            f"definitions documented ({self.coverage:.1%}), "
            f"{len(self.suppressed)} allowlisted"
        ]
        lines += [m.format() for m in self.missing]
        lines += [
            f"stale allowlist entry (matches nothing): {entry}"
            for entry in self.stale_entries
        ]
        return "\n".join(lines)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _has_docstring(node: ast.AST) -> bool:
    return ast.get_docstring(node, clean=False) is not None


def _walk_definitions(
    body: Sequence[ast.stmt], prefix: str, findings: List[MissingDocstring],
    counts: List[int], rel_path: str,
) -> None:
    """Recurse over public defs in ``body``, collecting undocumented ones.

    Nested functions (defs inside function bodies) are implementation
    detail and are not considered public API; class bodies recurse so
    methods of public classes are checked.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_public(node.name):
                continue
            qualname = f"{prefix}{node.name}"
            counts[0] += 1
            if _has_docstring(node):
                counts[1] += 1
            else:
                kind = "method" if prefix else "function"
                findings.append(
                    MissingDocstring(rel_path, node.lineno, qualname, kind)
                )
        elif isinstance(node, ast.ClassDef):
            if not _is_public(node.name):
                continue
            qualname = f"{prefix}{node.name}"
            counts[0] += 1
            if _has_docstring(node):
                counts[1] += 1
            else:
                findings.append(
                    MissingDocstring(rel_path, node.lineno, qualname, "class")
                )
            _walk_definitions(
                node.body, f"{qualname}.", findings, counts, rel_path
            )


def scan_source(
    source: str, rel_path: str
) -> tuple:
    """Scan one module's source text.

    Returns ``(findings, total_public, documented)``; raises
    :class:`SyntaxError` on unparseable source.
    """
    tree = ast.parse(source, filename=rel_path)
    findings: List[MissingDocstring] = []
    counts = [0, 0]  # [total_public, documented]
    _walk_definitions(tree.body, "", findings, counts, rel_path)
    return findings, counts[0], counts[1]


def scan_file(path: PathLike, root: PathLike) -> tuple:
    """Scan one file; the finding paths are relative to ``root``."""
    path = Path(path)
    rel = path.relative_to(root).as_posix()
    return scan_source(path.read_text(), rel)


def scan_package(root: PathLike) -> DocstringReport:
    """Scan every ``.py`` file under ``root`` (no allowlist applied)."""
    root = Path(root)
    report = DocstringReport()
    for path in sorted(root.rglob("*.py")):
        findings, total, documented = scan_file(path, root)
        report.total_public += total
        report.documented += documented
        report.missing.extend(findings)
    return report


def load_allowlist(path: PathLike) -> Set[str]:
    """Read an allowlist file into a set of ``path:qualname`` keys."""
    entries: Set[str] = set()
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            entries.add(stripped)
    return entries


def check_package(
    root: PathLike, allowlist_path: Optional[PathLike] = None
) -> DocstringReport:
    """Scan ``root`` and apply the allowlist — the CI gate entry point.

    A finding whose ``path:qualname`` key appears in the allowlist moves
    from ``missing`` to ``suppressed``; allowlist entries matching no
    finding are flagged stale. ``report.ok`` is the gate verdict.
    """
    report = scan_package(root)
    allowlist: Set[str] = set()
    if allowlist_path is not None and Path(allowlist_path).exists():
        allowlist = load_allowlist(allowlist_path)
    still_missing: List[MissingDocstring] = []
    used: Set[str] = set()
    for finding in report.missing:
        if finding.key in allowlist:
            report.suppressed.append(finding)
            used.add(finding.key)
        else:
            still_missing.append(finding)
    report.missing = still_missing
    report.stale_entries = sorted(allowlist - used)
    return report
