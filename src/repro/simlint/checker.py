"""The AST walker behind ``repro lint``.

A :class:`ParsedModule` bundles one source file with everything a rule
needs to reason about it: the parse tree, a child-to-parent map (the
:mod:`ast` module only links downwards), the raw source lines and the
inline waivers.  The :class:`Checker` parses each file once, hands the
module to every registered rule, and attaches waivers to the findings
they return.

Waivers are inline comments of the form::

    x = risky()  # simlint: waive[SL401] -- shared fallback, see docstring

A waiver covers the line it sits on and, when written on a line of its
own, the first following line that produces a finding.  The
justification after ``--`` is mandatory: a waiver without a reason does
not suppress anything (and is itself reported as ``SL001``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (project -> checker)
    from repro.simlint.cache import LintCache
    from repro.simlint.project import ModuleSummary

#: Matches waiver comments: ``simlint: waive[SL101, SL202] -- reason``.
_WAIVER_RE = re.compile(
    r"#\s*simlint:\s*waive\[(?P<rules>[A-Z0-9*,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str | None = None

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text report."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Waiver:
    """An inline suppression comment."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str | None
    #: True when the comment is alone on its line and therefore covers
    #: the next finding-producing line below it.
    standalone: bool

    def covers(self, rule_id: str) -> bool:
        """Whether this waiver names ``rule_id`` (or ``*``)."""
        return "*" in self.rule_ids or rule_id in self.rule_ids


@dataclass
class ParsedModule:
    """One source file, parsed and indexed for the rules."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: Sequence[str]
    waivers: tuple[Waiver, ...]
    _parents: dict[int, ast.AST] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "ParsedModule":
        """Read and parse ``path``; ``root`` anchors the reported relpath."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        try:
            relpath = str(path.relative_to(root)) if root is not None else str(path)
        except ValueError:
            relpath = str(path)
        module = cls(
            path=path,
            relpath=relpath.replace("\\", "/"),
            source=source,
            tree=tree,
            lines=source.splitlines(),
            waivers=tuple(_extract_waivers(source)),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                # simlint: waive[SL201] -- keys index live AST nodes the
                # module itself keeps referenced, so ids cannot be reused.
                module._parents[id(child)] = parent
        return module

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        # simlint: waive[SL201] -- lookup key for live AST nodes held by
        # this module; ids are stable while the tree is referenced.
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """The innermost class containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def line_text(self, line: int) -> str:
        """Source text of a 1-based line (empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def waiver_for(self, finding: Finding) -> Waiver | None:
        """The waiver covering ``finding``, if one exists.

        Same-line waivers win; otherwise a standalone waiver comment on
        the closest preceding line applies as long as only blank or
        comment lines separate the two.
        """
        for waiver in self.waivers:
            if waiver.line == finding.line and waiver.covers(finding.rule_id):
                return waiver
        best: Waiver | None = None
        for waiver in self.waivers:
            if not waiver.standalone or not waiver.covers(finding.rule_id):
                continue
            if waiver.line >= finding.line:
                continue
            between = range(waiver.line + 1, finding.line)
            if all(_is_blank_or_comment(self.line_text(n)) for n in between):
                if best is None or waiver.line > best.line:
                    best = waiver
        return best


def _is_blank_or_comment(text: str) -> bool:
    stripped = text.strip()
    return not stripped or stripped.startswith("#")


def _comment_lines(source: str) -> dict[int, str]:
    """1-based line number of every *real* comment token in ``source``.

    Tokenizing (rather than regexing raw lines) keeps waiver examples in
    docstrings — this module's own docstring included — from being
    mistaken for live suppressions; that matters now that SL003 reports
    waivers that suppress nothing.
    """
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return comments


def _extract_waivers(source: str) -> Iterator[Waiver]:
    lines = source.splitlines()
    comments = _comment_lines(source)
    for line_number, comment in sorted(comments.items()):
        match = _WAIVER_RE.search(comment)
        if match is None:
            continue
        text = lines[line_number - 1] if line_number <= len(lines) else comment
        rule_ids = tuple(
            token.strip() for token in match.group("rules").split(",") if token.strip()
        )
        reason = match.group("reason")
        standalone = text.strip().startswith("#")
        if reason is not None and standalone:
            # A standalone waiver's justification may wrap onto following
            # comment lines; fold them into the reason.
            for follower in lines[line_number:]:
                stripped = follower.strip()
                if not stripped.startswith("#") or "simlint:" in stripped:
                    break
                reason = f"{reason} {stripped.lstrip('#').strip()}"
        yield Waiver(
            line=line_number,
            rule_ids=rule_ids,
            reason=reason,
            standalone=standalone,
        )


@dataclass(frozen=True)
class FileResult:
    """The per-file half of a lint run: picklable, hence poolable/cacheable.

    ``findings`` carries the module-rule findings (waivers applied),
    ``summary`` the project-graph contribution (None when the file did
    not parse), ``used_waiver_lines`` the lines of waivers that
    suppressed at least one module-rule finding — the project pass adds
    its own uses before SL003 reports the leftovers as stale.
    """

    relpath: str
    findings: tuple[Finding, ...]
    summary: "ModuleSummary | None"
    used_waiver_lines: tuple[int, ...]


def _relpath_for(path: Path, root: Path | None) -> str:
    try:
        relpath = str(path.relative_to(root)) if root is not None else str(path)
    except ValueError:
        relpath = str(path)
    return relpath.replace("\\", "/")


#: Dotted path of the sweep point that lints one file in a worker.
_LINT_POINT_FN = "repro.simlint.checker:_lint_file_payload"


def _lint_file_payload(path: str, root: str | None) -> FileResult:
    """Sweep point: lint one file with the default rules."""
    return Checker().check_file(
        Path(path), root=Path(root) if root is not None else None
    )


def _lint_in_workers(
    files: Sequence[Path], root: Path | None, jobs: int
) -> list[FileResult]:
    """Lint ``files`` across ``jobs`` supervised workers, in file order."""
    from repro.parallel import SweepPoint, run_sweep

    root_text = str(root) if root is not None else None
    points = [
        SweepPoint(_LINT_POINT_FN, {"path": str(path), "root": root_text})
        for path in files
    ]
    return run_sweep(points, jobs=jobs)


class Checker:
    """Parses files and runs every registered rule over them.

    Module rules run per file (in parallel and through the result cache
    when :meth:`check_paths` is given ``jobs``/``cache``); project rules
    run once afterwards over the :class:`~repro.simlint.project.ProjectGraph`
    joining every file's summary.
    """

    def __init__(self, rules: Sequence[object] | None = None):
        self._default_rules = rules is None
        if rules is None:
            from repro.simlint.rules import all_rules

            rules = all_rules()
        self._module_rules = [rule for rule in rules if hasattr(rule, "check")]
        self._project_rules = [
            rule for rule in rules if hasattr(rule, "check_project")
        ]

    @property
    def rules(self) -> tuple[object, ...]:
        """The rule instances this checker runs."""
        return tuple(
            sorted(
                [*self._module_rules, *self._project_rules],
                key=lambda rule: rule.rule_id,  # type: ignore[attr-defined]
            )
        )

    def check_module(self, module: ParsedModule) -> list[Finding]:
        """Module-rule findings for one parsed module, waivers applied.

        Project rules and SL003 need the whole file set and therefore
        only run from :meth:`check_paths`.
        """
        findings, _ = self._check_module(module)
        return findings

    def _check_module(
        self, module: ParsedModule
    ) -> tuple[list[Finding], set[int]]:
        findings: list[Finding] = []
        used_waiver_lines: set[int] = set()
        for waiver in module.waivers:
            if waiver.reason is None:
                findings.append(
                    Finding(
                        rule_id="SL001",
                        path=module.relpath,
                        line=waiver.line,
                        col=0,
                        message=(
                            "waiver without a justification: write "
                            "'# simlint: waive[SLnnn] -- reason'"
                        ),
                    )
                )
        for rule in self._module_rules:
            for finding in rule.check(module):  # type: ignore[attr-defined]
                waiver = module.waiver_for(finding)
                if waiver is not None and waiver.reason is not None:
                    finding = replace(
                        finding, waived=True, waiver_reason=waiver.reason
                    )
                    used_waiver_lines.add(waiver.line)
                findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings, used_waiver_lines

    def check_file(self, file_path: Path, root: Path | None = None) -> FileResult:
        """Parse and module-rule-check one file into a :class:`FileResult`."""
        from repro.simlint.project import summarize_module

        try:
            module = ParsedModule.parse(file_path, root=root)
        except (SyntaxError, UnicodeDecodeError) as error:
            finding = Finding(
                rule_id="SL002",
                path=_relpath_for(file_path, root),
                line=getattr(error, "lineno", 1) or 1,
                col=0,
                message=f"cannot parse file: {error}",
            )
            return FileResult(
                relpath=finding.path,
                findings=(finding,),
                summary=None,
                used_waiver_lines=(),
            )
        findings, used = self._check_module(module)
        return FileResult(
            relpath=module.relpath,
            findings=tuple(findings),
            summary=summarize_module(module),
            used_waiver_lines=tuple(sorted(used)),
        )

    def check_paths(
        self,
        paths: Iterable[Path],
        root: Path | None = None,
        jobs: int = 1,
        cache: "LintCache | None" = None,
    ) -> list[Finding]:
        """Findings for every ``*.py`` file under ``paths``.

        The per-file pass fans out over ``jobs`` supervised worker
        processes (via :func:`repro.parallel.run_sweep`) and consults ``cache`` (content-hash
        keyed, see :mod:`repro.simlint.cache`) when given; both shortcuts
        require the default rule set, since workers and cache entries
        re-create it by name.  The project pass then joins every file
        summary, runs the project rules, and reports stale waivers
        (SL003) that suppressed nothing anywhere.
        """
        results = self._file_results(
            list(iter_python_files(paths)), root, jobs, cache
        )
        findings = [finding for result in results for finding in result.findings]
        findings.extend(self._project_findings(results))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def _file_results(
        self,
        files: list[Path],
        root: Path | None,
        jobs: int,
        cache: "LintCache | None",
    ) -> list[FileResult]:
        if (jobs > 1 or cache is not None) and not self._default_rules:
            raise ValueError(
                "jobs/cache require the default rule set: pool workers and "
                "cache entries re-create the registered rules by name"
            )
        if cache is None:
            if jobs > 1:
                return _lint_in_workers(files, root, jobs)
            return [self.check_file(path, root=root) for path in files]

        results: dict[int, FileResult] = {}
        misses: list[tuple[int, Path, str]] = []
        for index, path in enumerate(files):
            try:
                content_hash = cache.content_hash(path)
            except OSError:
                content_hash = ""
            cached = cache.get(content_hash) if content_hash else None
            # A file's relpath depends on the lint root, not its content;
            # reject hits recorded under a different root.
            if cached is not None and cached.relpath == _relpath_for(path, root):
                results[index] = cached
            else:
                misses.append((index, path, content_hash))
        if misses:
            if jobs > 1 and len(misses) > 1:
                fresh = _lint_in_workers([path for _, path, _ in misses], root, jobs)
            else:
                fresh = [
                    self.check_file(path, root=root) for _, path, _ in misses
                ]
            for (index, _, content_hash), result in zip(misses, fresh):
                results[index] = result
                if content_hash:
                    cache.put(content_hash, result)
        return [results[index] for index in range(len(files))]

    def _project_findings(self, results: Sequence[FileResult]) -> list[Finding]:
        from repro.simlint.project import ProjectGraph, waiver_for_summary

        summaries = [
            result.summary for result in results if result.summary is not None
        ]
        by_relpath = {summary.relpath: summary for summary in summaries}
        used: dict[str, set[int]] = {
            result.relpath: set(result.used_waiver_lines) for result in results
        }
        graph = ProjectGraph({summary.module: summary for summary in summaries})
        findings: list[Finding] = []
        for rule in self._project_rules:
            for finding in rule.check_project(graph):  # type: ignore[attr-defined]
                summary = by_relpath.get(finding.path)
                if summary is not None:
                    waiver = waiver_for_summary(summary, finding)
                    if waiver is not None and waiver.reason is not None:
                        finding = replace(
                            finding, waived=True, waiver_reason=waiver.reason
                        )
                        used.setdefault(finding.path, set()).add(waiver.line)
                findings.append(finding)
        if self._default_rules:
            findings.extend(self._stale_waivers(summaries, used))
        return findings

    @staticmethod
    def _stale_waivers(
        summaries: Sequence["ModuleSummary"],
        used: dict[str, set[int]],
    ) -> Iterator[Finding]:
        """SL003: justified waivers that suppressed nothing this run.

        Only meaningful under the full rule set — a partial run (tests
        exercising one rule) would otherwise report every other family's
        waivers as stale.
        """
        for summary in summaries:
            used_lines = used.get(summary.relpath, set())
            for waiver in summary.waivers:
                if waiver.reason is None or waiver.line in used_lines:
                    continue
                rules_text = ", ".join(waiver.rule_ids)
                yield Finding(
                    rule_id="SL003",
                    path=summary.relpath,
                    line=waiver.line,
                    col=0,
                    message=(
                        f"stale waiver [{rules_text}]: it suppresses no "
                        "finding in this run; delete it (rules evolve — "
                        "dead waivers hide real regressions)"
                    ),
                )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``*.py`` file under the given files/directories, sorted.

    Sorted traversal keeps reports and baselines stable across
    filesystems (``iterdir`` order is platform-dependent).
    """
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path] | None = None, root: Path | None = None
) -> list[Finding]:
    """Convenience one-shot: lint ``paths`` (default: the repro package)."""
    if paths is None:
        package_root = Path(__file__).resolve().parent.parent
        paths = [package_root]
        root = root if root is not None else package_root.parent
    return Checker().check_paths(paths, root=root)
