"""File discovery, pragma filtering and reporting for reprolint.

Suppression is line-scoped: a finding on line *n* is suppressed when line *n*
carries ``# reprolint: ok(CODE)`` (several codes comma-separated; free-text
justification after the closing paren is encouraged and ignored by the
parser).  ``# reprolint: skip-file`` in the first ten lines skips the module.

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, TextIO, Tuple

from tools.reprolint.config import Config, load_config
from tools.reprolint.rules import RULE_CODES, check_module, rule_summaries

_PRAGMA = re.compile(r"#\s*reprolint:\s*ok\(\s*([A-Za-z0-9_,\s]+?)\s*\)")
_SKIP_FILE = re.compile(r"#\s*reprolint:\s*skip-file")

#: IMP001 applies to the library every ``repro`` process imports; tests,
#: tools and benchmarks import SciPy freely.
_IMPORT_RULE_ROOT = "src/"


@dataclass(frozen=True)
class Finding:
    """One rule violation, located and pragma-resolved."""

    path: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}{tag}"


def _pragma_lines(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rule codes OK'd on that line."""
    pragmas: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match:
            codes = {code.strip().upper() for code in match.group(1).split(",")}
            pragmas[number] = {code for code in codes if code}
    return pragmas


def _unknown_pragma_codes(pragmas: Dict[int, Set[str]]) -> List[Tuple[int, str]]:
    known = set(RULE_CODES)
    return sorted(
        (line, code)
        for line, codes in pragmas.items()
        for code in codes
        if code not in known
    )


def lint_file(
    path: str, config: Config, *, relpath: Optional[str] = None
) -> List[Finding]:
    """Lint one file; raises SyntaxError for unparseable sources."""
    rel = relpath if relpath is not None else os.path.relpath(path)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    head = "\n".join(source.splitlines()[:10])
    if _SKIP_FILE.search(head):
        return []
    tree = ast.parse(source, filename=path)
    pragmas = _pragma_lines(source)
    findings: List[Finding] = []
    for line, code in _unknown_pragma_codes(pragmas):
        findings.append(
            Finding(rel, line, 0, "RLERR", f"pragma names unknown rule {code!r}", False)
        )
    for raw in check_module(
        tree,
        config,
        float_rule_active=config.float_rule_applies(rel),
        import_rule_active=rel.replace(os.sep, "/").startswith(_IMPORT_RULE_ROOT),
    ):
        suppressed = raw.code in pragmas.get(raw.line, set())
        findings.append(Finding(rel, raw.line, raw.col, raw.code, raw.message, suppressed))
    return findings


def discover(paths: Sequence[str], config: Config) -> List[Tuple[str, str]]:
    """Expand path arguments to ``(abspath, relpath)`` pairs, sorted, deduped."""
    seen: Set[str] = set()
    files: List[Tuple[str, str]] = []

    def add(abspath: str) -> None:
        rel = os.path.relpath(abspath).replace(os.sep, "/")
        if abspath in seen or config.is_excluded(rel):
            return
        seen.add(abspath)
        files.append((abspath, rel))

    for path in paths:
        abspath = os.path.abspath(path)
        if os.path.isfile(abspath):
            add(abspath)
        elif os.path.isdir(abspath):
            for root, dirs, names in os.walk(abspath):
                dirs.sort()
                dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
                for name in sorted(names):
                    if name.endswith(".py"):
                        add(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return sorted(files, key=lambda pair: pair[1])


def lint_paths(paths: Sequence[str], config: Config) -> List[Finding]:
    """Lint every python file under ``paths`` (respecting excludes)."""
    findings: List[Finding] = []
    for abspath, rel in discover(paths, config):
        findings.extend(lint_file(abspath, config, relpath=rel))
    return findings


def main(argv: Optional[Sequence[str]] = None, stream: TextIO = sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Repo-specific static analysis for reproducibility contracts.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by ok(...) pragmas",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule set and exit")
    parser.add_argument(
        "--config", metavar="PYPROJECT", help="explicit pyproject.toml (default: nearest)"
    )
    parser.add_argument(
        "--no-config", action="store_true", help="ignore pyproject.toml, use built-in defaults"
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for code, summary in rule_summaries():
            print(f"{code}  {summary}", file=stream)
        return 0

    try:
        config = Config() if options.no_config else load_config(options.config)
    except (OSError, ValueError) as error:
        print(f"reprolint: configuration error: {error}", file=sys.stderr)
        return 2
    if options.select:
        codes = tuple(code.strip().upper() for code in options.select.split(",") if code.strip())
        unknown = sorted(set(codes) - set(RULE_CODES))
        if unknown:
            print(f"reprolint: unknown rule codes: {', '.join(unknown)}", file=sys.stderr)
            return 2
        config = dataclasses.replace(config, select=codes)

    paths = list(options.paths) or list(config.paths)
    if not paths:
        print("reprolint: no paths given (CLI or [tool.reprolint] paths)", file=sys.stderr)
        return 2

    try:
        files = discover(paths, config)
        findings = []
        for abspath, rel in files:
            findings.extend(lint_file(abspath, config, relpath=rel))
    except FileNotFoundError as error:
        print(f"reprolint: no such path: {error}", file=sys.stderr)
        return 2
    except SyntaxError as error:
        print(f"reprolint: cannot parse {error.filename}:{error.lineno}: {error.msg}", file=sys.stderr)
        return 2

    unsuppressed = [finding for finding in findings if not finding.suppressed]
    suppressed = [finding for finding in findings if finding.suppressed]
    for finding in unsuppressed:
        print(finding.format(), file=stream)
    if options.show_suppressed:
        for finding in suppressed:
            print(finding.format(), file=stream)
    checked = len(files)
    print(
        f"reprolint: {checked} files checked, {len(unsuppressed)} findings "
        f"({len(suppressed)} suppressed)",
        file=stream,
    )
    return 1 if unsuppressed else 0
