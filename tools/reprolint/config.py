"""Configuration for reprolint: ``[tool.reprolint]`` in ``pyproject.toml``.

Everything has a default tuned to this repository, so the linter works with
no configuration at all; the pyproject block exists to pin the defaults
explicitly and to exclude the deliberate-violation lint fixtures from
repo-wide runs.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Tuple

#: Work-descriptor classes whose constructor arguments (and class bodies)
#: must stay picklable: they cross the process-pool boundary.
DEFAULT_DESCRIPTOR_CLASSES: Tuple[str, ...] = (
    "PointTask",
)

#: Path prefixes where exact float equality is treated as a tolerance bug
#: (solver-adjacent code).  Matched against posix-style relative paths.
DEFAULT_FLOAT_PATHS: Tuple[str, ...] = (
    "src/repro/lpsolver",
    "src/repro/core",
    "src/repro/operator",
)

#: Paths never linted (the self-test fixtures contain violations on purpose).
DEFAULT_EXCLUDE: Tuple[str, ...] = ("tests/tools/fixtures",)


@dataclass(frozen=True)
class Config:
    """Resolved reprolint configuration."""

    select: Tuple[str, ...] = ()  # empty = all rules
    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE
    descriptor_classes: Tuple[str, ...] = DEFAULT_DESCRIPTOR_CLASSES
    float_paths: Tuple[str, ...] = DEFAULT_FLOAT_PATHS
    paths: Tuple[str, ...] = ()  # default lint targets when CLI gives none

    def rule_enabled(self, code: str) -> bool:
        return not self.select or code in self.select

    def is_excluded(self, relpath: str) -> bool:
        posix = relpath.replace(os.sep, "/")
        return any(
            posix == prefix or posix.startswith(prefix.rstrip("/") + "/")
            for prefix in self.exclude
        )

    def float_rule_applies(self, relpath: str) -> bool:
        posix = relpath.replace(os.sep, "/")
        return any(
            posix == prefix or posix.startswith(prefix.rstrip("/") + "/")
            for prefix in self.float_paths
        )


def _str_tuple(table: Mapping[str, Any], key: str, default: Sequence[str]) -> Tuple[str, ...]:
    value = table.get(key)
    if value is None:
        return tuple(default)
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"[tool.reprolint] {key} must be a list of strings")
    return tuple(value)


def config_from_table(table: Mapping[str, Any]) -> Config:
    """Build a :class:`Config` from a ``[tool.reprolint]`` mapping."""
    known = {"select", "exclude", "descriptor-classes", "float-paths", "paths"}
    unknown = sorted(set(table) - known)
    if unknown:
        raise ValueError(f"unknown [tool.reprolint] keys: {', '.join(unknown)}")
    return Config(
        select=_str_tuple(table, "select", ()),
        exclude=_str_tuple(table, "exclude", DEFAULT_EXCLUDE),
        descriptor_classes=_str_tuple(table, "descriptor-classes", DEFAULT_DESCRIPTOR_CLASSES),
        float_paths=_str_tuple(table, "float-paths", DEFAULT_FLOAT_PATHS),
        paths=_str_tuple(table, "paths", ()),
    )


def find_pyproject(start: Optional[str] = None) -> Optional[str]:
    """The nearest ``pyproject.toml`` at or above ``start`` (default: cwd)."""
    directory = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(pyproject_path: Optional[str] = None) -> Config:
    """Load configuration from ``pyproject.toml`` (defaults when absent)."""
    path = pyproject_path or find_pyproject()
    if path is None:
        return Config()
    with open(path, "rb") as handle:
        payload = tomllib.load(handle)
    table = payload.get("tool", {}).get("reprolint", {})
    return config_from_table(table)
