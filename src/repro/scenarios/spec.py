"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *everything* needed to reproduce one run of
the paper's machinery — the catalogue (size, seed, anchors, candidate
restriction), the epoch grid, the demand, the scenario switches (sources,
storage, green enforcement), the cost-parameter overrides, the heuristic
search settings and the emulation knobs — as one serializable dataclass.

Specs round-trip through plain dictionaries / JSON (``to_dict`` /
``from_dict``) and carry a stable content hash, which is what keys the
:class:`~repro.scenarios.runner.ExperimentRunner`'s artifact cache: two specs
with the same semantic content always hash identically, across processes and
machines.

Every figure and table of the paper is a parameter sweep over one of these
specs (see :mod:`repro.scenarios.registry`); new scenarios are a config diff,
not a new script.
"""

from __future__ import annotations

import collections.abc
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from repro.core.parameters import FrameworkParameters
from repro.core.problem import EnergySources, GreenEnforcement, StorageMode
from repro.energy.profiles import EpochGrid

#: Workflows a spec can drive (which ``from_spec`` entry point consumes it).
WORKFLOWS = ("plan", "single_site", "emulate", "operate")

#: Bump when the semantics of a recorded artifact change, to invalidate
#: on-disk caches written by older code.  Version 2 added the code
#: fingerprint to stored artifacts and took the search block's execution
#: knobs, retired since, out of the content hash.
SPEC_SCHEMA_VERSION = 2


#: Root of the ``repro`` package whose sources :func:`code_fingerprint` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``*.py`` file of the ``repro`` package (path and contents).

    Cached, so the package sources are read once per process.
    """
    root = _PACKAGE_ROOT
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def code_fingerprint() -> Dict[str, str]:
    """Identifiers of the code that produces artifact records.

    Stored alongside every on-disk artifact and compared on load: a cached
    point whose fingerprint does not match the running code is recomputed
    instead of silently replaying numbers an older solver produced.  The
    fingerprint names everything that can change results without changing
    the spec — the ``repro`` sources themselves (any edit moves the digest)
    and the scientific stack underneath them.
    """
    import numpy
    import scipy

    return {
        "source_digest": source_digest(),
        "spec_schema": str(SPEC_SCHEMA_VERSION),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


_SOURCES_VALUES = tuple(member.value for member in EnergySources)
_STORAGE_VALUES = tuple(member.value for member in StorageMode)
_ENFORCEMENT_VALUES = tuple(member.value for member in GreenEnforcement)

def _operate_defaults() -> Dict[str, Any]:
    """Default knobs of the ``operate`` workflow.

    Derived from :class:`repro.operator.replay.OperateConfig` so the spec
    layer and the replay harness can never drift apart; every default is a
    JSON-serializable scalar.
    """
    import dataclasses

    from repro.operator.replay import OperateConfig

    return {f.name: f.default for f in dataclasses.fields(OperateConfig)}


#: Default knobs of the ``operate`` workflow (rolling-horizon replay of a
#: provisioned plan; see :mod:`repro.operator`).
OPERATE_DEFAULTS: Dict[str, Any] = _operate_defaults()


def _ensemble_defaults() -> Dict[str, Any]:
    """Default knobs of the ``ensemble`` block.

    Derived from :class:`repro.robust.ensemble.EnsembleConfig` so the spec
    layer and the robustness package can never drift apart.
    """
    import dataclasses

    from repro.robust.ensemble import EnsembleConfig

    return {f.name: f.default for f in dataclasses.fields(EnsembleConfig)}


#: Default knobs of the ``ensemble`` block (weather-year/demand ensembles and
#: the stochastic siting LP; see :mod:`repro.robust`).  An *empty* block means
#: "no ensemble analysis" and is invisible to the content hash.
ENSEMBLE_DEFAULTS: Dict[str, Any] = _ensemble_defaults()

#: Allowed top-level keys of the ``faults`` block — each maps to a list of
#: JSON dictionaries understood by :meth:`repro.operator.faults.FaultSpec.
#: from_dict`.  An empty block means "no fault injection".
FAULT_KEYS = (
    "site_outages",
    "wan_degradations",
    "forecast_blackouts",
    "demand_surges",
    "solver_faults",
    "solver_outages",
)


def _contingency_defaults() -> Dict[str, Any]:
    """Default knobs of the ``contingency`` block.

    Derived from :class:`repro.robust.contingency.ContingencyConfig` so the
    spec layer and the N-1 planner can never drift apart.
    """
    import dataclasses

    from repro.robust.contingency import ContingencyConfig

    return {f.name: f.default for f in dataclasses.fields(ContingencyConfig)}


#: Default knobs of the ``contingency`` block (N-1 survivable sizing and the
#: replay-level survivability study; see :mod:`repro.robust.contingency`).  An
#: *empty* block means "no contingency analysis" and is invisible to the
#: content hash.
CONTINGENCY_DEFAULTS: Dict[str, Any] = _contingency_defaults()

#: Default knobs of the ``emulate`` workflow (the paper's three-site,
#: nine-VM, solar-heavy Section V deployment).
EMULATION_DEFAULTS: Dict[str, Any] = {
    "sites": ("Mexico City, Mexico", "Andersen, Guam", "Harare, Zimbabwe"),
    "num_vms": 9,
    "duration_hours": 24,
    "seed": 0,
    "initial_datacenter": None,  # last site when None
    "it_factor": 1.3,            # installed IT power as a multiple of the fleet power
    "solar_factor": 7.0,         # installed solar as a multiple of the fleet power
    "wind_factor": 0.4,          # installed wind as a multiple of the fleet power
    "battery_kwh_factor": 0.0,   # battery capacity as a multiple of the fleet power
}


#: Types of the ``emulate`` workflow's knobs (the keys of EMULATION_DEFAULTS).
EMULATION_TYPES: Dict[str, Any] = {
    "sites": Tuple[str, ...],
    "num_vms": int,
    "duration_hours": int,
    "seed": int,
    "initial_datacenter": Optional[str],
    "it_factor": float,
    "solar_factor": float,
    "wind_factor": float,
    "battery_kwh_factor": float,
}


def _conforms(value: Any, hint: Any) -> bool:
    """Whether a JSON-style ``value`` has the type ``hint`` names, without coercion.

    ``bool`` is not an ``int`` here, an ``int`` is a ``float``, and a list
    is a tuple or sequence.  Hints of other forms accept anything.
    """
    origin, args = get_origin(hint), get_args(hint)
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    if hint is type(None):
        return value is None
    if origin is Union:
        return any(_conforms(value, arg) for arg in args)
    if origin in (tuple, collections.abc.Sequence):
        return isinstance(value, (tuple, list)) and all(_conforms(item, args[0]) for item in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(key, args[0]) and _conforms(item, args[1]) for key, item in value.items()
        )
    return True


def _check_knobs(block: str, values: Mapping[str, Any], hints: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` for a name of ``values`` not in ``hints`` or not of its type."""
    unknown = set(values) - set(hints)
    if unknown:
        raise ValueError(f"unknown {block} knobs: {sorted(unknown)}")
    prefix = f"{block}." if block else ""
    for name, value in values.items():
        hint = hints[name]
        if not _conforms(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ValueError(f"{prefix}{name} must be {expected}, not {type(value).__name__}")


@functools.lru_cache(maxsize=None)
def _knob_types() -> Dict[str, Dict[str, Any]]:
    """Field types of the spec (under ``""``, checked first) and of each knob block."""
    from repro.core.heuristic import SearchSettings
    from repro.operator.replay import OperateConfig
    from repro.robust.contingency import ContingencyConfig
    from repro.robust.ensemble import EnsembleConfig

    return {
        "": get_type_hints(ScenarioSpec),
        "param_overrides": get_type_hints(FrameworkParameters),
        "search": get_type_hints(SearchSettings),
        "emulation": EMULATION_TYPES,
        "operate": get_type_hints(OperateConfig),
        "ensemble": get_type_hints(EnsembleConfig),
        "contingency": get_type_hints(ContingencyConfig),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One reproducible experimental scenario.

    Enum-valued switches are stored as their string values (``"solar+wind"``,
    ``"net_metering"``, ``"annual"``) so a spec serializes without custom
    encoders; the ``*_enum`` properties return the typed members.
    """

    # -- identity (not part of the content hash) ------------------------------
    name: str = ""
    description: str = ""

    # -- workflow -------------------------------------------------------------
    workflow: str = "plan"

    # -- catalogue ------------------------------------------------------------
    num_locations: int = 90
    catalog_seed: int = 2014
    include_anchors: bool = True
    candidate_names: Optional[Tuple[str, ...]] = None

    # -- epoch grid -----------------------------------------------------------
    days_per_season: int = 1
    hours_per_epoch: int = 3

    # -- demand and scenario switches ----------------------------------------
    total_capacity_kw: float = 50_000.0
    min_green_fraction: float = 0.5
    sources: str = EnergySources.SOLAR_AND_WIND.value
    storage: str = StorageMode.NET_METERING.value
    green_enforcement: str = GreenEnforcement.ANNUAL.value
    migration_factor: float = 1.0
    net_meter_credit: float = 1.0
    min_availability: Optional[float] = None

    # -- cost-parameter overrides (Table I fields by name) --------------------
    param_overrides: Dict[str, float] = field(default_factory=dict)

    # -- heuristic search settings (SearchSettings kwargs) --------------------
    search: Dict[str, Any] = field(default_factory=dict)

    # -- emulation knobs (EMULATION_DEFAULTS keys) ----------------------------
    emulation: Dict[str, Any] = field(default_factory=dict)

    # -- operations knobs (OPERATE_DEFAULTS keys; ``operate`` workflow) -------
    operate: Dict[str, Any] = field(default_factory=dict)

    # -- robustness knobs (all blocks hash-invisible when empty) --------------
    ensemble: Dict[str, Any] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)
    contingency: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Unknown knobs and wrong-typed values fail here, before any range
        # check compares them; they are rejected, never coerced, so no valid
        # hash moves.
        spec_fields = {f.name: getattr(self, f.name) for f in fields(self)}
        for block, hints in _knob_types().items():
            _check_knobs(block, spec_fields[block] if block else spec_fields, hints)
        if self.workflow not in WORKFLOWS:
            raise ValueError(f"unknown workflow {self.workflow!r}; expected one of {WORKFLOWS}")
        if self.sources not in _SOURCES_VALUES:
            raise ValueError(f"unknown sources {self.sources!r}; expected one of {_SOURCES_VALUES}")
        if self.storage not in _STORAGE_VALUES:
            raise ValueError(f"unknown storage {self.storage!r}; expected one of {_STORAGE_VALUES}")
        if self.green_enforcement not in _ENFORCEMENT_VALUES:
            raise ValueError(
                f"unknown green enforcement {self.green_enforcement!r}; "
                f"expected one of {_ENFORCEMENT_VALUES}"
            )
        if self.num_locations < 1:
            raise ValueError("the catalogue needs at least one location")
        if self.days_per_season < 1:
            raise ValueError("the epoch grid needs at least one day per season")
        if self.hours_per_epoch < 1 or 24 % self.hours_per_epoch != 0:
            raise ValueError("hours_per_epoch must be a positive divisor of 24")
        if self.total_capacity_kw <= 0:
            raise ValueError("total capacity must be positive")
        if not 0.0 <= self.min_green_fraction <= 1.0:
            raise ValueError("the minimum green fraction must lie in [0, 1]")
        unknown_faults = set(self.faults) - set(FAULT_KEYS)
        if unknown_faults:
            raise ValueError(f"unknown fault blocks: {sorted(unknown_faults)}")
        # Out-of-range values fail here, at construction, not halfway
        # through a solve.
        from repro.operator.replay import OperateConfig

        self.build_search_settings()
        OperateConfig(**self.operate_knobs())
        self.ensemble_config()
        self.contingency_config()
        try:
            self.fault_spec()
        except TypeError as error:  # a fault entry with missing or unknown fields
            raise ValueError(f"invalid faults block: {error}") from None
        if self.candidate_names is not None:
            object.__setattr__(self, "candidate_names", tuple(self.candidate_names))
        if "sites" in self.emulation:
            emulation = dict(self.emulation)
            emulation["sites"] = tuple(emulation["sites"])
            object.__setattr__(self, "emulation", emulation)

    # -- typed accessors ------------------------------------------------------
    @property
    def sources_enum(self) -> EnergySources:
        return EnergySources(self.sources)

    @property
    def storage_enum(self) -> StorageMode:
        return StorageMode(self.storage)

    @property
    def green_enforcement_enum(self) -> GreenEnforcement:
        return GreenEnforcement(self.green_enforcement)

    def emulation_knobs(self) -> Dict[str, Any]:
        """Emulation knobs with the paper's defaults filled in."""
        knobs = dict(EMULATION_DEFAULTS)
        knobs.update(self.emulation)
        knobs["sites"] = tuple(knobs["sites"])
        if knobs["initial_datacenter"] is None:
            knobs["initial_datacenter"] = knobs["sites"][-1]
        return knobs

    def operate_knobs(self) -> Dict[str, Any]:
        """Operations knobs with the subsystem defaults filled in."""
        knobs = dict(OPERATE_DEFAULTS)
        knobs.update(self.operate)
        return knobs

    def ensemble_config(self) -> Optional[Any]:
        """The ensemble block as a typed :class:`~repro.robust.EnsembleConfig`.

        Returns ``None`` when the block is empty (no ensemble analysis).
        """
        if not self.ensemble:
            return None
        from repro.robust.ensemble import EnsembleConfig

        knobs = dict(ENSEMBLE_DEFAULTS)
        knobs.update(self.ensemble)
        return EnsembleConfig(**knobs)

    def fault_spec(self) -> Optional[Any]:
        """The faults block as a typed :class:`~repro.operator.FaultSpec`.

        Returns ``None`` when the block is empty (no fault injection).
        """
        if not self.faults:
            return None
        from repro.operator.faults import FaultSpec

        return FaultSpec.from_dict(self.faults)

    def contingency_config(self) -> Optional[Any]:
        """The contingency block as a typed
        :class:`~repro.robust.ContingencyConfig`.

        Returns ``None`` when the block is empty (no N-1 analysis).
        """
        if not self.contingency:
            return None
        from repro.robust.contingency import ContingencyConfig

        knobs = dict(CONTINGENCY_DEFAULTS)
        knobs.update(self.contingency)
        return ContingencyConfig(**knobs)

    # -- updates --------------------------------------------------------------
    def with_updates(self, **changes: Any) -> "ScenarioSpec":
        """A copy of the spec with the given fields replaced.

        Keys may be dotted (``"search.seed"``, ``"emulation.num_vms"``) to
        update one entry of a dictionary-valued field; this is the override
        syntax :class:`~repro.scenarios.runner.ParameterSweep` axes use.
        """
        flat: Dict[str, Any] = {}
        nested: Dict[str, Dict[str, Any]] = {}
        for key, value in changes.items():
            if "." in key:
                parent, child = key.split(".", 1)
                nested.setdefault(parent, {})[child] = value
            else:
                flat[key] = value
        spec_fields = {f.name for f in fields(self)}
        for parent, updates in nested.items():
            if parent not in (
                "param_overrides",
                "search",
                "emulation",
                "operate",
                "ensemble",
                "faults",
                "contingency",
            ):
                raise KeyError(f"cannot apply dotted override to field {parent!r}")
            merged = dict(getattr(self, parent))
            merged.update(updates)
            flat[parent] = merged
        unknown = set(flat) - spec_fields
        if unknown:
            raise KeyError(f"unknown scenario fields: {sorted(unknown)}")
        return replace(self, **flat)

    def canonical(self) -> "ScenarioSpec":
        """The spec with semantically-equivalent settings normalised.

        A zero green requirement makes the allowed sources irrelevant (the
        tool and the single-site analyzer both force ``EnergySources.NONE``),
        so all such specs collapse onto the ``"brown"`` form — the runner's
        caches then evaluate the shared brown baseline of Figs. 8-12 once
        instead of once per source curve.
        """
        spec = self
        if spec.workflow in ("plan", "single_site", "operate") and spec.min_green_fraction == 0.0:
            if spec.sources != EnergySources.NONE.value:
                spec = replace(spec, sources=EnergySources.NONE.value)
        return spec

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dictionary form (JSON-ready; tuples become lists)."""
        payload = asdict(self)
        if payload["candidate_names"] is not None:
            payload["candidate_names"] = list(payload["candidate_names"])
        if "sites" in payload["emulation"]:
            payload["emulation"] = dict(payload["emulation"])
            payload["emulation"]["sites"] = list(payload["emulation"]["sites"])
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        spec_fields = {f.name for f in fields(cls)}
        unknown = set(payload) - spec_fields
        if unknown:
            raise KeyError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- content hashing ------------------------------------------------------
    def hash_payload(self) -> Dict[str, Any]:
        """The dictionary the content hash is computed over.

        The identity fields (``name``, ``description``) are excluded so that
        relabelling a scenario does not invalidate cached artifacts, and the
        spec is canonicalised first so equivalent scenarios share a hash.
        """
        payload = self.canonical().to_dict()
        payload.pop("name")
        payload.pop("description")
        if self.workflow != "operate":
            # Operations knobs only exist for the operate workflow; dropping
            # them here keeps every pre-operate content hash (and therefore
            # every cached artifact) valid.
            payload.pop("operate", None)
        # Empty robustness blocks are dropped so every pre-robustness hash
        # (and therefore every cached artifact) stays valid; non-empty blocks
        # change the record contents and so must key the cache.
        if not payload.get("ensemble"):
            payload.pop("ensemble", None)
        if not payload.get("faults"):
            payload.pop("faults", None)
        if not payload.get("contingency"):
            payload.pop("contingency", None)
        payload["schema_version"] = SPEC_SCHEMA_VERSION
        return payload

    def content_hash(self) -> str:
        """Stable hex digest of the spec's semantic content."""
        canonical_json = json.dumps(self.hash_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical_json.encode("utf-8")).hexdigest()

    def problem_signature(self) -> str:
        """Hash of the fields that define the optimisation *problem*.

        Search settings, emulation knobs and the workflow do not change the
        fixed-siting LPs, so sweep points that differ only in those share a
        signature — and therefore a compiled-skeleton cache in the runner.
        """
        payload = self.hash_payload()
        # The robustness blocks perturb *copies* of the problem (or only the
        # replay), never the base fixed-siting LPs the skeleton cache serves.
        for irrelevant in (
            "workflow",
            "search",
            "emulation",
            "operate",
            "ensemble",
            "faults",
            "contingency",
        ):
            payload.pop(irrelevant, None)
        canonical_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical_json.encode("utf-8")).hexdigest()

    # -- builders -------------------------------------------------------------
    def build_catalog(self) -> Any:
        """The world catalogue this spec runs against."""
        from repro.weather.locations import build_world_catalog

        return build_world_catalog(
            num_locations=self.num_locations,
            seed=self.catalog_seed,
            include_anchors=self.include_anchors,
        )

    def build_epoch_grid(self) -> EpochGrid:
        return EpochGrid.from_seasons(
            days_per_season=self.days_per_season, hours_per_epoch=self.hours_per_epoch
        )

    def build_params(
        self, base: Optional[FrameworkParameters] = None
    ) -> FrameworkParameters:
        """Framework parameters with the spec's overrides applied."""
        params = base or FrameworkParameters()
        if self.param_overrides:
            params = params.with_updates(**self.param_overrides)
        return params

    def build_search_settings(self) -> Any:
        """The search block as typed :class:`~repro.core.heuristic.SearchSettings`.

        Raises :class:`ValueError` on unknown knobs or out-of-range values.
        """
        from repro.core.heuristic import SearchSettings

        unknown = set(self.search) - {f.name for f in fields(SearchSettings)}
        if unknown:
            raise ValueError(f"unknown search knobs: {sorted(unknown)}")
        return SearchSettings(**self.search)
