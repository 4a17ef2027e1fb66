"""Declarative, serializable technique specs.

The paper's contribution is a *composition* — GATES scheduling x
Blackout gating x Adaptive idle-detect — and this module makes that
composition first-class.  A :class:`TechniqueSpec` is a frozen,
validated value object naming

* a **scheduler** (a :class:`SchedulerSpec`: ``two_level`` or
  ``gates``),
* a **gating policy** (a :class:`GatingPolicySpec`: ``none``,
  ``conventional``, ``naive_blackout`` or ``coordinated_blackout``),
* an optional **adaptive idle-detect** configuration, and
* the :class:`~repro.power.params.GatingParams` plus structural
  :class:`~repro.sim.config.SMConfig` overrides the run should use.

The components a spec may name form one closed table,
:data:`COMPONENTS`, which maps each name to the parameters it accepts;
validation and the derived flags (is the spec power-gated? must the
scheduler be blackout-aware?) read it, and
:func:`repro.core.techniques.build_sm` constructs each component.  A
new scheduler or policy is a class plus one entry in that table (and
its construction in ``build_sm``).  Specs round-trip losslessly through
:meth:`TechniqueSpec.to_dict` / :meth:`TechniqueSpec.from_dict` (the
CLI's ``--spec file.json``), and :meth:`TechniqueSpec.spec_hash` is a
canonical-JSON digest that is stable across process restarts — the
identity the experiment runner's memoisation, the persistent
``.repro-cache/`` keys and the provenance manifests all share.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.adaptive import AdaptiveConfig
from repro.power.params import GatingParams
from repro.sim.config import MemoryConfig, SMConfig

#: Number of hex chars of the sha256 digest a spec hash keeps.
SPEC_HASH_LEN = 16

#: JSON-scalar types allowed as component parameter values.
_SCALARS = (bool, int, float, str, type(None))

#: Characters allowed in technique names (they become cache-file name
#: prefixes and CLI arguments).
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


# ----------------------------------------------------------------------
# name validation with suggestions
# ----------------------------------------------------------------------

def closest_name(name: str, known: Iterable[str]) -> Optional[str]:
    """The best difflib match for ``name`` among ``known``, or None."""
    matches = difflib.get_close_matches(name, sorted(known), n=1)
    return matches[0] if matches else None


def unknown_name_error(kind: str, name: str,
                       known: Iterable[str]) -> ValueError:
    """A ValueError naming the offender and the closest known name."""
    known = sorted(known)
    message = f"unknown {kind} {name!r}"
    hint = closest_name(name, known)
    if hint is not None:
        message += f"; did you mean {hint!r}?"
    message += f" (known: {', '.join(known) or 'none registered'})"
    return ValueError(message)


def validate_names(names: Sequence[str], known: Iterable[str],
                   kind: str) -> Tuple[str, ...]:
    """Check a user-supplied name list for unknowns and duplicates.

    Raises ValueError naming the first offending entry (with a difflib
    suggestion for unknowns) — never a raw KeyError.  Returns the
    names as a tuple on success.
    """
    if not names:
        raise ValueError(f"need at least one {kind}")
    known = set(known)
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {kind} {name!r}")
        seen.add(name)
        if name not in known:
            raise unknown_name_error(kind, name, known)
    return tuple(names)


# ----------------------------------------------------------------------
# frozen parameter maps
# ----------------------------------------------------------------------

def _freeze_params(params: Any, *, where: str,
                   nested: bool = False) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a mapping (or pair sequence) into a sorted tuple.

    Values must be JSON scalars; with ``nested`` a value may itself be
    a mapping of scalars (one level, for ``sm_overrides["memory"]``).
    Sorting by key makes equal parameter sets compare and hash equal
    regardless of construction order.
    """
    items = params.items() if isinstance(params, Mapping) else tuple(params)
    frozen: List[Tuple[str, Any]] = []
    for key, value in sorted(items):
        if not isinstance(key, str) or not key:
            raise ValueError(f"{where}: parameter names must be "
                             f"non-empty strings, got {key!r}")
        if isinstance(value, Mapping) or (nested and isinstance(value, tuple)
                                          and all(isinstance(v, tuple)
                                                  for v in value)):
            if not nested:
                raise ValueError(f"{where}: parameter {key!r} must be a "
                                 f"JSON scalar, got a mapping")
            value = _freeze_params(value, where=f"{where}.{key}")
        elif not isinstance(value, _SCALARS):
            raise ValueError(f"{where}: parameter {key!r} must be a JSON "
                             f"scalar (bool/int/float/str/null), got "
                             f"{type(value).__name__}")
        frozen.append((key, value))
    return tuple(frozen)


def _thaw_params(params: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    """Inverse of :func:`_freeze_params` (tuples back to dicts)."""
    return {key: (_thaw_params(value) if isinstance(value, tuple) else value)
            for key, value in params}


# ----------------------------------------------------------------------
# component specs
# ----------------------------------------------------------------------

#: A parameter's value check: a predicate and what it asks for.
ParamCheck = Tuple[Callable[[Any], bool], str]


def _positive_int(value: Any) -> bool:
    """An int >= 1; a bool is not one."""
    return type(value) is int and value >= 1


#: The closed set of components a spec may name, by kind: each name
#: mapped to the parameters it accepts and the check each value must
#: pass.  ``max_domains`` caps the clusters one Coordinated Blackout
#: policy enrols.
COMPONENTS: Dict[str, Dict[str, Dict[str, ParamCheck]]] = {
    "scheduler": {
        "two_level": {},
        "gates": {},
    },
    "gating policy": {
        "none": {},
        "conventional": {},
        "naive_blackout": {},
        "coordinated_blackout": {
            "max_domains": (_positive_int, "an int >= 1"),
        },
    },
}


@dataclass(frozen=True)
class ComponentSpec:
    """A named, parameterised reference to one entry of
    :data:`COMPONENTS`."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    #: Table kind, used in error messages ("scheduler", ...).
    kind = "component"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"{self.kind} name must be a non-empty string")
        object.__setattr__(
            self, "params",
            _freeze_params(self.params, where=f"{self.kind} {self.name!r}"))

    @classmethod
    def of(cls, name: str, **params: Any) -> "ComponentSpec":
        """Convenience constructor: ``SchedulerSpec.of("gates", ...)``."""
        return cls(name, tuple(params.items()))

    def param_dict(self) -> Dict[str, Any]:
        """The frozen parameter pairs as a plain dict."""
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": self.param_dict()}

    @classmethod
    def from_dict(cls, doc: Any) -> "ComponentSpec":
        """Parse the dict form; a bare name string is shorthand."""
        if isinstance(doc, str):  # shorthand: "gates" == {"name": "gates"}
            return cls(doc)
        if not isinstance(doc, Mapping):
            raise ValueError(f"{cls.kind} spec must be a JSON object or a "
                             f"bare name string, got {type(doc).__name__}")
        unknown = set(doc) - {"name", "params"}
        if unknown:
            raise ValueError(f"{cls.kind} spec has unknown key(s) "
                             f"{sorted(unknown)}; allowed: name, params")
        if "name" not in doc:
            raise ValueError(f"{cls.kind} spec is missing its 'name'")
        return cls(doc["name"], tuple(dict(doc.get("params") or {}).items()))

    @property
    def known_name(self) -> str:
        """:attr:`name`, checked against :data:`COMPONENTS` (ValueError
        with the closest known name when it is not there)."""
        known = COMPONENTS[self.kind]
        if self.name not in known:
            raise unknown_name_error(self.kind, self.name, known)
        return self.name

    def validate(self) -> None:
        """Check the name and every parameter against :data:`COMPONENTS`."""
        accepted = COMPONENTS[self.kind][self.known_name]
        unknown = set(self.param_dict()) - set(accepted)
        if unknown:
            raise ValueError(
                f"{self.kind} {self.name!r} does not accept "
                f"parameter(s) {sorted(unknown)}; accepted: "
                f"{sorted(accepted) or 'none'}")
        for key, value in self.params:
            check, what = accepted[key]
            if not check(value):
                raise ValueError(
                    f"{self.kind} {self.name!r} parameter {key!r} must "
                    f"be {what}, got {value!r}")


class SchedulerSpec(ComponentSpec):
    """Reference to one of the paper's warp schedulers."""

    kind = "scheduler"


class GatingPolicySpec(ComponentSpec):
    """Reference to one of the paper's power-gating policies."""

    kind = "gating policy"


# ----------------------------------------------------------------------
# the technique spec
# ----------------------------------------------------------------------

#: to_dict/from_dict document keys, in canonical order.
_SPEC_KEYS = ("name", "description", "scheduler", "gating_policy",
              "gating", "adaptive", "gate_sfu", "sm_overrides")


@dataclass(frozen=True)
class TechniqueSpec:
    """One experimental configuration, declaratively.

    Attributes:
        name: Unique technique name (cache-key prefix, CLI argument,
            ``SimResult.technique`` label).
        scheduler: Warp-scheduler reference (:data:`COMPONENTS`).
        gating_policy: Gating-policy reference (:data:`COMPONENTS`);
            ``"none"`` leaves the SM ungated.
        gating: Per-domain controller parameters (idle-detect / BET /
            wakeup).
        adaptive: Epoch-based adaptive idle-detect configuration, or
            None to disable adaptation (needs a gating policy).
        gate_sfu: Also gate the SFU group conventionally (off by
            default; the paper reports INT/FP only; needs a gating
            policy).
        sm_overrides: Structural :class:`SMConfig` field overrides
            applied on top of the run's SM configuration; the
            ``"memory"`` key takes a mapping of
            :class:`MemoryConfig` fields.
        description: One-line human summary (``repro list``); not part
            of the spec's identity hash.
    """

    name: str
    scheduler: SchedulerSpec = field(
        default_factory=lambda: SchedulerSpec("two_level"))
    gating_policy: GatingPolicySpec = field(
        default_factory=lambda: GatingPolicySpec("none"))
    gating: GatingParams = field(default_factory=GatingParams)
    adaptive: Optional[AdaptiveConfig] = None
    gate_sfu: bool = False
    sm_overrides: Tuple[Tuple[str, Any], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("technique name must be a non-empty string")
        if not set(self.name) <= _NAME_CHARS:
            raise ValueError(
                f"technique name {self.name!r} may only contain letters, "
                f"digits, '_', '.', and '-' (it names cache entries)")
        if not isinstance(self.scheduler, SchedulerSpec):
            object.__setattr__(self, "scheduler",
                               SchedulerSpec.from_dict(self.scheduler))
        if not isinstance(self.gating_policy, GatingPolicySpec):
            object.__setattr__(self, "gating_policy",
                               GatingPolicySpec.from_dict(self.gating_policy))
        object.__setattr__(
            self, "sm_overrides",
            _freeze_params(self.sm_overrides, nested=True,
                           where=f"technique {self.name!r} sm_overrides"))

    # -- derived capabilities -----------------------------------------

    @property
    def gated(self) -> bool:
        """True when gating domains are attached at all."""
        return self.gating_policy.known_name != "none"

    @property
    def blackout_aware(self) -> bool:
        """True when the scheduler should track blacked-out units: GATES
        under Coordinated Blackout (its extended priority switch)."""
        scheduler = self.scheduler.known_name
        policy = self.gating_policy.known_name
        return scheduler == "gates" and policy == "coordinated_blackout"

    # -- validation ----------------------------------------------------

    def validate(self) -> "TechniqueSpec":
        """Check both components against :data:`COMPONENTS` and
        sanity-check every parameter.

        Raises ValueError (never KeyError) naming the offending field,
        with a closest-match suggestion for unknown names.  Returns self
        for chaining.
        """
        self.scheduler.validate()
        self.gating_policy.validate()
        if not self.gated:
            # Both act on gating domains, and policy "none" attaches
            # none: the spec would run as the ungated baseline.
            if self.adaptive is not None:
                raise ValueError("'adaptive' needs a gating policy; "
                                 "gating policy 'none' gates nothing")
            if self.gate_sfu:
                raise ValueError("'gate_sfu' needs a gating policy; "
                                 "gating policy 'none' gates nothing")
        self.apply_sm_overrides(SMConfig())
        return self

    def apply_sm_overrides(self, sm_config: SMConfig) -> SMConfig:
        """The run's structural config with this spec's overrides folded
        in (``SMConfig.__post_init__`` guards re-fire on the result)."""
        if not self.sm_overrides:
            return sm_config
        valid = {f.name for f in dataclasses.fields(SMConfig)}
        kwargs: Dict[str, Any] = {}
        for key, value in self.sm_overrides:
            if key not in valid:
                raise unknown_name_error("SMConfig field", key, valid)
            if key == "memory":
                overrides = (_thaw_params(value)
                             if isinstance(value, tuple) else dict(value))
                mem_valid = {f.name
                             for f in dataclasses.fields(MemoryConfig)}
                for mem_key in overrides:
                    if mem_key not in mem_valid:
                        raise unknown_name_error("MemoryConfig field",
                                                 mem_key, mem_valid)
                kwargs["memory"] = replace(sm_config.memory, **overrides)
            else:
                kwargs[key] = value
        return replace(sm_config, **kwargs)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serialisable form (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "scheduler": self.scheduler.to_dict(),
            "gating_policy": self.gating_policy.to_dict(),
            "gating": dataclasses.asdict(self.gating),
            "adaptive": (dataclasses.asdict(self.adaptive)
                         if self.adaptive is not None else None),
            "gate_sfu": self.gate_sfu,
            "sm_overrides": _thaw_params(self.sm_overrides),
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "TechniqueSpec":
        """Build and fully validate a spec from its dict form.

        Every schema violation — unknown keys, wrong types, unknown
        component names, out-of-range parameters (the dataclasses'
        ``__post_init__`` guards) — raises ValueError.
        """
        if not isinstance(doc, Mapping):
            raise ValueError("technique spec must be a JSON object, got "
                             f"{type(doc).__name__}")
        unknown = set(doc) - set(_SPEC_KEYS)
        if unknown:
            offender = sorted(unknown)[0]
            raise unknown_name_error("spec key", offender, _SPEC_KEYS)
        if "name" not in doc:
            raise ValueError("technique spec is missing its 'name'")

        gating_doc = doc.get("gating") or {}
        if not isinstance(gating_doc, Mapping):
            raise ValueError("'gating' must be a JSON object of "
                             "GatingParams fields")
        gating = _dataclass_from_doc(GatingParams, gating_doc, "gating")

        adaptive_doc = doc.get("adaptive")
        if adaptive_doc is not None and not isinstance(adaptive_doc, Mapping):
            raise ValueError("'adaptive' must be null or a JSON object of "
                             "AdaptiveConfig fields")
        adaptive = (None if adaptive_doc is None else
                    _dataclass_from_doc(AdaptiveConfig, adaptive_doc,
                                        "adaptive"))

        gate_sfu = doc.get("gate_sfu", False)
        if not isinstance(gate_sfu, bool):
            raise ValueError("'gate_sfu' must be a boolean")
        description = doc.get("description", "")
        if not isinstance(description, str):
            raise ValueError("'description' must be a string")
        sm_overrides = doc.get("sm_overrides") or {}
        if not isinstance(sm_overrides, Mapping):
            raise ValueError("'sm_overrides' must be a JSON object of "
                             "SMConfig fields")

        spec = cls(
            name=doc["name"],
            description=description,
            scheduler=SchedulerSpec.from_dict(
                doc.get("scheduler", "two_level")),
            gating_policy=GatingPolicySpec.from_dict(
                doc.get("gating_policy", "none")),
            gating=gating,
            adaptive=adaptive,
            gate_sfu=gate_sfu,
            sm_overrides=tuple(dict(sm_overrides).items()),
        )
        return spec.validate()

    def canonical_json(self) -> str:
        """Deterministic JSON of the spec's identity (no description)."""
        payload = {key: value for key, value in self.to_dict().items()
                   if key != "description"}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable short digest of the spec's identity.

        Computed over canonical (sorted-key) JSON of scalars only, so it
        cannot depend on dict order, enum object identity, or anything
        else that varies across process restarts — which is what lets
        it key the persistent ``.repro-cache/`` and the experiment
        runner's memoisation.

        Computed at most once per instance: the spec is frozen, so the
        digest is memoised on it, outside the dataclass fields (``==``,
        ``hash()``, ``repr`` and :meth:`to_dict` never see it).  A
        :func:`dataclasses.replace` copy starts without the memo.
        """
        memo = self.__dict__.get("_spec_hash")
        if memo is None:
            digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
            memo = digest.hexdigest()[:SPEC_HASH_LEN]
            object.__setattr__(self, "_spec_hash", memo)
        return memo


def _dataclass_from_doc(cls, doc: Mapping, where: str):
    """Construct a config dataclass from a JSON object, nicely erroring
    on unknown fields (the dataclass's own guards check the values)."""
    valid = {f.name for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in valid:
            raise unknown_name_error(f"{where} field", key, valid)
    return cls(**doc)


# ----------------------------------------------------------------------
# the technique registry
# ----------------------------------------------------------------------

#: Registration groups, in ``repro list`` display order.
TECHNIQUE_GROUPS = ("paper", "ablation", "user")


@dataclass(frozen=True)
class RegisteredTechnique:
    """A named spec plus its display group."""

    spec: TechniqueSpec
    group: str = "user"


#: Name -> registered technique, in registration order.
TECHNIQUES: Dict[str, RegisteredTechnique] = {}


def register_technique(spec: TechniqueSpec, group: str = "user",
                       allow_replace: bool = False) -> TechniqueSpec:
    """Register (and validate) a spec so it is runnable by name."""
    if group not in TECHNIQUE_GROUPS:
        raise ValueError(f"group must be one of {TECHNIQUE_GROUPS}, "
                         f"got {group!r}")
    if spec.name in TECHNIQUES and not allow_replace:
        raise ValueError(f"technique {spec.name!r} is already registered")
    spec.validate()
    TECHNIQUES[spec.name] = RegisteredTechnique(spec=spec, group=group)
    return spec


def technique_spec(name: str) -> TechniqueSpec:
    """Look up a registered technique (ValueError with suggestion)."""
    if name not in TECHNIQUES:
        raise unknown_name_error("technique", name, TECHNIQUES)
    return TECHNIQUES[name].spec


def technique_names(group: Optional[str] = None) -> Tuple[str, ...]:
    """Registered technique names, optionally filtered by group."""
    return tuple(name for name, reg in TECHNIQUES.items()
                 if group is None or reg.group == group)


def techniques_by_group() -> Dict[str, List[TechniqueSpec]]:
    """Specs grouped for display, in registration order per group."""
    grouped: Dict[str, List[TechniqueSpec]] = {g: []
                                               for g in TECHNIQUE_GROUPS}
    for registered in TECHNIQUES.values():
        grouped[registered.group].append(registered.spec)
    return grouped


def as_spec(technique: Any) -> TechniqueSpec:
    """Resolve anything technique-shaped into a :class:`TechniqueSpec`.

    Accepts exactly three forms: a spec (returned as-is), a registered
    name string, or a ``Technique`` enum member (its ``.value`` is the
    registered name).  A variant of a registered technique is a
    ``dataclasses.replace`` of its spec.
    """
    if isinstance(technique, TechniqueSpec):
        return technique
    if isinstance(technique, str):
        return technique_spec(technique)
    value = getattr(technique, "value", None)
    if isinstance(value, str):
        return technique_spec(value)
    raise TypeError(f"cannot resolve a technique spec from {technique!r}")


def technique_label(technique: Any) -> str:
    """Display name of a technique in any accepted form."""
    if isinstance(technique, TechniqueSpec):
        return technique.name
    if isinstance(technique, str):
        return technique
    value = getattr(technique, "value", None)
    return value if isinstance(value, str) else str(technique)


__all__ = [
    "COMPONENTS",
    "ComponentSpec",
    "GatingPolicySpec",
    "RegisteredTechnique",
    "SPEC_HASH_LEN",
    "SchedulerSpec",
    "TECHNIQUES",
    "TECHNIQUE_GROUPS",
    "TechniqueSpec",
    "as_spec",
    "closest_name",
    "register_technique",
    "technique_label",
    "technique_names",
    "technique_spec",
    "techniques_by_group",
    "unknown_name_error",
    "validate_names",
]
