"""Declarative, serializable technique specs and plugin registries.

The paper's contribution is a *composition* — GATES scheduling x
Blackout gating x Adaptive idle-detect — and this module makes that
composition first-class.  A :class:`TechniqueSpec` is a frozen,
validated value object naming

* a **scheduler** (a :class:`SchedulerSpec` resolved against the
  string-keyed :data:`SCHEDULERS` plugin registry),
* a **gating policy** (a :class:`GatingPolicySpec` resolved against
  :data:`GATING_POLICIES`),
* an optional **adaptive idle-detect** configuration, and
* the :class:`~repro.power.params.GatingParams` plus structural
  :class:`~repro.sim.config.SMConfig` overrides the run should use.

Every capability the wiring layer needs (is the spec power-gated? must
the scheduler be blackout-aware?) is *derived* from the registries —
there are no hidden membership sets to keep in sync.  Specs round-trip
losslessly through :meth:`TechniqueSpec.to_dict` /
:meth:`TechniqueSpec.from_dict` (the CLI's ``--spec file.json``), and
:meth:`TechniqueSpec.spec_hash` is a canonical-JSON digest that is
stable across process restarts — the identity the experiment runner's
memoisation, the persistent ``.repro-cache/`` keys and the provenance
manifests all share.

New schedulers and gating policies register with the decorators::

    @register_scheduler("my_sched", description="...",
                        params=("aggressiveness",))
    def _build_my_sched(n_slots, aggressiveness=1.0):
        return MyScheduler(n_slots=n_slots, aggressiveness=aggressiveness)

and any cross-product becomes runnable by name or by JSON file without
touching core code (see "Defining a custom technique" in DESIGN.md).
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
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.adaptive import AdaptiveConfig
from repro.core.blackout import (
    CoordinatedBlackoutPolicy,
    NaiveBlackoutPolicy,
)
from repro.power.gating import ConventionalPolicy
from repro.power.params import GatingParams
from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.sched.two_level import TwoLevelScheduler

#: Number of hex chars of the sha256 digest a spec hash keeps.
SPEC_HASH_LEN = 16

#: JSON-scalar types allowed as plugin parameter values.
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

@dataclass(frozen=True)
class ComponentSpec:
    """A named, parameterised reference into one plugin registry."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    #: Registry kind, used in error messages ("scheduler", ...).
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


class SchedulerSpec(ComponentSpec):
    """Reference to a registered warp scheduler."""

    kind = "scheduler"


class GatingPolicySpec(ComponentSpec):
    """Reference to a registered power-gating policy."""

    kind = "gating policy"


# ----------------------------------------------------------------------
# plugin registries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchedulerPlugin:
    """One registered scheduler: factory plus declared capabilities."""

    name: str
    factory: Callable[..., object]
    description: str = ""
    #: Parameter names the factory accepts beyond ``n_slots``.
    params: FrozenSet[str] = frozenset()
    #: The factory accepts ``blackout_aware`` (GATES' extended priority
    #: switch); derived into :attr:`TechniqueSpec.blackout_aware`.
    supports_blackout_aware: bool = False

    def build(self, n_slots: int, spec: SchedulerSpec,
              blackout_aware: bool = False):
        """Construct the scheduler from one reference's parameters."""
        kwargs = spec.param_dict()
        if self.supports_blackout_aware:
            kwargs["blackout_aware"] = blackout_aware
        return self.factory(n_slots=n_slots, **kwargs)


@dataclass(frozen=True)
class GatingPolicyPlugin:
    """One registered gating policy: factory plus capabilities.

    ``gates_units=False`` marks the null policy — no gating domains are
    attached at all.  ``coordinated=True`` marks cluster-coordinating
    policies; a blackout-capable scheduler paired with one becomes
    blackout-aware (the derived flag that replaced the old hidden
    ``_BLACKOUT_AWARE`` set).
    """

    name: str
    factory: Callable[..., object]
    description: str = ""
    params: FrozenSet[str] = frozenset()
    gates_units: bool = True
    coordinated: bool = False
    #: Optional hook ``wire(policy, domain)`` run per domain before it
    #: is attached (Coordinated Blackout enrols its cluster domains).
    wire: Optional[Callable[[object, object], None]] = None

    def build(self, context: "PolicyContext", spec: GatingPolicySpec):
        """Construct the policy from one reference's parameters."""
        return self.factory(context, **spec.param_dict())


@dataclass(frozen=True)
class PolicyContext:
    """What a gating-policy factory may read off the SM being built."""

    sm: object
    op_class: object

    def actv_count(self) -> Callable[[], int]:
        """Late-bound reader of the SM's per-type ACTV counter."""
        sm, cls = self.sm, self.op_class

        def read() -> int:
            return sm.actv_counts[cls]
        return read


#: String-keyed plugin registries (populated below and by user code).
SCHEDULERS: Dict[str, SchedulerPlugin] = {}
GATING_POLICIES: Dict[str, GatingPolicyPlugin] = {}


def register_scheduler(name: str, *, description: str = "",
                       params: Iterable[str] = (),
                       supports_blackout_aware: bool = False,
                       allow_replace: bool = False):
    """Decorator registering a scheduler factory under ``name``."""
    def decorate(factory: Callable[..., object]) -> Callable[..., object]:
        if name in SCHEDULERS and not allow_replace:
            raise ValueError(f"scheduler {name!r} is already registered")
        SCHEDULERS[name] = SchedulerPlugin(
            name=name, factory=factory, description=description,
            params=frozenset(params),
            supports_blackout_aware=supports_blackout_aware)
        return factory
    return decorate


def register_gating_policy(name: str, *, description: str = "",
                           params: Iterable[str] = (),
                           gates_units: bool = True,
                           coordinated: bool = False,
                           wire: Optional[Callable] = None,
                           allow_replace: bool = False):
    """Decorator registering a gating-policy factory under ``name``."""
    def decorate(factory: Callable[..., object]) -> Callable[..., object]:
        if name in GATING_POLICIES and not allow_replace:
            raise ValueError(f"gating policy {name!r} is already registered")
        GATING_POLICIES[name] = GatingPolicyPlugin(
            name=name, factory=factory, description=description,
            params=frozenset(params), gates_units=gates_units,
            coordinated=coordinated, wire=wire)
        return factory
    return decorate


def scheduler_plugin(name: str) -> SchedulerPlugin:
    """Resolve a scheduler name (ValueError with suggestion if unknown)."""
    if name not in SCHEDULERS:
        raise unknown_name_error("scheduler", name, SCHEDULERS)
    return SCHEDULERS[name]


def gating_policy_plugin(name: str) -> GatingPolicyPlugin:
    """Resolve a gating-policy name (ValueError if unknown)."""
    if name not in GATING_POLICIES:
        raise unknown_name_error("gating policy", name, GATING_POLICIES)
    return GATING_POLICIES[name]


# ----------------------------------------------------------------------
# builtin scheduler plugins
# ----------------------------------------------------------------------

@register_scheduler(
    "two_level",
    description="two-level active/pending warp scheduler "
                "(the paper's baseline, Gebhart et al.)")
def _build_two_level(n_slots: int):
    return TwoLevelScheduler(n_slots=n_slots)


@register_scheduler(
    "gates", supports_blackout_aware=True,
    description="GATES gating-aware two-level scheduler: per-type "
                "dynamic issue priority (paper section 4)")
def _build_gates(n_slots: int, blackout_aware: bool = False):
    from repro.core.gates import GatesScheduler
    return GatesScheduler(n_slots=n_slots, blackout_aware=blackout_aware)


# ----------------------------------------------------------------------
# builtin gating-policy plugins
# ----------------------------------------------------------------------

@register_gating_policy(
    "none", gates_units=False,
    description="no power gating; execution units stay on")
def _build_no_policy(context: PolicyContext):  # pragma: no cover - never built
    return None


@register_gating_policy(
    "conventional",
    description="Hu et al.: gate after idle-detect, wake on demand "
                "(wakeups may arrive before break-even)")
def _build_conventional(context: PolicyContext):
    return ConventionalPolicy()


@register_gating_policy(
    "naive_blackout",
    description="per-cluster Blackout: once gated, wakeups are denied "
                "until break-even is reached (paper section 5)")
def _build_naive_blackout(context: PolicyContext):
    return NaiveBlackoutPolicy()


def _wire_coordinated(policy, domain) -> None:
    policy.register(domain)


@register_gating_policy(
    "coordinated_blackout", params=("max_domains",), coordinated=True,
    wire=_wire_coordinated,
    description="cluster-coordinated Blackout: keeps one cluster of a "
                "type awake while warps of the type wait (section 5)")
def _build_coordinated_blackout(context: PolicyContext,
                                max_domains: int = 8):
    return CoordinatedBlackoutPolicy(actv_count=context.actv_count(),
                                     max_domains=max_domains)


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
        scheduler: Warp-scheduler reference (:data:`SCHEDULERS`).
        gating_policy: Gating-policy reference (:data:`GATING_POLICIES`);
            ``"none"`` leaves the SM ungated.
        gating: Per-domain controller parameters (idle-detect / BET /
            wakeup).
        adaptive: Epoch-based adaptive idle-detect configuration, or
            None to disable adaptation.
        gate_sfu: Also gate the SFU group conventionally (off by
            default; the paper reports INT/FP only).
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

    # -- derived capabilities (no hidden membership sets) --------------

    @property
    def gated(self) -> bool:
        """True when gating domains are attached at all."""
        return gating_policy_plugin(self.gating_policy.name).gates_units

    @property
    def blackout_aware(self) -> bool:
        """True when the scheduler should track blacked-out units."""
        return (gating_policy_plugin(self.gating_policy.name).coordinated
                and scheduler_plugin(self.scheduler.name)
                .supports_blackout_aware)

    @property
    def adaptive_enabled(self) -> bool:
        """True when adaptive idle-detect hooks will be installed."""
        return self.adaptive is not None and self.gated

    # -- validation ----------------------------------------------------

    def validate(self) -> "TechniqueSpec":
        """Resolve both plugins and sanity-check every parameter.

        Raises ValueError (never KeyError) with the offending name and
        a closest-match suggestion.  Returns self for chaining.
        """
        sched = scheduler_plugin(self.scheduler.name)
        unknown = set(self.scheduler.param_dict()) - set(sched.params)
        if unknown:
            raise ValueError(
                f"scheduler {self.scheduler.name!r} does not accept "
                f"parameter(s) {sorted(unknown)}; accepted: "
                f"{sorted(sched.params) or 'none'}")
        policy = gating_policy_plugin(self.gating_policy.name)
        unknown = set(self.gating_policy.param_dict()) - set(policy.params)
        if unknown:
            raise ValueError(
                f"gating policy {self.gating_policy.name!r} does not "
                f"accept parameter(s) {sorted(unknown)}; accepted: "
                f"{sorted(policy.params) or 'none'}")
        # A dry construction surfaces bad parameter values now, not
        # mid-experiment (factories validate their own arguments).
        sched.build(8, self.scheduler, self.blackout_aware)
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
        plugin names, out-of-range parameters (the dataclasses'
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
    "ComponentSpec",
    "GATING_POLICIES",
    "GatingPolicyPlugin",
    "GatingPolicySpec",
    "PolicyContext",
    "RegisteredTechnique",
    "SCHEDULERS",
    "SPEC_HASH_LEN",
    "SchedulerPlugin",
    "SchedulerSpec",
    "TECHNIQUES",
    "TECHNIQUE_GROUPS",
    "TechniqueSpec",
    "as_spec",
    "closest_name",
    "gating_policy_plugin",
    "register_gating_policy",
    "register_scheduler",
    "register_technique",
    "scheduler_plugin",
    "technique_label",
    "technique_names",
    "technique_spec",
    "techniques_by_group",
    "unknown_name_error",
    "validate_names",
]
