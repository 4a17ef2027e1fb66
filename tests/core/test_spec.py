"""Tests for the declarative technique-spec layer.

Covers the plugin registries (duplicate/unknown names, difflib
suggestions), the derived capability flags that replaced the hidden
membership sets, JSON round-trip losslessness (property-tested), the
cross-process stability of ``spec_hash()`` that keys the persistent
cache, and the validation guards of the spec schema and the structural
config dataclasses.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveConfig
from repro.core.spec import (
    GATING_POLICIES,
    GatingPolicySpec,
    SCHEDULERS,
    SPEC_HASH_LEN,
    SchedulerSpec,
    TECHNIQUES,
    TechniqueSpec,
    as_spec,
    closest_name,
    register_gating_policy,
    register_scheduler,
    register_technique,
    technique_label,
    technique_names,
    technique_spec,
    techniques_by_group,
    validate_names,
)
from repro.core.techniques import Technique
from repro.power.params import GatingParams
from repro.sim.config import MemoryConfig, SMConfig

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def scratch_registry():
    """Track registry additions made by a test and remove them after."""
    before = (set(SCHEDULERS), set(GATING_POLICIES), set(TECHNIQUES))
    yield
    for registry, names in zip((SCHEDULERS, GATING_POLICIES, TECHNIQUES),
                               before):
        for name in set(registry) - names:
            del registry[name]


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------

class TestRegistries:
    def test_builtin_schedulers_registered(self):
        assert {"two_level", "gates"} <= set(SCHEDULERS)

    def test_builtin_policies_registered(self):
        assert {"none", "conventional", "naive_blackout",
                "coordinated_blackout"} <= set(GATING_POLICIES)

    def test_duplicate_scheduler_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("two_level")(lambda n_slots: None)

    def test_duplicate_policy_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_gating_policy("conventional")(lambda context: None)

    def test_duplicate_technique_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_technique(TechniqueSpec("baseline"))

    def test_unknown_technique_suggests_closest(self):
        with pytest.raises(ValueError) as err:
            technique_spec("warped_gate")
        assert "unknown technique 'warped_gate'" in str(err.value)
        assert "'warped_gates'" in str(err.value)

    def test_unknown_scheduler_suggests_closest(self):
        with pytest.raises(ValueError, match="'two_level'"):
            TechniqueSpec("x", scheduler=SchedulerSpec("two_lvl")).validate()

    def test_groups_cover_paper_and_ablations(self):
        grouped = techniques_by_group()
        assert [s.name for s in grouped["paper"]] == [
            "baseline", "conv_pg", "gates", "naive_blackout",
            "coord_blackout", "warped_gates"]
        assert [s.name for s in grouped["ablation"]] == [
            "gates_no_pg", "blackout_no_gates"]

    def test_every_registered_technique_has_a_description(self):
        for name in technique_names():
            assert technique_spec(name).description, name

    def test_bad_group_rejected(self, scratch_registry):
        with pytest.raises(ValueError, match="group"):
            register_technique(TechniqueSpec("x"), group="nonsense")

    def test_user_registration_runs_by_name(self, scratch_registry):
        spec = register_technique(
            TechniqueSpec("my_combo", scheduler=SchedulerSpec("two_level"),
                          gating_policy=GatingPolicySpec("naive_blackout")))
        assert technique_spec("my_combo") is spec
        assert "my_combo" in technique_names("user")

    def test_enum_members_alias_registered_specs(self):
        for member in Technique:
            assert member.spec.name == member.value


class TestNameValidation:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate benchmark 'a'"):
            validate_names(["a", "b", "a"], ["a", "b"], "benchmark")

    def test_unknown_name_suggested(self):
        with pytest.raises(ValueError) as err:
            validate_names(["hotspto"], ["hotspot", "bfs"], "benchmark")
        assert "'hotspot'" in str(err.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_names([], ["a"], "benchmark")

    def test_closest_name_none_when_nothing_close(self):
        assert closest_name("zzzzzz", ["hotspot", "bfs"]) is None


# ----------------------------------------------------------------------
# derived capability flags (the old hidden membership sets)
# ----------------------------------------------------------------------

class TestCapabilityFlags:
    def test_ungated_specs(self):
        for name in ("baseline", "gates_no_pg"):
            spec = technique_spec(name)
            assert not spec.gated
            assert not spec.blackout_aware

    def test_warped_gates_full_system(self):
        spec = technique_spec("warped_gates")
        assert spec.gated
        assert spec.blackout_aware
        assert spec.adaptive_enabled

    def test_naive_blackout_is_not_coordinated(self):
        spec = technique_spec("naive_blackout")
        assert spec.gated
        assert not spec.blackout_aware

    def test_coordination_needs_scheduler_support(self):
        # The two-level baseline does not track blacked-out units even
        # under a coordinated policy — coordination is a property of
        # the pair.
        spec = TechniqueSpec(
            "two_level_coord", scheduler=SchedulerSpec("two_level"),
            gating_policy=GatingPolicySpec("coordinated_blackout"))
        assert spec.gated
        assert not spec.blackout_aware


# ----------------------------------------------------------------------
# round-trip + hash stability
# ----------------------------------------------------------------------

class TestRoundTrip:
    @pytest.mark.parametrize("name", technique_names())
    def test_registered_specs_round_trip(self, name):
        spec = technique_spec(name)
        clone = TechniqueSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_description_not_part_of_identity(self):
        spec = technique_spec("warped_gates")
        relabelled = TechniqueSpec.from_dict(
            {**spec.to_dict(), "description": "different words"})
        assert relabelled.spec_hash() == spec.spec_hash()

    @settings(max_examples=50, deadline=None)
    @given(
        scheduler=st.sampled_from(["two_level", "gates"]),
        policy=st.sampled_from(["none", "conventional", "naive_blackout",
                                "coordinated_blackout"]),
        idle_detect=st.integers(min_value=0, max_value=10),
        bet=st.integers(min_value=1, max_value=24),
        wakeup=st.integers(min_value=0, max_value=9),
        adaptive=st.booleans(),
        gate_sfu=st.booleans(),
        mshr=st.integers(min_value=1, max_value=64),
    )
    def test_property_every_spec_round_trips(self, scheduler, policy,
                                             idle_detect, bet, wakeup,
                                             adaptive, gate_sfu, mshr):
        spec = TechniqueSpec(
            "prop_case",
            scheduler=SchedulerSpec(scheduler),
            gating_policy=GatingPolicySpec(policy),
            gating=GatingParams(idle_detect=idle_detect, bet=bet,
                                wakeup_delay=wakeup),
            adaptive=AdaptiveConfig() if adaptive else None,
            gate_sfu=gate_sfu,
            sm_overrides={"memory": {"mshr_entries": mshr}},
        ).validate()
        clone = TechniqueSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        assert clone.to_dict() == spec.to_dict()

    def test_sm_override_key_order_does_not_change_hash(self):
        a = TechniqueSpec("x", sm_overrides={"issue_width": 1,
                                             "fetch_width": 2})
        b = TechniqueSpec("x", sm_overrides={"fetch_width": 2,
                                             "issue_width": 1})
        assert a.spec_hash() == b.spec_hash()

    def test_spec_hash_stable_across_process_restart(self):
        """The hash keys .repro-cache/ — it must survive a fresh
        interpreter (no dict-order or enum-identity dependence)."""
        names = ("baseline", "warped_gates", "blackout_no_gates")
        script = (
            "from repro.core.spec import technique_spec\n"
            "import repro.core.techniques\n"
            "print(','.join(technique_spec(n).spec_hash() "
            f"for n in {names!r}))\n")
        fresh = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True,
            env={"PYTHONPATH": REPO_SRC, "PYTHONHASHSEED": "random"})
        assert fresh.stdout.strip() == ",".join(
            technique_spec(n).spec_hash() for n in names)


@st.composite
def adaptive_configs(draw):
    low = draw(st.integers(min_value=0, max_value=12))
    return AdaptiveConfig(
        epoch_cycles=draw(st.integers(min_value=1, max_value=5000)),
        threshold=draw(st.integers(min_value=0, max_value=20)),
        decay_epochs=draw(st.integers(min_value=1, max_value=8)),
        min_idle_detect=low,
        max_idle_detect=draw(st.integers(min_value=low, max_value=24)))


GATING_PARAMS = st.builds(
    GatingParams,
    idle_detect=st.integers(min_value=0, max_value=10),
    bet=st.integers(min_value=1, max_value=24),
    wakeup_delay=st.integers(min_value=0, max_value=9))


def memo_case(gating, adaptive) -> TechniqueSpec:
    return TechniqueSpec(
        "memo_case", scheduler=SchedulerSpec("gates"),
        gating_policy=GatingPolicySpec("coordinated_blackout"),
        gating=gating, adaptive=adaptive)


def fresh_hash(spec: TechniqueSpec) -> str:
    digest = hashlib.sha256(spec.canonical_json().encode("utf-8"))
    return digest.hexdigest()[:SPEC_HASH_LEN]


class TestSpecHashMemo:
    """``spec_hash()`` is memoised per instance and nothing can tell."""

    @settings(max_examples=50, deadline=None)
    @given(gating=GATING_PARAMS, adaptive=st.none() | adaptive_configs())
    def test_memo_equals_fresh_digest(self, gating, adaptive):
        spec = memo_case(gating, adaptive)
        first = spec.spec_hash()
        assert first == fresh_hash(spec)
        assert spec.spec_hash() == first

    @settings(max_examples=50, deadline=None)
    @given(gating=GATING_PARAMS, other=GATING_PARAMS,
           adaptive=st.none() | adaptive_configs())
    def test_replaced_copy_hashes_its_own_gating(self, gating, other,
                                                 adaptive):
        spec = memo_case(gating, adaptive)
        spec.spec_hash()
        copy = replace(spec, gating=other)
        assert copy.spec_hash() == fresh_hash(copy)
        assert (copy.spec_hash() == spec.spec_hash()) == (other == gating)

    @settings(max_examples=50, deadline=None)
    @given(gating=GATING_PARAMS, adaptive=st.none() | adaptive_configs())
    def test_memo_invisible_to_value_semantics(self, gating, adaptive):
        spec = memo_case(gating, adaptive)
        twin = memo_case(gating, adaptive)
        before = (hash(spec), repr(spec), spec.to_dict(),
                  spec.canonical_json())
        spec.spec_hash()
        assert spec == twin
        assert (hash(spec), repr(spec), spec.to_dict(),
                spec.canonical_json()) == before
        assert (hash(twin), repr(twin), twin.to_dict(),
                twin.canonical_json()) == before

    @settings(max_examples=50, deadline=None)
    @given(gating=GATING_PARAMS, adaptive=st.none() | adaptive_configs())
    def test_pickled_after_hashing_keeps_the_hash(self, gating, adaptive):
        spec = memo_case(gating, adaptive)
        spec.spec_hash()
        revived = pickle.loads(pickle.dumps(spec))
        assert revived == spec
        assert revived.spec_hash() == memo_case(gating,
                                                adaptive).spec_hash()

    def test_equal_specs_of_other_types_keep_their_own_hash(self):
        """``bet=14 == bet=14.0`` but their canonical JSON differs; no
        memo may alias the two."""
        ints = memo_case(GatingParams(bet=14), None)
        floats = memo_case(GatingParams(bet=14.0), None)
        assert ints == floats
        assert ints.spec_hash() != floats.spec_hash()
        assert floats.spec_hash() == fresh_hash(floats)


# ----------------------------------------------------------------------
# schema + config validation errors
# ----------------------------------------------------------------------

class TestSpecValidationErrors:
    def test_bad_scheduler_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            TechniqueSpec.from_dict({"name": "x", "scheduler": "gatez"})

    def test_bad_policy_name(self):
        with pytest.raises(ValueError, match="unknown gating policy"):
            TechniqueSpec.from_dict({"name": "x",
                                     "gating_policy": "blakout"})

    def test_unknown_scheduler_param(self):
        with pytest.raises(ValueError, match="does not accept"):
            TechniqueSpec.from_dict({
                "name": "x",
                "scheduler": {"name": "two_level",
                              "params": {"group_size": 4}}})

    def test_negative_bet(self):
        with pytest.raises(ValueError, match="bet must be >= 1"):
            TechniqueSpec.from_dict({"name": "x",
                                     "gating": {"bet": -1}})

    def test_out_of_range_idle_detect_bounds(self):
        with pytest.raises(ValueError,
                           match="min_idle_detect <= max_idle_detect"):
            TechniqueSpec.from_dict({
                "name": "x",
                "adaptive": {"min_idle_detect": 9, "max_idle_detect": 2}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            TechniqueSpec.from_dict({"name": "x", "sched": "gates"})

    def test_missing_name(self):
        with pytest.raises(ValueError, match="missing its 'name'"):
            TechniqueSpec.from_dict({"scheduler": "gates"})

    def test_non_object_document(self):
        with pytest.raises(ValueError, match="JSON object"):
            TechniqueSpec.from_dict(["not", "a", "spec"])

    def test_bad_name_charset(self):
        with pytest.raises(ValueError, match="may only contain"):
            TechniqueSpec("no spaces allowed")

    def test_unknown_sm_override_field(self):
        with pytest.raises(ValueError, match="unknown SMConfig field"):
            TechniqueSpec.from_dict({
                "name": "x", "sm_overrides": {"warp_count": 64}})

    def test_removed_options_are_refused(self):
        # GATES' priority timeout and the register-file bank model are
        # not modelled: specs naming them fail and list what is known.
        with pytest.raises(ValueError, match="accepted: none"):
            TechniqueSpec.from_dict({
                "name": "x",
                "scheduler": {"name": "gates",
                              "params": {"max_priority_cycles": 16}}})
        with pytest.raises(ValueError,
                           match=r"unknown SMConfig field 'rf_banks' "
                                 r"\(known: .*issue_width"):
            TechniqueSpec.from_dict({
                "name": "x", "sm_overrides": {"rf_banks": 4}})

    def test_unknown_memory_override_field(self):
        with pytest.raises(ValueError, match="unknown MemoryConfig"):
            TechniqueSpec.from_dict({
                "name": "x",
                "sm_overrides": {"memory": {"l1_size_kb": 64}}})

    def test_bad_sm_override_value_fires_config_guard(self):
        with pytest.raises(ValueError, match="issue_width"):
            TechniqueSpec.from_dict({
                "name": "x", "sm_overrides": {"issue_width": 0}})

    def test_sm_overrides_applied_on_top_of_run_config(self):
        spec = TechniqueSpec(
            "x", sm_overrides={"n_sp_clusters": 4,
                               "memory": {"mshr_entries": 8}})
        merged = spec.apply_sm_overrides(SMConfig(issue_width=1))
        assert merged.n_sp_clusters == 4
        assert merged.issue_width == 1
        assert merged.memory.mshr_entries == 8
        assert merged.memory.l1_ways == MemoryConfig().l1_ways


class TestSMConfigGuards:
    @pytest.mark.parametrize("kwargs,match", [
        ({"n_sp_clusters": 0}, "SP cluster"),
        ({"issue_width": 0}, "issue_width"),
        ({"fetch_width": 0}, "fetch_width"),
        ({"ibuffer_entries": 0}, "ibuffer_entries"),
        ({"max_resident_warps": 0}, "max_resident_warps"),
        ({"int_initiation_interval": 0}, "int_initiation_interval"),
        ({"sfu_initiation_interval": 0}, "sfu_initiation_interval"),
        ({"max_cycles": 0}, "max_cycles"),
    ])
    def test_post_init_guards(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SMConfig(**kwargs)


class TestMemoryConfigGuards:
    @pytest.mark.parametrize("kwargs,match", [
        ({"l1_sets": 0}, "power of two"),
        ({"l1_sets": 48}, "power of two"),
        ({"l1_ways": 0}, "l1_ways"),
        ({"mshr_entries": 0}, "mshr_entries"),
        ({"dram_jitter": 1.5}, "dram_jitter"),
        ({"dram_jitter": -0.1}, "dram_jitter"),
    ])
    def test_post_init_guards(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MemoryConfig(**kwargs)


# ----------------------------------------------------------------------
# resolution helpers
# ----------------------------------------------------------------------

class TestAsSpec:
    def test_accepts_every_technique_shape(self):
        expected = technique_spec("warped_gates")
        assert as_spec(expected) is expected
        assert as_spec("warped_gates") == expected
        assert as_spec(Technique.WARPED_GATES) == expected

    def test_rejects_to_spec_duck_type(self):
        # Three forms only: an object exposing ``to_spec()`` is not one.
        with pytest.raises(TypeError, match="cannot resolve"):
            as_spec(SimpleNamespace(
                to_spec=lambda: technique_spec("gates")))

    def test_rejects_garbage(self):
        with pytest.raises(TypeError, match="cannot resolve"):
            as_spec(42)

    def test_labels(self):
        assert technique_label(Technique.WARPED_GATES) == "warped_gates"
        assert technique_label("warped_gates") == "warped_gates"
        assert technique_label(technique_spec("gates")) == "gates"
