"""Property tests: the power-gating state machine never mis-accounts.

A random but legal interaction sequence (idle/busy cycles plus wakeup
requests) is replayed against a domain under each policy; the
bookkeeping invariants of the paper's controller must hold afterwards.
The span rule — one ``advance`` over a span the domain's own
``next_event`` allows equals that many one-cycle advances — is checked
at the domain level under all three policies.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.blackout import CoordinatedBlackoutPolicy, NaiveBlackoutPolicy
from repro.power.gating import (
    ConventionalPolicy,
    DomainState,
    GatingDomain,
)
from repro.power.params import GatingParams

policies = st.sampled_from(["conventional", "naive_blackout"])
params_strategy = st.builds(
    GatingParams,
    idle_detect=st.integers(min_value=1, max_value=8),
    bet=st.integers(min_value=2, max_value=20),
    wakeup_delay=st.integers(min_value=0, max_value=5))
# Each event: (busy this cycle?, wakeup requested this cycle?)
event_lists = st.lists(st.tuples(st.booleans(), st.booleans()),
                       min_size=1, max_size=300)


def build_domain(policy_name: str, params: GatingParams) -> GatingDomain:
    policy = (ConventionalPolicy() if policy_name == "conventional"
              else NaiveBlackoutPolicy())
    return GatingDomain("X", params, policy)


def powered(domain: GatingDomain, cycle: int) -> bool:
    """True when the SM could put work into the domain's pipeline."""
    return domain.state(cycle) is DomainState.ON and not domain.is_gated(cycle)


def step(domain: GatingDomain, cycle: int, busy: bool,
         wants_wakeup: bool) -> None:
    """One SM cycle: the wakeup request at issue, then the advance."""
    # The SM only lets work into a powered domain.
    effective_busy = busy and powered(domain, cycle)
    if wants_wakeup and not effective_busy:
        domain.request_wakeup(cycle)
    domain.advance(cycle, 1, effective_busy)


def replay(domain: GatingDomain, events) -> int:
    """Drive the domain like the SM does; returns final cycle count."""
    cycle = 0
    for busy, wants_wakeup in events:
        step(domain, cycle, busy, wants_wakeup)
        cycle += 1
    domain.finalize(cycle)
    return cycle


@given(policy_name=policies, params=params_strategy, events=event_lists)
@settings(max_examples=150, deadline=None)
def test_cycle_accounting_closes(policy_name, params, events):
    domain = build_domain(policy_name, params)
    cycles = replay(domain, events)
    stats = domain.stats
    accounted = stats.on_cycles + stats.waking_cycles + stats.gated_cycles
    # A wakeup in flight at the end leaves < wakeup_delay cycles that
    # are neither ON nor gated.
    assert cycles - params.wakeup_delay <= accounted <= cycles


@given(policy_name=policies, params=params_strategy, events=event_lists)
@settings(max_examples=150, deadline=None)
def test_gated_cycles_split_exactly(policy_name, params, events):
    domain = build_domain(policy_name, params)
    replay(domain, events)
    stats = domain.stats
    assert stats.compensated_cycles + stats.uncompensated_cycles == \
        stats.gated_cycles
    assert stats.uncompensated_cycles <= \
        params.bet * max(1, stats.gating_events)


@given(params=params_strategy, events=event_lists)
@settings(max_examples=150, deadline=None)
def test_blackout_never_wakes_uncompensated(params, events):
    domain = build_domain("naive_blackout", params)
    replay(domain, events)
    assert domain.stats.wakeups_uncompensated == 0
    # Every completed (woken) window therefore contributed exactly BET
    # uncompensated cycles.
    if domain.stats.wakeups == domain.stats.gating_events:
        assert domain.stats.uncompensated_cycles == \
            params.bet * domain.stats.wakeups


@given(policy_name=policies, params=params_strategy, events=event_lists)
@settings(max_examples=150, deadline=None)
def test_wakeups_bounded_by_gating_events(policy_name, params, events):
    domain = build_domain(policy_name, params)
    replay(domain, events)
    assert domain.stats.wakeups <= domain.stats.gating_events


@given(params=params_strategy, events=event_lists)
@settings(max_examples=150, deadline=None)
def test_conventional_wakeup_always_granted_when_gated(params, events):
    domain = build_domain("conventional", params)
    replay(domain, events)
    assert domain.stats.denied_wakeups == 0


@given(policy_name=policies, params=params_strategy, events=event_lists)
@settings(max_examples=100, deadline=None)
def test_state_is_always_well_defined(policy_name, params, events):
    domain = build_domain(policy_name, params)
    cycle = 0
    for busy, wants_wakeup in events:
        state = domain.state(cycle)
        assert state in (DomainState.ON, DomainState.GATED,
                         DomainState.WAKING)
        if state is not DomainState.ON:
            assert not powered(domain, cycle)
        step(domain, cycle, busy, wants_wakeup)
        cycle += 1


all_policies = st.sampled_from(["conventional", "naive_blackout",
                                "coordinated_blackout"])
# Each segment: (cycles, busy, wakeup requested, and the same two bits
# for the peer), held for the segment's cycles.  Runs of constant
# occupancy reach idle-detect, and a waiting instruction requests its
# wakeup every cycle, so replays end ON, gated or waking.
segment_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.booleans(),
              st.booleans(), st.booleans(), st.booleans()),
    max_size=20)


def reach(policy_name: str, params: GatingParams, actv: int, segments):
    """Replay ``segments`` one cycle at a time; return (domain, cycle).

    Under coordinated blackout the domain shares its policy with a peer
    cluster driven by its own segment bits, and the type's ACTV count is
    ``actv`` throughout.
    """
    if policy_name == "coordinated_blackout":
        policy = CoordinatedBlackoutPolicy(lambda: actv)
        domain = GatingDomain("X", params, policy)
        peer = GatingDomain("Y", params, policy)
        policy.register(domain)
        policy.register(peer)
    else:
        domain, peer = build_domain(policy_name, params), None
    cycle = 0
    for length, busy, wakeup, peer_busy, peer_wakeup in segments:
        for _ in range(length):
            step(domain, cycle, busy, wakeup)
            if peer is not None:
                step(peer, cycle, peer_busy, peer_wakeup)
            cycle += 1
    return domain, cycle


@given(policy_name=all_policies, params=params_strategy,
       actv=st.integers(min_value=0, max_value=2),
       segments=segment_lists, busy=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_span_advance_equals_one_cycle_advances(policy_name, params, actv,
                                                segments, busy, data):
    bulk, cycle = reach(policy_name, params, actv, segments)
    stepped, _ = reach(policy_name, params, actv, segments)
    busy = busy and powered(bulk, cycle)
    limit = bulk.next_event(cycle, busy) - cycle
    assume(limit >= 1)
    longest = min(limit, 200)
    span = data.draw(st.just(longest)
                     | st.integers(min_value=1, max_value=longest))

    bulk.advance(cycle, span, busy)
    for c in range(cycle, cycle + span):
        stepped.advance(c, 1, busy)

    assert bulk.stats == stepped.stats
    assert bulk.idle_counter == stepped.idle_counter
    assert bulk._gated_since == stepped._gated_since
    assert bulk._wake_done == stepped._wake_done
