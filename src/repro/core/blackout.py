"""Blackout power-gating policies (paper section 5).

Blackout removes the conventional state machine's transition from the
*uncompensated* state to *wakeup*: once a unit gates, it sleeps for at
least the break-even time even if ready instructions want it, which
makes every gating event energy-non-negative by construction.

* :class:`NaiveBlackoutPolicy` — per-cluster Blackout: gate after
  idle-detect, deny wakeups until the BET countdown expires.
* :class:`CoordinatedBlackoutPolicy` — cluster-aware Blackout for the
  clustered SP organisation (two INT and two FP clusters on Fermi;
  generalised to the N-cluster layouts of Kepler/GCN).  While any peer
  cluster is gated, a cluster stops trusting idle-detect and instead
  consults the type's active-warp subset occupancy (the INT_ACTV /
  FP_ACTV counter):

  - subset empty  -> gate **immediately**, even before idle-detect;
  - subset non-empty -> do **not** gate, even past idle-detect, so one
    cluster of the type stays awake for the warp that is about to be
    ready.

Both plug into :class:`repro.power.gating.GatingDomain` as policies; the
state machine itself is unchanged, matching the paper's "only the
transitions differ" framing.  Naive Blackout keeps the base gate rule
(idle-detect) and changes only the wake side; Coordinated Blackout
overrides :meth:`~repro.power.gating.GatingPolicy.gate_threshold`, the
one rule that both the stepped cycle and the span planner read.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.power.gating import GatingDomain, GatingPolicy


class NaiveBlackoutPolicy(GatingPolicy):
    """GATES + Naive Blackout: unconditional BET enforcement."""

    name = "naive_blackout"

    def may_wake(self, domain: GatingDomain, cycle: int) -> bool:
        return domain.gated_length(cycle) >= domain.bet


class CoordinatedBlackoutPolicy(GatingPolicy):
    """Cluster-coordinated Blackout.

    One policy instance is shared by all clusters of a unit type; it
    needs a callable returning the type's current active-warp subset
    occupancy (wired to ``StreamingMultiprocessor.actv_counts`` by the
    technique factory).

    The paper describes the two-cluster (Fermi) case and motivates the
    generalisation — "the more recent Kepler architecture uses six
    clusters of INT and FP organised as six SPs; AMD's GCN has four
    clusters" — which this policy implements for any cluster count:
    while every cluster is awake, each gates by its own idle-detect
    window; once *any* cluster of the type is gated, the remaining ones
    stop trusting idle-detect and consult the subset occupancy instead
    (empty → gate immediately; non-empty → stay awake), so at least one
    cluster is ON whenever a warp of the type is waiting.
    """

    name = "coordinated_blackout"

    def __init__(self, actv_count: Callable[[], int],
                 max_domains: int = 8) -> None:
        if max_domains < 1:
            raise ValueError("max_domains must be >= 1")
        self._actv_count = actv_count
        self._max_domains = max_domains
        self._domains: List[GatingDomain] = []

    def register(self, domain: GatingDomain) -> None:
        """Enroll one of the type's cluster domains."""
        if domain in self._domains:
            raise ValueError(f"{domain.name} registered twice")
        if len(self._domains) >= self._max_domains:
            raise ValueError(
                f"coordinated blackout configured for at most "
                f"{self._max_domains} clusters; build one policy per type")
        self._domains.append(domain)

    def peer_of(self, domain: GatingDomain) -> Optional[GatingDomain]:
        """One other cluster of the group (None while partially wired)."""
        for other in self._domains:
            if other is not domain:
                return other
        return None

    def any_peer_gated(self, domain: GatingDomain, cycle: int) -> bool:
        """True when another cluster of this type has its gate closed."""
        for peer in self._domains:  # hot: every idle domain-cycle
            if peer is not domain and peer.is_gated(cycle):
                return True
        return False

    def gate_threshold(self, domain: GatingDomain, cycle: int) -> float:
        """Gate at once or never while a peer is gated, else idle-detect.

        Both inputs (peer gating state, active-subset occupancy) are
        frozen over a skipped span: a peer's transitions are stepped
        cycles of its own ``next_event``, and the active counts cannot
        change while every warp is stalled.
        """
        if self.any_peer_gated(domain, cycle):
            # A later cluster of the type: idle-detect is disabled; the
            # active-subset occupancy decides alone.
            return 0 if self._actv_count() == 0 else float("inf")
        return domain.idle_detect

    def may_wake(self, domain: GatingDomain, cycle: int) -> bool:
        return domain.gated_length(cycle) >= domain.bet
