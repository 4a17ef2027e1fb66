"""Build scheduler views for scheduler unit and property tests.

A test describes the active set as ``(slot, op_class, ready[, age])``
tuples; :func:`make_view` turns them into the ascending slot lists the
SM hands a scheduler (``active``, ``ready``, ``ready_by_class``), the
per-slot ``ages`` list and matching ``actv_counts``.
"""

from __future__ import annotations

from typing import Iterable

from repro.isa.optypes import OpClass
from repro.sim.sched.base import SchedulerView


def make_view(rows: Iterable[tuple] = ()) -> SchedulerView:
    """A view whose active set is ``rows`` (unique slots, any order).

    A row's age defaults to its slot, so lower slots are older.
    """
    rows = sorted(rows)
    view = SchedulerView()
    ages = [0] * (rows[-1][0] + 1 if rows else 0)
    active, ready = [], []
    ready_by_class = ([], [], [], [])
    for row in rows:
        slot, op_class, is_ready = row[:3]
        ages[slot] = row[3] if len(row) > 3 else slot
        active.append(slot)
        view.actv_counts[op_class] += 1
        if is_ready:
            ready.append(slot)
            ready_by_class[int(op_class)].append(slot)
    view.active = active
    view.ready = ready
    view.ready_by_class = ready_by_class
    view.ages = ages
    return view


def ready_ints(slots: Iterable[int]) -> SchedulerView:
    """A view where every slot in ``slots`` holds a ready INT warp."""
    return make_view((slot, OpClass.INT, True) for slot in slots)
