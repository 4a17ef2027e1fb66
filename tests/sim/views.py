"""Build scheduler views for scheduler unit and property tests.

A test describes the active set as ``(slot, op_class, ready)`` tuples;
:func:`make_view` turns them into the ascending slot lists the SM hands
a scheduler (``ready``, ``ready_by_class``) and matching
``actv_counts``.
"""

from __future__ import annotations

from typing import Iterable

from repro.isa.optypes import OpClass
from repro.sim.sched.base import SchedulerView


def make_view(rows: Iterable[tuple] = ()) -> SchedulerView:
    """A view whose active set is ``rows`` (unique slots, any order)."""
    view = SchedulerView()
    ready = []
    ready_by_class = ([], [], [], [])
    for slot, op_class, is_ready in sorted(rows):
        view.actv_counts[op_class] += 1
        if is_ready:
            ready.append(slot)
            ready_by_class[int(op_class)].append(slot)
    view.ready = ready
    view.ready_by_class = ready_by_class
    return view


def ready_ints(slots: Iterable[int]) -> SchedulerView:
    """A view where every slot in ``slots`` holds a ready INT warp."""
    return make_view((slot, OpClass.INT, True) for slot in slots)
