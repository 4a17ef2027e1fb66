"""What one device launch ships to its workers.

A ``gtx480`` launch sends one :class:`~repro.engine.jobs.SMPartJob` per
SM, each carrying its part of the kernel as packed trace columns.
Before traces were packed, the fifteen jobs of a full-scale hotspot
launch pickled to about 280 kB; the bound pins them at half that, so a
change that ships instruction objects again fails here.
"""

import pickle

from repro.sim.gpu import GPU, split_kernel
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

#: Pickled bytes of one launch's part jobs, at most.
PART_PAYLOAD_BOUND_KB = 140


def test_gtx480_launch_payload_is_bounded():
    kernel = build_kernel("hotspot", seed=1, scale=1.0)
    gpu = GPU.from_preset("gtx480", "warped_gates",
                          dram_latency=get_profile("hotspot").dram_latency,
                          fast_forward=True)
    jobs = gpu.part_jobs(kernel)
    assert len(jobs) == 15
    # The pool pickles each job on its own, as here.
    payload = sum(len(pickle.dumps(job)) for job in jobs)
    assert payload <= PART_PAYLOAD_BOUND_KB * 1024, \
        f"{payload / 1024:.1f} kB"


def test_split_parts_decode_to_the_kernel():
    kernel = build_kernel("hotspot", seed=1, scale=1.0)
    parts = split_kernel(kernel, 15)
    for sm_id, part in enumerate(parts):
        originals = kernel.warps[sm_id::15]
        assert [w.decode() for w in part.warps] == \
            [w.decode() for w in originals]
