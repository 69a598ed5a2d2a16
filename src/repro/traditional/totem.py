"""The Totem architecture (Fig. 4).

Section 2.1.4: a monolithic token-ring stack — membership at the bottom
(failure detection, defining views, recovering token and messages),
total order + flow control in the middle (the rotating token;
``max_orders_per_token`` is the flow-control knob), and a recovery layer
completing the membership by ensuring (extended) view synchrony: after a
reformation, messages some survivors had and others missed are merged
into a common history before the new ring resumes.

In this reproduction the recovery step lives in
:mod:`repro.traditional.ring_recovery` (shared with RMP); Totem differs
from RMP in that *all* membership changes — joins included — go through
ring reformation, and joiners receive the merged ring history (replayed
through the ordinary delivery path) instead of an explicit state
snapshot.
"""

from __future__ import annotations

from repro.traditional.rmp import RMPStack


class TotemStack(RMPStack):
    """All Fig. 4 layers of one process."""

    MODE = "totem"
    LAYERS = ["membership (bottom)", "atomic broadcast (token) + flow control", "recovery"]
    ORDERING_SOLVERS = [
        "atomic broadcast (orders messages)",
        "membership (orders view changes)",
        "recovery (orders messages vs. view changes)",
    ]
