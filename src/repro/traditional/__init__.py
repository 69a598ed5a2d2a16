"""Traditional group-communication architectures (Section 2 of the paper).

Faithful architectural re-implementations of the five representative
systems the paper surveys: Isis (Fig. 1), Phoenix (Fig. 2), RMP (Fig. 3),
Totem (Fig. 4) and an Ensemble-style modular stack (Fig. 5), plus the
shared machinery they rely on (view synchrony, coupled membership, ring
reformation).  Every stack is built by ``repro.sim.world.build_group``
(and a joiner by ``add_joiner``) and offers the one application surface:
``pid``, ``abcast_payload(payload)``, ``delivered_payloads()`` and
``view()``.
"""

from repro.traditional.ensemble import EnsembleStack
from repro.traditional.isis import IsisStack
from repro.traditional.phoenix import PhoenixStack
from repro.traditional.rmp import RMPStack
from repro.traditional.totem import TotemStack

__all__ = ["EnsembleStack", "IsisStack", "PhoenixStack", "RMPStack", "TotemStack"]
