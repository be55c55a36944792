"""Leader-election protocols from the paper.

- :mod:`repro.protocols.basic_lead` — the non-resilient baseline
  (Appendix B).
- :mod:`repro.protocols.alead_uni` — A-LEADuni of Abraham et al.
  (Section 3 / Appendix A).
- :mod:`repro.protocols.phase_async` — PhaseAsyncLead, the paper's new
  Θ(√n)-resilient protocol (Section 6 / Appendix E.3), plus its broken
  ``sum``-output variant used to motivate the random function (E.4).
"""

from repro.protocols.outcome import residue_to_id, id_to_residue
from repro.protocols.random_function import RandomFunction, default_ell
from repro.protocols.basic_lead import BasicLeadStrategy, basic_lead_protocol
from repro.protocols.alead_uni import (
    ALeadOriginStrategy,
    ALeadNormalStrategy,
    alead_uni_leader,
    alead_uni_protocol,
    ORIGIN_ID,
)
from repro.protocols.phase_async import (
    PhaseAsyncParams,
    PhaseOriginStrategy,
    PhaseNormalStrategy,
    phase_async_leader,
    phase_async_protocol,
    DATA,
    VALIDATION,
)
from repro.protocols.async_complete import (
    AsyncCompleteLeadStrategy,
    async_complete_protocol,
    default_threshold,
)
from repro.protocols.indexing import (
    IndexedPhaseStrategy,
    indexed_phase_async_protocol,
)
from repro.protocols.wakeup import WakeupALeadStrategy, wakeup_alead_protocol

__all__ = [
    "residue_to_id",
    "id_to_residue",
    "RandomFunction",
    "default_ell",
    "BasicLeadStrategy",
    "basic_lead_protocol",
    "ALeadOriginStrategy",
    "ALeadNormalStrategy",
    "alead_uni_leader",
    "alead_uni_protocol",
    "ORIGIN_ID",
    "PhaseAsyncParams",
    "PhaseOriginStrategy",
    "PhaseNormalStrategy",
    "phase_async_leader",
    "phase_async_protocol",
    "DATA",
    "VALIDATION",
    "AsyncCompleteLeadStrategy",
    "async_complete_protocol",
    "default_threshold",
    "IndexedPhaseStrategy",
    "indexed_phase_async_protocol",
    "WakeupALeadStrategy",
    "wakeup_alead_protocol",
]
