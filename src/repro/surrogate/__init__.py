"""Auto-fitted surrogate tier: microsecond SSN answers with validity tracking.

The paper's thesis — a tiny fitted device model answers SSN questions in
closed form within a few percent of full simulation — turned into a
serving tier.  :func:`fit_surrogate` characterizes one technology over a
parameter box against the golden engines; the resulting
:class:`SurrogateModel` carries its validity region, operating regime and
``ErrorSummary`` error bounds; a :class:`SurrogateRegistry` routes
queries (hit / refusal / miss) with full metrics and trace coverage.

The HTTP service answers from its own per-server registry, warmed from
the persistent store and checked by the shadow audit; that is the one
path a fitted model serves through.  See ``docs/surrogate.md``.
"""

from .audit import AuditObservation, SurrogateAuditor
from .fit import fit_surrogate, training_specs
from .model import (
    REGIONS_BY_TOPOLOGY,
    SURROGATE_SCHEMA_VERSION,
    SurrogateAnswer,
    SurrogateModel,
    ValidityRegion,
    topology_signature,
)
from .registry import SurrogateRegistry

__all__ = [
    "AuditObservation",
    "REGIONS_BY_TOPOLOGY",
    "SURROGATE_SCHEMA_VERSION",
    "SurrogateAnswer",
    "SurrogateAuditor",
    "SurrogateModel",
    "SurrogateRegistry",
    "ValidityRegion",
    "fit_surrogate",
    "topology_signature",
    "training_specs",
]
