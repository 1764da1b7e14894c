"""Auto-fitted surrogate tier: microsecond SSN answers with validity tracking.

The paper's thesis — a tiny fitted device model answers SSN questions in
closed form within a few percent of full simulation — turned into a
serving tier.  :func:`fit_surrogate` characterizes one technology over a
parameter box against the golden engines; the resulting
:class:`SurrogateModel` carries its validity region, operating regime and
``ErrorSummary`` error bounds; a :class:`SurrogateRegistry` routes
queries (hit / refusal / miss) with full metrics and trace coverage.

The :func:`default_registry` is what the engine ladder's ``surrogate``
rung (``simulate_many(engine="surrogate")``, ``--engine surrogate``)
consults; the HTTP service keeps its own per-server registry warmed from
the persistent store.  See ``docs/surrogate.md``.
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
from .registry import SurrogateRegistry, default_registry

__all__ = [
    "AuditObservation",
    "REGIONS_BY_TOPOLOGY",
    "SURROGATE_SCHEMA_VERSION",
    "SurrogateAnswer",
    "SurrogateAuditor",
    "SurrogateModel",
    "SurrogateRegistry",
    "ValidityRegion",
    "default_registry",
    "fit_surrogate",
    "topology_signature",
    "training_specs",
]
