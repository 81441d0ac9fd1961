"""Batched many-scenario execution: fleets of small interfaces.

Exports :class:`ScenarioFleet` — the struct-of-arrays engine that
advances N independent same-grid scenarios per backend kernel
invocation — and :func:`fleet_key`, the eligibility/grouping predicate
the campaign fast path (``rocketrig campaign``) uses to decide which
run specs can share a fleet.  See :mod:`repro.batch.fleet` for the model
and parity contract.
"""

from repro.batch.fleet import ScenarioFleet, fleet_key

__all__ = ["ScenarioFleet", "fleet_key"]
