"""Distributed experiment fleet: dispatcher, results database, reports.

The fleet is the fuzzbench-shaped scale-out layer over the experiment
service: a :mod:`dispatcher <repro.fleet.dispatcher>` that expands a
declarative campaign matrix (configs × workloads × seeds × fault plans)
into units keyed by their unit-memo key and drives many worker
processes from one shared queue over the :mod:`repro.service` wire
protocol (re-dispatching a dead worker's units), a persistent sqlite
:mod:`experiment database <repro.fleet.db>` recording every unit with
idempotent upserts, and a :mod:`report generator <repro.fleet.report>`
producing JSON + static HTML aggregates served read-only by the
service.  See ``docs/fleet.md``.
"""

from repro.fleet.db import FleetDB, default_db_path  # noqa: F401
from repro.fleet.dispatcher import (  # noqa: F401
    CampaignSpec,
    FleetDispatcher,
    expand_units,
)
from repro.fleet.report import build_report, render_html  # noqa: F401
