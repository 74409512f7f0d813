"""Fleet report generator: JSON + static HTML from the experiment db.

:func:`build_report` turns one recorded experiment into a *fully
deterministic* dict — per-(workload, design) aggregates with
cross-seed confidence intervals, seed-paired pairwise speedups, fault
campaign rollups, and trend deltas against a prior experiment id.
Determinism is load-bearing twice over: the characterization test pins
the report of a checked-in fixture database byte-for-byte, and the
property suite asserts the report is invariant under any permutation
of unit arrival order.  That is why the report body carries **no
timestamps and no wall-clock aggregates** — only content derived from
payloads and the experiment's identity columns.

:func:`render_html` is a dependency-free static renderer (inline CSS,
plain tables) so the HTML can be written to a CI artifact or served
read-only by the experiment service's ``report`` frame.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.db import FleetDB, UnitRow
from repro.harness.multiseed import MetricStats

REPORT_VERSION = 1


def _cpi(payload: Dict[str, object]) -> float:
    return float(payload["cycles"]) / max(1, int(payload["instructions"]))


def _by_config(
    rows: Sequence[UnitRow], mode: str
) -> Dict[Tuple[str, str], Dict[int, UnitRow]]:
    """(workload, design) -> {seed: row}, restricted to ``mode`` units."""
    grouped: Dict[Tuple[str, str], Dict[int, UnitRow]] = {}
    for row in rows:
        if row.mode != mode:
            continue
        grouped.setdefault((row.workload, row.design), {})[row.seed] = row
    return grouped


def _aggregates(
    runs: Dict[Tuple[str, str], Dict[int, UnitRow]]
) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = []
    for (workload, design) in sorted(runs):
        seeds = sorted(runs[(workload, design)])
        payloads = [runs[(workload, design)][seed].payload for seed in seeds]
        cycles = MetricStats([float(p["cycles"]) for p in payloads])
        cpi = MetricStats([_cpi(p) for p in payloads])
        out.append(
            {
                "workload": workload,
                "design": design,
                "seeds": seeds,
                "transactions": runs[(workload, design)][seeds[0]].transactions,
                "cycles": cycles.as_dict(),
                "cpi": cpi.as_dict(),
            }
        )
    return out


def _speedups(
    runs: Dict[Tuple[str, str], Dict[int, UnitRow]]
) -> List[Dict[str, object]]:
    """Seed-paired speedup of every design pair within a workload.

    Pairs only seeds both designs actually ran (mirrors
    :func:`repro.harness.multiseed.paired_speedups`' refusal to zip
    mismatched sweeps); a pair with no common seeds is omitted.
    """
    by_workload: Dict[str, List[str]] = {}
    for (workload, design) in runs:
        by_workload.setdefault(workload, []).append(design)
    out: List[Dict[str, object]] = []
    for workload in sorted(by_workload):
        designs = sorted(by_workload[workload])
        for base in designs:
            for fast in designs:
                if base >= fast:
                    continue
                base_rows = runs[(workload, base)]
                fast_rows = runs[(workload, fast)]
                common = sorted(set(base_rows) & set(fast_rows))
                if not common:
                    continue
                ratios = MetricStats(
                    [
                        float(base_rows[seed].payload["cycles"])
                        / max(1.0, float(fast_rows[seed].payload["cycles"]))
                        for seed in common
                    ]
                )
                out.append(
                    {
                        "workload": workload,
                        "baseline": base,
                        "improved": fast,
                        "seeds": common,
                        "speedup": ratios.as_dict(),
                    }
                )
    return out


def _fault_rollups(
    faults: Dict[Tuple[str, str], Dict[int, UnitRow]]
) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = []
    for (workload, design) in sorted(faults):
        seeds = sorted(faults[(workload, design)])
        payloads = [faults[(workload, design)][s].payload for s in seeds]
        detected = sum(int(p.get("detected", 0)) for p in payloads)
        tolerated = sum(int(p.get("tolerated", 0)) for p in payloads)
        silent = sum(int(p.get("silent", 0)) for p in payloads)
        passed = sum(1 for p in payloads if p.get("passed"))
        out.append(
            {
                "workload": workload,
                "design": design,
                "seeds": seeds,
                "sites": detected + tolerated + silent,
                "detected": detected,
                "tolerated": tolerated,
                "silent": silent,
                "units_passed": passed,
                "units_total": len(payloads),
            }
        )
    return out


def _scenario_rollups(
    scenarios: Dict[Tuple[str, str], Dict[int, UnitRow]]
) -> List[Dict[str, object]]:
    """Cross-seed open-loop tail-latency and traffic-verdict rollups."""
    out: List[Dict[str, object]] = []
    for (workload, design) in sorted(scenarios):
        seeds = sorted(scenarios[(workload, design)])
        payloads = [scenarios[(workload, design)][s].payload for s in seeds]
        sojourn = MetricStats(
            [float(p.get("sojourn_p99", 0)) for p in payloads]
        )
        queue = MetricStats(
            [float(p.get("queue_delay_p99", 0)) for p in payloads]
        )
        flagged_tenants = 0
        kinds: List[str] = []
        for p in payloads:
            for verdict in (p.get("tenants") or {}).values():
                if verdict.get("flagged"):
                    flagged_tenants += 1
                    kinds.extend(verdict.get("kinds", []))
        out.append(
            {
                "workload": workload,
                "design": design,
                "seeds": seeds,
                "sojourn_p99": sojourn.as_dict(),
                "queue_delay_p99": queue.as_dict(),
                "arrivals_queued": sum(
                    int(p.get("arrivals_queued", 0)) for p in payloads
                ),
                "flagged_tenants": flagged_tenants,
                "flag_kinds": sorted(set(kinds)),
            }
        )
    return out


def _trends(
    runs: Dict[Tuple[str, str], Dict[int, UnitRow]],
    base_runs: Dict[Tuple[str, str], Dict[int, UnitRow]],
    baseline_id: str,
) -> List[Dict[str, object]]:
    """Per-config mean-cycles delta vs the baseline experiment."""
    out: List[Dict[str, object]] = []
    for key in sorted(set(runs) & set(base_runs)):
        workload, design = key
        now = MetricStats(
            [float(r.payload["cycles"]) for _, r in sorted(runs[key].items())]
        )
        then = MetricStats(
            [
                float(r.payload["cycles"])
                for _, r in sorted(base_runs[key].items())
            ]
        )
        delta = now.mean - then.mean
        out.append(
            {
                "workload": workload,
                "design": design,
                "baseline_experiment": baseline_id,
                "cycles_mean": now.mean,
                "baseline_cycles_mean": then.mean,
                "delta": delta,
                "delta_pct": (
                    100.0 * delta / then.mean if then.mean else 0.0
                ),
            }
        )
    return out


def build_report(
    db: FleetDB, experiment_id: str, baseline: Optional[str] = None
) -> Dict[str, object]:
    """The deterministic report dict for one recorded experiment."""
    experiment = db.experiment(experiment_id)
    rows = db.unit_rows(experiment_id)
    runs = _by_config(rows, "run")
    faults = _by_config(rows, "faults")
    scenarios = _by_config(rows, "scenario")

    report: Dict[str, object] = {
        "report_version": REPORT_VERSION,
        "experiment_id": experiment_id,
        "campaign": experiment["campaign"],
        "git_hash": experiment["git_hash"],
        "generator_version": experiment["generator_version"],
        "status": experiment["status"],
        "units": {
            "total": len(rows),
            "run": sum(len(v) for v in runs.values()),
            "faults": sum(len(v) for v in faults.values()),
            "scenario": sum(len(v) for v in scenarios.values()),
            "duplicates": sum(row.duplicates for row in rows),
        },
        "workers": sorted({row.worker_id for row in rows if row.worker_id}),
        "aggregates": _aggregates(runs),
        "speedups": _speedups(runs),
        "faults": _fault_rollups(faults),
        "scenarios": _scenario_rollups(scenarios),
    }
    if baseline:
        base_rows = db.unit_rows(baseline)
        report["trend"] = _trends(
            runs, _by_config(base_rows, "run"), baseline
        )
    return report


# ----------------------------------------------------------------------
# Static HTML
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       color: #1b1f24; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 1.8rem; }
table { border-collapse: collapse; margin: 0.6rem 0; }
th, td { border: 1px solid #d0d7de; padding: 0.3rem 0.7rem;
         font-size: 0.85rem; text-align: right; }
th { background: #f6f8fa; } td.l, th.l { text-align: left; }
.meta { color: #57606a; font-size: 0.85rem; }
.bad { color: #b42318; font-weight: 600; }
.good { color: #137333; }
"""


_LEFT = " class='l'"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           left: int = 1) -> str:
    head = "".join(
        f"<th{_LEFT if i < left else ''}>{html.escape(h)}</th>"
        for i, h in enumerate(headers)
    )
    body = "".join(
        "<tr>"
        + "".join(
            f"<td{_LEFT if i < left else ''}>{cell}</td>"
            for i, cell in enumerate(row)
        )
        + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _stat(stat: Dict[str, object]) -> str:
    return f"{stat['mean']:.1f} ± {stat['ci95']:.1f} (n={stat['n']})"


def _short_hash(git_hash: str) -> str:
    """The commit's first 12 hex digits, keeping a ``-dirty`` suffix."""
    commit, dirty, _ = git_hash.partition("-dirty")
    return commit[:12] + dirty or "unknown"


def render_html(report: Dict[str, object]) -> str:
    """Render one report dict as a self-contained HTML page."""
    eid = html.escape(str(report["experiment_id"]))
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>fleet report: {eid}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Fleet report — {eid}</h1>",
        "<p class='meta'>"
        f"git {html.escape(_short_hash(str(report['git_hash'])))} · "
        f"generator v{report['generator_version']} · "
        f"{report['units']['total']} units "
        f"({report['units']['run']} run, {report['units']['faults']} fault, "
        f"{report['units'].get('scenario', 0)} scenario, "
        f"{report['units']['duplicates']} duplicates) · workers: "
        f"{html.escape(', '.join(report['workers']) or '-')}</p>",
    ]

    parts.append("<h2>Per-config aggregates (cross-seed, 95% CI)</h2>")
    parts.append(
        _table(
            ["workload", "design", "tx", "seeds", "cycles", "cpi"],
            [
                [
                    html.escape(a["workload"]),
                    html.escape(a["design"]),
                    str(a["transactions"]),
                    str(len(a["seeds"])),
                    _stat(a["cycles"]),
                    f"{a['cpi']['mean']:.3f} ± {a['cpi']['ci95']:.3f}",
                ]
                for a in report["aggregates"]
            ],
            left=2,
        )
        if report["aggregates"]
        else "<p class='meta'>no run units</p>"
    )

    parts.append("<h2>Pairwise speedups (seed-paired cycles ratio)</h2>")
    parts.append(
        _table(
            ["workload", "baseline", "improved", "seeds", "speedup"],
            [
                [
                    html.escape(s["workload"]),
                    html.escape(s["baseline"]),
                    html.escape(s["improved"]),
                    str(len(s["seeds"])),
                    f"{s['speedup']['mean']:.3f}x ± "
                    f"{s['speedup']['ci95']:.3f}",
                ]
                for s in report["speedups"]
            ],
            left=3,
        )
        if report["speedups"]
        else "<p class='meta'>fewer than two designs per workload</p>"
    )

    parts.append("<h2>Fault campaigns</h2>")
    if report["faults"]:
        rows = []
        for f in report["faults"]:
            silent = (
                f"<span class='bad'>{f['silent']}</span>"
                if f["silent"]
                else "<span class='good'>0</span>"
            )
            rows.append(
                [
                    html.escape(f["workload"]),
                    html.escape(f["design"]),
                    str(f["sites"]),
                    str(f["detected"]),
                    str(f["tolerated"]),
                    silent,
                    f"{f['units_passed']}/{f['units_total']}",
                ]
            )
        parts.append(
            _table(
                ["workload", "design", "sites", "detected", "tolerated",
                 "silent", "passed"],
                rows,
                left=2,
            )
        )
    else:
        parts.append("<p class='meta'>no fault units in this campaign</p>")

    parts.append("<h2>Open-loop scenarios (sojourn p99, traffic verdicts)</h2>")
    if report.get("scenarios"):
        rows = []
        for s in report["scenarios"]:
            flagged = (
                f"<span class='bad'>{s['flagged_tenants']}</span> "
                f"({html.escape(', '.join(s['flag_kinds']))})"
                if s["flagged_tenants"]
                else "<span class='good'>0</span>"
            )
            rows.append(
                [
                    html.escape(s["workload"]),
                    html.escape(s["design"]),
                    str(len(s["seeds"])),
                    _stat(s["sojourn_p99"]),
                    _stat(s["queue_delay_p99"]),
                    str(s["arrivals_queued"]),
                    flagged,
                ]
            )
        parts.append(
            _table(
                ["workload", "design", "seeds", "sojourn p99",
                 "queue delay p99", "queued", "flagged"],
                rows,
                left=2,
            )
        )
    else:
        parts.append("<p class='meta'>no scenario units in this campaign</p>")

    if report.get("trend"):
        baseline_id = html.escape(
            str(report["trend"][0]["baseline_experiment"])
        )
        parts.append(f"<h2>Trend vs {baseline_id}</h2>")
        rows = []
        for t in report["trend"]:
            cls = "bad" if t["delta_pct"] > 0 else "good"
            rows.append(
                [
                    html.escape(t["workload"]),
                    html.escape(t["design"]),
                    f"{t['baseline_cycles_mean']:.1f}",
                    f"{t['cycles_mean']:.1f}",
                    f"<span class='{cls}'>{t['delta_pct']:+.2f}%</span>",
                ]
            )
        parts.append(
            _table(
                ["workload", "design", "baseline mean", "current mean",
                 "delta"],
                rows,
                left=2,
            )
        )

    parts.append("</body></html>")
    return "".join(parts)


def write_report(
    db: FleetDB,
    experiment_id: str,
    out_dir: Path,
    baseline: Optional[str] = None,
) -> List[Path]:
    """Write ``report.json`` + ``report.html`` into ``out_dir``."""
    report = build_report(db, experiment_id, baseline=baseline)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    html_path = out_dir / "report.html"
    json_path.write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    html_path.write_text(render_html(report))
    return [json_path, html_path]
