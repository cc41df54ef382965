"""The ``repro.deploy/1`` deployment report.

``check-deploy`` emits one report per run: the fabric, every tenant's
placement, the per-switch admission ledger (who uses how much of which
resource, against which chip profile), and the structured diagnostics.
The JSON form is byte-deterministic -- sorted keys, sorted collections,
diagnostics in source order -- so golden tests and CI gates can diff it
verbatim, exactly like the ``repro.diag/1`` and ``repro.nclc/2``
artifacts it builds on.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.deploy.checks import DeployContext, ResourceAdmissionCheck
from repro.analysis.deploy.model import Deployment
from repro.diag import DiagnosticSink, Severity
from repro.diag.export import findings_block
from repro.diag.render import SourceMap, render_diagnostic

SCHEMA = "repro.deploy/1"

#: the admission ledger's columns: AcceptanceReport attr -> ArchProfile
#: capacity attr, from the table the admission check sums by
_CAPACITY = {
    res: cap for _code, res, cap, _unit in ResourceAdmissionCheck.RESOURCES
}


def admission_ledger(ctx: DeployContext) -> Dict[str, object]:
    """Per-switch resource accounting: per-tenant use, totals, capacity."""
    ledger: Dict[str, object] = {}
    for name in sorted(ctx.fabric.switches):
        if not ctx.fabric.nodes[name].programmable:
            continue  # no kernel can be admitted there
        residents = ctx.residents(name)
        profile = ctx.fabric.switch_profile(name)
        tenants: Dict[str, Dict[str, int]] = {}
        used = {res: 0 for res in _CAPACITY}
        for tenant, label in residents:
            report = tenant.program.reports.get(label)
            if report is None:
                continue
            row = {res: int(getattr(report, res)) for res in _CAPACITY}
            tenants[f"{tenant.name}/{label}"] = row
            for res in _CAPACITY:
                used[res] += row[res]
        ledger[name] = {
            "profile": profile.name,
            "tenants": tenants,
            "used": used,
            "capacity": {
                res: int(getattr(profile, attr))
                for res, attr in _CAPACITY.items()
            },
        }
    return ledger


def build_report(ctx: DeployContext) -> Dict[str, object]:
    """The full ``repro.deploy/1`` dict (JSON-ready, deterministic)."""
    deployment = ctx.deployment
    sink = ctx.sink
    tenants: List[Dict[str, object]] = []
    for tenant in deployment.tenants:
        assignment, _problems = ctx.host_assignment(tenant)
        tenants.append(
            {
                "name": tenant.name,
                "program": tenant.program_path,
                "idbase": tenant.idbase,
                "kernels": {
                    name: eff
                    for name, eff in sorted(
                        tenant.effective_kernel_ids().items()
                    )
                },
                "placement": dict(sorted(tenant.placement.items())),
                "hosts": dict(sorted(assignment.items())),
                "replay_safety": {
                    f"{kernel}@{label}": result.verdict
                    for (label, kernel), result in sorted(
                        ctx.replay_results(tenant).items()
                    )
                },
            }
        )
    return {
        "schema": SCHEMA,
        "fabric": deployment.fabric.to_dict(),
        "tenants": tenants,
        "admission": admission_ledger(ctx),
        **findings_block(sink),
        "admissible": not sink.has_errors,
    }


def render_report_json(ctx: DeployContext) -> str:
    """Byte-deterministic JSON text of :func:`build_report`."""
    return json.dumps(build_report(ctx), indent=2, sort_keys=True) + "\n"


def _fmt_use(used: int, cap: int) -> str:
    pct = 100 * used // cap if cap else 0
    return f"{used}/{cap} ({pct}%)"


def render_report_text(ctx: DeployContext) -> str:
    """The human-readable report: utilization table, diagnostics with
    caret excerpts into the manifest and NCL sources, verdict line."""
    deployment: Deployment = ctx.deployment
    sink: DiagnosticSink = ctx.sink
    out: List[str] = []
    out.append(
        f"deployment {deployment.filename}: "
        f"{len(deployment.tenants)} tenant(s) on "
        f"{len(deployment.fabric.switches)} switch(es), "
        f"{len(deployment.fabric.hosts)} host(s)"
    )
    out.append("")
    ledger = admission_ledger(ctx)
    for switch, entry in ledger.items():
        tenants = entry["tenants"]
        used = entry["used"]
        cap = entry["capacity"]
        out.append(
            f"  switch {switch} ({entry['profile']}): "
            f"{len(tenants)} resident program(s)"
        )
        # columns named after the ledger's resources: "phv_bits" reads
        # "phv" in the totals line and "phv bits" in a tenant's row
        out.append("    " + ", ".join(
            f"{res.split('_')[0]} {_fmt_use(used[res], cap[res])}"
            for res in _CAPACITY
        ))
        for who, row in tenants.items():
            out.append(f"      {who}: " + ", ".join(
                f"{row[res]} {res.replace('_', ' ')}" for res in _CAPACITY
            ))
    out.append("")
    for tenant in deployment.tenants:
        verdicts = ", ".join(
            f"{kernel}@{label} {result.verdict}"
            for (label, kernel), result in sorted(
                ctx.replay_results(tenant).items()
            )
        )
        out.append(f"  replay safety {tenant.name}: {verdicts or 'n/a'}")
    diags = sink.sorted()
    if diags:
        out.append("")
        sources = SourceMap(deployment.sources)
        for diag in diags:
            out.append(render_diagnostic(diag, sources).rstrip("\n"))
            out.append("")
    errors = sink.count(Severity.ERROR)
    warnings = sink.count(Severity.WARNING)
    if errors:
        out.append(
            f"deployment REJECTED: {errors} error(s), {warnings} warning(s)"
        )
    else:
        out.append(f"deployment ADMISSIBLE: {warnings} warning(s)")
    return "\n".join(out) + "\n"
