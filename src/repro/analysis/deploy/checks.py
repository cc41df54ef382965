"""The whole-fabric deployment checks (the ``check-deploy`` rule set).

Five analysis families in one :class:`repro.analysis.Registry`, like the
lint rule set but operating on a :class:`~repro.analysis.deploy.model.Deployment`
(N compiled programs on one fabric) instead of a single program:

* **admission** (NCL0910--0914): sum each switch's co-resident resource
  estimates (stages, PHV, SRAM, tables, actions) against its chip
  profile, with per-tenant attribution in the notes;
* **isolation** (NCL0920--0922): disjoint NCP kernel-id spaces,
  ``_ctrl_`` namespace aliasing, and cross-tenant shared-state writes
  on one physical switch;
* **placement** (NCL0930--0932): every mapped label lands on a real
  switch, every overlay node is covered, and every overlay edge's
  installed routes exist and cross none of the tenant's other switches;
* **transport** (NCL0940--0941): window frames fit the routes' MTU
  unfragmented (switches do not execute kernels on fragments), and the
  headroom left for INT telemetry -- the latter graded
  ``proved``/``possible`` by interval reasoning over the hop count,
  like the absint-graded lint rules;
* **replay-safety** (NCL0856): every tenant kernel is run through the
  effect-summary analysis plus the NCP window model checker of
  :mod:`repro.analysis.proto`; a tenant whose kernel double-applies a
  shared-state update under retransmission is flagged with its minimal
  counterexample schedule, and every tenant's per-kernel verdict rides
  in the ``repro.deploy/1`` report (``replay_safety``).

Every check emits stable ``NCL09xx`` codes registered in
:mod:`repro.diag.codes`; :func:`run_checks` finishes with
:meth:`repro.diag.DiagnosticSink.dedupe`, because several checks see
the same site from multiple contexts (every switch, every tenant pair).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.deploy.model import Deployment, TenantDeployment
from repro.analysis import Registry, Rule
from repro.analysis.proto import (
    _GUARD_FIXIT,
    ModelResult,
    _describe_step,
    check_models,
)
from repro.analysis.rules import _SPACE_WORD
from repro.andspec.fabric import FabricSpec
from repro.andspec.mapping import Routes, place_hosts
from repro.diag import DiagnosticSink, Span
from repro.errors import SourceLocation
from repro.nir.ir import STATE_SPACES, GlobalRef, state_accesses
from repro.ncp.fragment import FRAG_KERNEL_BIT
from repro.ncp.wire import HEADERS_LEN
from repro.obs.int import HOP_BYTES, TAIL_BYTES, IntConfig

#: fixed eth+ipv4+udp+NCP framing every window pays before its payload
HEADER_BYTES: int = HEADERS_LEN


class _EdgePath:
    """The installed route one direction of a tenant's overlay edge rides."""

    __slots__ = ("path", "switch_hops", "narrow_link")

    def __init__(self, path: List[str], graph: nx.Graph) -> None:
        self.path = path
        #: switches the route traverses
        self.switch_hops = sum(graph.nodes[n]["kind"] == "switch" for n in path)
        link = min(zip(path, path[1:]), key=lambda e: graph.edges[e]["mtu"])
        #: ``(a, b, mtu)`` of the route's narrowest link, ends in name order
        self.narrow_link = (min(link), max(link), graph.edges[link]["mtu"])


class DeployContext:
    """Everything a deployment check may look at, with shared caches."""

    def __init__(self, deployment: Deployment, sink: DiagnosticSink) -> None:
        self.deployment = deployment
        self.sink = sink
        #: the fabric's installed single-path routes
        self.routes = Routes(deployment.fabric.graph())
        self._host_assignments: Dict[
            str, Tuple[Dict[str, str], List[Tuple[str, str]]]
        ] = {}
        self._edge_paths: Dict[
            str, Dict[Tuple[str, str], Optional[_EdgePath]]
        ] = {}
        self._replay: Dict[str, Dict[Tuple[str, str], "ModelResult"]] = {}

    # -- fabric views --------------------------------------------------

    @property
    def fabric(self) -> FabricSpec:
        return self.deployment.fabric

    # -- per-tenant views ----------------------------------------------

    def host_assignment(
        self, tenant: TenantDeployment
    ) -> Tuple[Dict[str, str], List[Tuple[str, str]]]:
        if tenant.name not in self._host_assignments:
            self._host_assignments[tenant.name] = place_hosts(
                [n.label for n in tenant.program.and_spec.hosts],
                self.routes.graph,
                tenant.host_pins,
            )
        return self._host_assignments[tenant.name]

    def valid_switch_placement(
        self, tenant: TenantDeployment
    ) -> Dict[str, str]:
        """The tenant's ``map`` entries that name a real overlay label
        and a programmable fabric switch (bad entries are NCL0932
        findings and excluded here so downstream checks do not
        cascade)."""
        overlay = {n.label for n in tenant.program.and_spec.switches}
        out: Dict[str, str] = {}
        for label, target in tenant.placement.items():
            if label not in overlay:
                continue
            node = self.fabric.nodes.get(target)
            if node is None or not node.programmable:
                continue
            out[label] = target
        return out

    def residents(
        self, switch: str
    ) -> List[Tuple[TenantDeployment, str]]:
        """``(tenant, overlay_label)`` pairs placed on *switch*, in
        tenant declaration order."""
        out: List[Tuple[TenantDeployment, str]] = []
        for tenant in self.deployment.tenants:
            for label, target in sorted(
                self.valid_switch_placement(tenant).items()
            ):
                if target == switch:
                    out.append((tenant, label))
        return out

    def node_images(self, tenant: TenantDeployment) -> Dict[str, str]:
        """Overlay label -> fabric node, for hosts and switches alike."""
        images = dict(self.valid_switch_placement(tenant))
        assignment, _problems = self.host_assignment(tenant)
        images.update(assignment)
        return images

    def edge_paths(
        self, tenant: TenantDeployment
    ) -> Dict[Tuple[str, str], Optional[_EdgePath]]:
        """Installed route per direction ``(u, v)`` of each placed overlay
        edge (None both ways = the edge is not admissible)."""
        if tenant.name not in self._edge_paths:
            self._edge_paths[tenant.name] = self._route_tenant(tenant)
        return self._edge_paths[tenant.name]

    def replay_results(
        self, tenant: TenantDeployment
    ) -> Dict[Tuple[str, str], ModelResult]:
        """Per-kernel transport-safety model-checker results for one
        tenant: ``(overlay_label, kernel) -> ModelResult`` (cached; the
        same machinery ``nclc check-proto`` runs on a single program)."""
        if tenant.name not in self._replay:
            self._replay[tenant.name] = check_models(
                tenant.program.effect_summaries()
            )
        return self._replay[tenant.name]

    def _route_tenant(
        self, tenant: TenantDeployment
    ) -> Dict[Tuple[str, str], Optional[_EdgePath]]:
        images = self.node_images(tenant)
        mapped = set(self.valid_switch_placement(tenant).values())
        out: Dict[Tuple[str, str], Optional[_EdgePath]] = {}
        for a, b in tenant.program.and_spec.edges:
            src, dst = images.get(a), images.get(b)
            if src is None or dst is None or src == dst:
                continue  # placement check reports the missing image
            routed = self.routes.edge(src, dst, mapped)
            if routed is None:
                out[(a, b)] = out[(b, a)] = None
            else:
                out[(a, b)], out[(b, a)] = (_EdgePath(p, self.routes.graph) for p in routed)
        return out


DeployCheck = Rule[DeployContext]

#: the ``check-deploy`` family, in definition order
CHECKS: Registry[DeployContext] = Registry("deploy check", code_width=46)
register = CHECKS.register
all_checks = CHECKS.all


def run_checks(
    ctx: DeployContext, checks: Optional[Sequence[DeployCheck]] = None
) -> None:
    """Run *checks* (default: all), then dedupe the sink: several checks
    legitimately reach one finding from multiple contexts."""
    CHECKS.run(ctx, checks)
    ctx.sink.dedupe()


def _spans(
    sites: Iterable[Tuple[Optional[SourceLocation], str]]
) -> List[Span]:
    """Labelled secondary spans for the ``(loc, label)`` sites that have
    a location."""
    return [Span(loc, 1, label) for loc, label in sites if loc is not None]


# ---------------------------------------------------------------------------
# admission: NCL0910-0914
# ---------------------------------------------------------------------------


@register
class ResourceAdmissionCheck(DeployCheck):
    """Per-switch resource admission (the multi-tenant budget sum).

    Each compiled program carries the backend's per-label
    :class:`repro.p4.backend.AcceptanceReport`; an individual program
    fits its switch by construction (the backend rejected it
    otherwise), but co-residents *sum*. This check folds every resident
    estimate per fabric switch and compares against the switch's own
    chip profile, attributing the total tenant-by-tenant.
    """

    name = "admission"
    codes = ("NCL0910", "NCL0911", "NCL0912", "NCL0913", "NCL0914")
    about = "summed co-resident resource demand within each switch's chip profile"

    #: (code, AcceptanceReport attr, ArchProfile attr, human unit)
    RESOURCES: Sequence[Tuple[str, str, str, str]] = (
        ("NCL0910", "stages", "max_stages", "pipeline stages"),
        ("NCL0911", "phv_bits", "phv_bits", "PHV bits"),
        ("NCL0912", "sram_bytes", "sram_bytes", "bytes of register SRAM"),
        ("NCL0913", "tables", "max_tables", "match-action tables"),
        ("NCL0914", "actions", "max_actions", "actions"),
    )

    def run(self, ctx: DeployContext) -> None:
        for name in sorted(ctx.fabric.switches):
            node = ctx.fabric.nodes[name]
            residents = ctx.residents(name)
            reports = [
                (tenant, label, tenant.program.reports[label])
                for tenant, label in residents
                if label in tenant.program.reports
            ]
            if not reports:
                continue
            profile = ctx.fabric.switch_profile(node.name)
            for code, rep_attr, cap_attr, unit in self.RESOURCES:
                used = sum(getattr(rep, rep_attr) for _, _, rep in reports)
                cap = getattr(profile, cap_attr)
                if used <= cap:
                    continue
                notes = [
                    f"tenant '{t.name}' ('{label}' of {t.program_path}) "
                    f"needs {getattr(rep, rep_attr)} {unit}"
                    for t, label, rep in sorted(
                        reports,
                        key=lambda r: (-getattr(r[2], rep_attr), r[0].name),
                    )
                ]
                secondary = _spans(
                    (t.anchor(label), f"tenant '{t.name}' places '{label}' here")
                    for t, label, _rep in reports
                )
                ctx.sink.error(
                    code,
                    f"switch '{node.name}' ({profile.name}) over capacity: "
                    f"{len(reports)} co-resident programs need {used} {unit} "
                    f"but the chip has {cap}",
                    loc=node.loc,
                    secondary=secondary,
                    notes=notes,
                    fixit=(
                        "move a tenant to another switch or deploy "
                        f"'{node.name}' with a larger chip profile"
                    ),
                    rule=self.name,
                    status="proved",
                )


# ---------------------------------------------------------------------------
# isolation: NCL0920-0922
# ---------------------------------------------------------------------------


@register
class KernelIdIsolationCheck(DeployCheck):
    """NCP kernel-id space disjointness.

    Every program numbers its kernels from 1, so co-residents collide
    unless the deployment assigns disjoint ``idbase=`` offsets; the
    effective id (compiled id + idbase) must also stay below the
    fragment escape bit, which the wire format reserves.
    """

    name = "kernel-ids"
    codes = ("NCL0920",)
    about = "disjoint NCP kernel-id spaces across co-resident tenants"

    def run(self, ctx: DeployContext) -> None:
        owners: Dict[int, Tuple[TenantDeployment, str]] = {}
        for tenant in ctx.deployment.tenants:
            for kernel, eff in sorted(tenant.effective_kernel_ids().items()):
                if eff >= FRAG_KERNEL_BIT:
                    ctx.sink.error(
                        "NCL0920",
                        f"tenant '{tenant.name}' kernel '{kernel}' gets "
                        f"NCP id {eff:#x}, which escapes into the fragment "
                        f"id space (>= {FRAG_KERNEL_BIT:#x})",
                        loc=tenant.loc,
                        fixit=f"lower idbase for tenant '{tenant.name}'",
                        rule=self.name,
                        status="proved",
                    )
                    continue
                prev = owners.get(eff)
                if prev is None:
                    owners[eff] = (tenant, kernel)
                    continue
                prev_tenant, prev_kernel = prev
                if prev_tenant is tenant:
                    continue  # intra-program collisions are impossible
                ctx.sink.error(
                    "NCL0920",
                    f"NCP kernel-id collision: id {eff} is "
                    f"'{prev_kernel}' of tenant '{prev_tenant.name}' and "
                    f"'{kernel}' of tenant '{tenant.name}'",
                    loc=tenant.loc,
                    secondary=_spans([(
                        prev_tenant.loc,
                        f"tenant '{prev_tenant.name}' declared here",
                    )]),
                    notes=[
                        f"tenant '{prev_tenant.name}' uses idbase="
                        f"{prev_tenant.idbase}, tenant '{tenant.name}' "
                        f"uses idbase={tenant.idbase}",
                        "switches demultiplex windows by NCP kernel id, "
                        "so colliding tenants would execute each other's "
                        "kernels",
                    ],
                    fixit=(
                        f"give tenant '{tenant.name}' a disjoint idbase= "
                        "(each tenant needs its own block of ids)"
                    ),
                    rule=self.name,
                    status="proved",
                )


class _GlobalUse:
    """How one tenant uses one global on one physical switch."""

    __slots__ = ("tenant", "ref", "writer")

    def __init__(
        self,
        tenant: TenantDeployment,
        ref: GlobalRef,
        writer: Optional[Tuple[str, Optional[SourceLocation]]],
    ) -> None:
        self.tenant = tenant
        self.ref = ref
        #: ``(kernel, loc)`` of the tenant's first write, or None
        self.writer = writer


@register
class NamespaceIsolationCheck(DeployCheck):
    """Cross-tenant state aliasing on one physical switch.

    Switch state is addressed by symbol name (the control plane's
    ``ncl::ctrl_wr`` and the generated P4 registers both key on it), so
    two tenants declaring one name on one physical switch alias:

    * ``_ctrl_`` variables alias unconditionally (NCL0921) -- a
      control-plane write by either tenant lands in both programs;
    * other switch state (arrays, Maps, BloomFilters) conflicts when at
      least one tenant's kernels write it (NCL0922), naming each such
      tenant's first write (:func:`repro.nir.ir.state_accesses`).
    """

    name = "namespaces"
    codes = ("NCL0921", "NCL0922")
    about = "no _ctrl_/state name aliasing between tenants sharing a switch"

    def run(self, ctx: DeployContext) -> None:
        # physical switch -> global name -> [per-tenant use]
        by_switch: Dict[str, Dict[str, List[_GlobalUse]]] = {}
        for tenant in ctx.deployment.tenants:
            placement = ctx.valid_switch_placement(tenant)
            if not placement:
                continue
            module = tenant.program.ref_module
            if module is None:
                continue
            first_writer: Dict[str, Tuple[str, Optional[SourceLocation]]] = {}
            for fn in module.kernels():
                for _block, instr, ref, is_write in state_accesses(fn):
                    if is_write:
                        first_writer.setdefault(ref.name, (fn.name, instr.loc))
            for name, ref in sorted(module.globals.items()):
                if ref.space not in STATE_SPACES:
                    continue
                # A pinned symbol lives on its label's switch; an
                # unpinned one is versioned onto every switch the
                # tenant occupies.
                labels = (
                    [ref.at_label]
                    if ref.at_label is not None
                    else sorted(placement)
                )
                use = _GlobalUse(tenant, ref, first_writer.get(name))
                for label in labels:
                    target = placement.get(label)
                    if target is None:
                        continue
                    by_switch.setdefault(target, {}).setdefault(
                        name, []
                    ).append(use)

        for switch in sorted(by_switch):
            for name, uses in sorted(by_switch[switch].items()):
                tenants = []
                for use in uses:
                    if use.tenant not in tenants:
                        tenants.append(use.tenant)
                if len(tenants) < 2:
                    continue
                if all(u.ref.space == "ctrl" for u in uses):
                    self._report_ctrl(ctx, switch, name, tenants)
                else:
                    self._report_state(ctx, switch, name, uses, tenants)

    def _report_ctrl(
        self,
        ctx: DeployContext,
        switch: str,
        name: str,
        tenants: List[TenantDeployment],
    ) -> None:
        who = " and ".join(f"'{t.name}'" for t in tenants)
        ctx.sink.error(
            "NCL0921",
            f"_ctrl_ variable '{name}' aliases on switch '{switch}': "
            f"declared by tenants {who}, and control-plane writes "
            "address switch state by name",
            loc=tenants[0].anchor(),
            secondary=_spans(
                (t.anchor(), f"tenant '{t.name}' declared here")
                for t in tenants[1:]
            ),
            fixit=(
                f"rename '{name}' in one program, or place the tenants "
                "on different switches"
            ),
            rule=self.name,
            status="proved",
        )

    def _report_state(
        self,
        ctx: DeployContext,
        switch: str,
        name: str,
        uses: List[_GlobalUse],
        tenants: List[TenantDeployment],
    ) -> None:
        writers = [u for u in uses if u.writer is not None]
        if not writers:
            return  # co-located read-only state with one name: harmless
        space = _SPACE_WORD[uses[0].ref.space]
        who = " and ".join(f"'{t.name}'" for t in tenants)
        notes = [
            f"tenant '{use.tenant.name}' kernel '{use.writer[0]}' writes "
            f"'{name}'"
            for use in writers
        ]
        secondary = _spans(
            (use.writer[1], f"tenant '{use.tenant.name}' writes '{name}' here")
            for use in writers
        )
        ctx.sink.error(
            "NCL0922",
            f"cross-tenant shared-state conflict on switch '{switch}': "
            f"{space} '{name}' is used by tenants {who} with at least "
            "one writer, and no serialization crosses tenant boundaries",
            loc=tenants[0].anchor(),
            secondary=secondary,
            notes=notes,
            fixit=(
                f"rename '{name}' in one program, or place the tenants "
                "on different switches"
            ),
            rule=self.name,
            status="proved",
        )


# ---------------------------------------------------------------------------
# placement: NCL0930-0932
# ---------------------------------------------------------------------------


@register
class PlacementCheck(DeployCheck):
    """Placement validity, coverage, and reachability.

    NCL0932 rejects map/pin entries that name unknown labels or the
    wrong node kind (and two overlay switches on one physical switch --
    one pipeline cannot run two programs' kernels for one tenant);
    NCL0931 rejects overlay nodes the mapping leaves unplaced; NCL0930
    rejects overlay edges whose installed route, in either direction,
    is missing or crosses another of the tenant's mapped switches (which
    would reorder kernel execution): the rule ``map_overlay`` applies.
    """

    name = "placement"
    codes = ("NCL0930", "NCL0931", "NCL0932")
    about = "every kernel's switch lies on a real path between its hosts"

    def run(self, ctx: DeployContext) -> None:
        for tenant in ctx.deployment.tenants:
            self._check_targets(ctx, tenant)
            self._check_coverage(ctx, tenant)
            self._check_reachability(ctx, tenant)

    def _check_targets(
        self, ctx: DeployContext, tenant: TenantDeployment
    ) -> None:
        overlay = {n.label for n in tenant.program.and_spec.switches}
        taken: Dict[str, str] = {}
        for label, target in sorted(tenant.placement.items()):
            node = ctx.fabric.nodes.get(target)
            notes = None
            if label not in overlay:
                problem = (
                    f"maps unknown overlay label '{label}' (the program's "
                    f"AND declares: {', '.join(sorted(overlay)) or 'none'})"
                )
            elif node is None:
                problem = f"maps '{label}' to unknown fabric node '{target}'"
            elif not node.is_switch:
                problem = (
                    f"maps '{label}' to '{target}', which is a host, not a "
                    "switch"
                )
            elif not node.programmable:
                problem = (
                    f"maps '{label}' to '{target}', a switch with no chip "
                    "profile, which cannot run a kernel"
                )
            elif target in taken:
                problem = (
                    f"maps both '{taken[target]}' and '{label}' to switch "
                    f"'{target}'"
                )
                notes = [
                    "one pipeline cannot preserve kernel order for "
                    "two overlay switches of the same program"
                ]
            else:
                taken[target] = label
                continue
            ctx.sink.error(
                "NCL0932",
                f"tenant '{tenant.name}' {problem}",
                loc=tenant.map_locs.get(label, tenant.loc),
                notes=notes,
                rule=self.name,
            )
        _assignment, problems = ctx.host_assignment(tenant)
        for label, reason in problems:
            code = (
                "NCL0931"
                if reason.startswith("no free fabric host")
                else "NCL0932"
            )
            ctx.sink.error(
                code,
                f"tenant '{tenant.name}' overlay host '{label}': {reason}",
                loc=tenant.pin_locs.get(label, tenant.loc),
                rule=self.name,
            )

    def _check_coverage(
        self, ctx: DeployContext, tenant: TenantDeployment
    ) -> None:
        for node in sorted(
            tenant.program.and_spec.switches, key=lambda n: n.label
        ):
            if node.label in tenant.placement:
                continue
            kernels = sorted(
                fn.name
                for fn in (tenant.program.ref_module.kernels() if tenant.program.ref_module else [])
                if fn.at_label == node.label
            )
            pinned = (
                f" (kernels pinned there: {', '.join(kernels)})"
                if kernels
                else ""
            )
            ctx.sink.error(
                "NCL0931",
                f"tenant '{tenant.name}' overlay switch '{node.label}' "
                f"has no map entry{pinned}",
                loc=tenant.loc,
                fixit=(
                    f"add 'map {tenant.name} {node.label}=<switch>' to "
                    "the deployment"
                ),
                rule=self.name,
            )

    def _check_reachability(
        self, ctx: DeployContext, tenant: TenantDeployment
    ) -> None:
        mapped = ctx.valid_switch_placement(tenant)
        paths = ctx.edge_paths(tenant)
        images = ctx.node_images(tenant)
        for a, b in sorted(tenant.program.and_spec.edges):
            if (a, b) not in paths or paths[(a, b)] is not None:
                continue
            src, dst = images[a], images[b]
            if nx.has_path(ctx.routes.graph, src, dst):
                reason = (
                    "the route between them crosses another of the "
                    "tenant's mapped switches (or every path runs through "
                    "a host), which would break kernel execution order"
                )
            else:
                reason = "the fabric has no path between them at all"
            ctx.sink.error(
                "NCL0930",
                f"tenant '{tenant.name}' overlay edge {a} -- {b} is "
                f"unrealizable: '{a}' is placed on '{src}' and '{b}' "
                f"on '{dst}', but {reason}",
                loc=tenant.anchor(b if b in mapped else a),
                notes=[
                    f"windows sent on {a} -- {b} would never traverse "
                    "the kernel's switch"
                ],
                fixit="place the overlay on switches along a real path",
                rule=self.name,
                status="proved",
            )


# ---------------------------------------------------------------------------
# transport: NCL0940-0941
# ---------------------------------------------------------------------------


@register
class TransportCheck(DeployCheck):
    """Window frames vs path MTU and INT headroom.

    A window frame is ``eth+ipv4+udp+NCP`` framing plus the kernel's
    extension fields plus its window payload. If that exceeds the
    narrowest link on the tenant's installed routes, the runtime *can* ship
    it fragmented -- but switches do not execute kernels on fragments,
    so the deployment silently degrades to host-only execution: an
    admission error (NCL0940, proved, from the exact layouts).

    INT telemetry rides the same frames (tail + one record per switch
    hop). Headroom below the tail plus the *minimum* hop count on the
    routes proves truncation (``proved``); headroom below the
    default 8-hop policy cap only admits it (``possible``) -- the same
    interval grading the absint lint rules use (NCL0941, warning).
    """

    name = "transport"
    codes = ("NCL0940", "NCL0941")
    about = "window frames fit the path MTU with INT telemetry headroom"

    def run(self, ctx: DeployContext) -> None:
        policy_hops = IntConfig().max_hops
        for tenant in ctx.deployment.tenants:
            paths = [
                p for p in ctx.edge_paths(tenant).values() if p is not None
            ]
            if not paths:
                continue
            a, b, mtu = min((p.narrow_link for p in paths), key=lambda e: e[2])
            min_hops = min(p.switch_hops for p in paths)
            for kernel, layout in sorted(tenant.program.layouts.items()):
                frame = HEADER_BYTES + layout.ext_bytes + layout.data_bytes
                loc = tenant.window_locs.get(kernel) or tenant.anchor()
                breakdown = (
                    f"{HEADER_BYTES} header bytes + {layout.ext_bytes} "
                    f"extension bytes + {layout.data_bytes} window bytes"
                )
                if frame > mtu:
                    narrow = ctx.fabric.link_between(a, b)
                    ctx.sink.error(
                        "NCL0940",
                        f"tenant '{tenant.name}' kernel '{kernel}' puts "
                        f"{frame} bytes on the wire ({breakdown}) but the "
                        f"routed path bottlenecks at {mtu} bytes "
                        f"(link {a} -- {b}): every window fragments, and "
                        "switches do not execute kernels on fragments",
                        loc=loc,
                        secondary=_spans([(
                            narrow.loc if narrow is not None else None,
                            f"narrowest link (mtu={mtu})",
                        )]),
                        fixit=(
                            "shrink the window mask, or raise the link "
                            "MTU past the frame size"
                        ),
                        rule=self.name,
                        status="proved",
                    )
                    continue
                headroom = mtu - frame
                need_min = TAIL_BYTES + min_hops * HOP_BYTES
                need_policy = TAIL_BYTES + policy_hops * HOP_BYTES
                if headroom >= need_policy:
                    continue
                proved = headroom < need_min
                hops = min_hops if proved else policy_hops
                ctx.sink.warning(
                    "NCL0941",
                    f"tenant '{tenant.name}' kernel '{kernel}' leaves "
                    f"{headroom} bytes of INT headroom ({mtu} MTU - "
                    f"{frame} frame) but a {hops}-hop telemetry stack "
                    f"needs {TAIL_BYTES + hops * HOP_BYTES}: records "
                    "would be truncated",
                    loc=loc,
                    notes=[
                        f"frame is {breakdown}",
                        f"INT costs {TAIL_BYTES} tail bytes plus "
                        f"{HOP_BYTES} per switch hop; the chosen paths "
                        f"traverse at least {min_hops} switch(es), the "
                        f"policy cap is {policy_hops}",
                    ],
                    fixit=(
                        "shrink the window, raise the MTU, or lower the "
                        "INT hop cap / byte budget"
                    ),
                    rule=self.name,
                    status="proved" if proved else "possible",
                )


# ---------------------------------------------------------------------------
# replay safety: NCL0856
# ---------------------------------------------------------------------------


@register
class ReplaySafetyCheck(DeployCheck):
    """Per-tenant transport safety under NCP retransmission.

    Every tenant kernel runs through the effect-summary analysis and
    the explicit-state window model checker (the ``check-proto``
    machinery). A kernel for which the checker finds a schedule that
    applies a non-idempotent shared-state update twice -- the classic
    retransmit double-count -- is flagged here with the minimal
    counterexample in the notes, because on a shared fabric a tenant's
    replay bug corrupts *its own* state on a switch other tenants
    depend on being well-behaved.

    Kernels the checker proves safe emit nothing; their per-kernel
    verdicts (``exactly-once`` / ``at-most-once``) still appear in the
    ``repro.deploy/1`` report under each tenant's ``replay_safety``.
    """

    name = "replay-safety"
    codes = ("NCL0856",)
    about = "tenant kernels survive NCP retransmission (check-proto)"

    def run(self, ctx: DeployContext) -> None:
        for tenant in ctx.deployment.tenants:
            placement = ctx.valid_switch_placement(tenant)
            for (label, kernel), result in sorted(
                ctx.replay_results(tenant).items()
            ):
                cx = result.counterexample
                if cx is None:
                    continue
                steps = ", ".join(_describe_step(s) for s in cx.schedule)
                target = placement.get(label)
                where = (
                    f"switch '{target}'" if target is not None
                    else f"label '{label}'"
                )
                ctx.sink.warning(
                    "NCL0856",
                    f"tenant '{tenant.name}' kernel '{kernel}' is not "
                    f"replay-safe on {where}: a window interleaving "
                    f"applies the update of '{cx.symbol}' "
                    f"{cx.applied}x",
                    loc=tenant.window_locs.get(kernel) or tenant.anchor(),
                    notes=[
                        f"minimal counterexample ({len(cx.schedule)} "
                        f"steps): {steps}",
                        "verify the program alone with: python -m "
                        "repro.nclc check-proto <program.ncl>",
                    ],
                    fixit=_GUARD_FIXIT,
                    rule=self.name,
                    status="proved",
                )
