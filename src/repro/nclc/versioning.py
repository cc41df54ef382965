"""IR versioning (nclc stage 2, paper S5).

"This stage uses location info from kernel signatures and the AND to
create multiple IR modules, containing each location's kernels and
location struct implementation. It may also attempt to split
location-less kernels by inspecting top-level branching on location
struct fields."

For every switch in the AND we clone the module, keep the kernels that
run there (pinned via ``_at_`` or location-less/SPMD), resolve the
location struct and ``_locid`` labels to that switch's node id, and keep
only the switch state that exists there. Constant folding + CFG
simplification then *are* the location-split: branches on
``location.id`` collapse to the arm for this switch. A kernel that still
touches state pinned to another switch after that is rejected (NCL0603):
a location-less kernel must guard its access to pinned state.
"""

from __future__ import annotations

from typing import Dict, List

from repro.andspec.model import AndSpec
from repro.nclc.conformance import check_switch_kernel
from repro.nir import ir
from repro.nir.passes.clone import clone_function
from repro.nir.passes.constfold import fold_constants
from repro.nir.passes.simplify_cfg import simplify_cfg
from repro.nir.passes.specialize import specialize_location


class LocationModule:
    """The IR version for one switch location."""

    def __init__(self, label: str, node_id: int, module: ir.Module):
        self.label = label
        self.node_id = node_id
        self.module = module

    def __repr__(self) -> str:
        return f"LocationModule({self.label}#{self.node_id})"


def version_module(module: ir.Module, and_spec: AndSpec) -> List[LocationModule]:
    """Produce one specialized module per AND switch."""
    label_ids = and_spec.label_ids()
    versions: List[LocationModule] = []
    for switch in and_spec.switches:
        versions.append(
            _version_for(module, switch.label, switch.node_id, label_ids)
        )
    return versions


def _version_for(
    module: ir.Module, label: str, node_id: int, label_ids: Dict[str, int]
) -> LocationModule:
    version = ir.Module(f"{module.name}@{label}")
    version.window_fields = list(module.window_fields)

    # State that exists on this switch: pinned here, or location-less.
    for ref in module.globals.values():
        if ref.space == "host":
            continue
        if ref.at_label is None or ref.at_label == label:
            version.add_global(
                ir.GlobalRef(ref.name, ref.ty, ref.space, ref.at_label, ref.init)
            )

    # Kernels that run here. Helpers come along for inlining.
    for fn in module.functions.values():
        if fn.kind is ir.FunctionKind.IN_KERNEL:
            continue  # incoming kernels exist on hosts only
        if fn.kind is ir.FunctionKind.OUT_KERNEL:
            if fn.at_label is not None and fn.at_label != label:
                continue
        clone = clone_function(fn)
        _rebind_globals(clone, version)
        version.add_function(clone)

    for fn in version.kernels(ir.FunctionKind.OUT_KERNEL):
        specialize_location(fn, node_id, label_ids)
        fold_constants(fn)
        simplify_cfg(fn)
        check_switch_kernel(fn, label)
    return LocationModule(label, node_id, version)


def _rebind_globals(fn: ir.Function, version: ir.Module) -> None:
    """Point cloned instructions at the version module's GlobalRefs (so a
    device instantiated from the version sees consistent identities).

    A kernel may reference state that does not exist at this location
    (location-less kernel touching pinned memory); that reference is kept
    pointing at the original ref. Location specialization removes it from
    a guarded kernel, and :func:`check_switch_kernel` rejects one it does
    not remove.
    """
    for instr in fn.instructions():
        ref = getattr(instr, "ref", None)
        if isinstance(ref, ir.GlobalRef) and ref.name in version.globals:
            instr.ref = version.globals[ref.name]  # type: ignore[attr-defined]
        if isinstance(instr, ir.Memcpy):
            for region in (instr.dst, instr.src):
                if region.ref is not None and region.ref.name in version.globals:
                    region.ref = version.globals[region.ref.name]
