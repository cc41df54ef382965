"""The control-plane side of libncrt.

NCL kernels are data-plane code, "but may involve the control plane
under the hood" (paper S3.2): hosts write ``_ctrl_`` variables and
manage ``ncl::Map`` entries through out-of-band control-plane operations
(the paper points at ONOS-style controllers). The :class:`Controller`
is that path: it knows which switches hold which state and performs the
writes directly on their register arrays / tables, optionally after a
simulated control-channel delay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import RuntimeApiError
from repro.nclc.driver import CompiledProgram
from repro.net.pisanode import PisaSwitchNode

if TYPE_CHECKING:
    from repro.net.events import Simulator


class Controller:
    def __init__(
        self,
        program: CompiledProgram,
        switches: Dict[str, PisaSwitchNode],
        sim: Optional["Simulator"] = None,
        delay: float = 0.0,
    ):
        self.program = program
        self.switches = dict(switches)
        self.sim = sim
        self.delay = delay

    # -- placement ------------------------------------------------------------

    def _targets(self, var_name: str) -> List[PisaSwitchNode]:
        """Switches on which *var_name* exists (pinned or location-less)."""
        ref = self.program.ref_module.globals.get(var_name)
        if ref is None or ref.space == "host":
            raise RuntimeApiError(f"{var_name!r} is not switch-side state")
        if ref.at_label is not None:
            node = self.switches.get(ref.at_label)
            if node is None:
                raise RuntimeApiError(
                    f"{var_name!r} is pinned to {ref.at_label!r}, which is not "
                    "deployed"
                )
            return [node]
        return list(self.switches.values())

    def _apply(self, fn) -> None:
        if self.sim is not None and self.delay > 0:
            self.sim.schedule(self.delay, fn, label="ctrl;controller;apply")
        else:
            fn()

    # -- operations ---------------------------------------------------------------

    def ctrl_wr(self, var_name: str, value: int, index: int = 0) -> None:
        """Write a ``_ctrl_`` variable (Fig 4: ``ncl::ctrl_wr(&nworkers, 16)``)."""
        targets = self._targets(var_name)
        reg = f"reg_{var_name}"
        for node in targets:
            if reg not in node.switch.program.registers:
                raise RuntimeApiError(
                    f"{var_name!r} has no register on switch {node.name!r} "
                    "(is it referenced by any kernel there?)"
                )
            self._apply(lambda n=node: n.switch.ctrl_register_write(reg, value, index))

    def ctrl_rd(self, var_name: str, index: int = 0) -> int:
        node = self._targets(var_name)[0]
        return node.switch.ctrl_register_read(f"reg_{var_name}", index)

    def map_insert(self, map_name: str, key: int, value: int) -> None:
        """Insert/replace a Map entry (Fig 5: the storage server populates
        ``Idx``)."""
        for node in self._targets(map_name):
            table = f"map_{map_name}"
            if table not in node.switch.tables:
                raise RuntimeApiError(
                    f"Map {map_name!r} has no table on switch {node.name!r}"
                )
            self._apply(
                lambda n=node: n.switch.table_insert(
                    table, [key], f"map_{map_name}_hit", [value]
                )
            )

    def map_erase(self, map_name: str, key: int) -> None:
        for node in self._targets(map_name):
            table = f"map_{map_name}"
            self._apply(lambda n=node: n.switch.table_delete(table, [key]))

    def map_entries(self, map_name: str) -> Dict[int, int]:
        node = self._targets(map_name)[0]
        return {
            entry.match[0]: entry.args[0]
            for entry in node.switch.table_entries(f"map_{map_name}")
        }

    def register_dump(self, var_name: str, label: Optional[str] = None) -> List[int]:
        """Inspect switch memory (debug/verification aid, not an NCL API).

        Transparently reassembles arrays the compiler split across
        per-offset register arrays (the arch-specific transformation)."""
        targets = self._targets(var_name)
        if label is not None:
            targets = [n for n in targets if n.name == label]
            if not targets:
                raise RuntimeApiError(f"no deployed switch {label!r}")
        node = targets[0]
        arrays = node.switch.registers.arrays
        reg = f"reg_{var_name}"
        if reg in arrays:
            return list(arrays[reg])
        for split in self.program.split_info.get(node.name, []):
            if split.name == var_name:
                parts = [arrays[f"reg_{p}"] for p in split.part_names]
                out: List[int] = []
                for i in range(len(parts[0]) * split.stride):
                    out.append(parts[i % split.stride][i // split.stride])
                return out
        raise RuntimeApiError(
            f"{var_name!r} has no register on switch {node.name!r}"
        )
