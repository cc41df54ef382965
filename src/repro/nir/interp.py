"""NIR executor: device state and the kernel entry points.

Executes a kernel function against a window and some device state: hosts
run incoming kernels with it (the "host binary" of the paper's dual
pipeline) and the PISA-compiled switch program is differentially tested
against it. A function is not walked: :mod:`repro.nir.pygen` lowers it
to one Python function on first use. The *reference semantics* of NCL
is the tree-walking interpreter this module used to hold, now the test
oracle ``tests/nir_oracle.py``; the two are compared on every shipped
and fuzzed kernel.

Execution is deliberately strict: an out-of-bounds element access raises
``PisaError`` instead of wrapping or indexing from the end, because on a
real switch it would be compile-time-impossible (register arrays are
sized) and we want tests to catch miscompiled indices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PisaError
from repro.ncl.types import ArrayType, BloomFilterType, MapType
from repro.nir import ir
from repro.nir.pygen import lower_function


class MapState:
    """Runtime state of an ``ncl::Map``: an exact-match table whose entries
    are inserted/removed by the control plane only."""

    def __init__(self, ty: MapType):
        self.ty = ty
        self.entries: Dict[int, int] = {}

    def insert(self, key: int, value: int) -> None:
        if len(self.entries) >= self.ty.capacity and key not in self.entries:
            raise PisaError(
                f"Map capacity exceeded ({self.ty.capacity} entries)"
            )
        self.entries[int(key)] = int(value)

    def erase(self, key: int) -> None:
        self.entries.pop(int(key), None)

    def lookup(self, key: int) -> Tuple[bool, int]:
        key = int(key)
        if key in self.entries:
            return True, self.entries[key]
        return False, 0


class BloomState:
    """Runtime state of an ``ncl::BloomFilter``."""

    def __init__(self, ty: BloomFilterType):
        self.ty = ty
        self.bits = [0] * ty.nbits

    def _positions(self, key: int) -> List[int]:
        positions = []
        h = key & 0xFFFFFFFFFFFFFFFF
        for i in range(self.ty.nhashes):
            # Simple multiplicative double hashing; deterministic across runs.
            h1 = (h * 0x9E3779B97F4A7C15 + i) & 0xFFFFFFFFFFFFFFFF
            h2 = (h ^ (h >> 33)) * 0xC2B2AE3D27D4EB4F & 0xFFFFFFFFFFFFFFFF
            positions.append((h1 + i * h2) % self.ty.nbits)
        return positions

    def insert(self, key: int) -> None:
        for pos in self._positions(key):
            self.bits[pos] = 1

    def query(self, key: int) -> bool:
        return all(self.bits[pos] for pos in self._positions(key))


class DeviceState:
    """Mutable state of one NCP-capable device (switch or host side).

    ``arrays`` holds ``_net_`` register arrays (and host globals when the
    interpreter runs incoming kernels); ``ctrl`` holds control variables;
    ``maps``/``blooms`` the stdlib containers.
    """

    def __init__(self) -> None:
        self.arrays: Dict[str, List[int]] = {}
        self.ctrl: Dict[str, object] = {}
        self.maps: Dict[str, MapState] = {}
        self.blooms: Dict[str, BloomState] = {}

    @classmethod
    def from_module(
        cls, module: ir.Module, location: Optional[str] = None
    ) -> "DeviceState":
        """Instantiate state for all globals visible at *location*.

        ``location=None`` instantiates everything (useful for tests);
        otherwise only location-less globals and those pinned to the
        given label exist on the device (paper S4.1).
        """
        state = cls()
        for ref in module.globals.values():
            if ref.space == "host":
                continue
            if location is not None and ref.at_label is not None and ref.at_label != location:
                continue
            state.instantiate(ref)
        return state

    def instantiate(self, ref: ir.GlobalRef) -> None:
        if ref.space == "map":
            assert isinstance(ref.ty, MapType)
            self.maps[ref.name] = MapState(ref.ty)
        elif ref.space == "bloom":
            assert isinstance(ref.ty, BloomFilterType)
            self.blooms[ref.name] = BloomState(ref.ty)
        elif ref.space == "ctrl":
            if isinstance(ref.ty, ArrayType):
                init = ref.init if ref.init is not None else [0] * ref.total_elements
                self.ctrl[ref.name] = list(init)
            else:
                self.ctrl[ref.name] = ref.init[0] if ref.init else 0
        else:
            init = ref.init if ref.init is not None else [0] * ref.total_elements
            values = list(init)
            if len(values) < ref.total_elements:
                values.extend([0] * (ref.total_elements - len(values)))
            self.arrays[ref.name] = values

    def ctrl_write(self, name: str, value, index: Optional[int] = None) -> None:
        """Control-plane write to a _ctrl_ variable (host-only path)."""
        if name not in self.ctrl:
            raise PisaError(f"unknown control variable {name!r}")
        if index is None:
            self.ctrl[name] = value
        else:
            self.ctrl[name][index] = value  # type: ignore[index]

    def snapshot(self) -> Dict[str, object]:
        return {
            "arrays": {k: list(v) for k, v in self.arrays.items()},
            "ctrl": {
                k: (list(v) if isinstance(v, list) else v) for k, v in self.ctrl.items()
            },
            "maps": {k: dict(v.entries) for k, v in self.maps.items()},
        }


class WindowContext:
    """Everything a kernel invocation sees about the current window.
    Holds what it is given, uncopied: the caller builds *meta* and *args*
    per invocation, and a kernel writes the caller's buffers by design."""

    def __init__(
        self,
        meta: Dict[str, int],
        args: Sequence[object],
        location_id: int = 0,
        location_labels: Optional[Dict[str, int]] = None,
    ):
        self.meta = meta
        self.args = args
        self.location_id = location_id
        self.location_labels = location_labels or {}


class InterpResult:
    """Outcome of interpreting a kernel on one window."""

    def __init__(self, fwd: ir.FwdKind, fwd_label: Optional[str], ret: Optional[int]):
        self.fwd = fwd
        self.fwd_label = fwd_label
        self.ret = ret

    def __repr__(self) -> str:
        label = f' "{self.fwd_label}"' if self.fwd_label else ""
        return f"InterpResult({self.fwd.name.lower()}{label})"


class Interpreter:
    """Runs a module's functions against one device's state. A function
    is lowered on its first run into *lowered*, which whoever knows that
    the functions will not be transformed again may share between
    interpreters (a ``CompiledProgram`` does, for its hosts) and which
    otherwise lives and dies with this interpreter."""

    def __init__(self, module: ir.Module, state: DeviceState, lowered: Optional[dict] = None):
        self.module = module
        self.state = state
        self.lowered = {} if lowered is None else lowered

    def run(self, fn: ir.Function, ctx: WindowContext) -> InterpResult:
        if len(ctx.args) != len(fn.params):
            raise PisaError(
                f"{fn.name}: expected {len(fn.params)} args, got {len(ctx.args)}"
            )
        code = self.lowered.get(fn) or lower_function(fn, self.lowered)
        return InterpResult(
            *code(self.state, ctx.meta, ctx.args, ctx.location_id, ctx.location_labels)
        )


def run_kernel(
    module: ir.Module,
    kernel: str,
    state: DeviceState,
    meta: Dict[str, int],
    args: Sequence[object],
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
) -> InterpResult:
    """Convenience wrapper: interpret one kernel over one window."""
    fn = module.functions[kernel]
    ctx = WindowContext(meta, args, location_id, location_labels)
    return Interpreter(module, state).run(fn, ctx)
