"""Differential-testing helpers: run a kernel before/after a transform
and require identical observable behaviour (window data, device state,
forwarding decision).

Every run here is two runs: the lowered executor
(``repro.nir.interp.Interpreter``) and the reference walker
(``tests/nir_oracle.py``) on a copy of the state, which must agree on
everything -- the executor's emitters are shared with the P4 lowering,
so a bug there would cancel out of a compiled-P4-vs-NIR comparison and
only an independent leg can see it."""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.ncl import frontend
from repro.ncl.types import PointerType, is_signed, scalar_bits
from repro.nir import ir
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.nir.lower import lower_unit
from repro.nir.passes.clone import clone_function

from tests.nir_oracle import OracleInterpreter


def kernel_module(source: str, defines=None) -> ir.Module:
    return lower_unit(frontend(source, defines=defines))


def clone_state(state: DeviceState) -> DeviceState:
    new = DeviceState()
    new.arrays = {k: list(v) for k, v in state.arrays.items()}
    new.ctrl = {
        k: (list(v) if isinstance(v, list) else v) for k, v in state.ctrl.items()
    }
    for name, m in state.maps.items():
        from repro.nir.interp import MapState

        ms = MapState(m.ty)
        ms.entries = dict(m.entries)
        new.maps[name] = ms
    for name, b in state.blooms.items():
        from repro.nir.interp import BloomState

        bs = BloomState(b.ty)
        bs.bits = list(b.bits)
        new.blooms[name] = bs
    return new


def random_args(fn: ir.Function, rng, chunk_len: int = 4) -> List:
    """Random window-data argument bindings for a kernel's parameters."""
    args: List = []
    for param in fn.params:
        ty = param.ty
        if isinstance(ty, PointerType):
            bits = scalar_bits(ty.pointee)
            signed = is_signed(ty.pointee)
            lo = -(1 << (bits - 1)) if signed else 0
            hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
            args.append([rng.randint(lo, hi) for _ in range(chunk_len)])
        else:
            bits = scalar_bits(ty)
            signed = is_signed(ty)
            lo = -(1 << (bits - 1)) if signed else 0
            hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
            args.append(rng.randint(lo, hi))
    return args


def outcome(interp, fn: ir.Function, ctx: WindowContext):
    """Everything observable about one run, trap or not."""
    seen = {}
    try:
        result = interp.run(fn, ctx)
        seen.update(fwd=result.fwd, label=result.fwd_label, ret=result.ret)
    except (ReproError, ZeroDivisionError) as exc:
        seen["raised"] = (type(exc).__name__, str(exc))
    seen.update(args=ctx.args, state=interp.state.snapshot())
    return seen


def run_both(
    module: ir.Module,
    fn: ir.Function,
    state: DeviceState,
    meta: Dict[str, int],
    args: List,
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
):
    """Run *fn* on the lowered executor (against *state*) and on the
    walker (against a copy); they must agree. Returns the outcome."""
    shadow = clone_state(state)
    runs = [
        outcome(cls(module, st), fn, WindowContext(meta, copy.deepcopy(args), location_id, location_labels))
        for cls, st in ((Interpreter, state), (OracleInterpreter, shadow))
    ]
    assert runs[0] == runs[1], (
        f"executor and oracle disagree on {fn.name} (meta={meta}, args={args}):\n"
        f"lowered: {runs[0]}\noracle:  {runs[1]}"
    )
    return runs[0]


def observe(
    module: ir.Module,
    fn: ir.Function,
    state: DeviceState,
    meta: Dict[str, int],
    args: List,
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
):
    """Run (three-way, see :func:`run_both`) and return the full
    observable outcome of a run that must not trap."""
    seen = run_both(module, fn, state, meta, args, location_id, location_labels)
    assert "raised" not in seen, seen
    return {
        "fwd": seen["fwd"],
        "label": seen["label"],
        "args": seen["args"],
        "arrays": seen["state"]["arrays"],
        "maps": seen["state"]["maps"],
    }


def assert_transform_preserves(
    source: str,
    kernel: str,
    transform: Callable[[ir.Function], object],
    metas: Sequence[Dict[str, int]],
    defines=None,
    chunk_len: int = 4,
    seed: int = 0,
    prepare_state: Optional[Callable[[DeviceState], None]] = None,
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
    pre: Optional[Callable[[ir.Function], object]] = None,
):
    """The workhorse: semantics before == semantics after `transform`."""
    import random

    rng = random.Random(seed)
    module = kernel_module(source, defines)
    fn = module.functions[kernel]
    if pre is not None:
        pre(fn)
    reference = clone_function(fn, f"{kernel}_ref")
    module.functions[reference.name] = reference
    transform(fn)
    from repro.nir.verify import verify_function

    verify_function(fn)

    base_state = DeviceState.from_module(module)
    if prepare_state is not None:
        prepare_state(base_state)

    state_a = clone_state(base_state)
    state_b = clone_state(base_state)
    for meta in metas:
        args = random_args(fn, rng, chunk_len)
        got = observe(module, fn, state_a, meta, args, location_id, location_labels)
        want = observe(
            module, reference, state_b, meta, args, location_id, location_labels
        )
        assert got == want, (
            f"transform changed semantics for meta={meta}:\n"
            f"got:  {got}\nwant: {want}"
        )
