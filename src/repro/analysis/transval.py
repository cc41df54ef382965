"""Translation validation of the NIR optimization pipeline.

``nclc build --verify-opt`` arms a :class:`PassValidator` on every
per-kernel pass pipeline (host and switch). Around each *transform*
pass the pipeline runner snapshots the kernel, and afterwards the
validator checks the output against the snapshot three ways:

1. **structural** -- :func:`repro.nir.verify.verify_function` (branch
   targets, phi arity, SSA dominance) must still hold;
2. **differential** -- a deterministic set of corner-case plus
   seeded-random window vectors runs through the NIR interpreter on
   both versions; forwarding decision, return value, mutated window
   args, and the full device-state snapshot must agree;
3. **abstract** -- if the abstract interpreter proves a *different*
   constant return value for the two versions, that contradiction is a
   miscompile even if no vector happened to reach it.

Any violation raises :class:`TranslationValidationError` naming the
exact pass, so an optimizer bug reads as "pass 'storefwd' miscompiled
kernel 'query'" rather than a distant differential-test failure.

Trap policy: the interpreter models what a switch cannot do (division
by zero, negative shifts, out-of-range accesses) by raising. A pass may
legally *remove* a trapping computation (dead-code elimination), so a
vector where the *input* kernel traps is skipped; a pass that makes a
previously clean vector trap has introduced a fault and fails.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import ReproError
from repro.ncl.types import PointerType, is_signed, scalar_bits
from repro.nir import ir
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.nir.passes.clone import clone_function
from repro.nir.verify import verify_function

#: seeded-random vectors per kernel (on top of the corner cases)
RANDOM_TRIALS = 5
#: fallback buffer length for pointer params with dynamic indexing
DYNAMIC_BUFFER_LEN = 16

_TRAP = object()


class TranslationValidationError(ReproError):
    """An optimization pass changed the meaning of a kernel."""

    def __init__(self, pass_name: str, fn_name: str, detail: str):
        self.pass_name = pass_name
        self.fn_name = fn_name
        self.detail = detail
        super().__init__(
            f"translation validation failed: pass {pass_name!r} "
            f"miscompiled kernel {fn_name!r}: {detail}"
        )


def _reachable_functions(fn: ir.Function) -> List[ir.Function]:
    """fn plus every function transitively reachable through CallFn."""
    seen: List[ir.Function] = []
    work = [fn]
    while work:
        cur = work.pop()
        if any(cur is f for f in seen):
            continue
        seen.append(cur)
        for instr in cur.instructions():
            if isinstance(instr, ir.CallFn):
                work.append(instr.callee)
    return seen


def _buffer_lengths(fn: ir.Function) -> Dict[int, int]:
    """Element count to allocate per pointer-param index: one past the
    largest constant index observed, or a fixed fallback when any access
    is dynamically indexed (loop counters before unrolling)."""
    lengths: Dict[int, int] = {}
    dynamic: Set[int] = set()
    for callee in _reachable_functions(fn):
        for instr in callee.instructions():
            param = None
            index = None
            if isinstance(instr, (ir.LoadParam, ir.StoreParam)):
                param, index = instr.param, instr.index
            elif isinstance(instr, ir.Memcpy):
                for region in (instr.dst, instr.src):
                    if region.kind == "param" and region.param is not None:
                        dynamic.add(region.param.index)
            if param is None:
                continue
            if isinstance(index, ir.Const):
                lengths[param.index] = max(
                    lengths.get(param.index, 0), index.value + 1
                )
            else:
                dynamic.add(param.index)
    for p in fn.params:
        if isinstance(p.ty, PointerType):
            want = lengths.get(p.index, 0)
            if p.index in dynamic:
                want = max(want, DYNAMIC_BUFFER_LEN)
            lengths[p.index] = max(want, 4)
    return lengths


def _scalar_corner(ty, which: str) -> int:
    bits = scalar_bits(ty)
    if which == "zero":
        return 0
    if which == "one":
        return 1
    if is_signed(ty):
        return -(1 << (bits - 1)) if which == "min" else (1 << (bits - 1)) - 1
    return 0 if which == "min" else (1 << bits) - 1


def _random_scalar(rng: random.Random, ty) -> int:
    # Small values keep compares/branches live (matches the -O0/-O2
    # differential test's value distribution).
    lo = -8 if is_signed(ty) else 0
    return rng.randint(lo, 15)


class PassValidator:
    """Per-kernel differential + abstract checker (see module docstring).

    The vector plan is fixed at construction (from the *unoptimized*
    kernel), so every pass of the pipeline is judged on the same
    deterministic evidence.
    """

    def __init__(
        self,
        module: ir.Module,
        fn: ir.Function,
        window_spec: Optional[Mapping[str, int]] = None,
        label_ids: Optional[Mapping[str, int]] = None,
        location_id: int = 0,
    ):
        self.module = module
        self.fn_name = fn.name
        self.window_spec = dict(window_spec or {})
        self.label_ids = dict(label_ids or {})
        self.location_id = location_id
        self.param_tys = [p.ty for p in fn.params]
        self.buffer_lengths = _buffer_lengths(fn)
        self.vectors = self._make_vectors(fn)

    # -- vector plan ---------------------------------------------------

    def _args_for(self, corner: Optional[str], rng: random.Random) -> List[object]:
        args: List[object] = []
        for index, ty in enumerate(self.param_tys):
            if isinstance(ty, PointerType):
                count = self.buffer_lengths.get(index, 4)
                if corner is not None:
                    args.append([_scalar_corner(ty.pointee, corner)] * count)
                else:
                    args.append(
                        [_random_scalar(rng, ty.pointee) for _ in range(count)]
                    )
            elif corner is not None:
                args.append(_scalar_corner(ty, corner))
            else:
                args.append(_random_scalar(rng, ty))
        return args

    def _make_vectors(self, fn: ir.Function) -> List[Tuple[Dict[str, int], List[object]]]:
        rng = random.Random(f"transval:{fn.name}")
        vectors = []
        corners = [
            ("zero", dict(seq=0)),
            ("one", dict(seq=1, last=1)),
            ("max", dict(seq=3, last=1)),
            ("min", dict(seq=2)),
        ]
        for corner, meta_bits in corners:
            meta = {"seq": 0, "from": 0, "last": 0}
            meta.update(meta_bits)
            meta.update(self.window_spec)
            vectors.append((meta, self._args_for(corner, rng)))
        for _ in range(RANDOM_TRIALS):
            meta = {
                "seq": rng.randrange(8),
                "from": rng.randint(0, 3),
                "last": rng.randint(0, 1),
            }
            meta.update(self.window_spec)
            vectors.append((meta, self._args_for(None, rng)))
        return vectors

    # -- state ---------------------------------------------------------

    def _fresh_state(self) -> DeviceState:
        # Instantiate *every* global (including host-space ones: the host
        # pipeline's kernels reference them), then install deterministic
        # non-trivial contents so gates and map hit/miss paths both run.
        state = DeviceState()
        for name in sorted(self.module.globals):
            state.instantiate(self.module.globals[name])
        for name, value in state.ctrl.items():
            if not isinstance(value, list):
                state.ctrl_write(name, 2)
        for map_state in state.maps.values():
            for slot, key in enumerate((1, 3, 5)):
                if slot < map_state.ty.capacity:
                    map_state.insert(key, slot)
        return state

    def _run(self, fn: ir.Function, meta, args, lowered):
        state = self._fresh_state()
        call_args = copy.deepcopy(args)
        ctx = WindowContext(meta, call_args, self.location_id, self.label_ids)
        try:
            result = Interpreter(self.module, state, lowered).run(fn, ctx)
        except (ReproError, ZeroDivisionError, KeyError):
            return _TRAP
        return (
            result.fwd.name,
            result.fwd_label,
            result.ret,
            call_args,
            state.snapshot(),
        )

    # -- the pipeline hook (duck-typed by run_function_pipeline) -------

    def snapshot(self, fn: ir.Function) -> ir.Function:
        return clone_function(fn)

    def check(self, pass_name: str, before: ir.Function, fn: ir.Function) -> None:
        try:
            verify_function(fn)
        except ReproError as exc:
            raise TranslationValidationError(
                pass_name, self.fn_name, f"broken IR after pass: {exc}"
            ) from exc

        # The function is mid-pipeline: lower this snapshot and this output
        # once each, for all the vectors, and keep neither (nor any callee).
        lowered: dict = {}
        clean = 0
        for vec_no, (meta, args) in enumerate(self.vectors):
            expected = self._run(before, meta, args, lowered)
            if expected is _TRAP:
                continue  # the pass may legally have removed the trap
            actual = self._run(fn, meta, args, lowered)
            if actual is _TRAP:
                raise TranslationValidationError(
                    pass_name,
                    self.fn_name,
                    f"vector #{vec_no} ran clean before the pass but "
                    f"traps afterwards (meta={meta})",
                )
            clean += 1
            if actual != expected:
                raise TranslationValidationError(
                    pass_name,
                    self.fn_name,
                    f"vector #{vec_no} diverged (meta={meta}): "
                    f"{self._describe_diff(expected, actual)}",
                )

        if clean:
            self._check_abstract(pass_name, before, fn)

    @staticmethod
    def _describe_diff(expected, actual) -> str:
        names = ("fwd", "fwd_label", "ret", "window args", "device state")
        for name, e, a in zip(names, expected, actual):
            if e != a:
                return f"{name}: {e!r} -> {a!r}"
        return "observables differ"

    def _check_abstract(self, pass_name, before, fn) -> None:
        from repro.analysis.absint import analyze_function

        facts_before = analyze_function(
            before, label_ids=self.label_ids, win_ext=self.window_spec
        )
        facts_after = analyze_function(
            fn, label_ids=self.label_ids, win_ext=self.window_spec
        )
        rb, ra = facts_before.ret_value, facts_after.ret_value
        if rb is None or ra is None:
            return
        if rb.is_singleton and ra.is_singleton and rb.lo != ra.lo:
            raise TranslationValidationError(
                pass_name,
                self.fn_name,
                f"abstract return values contradict: proved {rb.lo} "
                f"before the pass, {ra.lo} after",
            )


def make_validator(
    module: ir.Module,
    fn: ir.Function,
    window_spec: Optional[Mapping[str, int]] = None,
    label_ids: Optional[Mapping[str, int]] = None,
    location_id: int = 0,
) -> PassValidator:
    """Convenience constructor used by the compile (``--verify-opt``)."""
    return PassValidator(
        module,
        fn,
        window_spec=window_spec,
        label_ids=label_ids,
        location_id=location_id,
    )
