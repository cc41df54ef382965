"""Full loop unrolling.

PISA pipelines have no loops, so every loop in switch code must be fully
unrolled -- which requires a provably constant trip count (the paper's
conformance rule, S5). The trip count is established by abstractly
executing the loop's *control slice*: the instructions that feed the
header condition and the header phis' latch values. The slice must
evaluate to constants given constant phi seeds; anything else (a data-
dependent bound, an induction variable updated under an unknown branch)
makes the count non-constant and the loop is reported unsupported.

Data instructions in the body are unrestricted: the body is cloned once
per iteration with header phis replaced by their per-iteration values,
and constant folding + CFG simplification clean up afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import ConformanceError
from repro.nir import ir
from repro.nir.cfg import natural_loops
from repro.nir.passes.clone import ValueMap, clone_region
from repro.nir.passes.constfold import fold_constants, try_fold
from repro.nir.passes.dce import eliminate_dead_code
from repro.nir.passes.simplify_cfg import simplify_cfg

DEFAULT_MAX_TRIPS = 4096


def unroll_loops(fn: ir.Function, max_trips: int = DEFAULT_MAX_TRIPS) -> int:
    """Fully unroll every loop in *fn*. Returns number of loops unrolled.

    Raises :class:`ConformanceError` when a trip count is not provably
    constant or exceeds *max_trips*.
    """
    unrolled = 0
    for _ in range(64):  # nesting depth guard
        fold_constants(fn)
        simplify_cfg(fn)
        loops = natural_loops(fn)
        if not loops:
            return unrolled
        loop = _innermost(loops)
        _unroll_one(fn, loop, max_trips)
        eliminate_dead_code(fn)
        unrolled += 1
    raise ConformanceError(f"{fn.name}: loop nesting too deep to unroll")


def _innermost(loops: List[Dict]) -> Dict:
    """Pick a loop whose body contains no other loop's header."""
    headers = {id(lp["header"]) for lp in loops}
    for loop in sorted(loops, key=lambda lp: len(lp["body"])):
        inner_headers = sum(
            1 for b in loop["body"] if id(b) in headers and b is not loop["header"]
        )
        if inner_headers == 0:
            return loop
    return min(loops, key=lambda lp: len(lp["body"]))


def _unroll_one(fn: ir.Function, loop: Dict, max_trips: int) -> None:
    header: ir.Block = loop["header"]
    body: Set[ir.Block] = loop["body"]
    latches: List[ir.Block] = loop["latches"]
    if len(latches) != 1:
        raise ConformanceError(
            f"{fn.name}: loop at {header.label} has multiple back edges"
        )
    latch = latches[0]
    term = header.terminator
    if not isinstance(term, ir.CondBr):
        raise ConformanceError(
            f"{fn.name}: loop at {header.label} is not a counted loop "
            "(no exit condition at the header)"
        )
    in_body = [s in body for s in term.successors()]
    if in_body == [True, False]:
        exit_block = term.other
    elif in_body == [False, True]:
        exit_block = term.then
    else:
        raise ConformanceError(
            f"{fn.name}: loop at {header.label} has no unique exit edge"
        )
    body_taken_on_true = in_body[0]

    phis = header.phis()
    preds = fn.predecessors()
    preheaders = [p for p in preds[header] if p not in body]

    # -- trip count via the control slice --------------------------------
    seeds: Dict[ir.Phi, int] = {}
    for phi in phis:
        init = _incoming_from(phi, set(preheaders))
        if not isinstance(init, ir.Const):
            # Non-constant seeds are fine as long as the condition slice
            # doesn't depend on them; probe lazily below.
            continue
        seeds[phi] = init.value

    trips = _compute_trip_count(
        fn, header, body, latch, term, phis, seeds, body_taken_on_true, max_trips
    )

    # -- clone the body `trips` times -------------------------------------
    region = [b for b in fn.blocks if b in body]  # stable order
    # Per-iteration value of each header phi.
    phi_values: Dict[ir.Phi, ir.Value] = {
        phi: _incoming_from(phi, set(preheaders)) or ir.Undef(phi.ty) for phi in phis
    }
    prev_tail: Optional[ir.Block] = None  # latch clone of the previous iter
    entry_target: Optional[ir.Block] = None
    final_phi_values = dict(phi_values)

    for k in range(trips):
        vmap = ValueMap()
        for phi, value in phi_values.items():
            vmap.values[phi] = value
        clone_region(fn, region, vmap, suffix=f"it{k}")
        header_clone = vmap.block(header)
        latch_clone = vmap.block(latch)
        # The header clone's exit test is known-true for this iteration.
        hterm = header_clone.terminator
        assert isinstance(hterm, ir.CondBr)
        target = hterm.then if body_taken_on_true else hterm.other
        br = ir.Br(target)
        br.block = header_clone
        header_clone.instrs[-1] = br
        if k == 0:
            entry_target = header_clone
        else:
            assert prev_tail is not None
            _redirect(prev_tail, None, header_clone)
        prev_tail = latch_clone
        # Compute next-iteration phi values through this clone's map.
        next_values: Dict[ir.Phi, ir.Value] = {}
        for phi in phis:
            latch_value = _incoming_from(phi, {latch})
            assert latch_value is not None
            next_values[phi] = vmap.value(latch_value)
        phi_values = next_values
        final_phi_values = next_values

    # -- stitch entry and exit ---------------------------------------------
    if trips > 0:
        assert prev_tail is not None
        _redirect(prev_tail, None, exit_block)

    for pre in preheaders:
        _redirect(pre, header, entry_target if entry_target is not None else exit_block)

    # Exit-block phis had incoming from `header`; they now come from the
    # last latch clone (or the preheader when trips == 0).
    exit_pred = prev_tail if trips > 0 else (preheaders[0] if preheaders else None)
    for phi in exit_block.phis():
        for idx, (value, inc) in enumerate(list(phi.incoming)):
            if inc is header:
                new_value = final_phi_values.get(value, value) if isinstance(value, ir.Phi) else value
                if trips > 0 and isinstance(value, ir.Instr) and not isinstance(value, ir.Phi):
                    raise ConformanceError(
                        f"{fn.name}: unsupported loop-exit value %{value.id}"
                    )
                assert exit_pred is not None
                phi.incoming[idx] = (new_value, exit_pred)
                phi.operands[idx] = new_value

    # Uses of header-defined values outside the loop: only phis can be
    # used outside (header instrs other than phis feed the condition,
    # which is gone). Replace with the final value.
    body_set = set(body)
    for block in fn.blocks:
        if block in body_set:
            continue
        for instr in block.instrs:
            for phi, final in final_phi_values.items():
                instr.replace_operand(phi, final)

    # Drop the original loop blocks.
    fn.blocks = [b for b in fn.blocks if b not in body_set]
    simplify_cfg(fn)


def _redirect(block: ir.Block, old: Optional[ir.Block], new: ir.Block) -> None:
    """Point *block*'s branch at *new* (replacing *old*, or the loop
    header back-edge when old is None and the terminator is a Br)."""
    term = block.terminator
    if isinstance(term, ir.Br):
        if old is None or term.target is old:
            term.target = new
    elif isinstance(term, ir.CondBr):
        if old is None:
            raise ConformanceError("loop latch with conditional back edge")
        if term.then is old:
            term.then = new
        if term.other is old:
            term.other = new


def _incoming_from(phi: ir.Phi, blocks: Set[ir.Block]) -> Optional[ir.Value]:
    for value, block in phi.incoming:
        if block in blocks:
            return value
    return None


def _compute_trip_count(
    fn: ir.Function,
    header: ir.Block,
    body: Set[ir.Block],
    latch: ir.Block,
    term: ir.CondBr,
    phis: List[ir.Phi],
    seeds: Dict[ir.Phi, int],
    body_taken_on_true: bool,
    max_trips: int,
) -> int:
    """Abstractly execute the control slice until the exit test fires."""
    # The slice may only contain instructions in the header or latch (our
    # front end puts induction updates in the `for.step` latch block), or
    # loop-invariant constants.
    slice_instrs = _control_slice(fn, header, latch, body, term, phis)

    env: Dict[int, int] = {}
    values: Dict[ir.Phi, Optional[int]] = {}
    for phi in phis:
        values[phi] = seeds.get(phi)

    order = _execution_order(header, latch, slice_instrs)

    for trip in range(max_trips + 1):
        env = {}
        for phi in phis:
            if values[phi] is not None:
                env[phi.id] = values[phi]  # type: ignore[assignment]
        for instr in order:
            result = _abstract_eval(instr, env)
            if result is not None:
                env[instr.id] = result
        cond_val = _value_in_env(term.cond, env)
        if cond_val is None:
            raise ConformanceError(
                f"{fn.name}: loop at {header.label} has a trip count that is "
                "not provably constant (data-dependent bound?)"
            )
        exits = (not cond_val) if body_taken_on_true else bool(cond_val)
        if exits:
            return trip
        # Advance phis through their latch incoming values.
        new_values: Dict[ir.Phi, Optional[int]] = {}
        for phi in phis:
            latch_value = _incoming_from(phi, {latch})
            if latch_value is None:
                new_values[phi] = None
                continue
            new_values[phi] = _value_in_env(latch_value, env)
        values = new_values
    raise ConformanceError(
        f"{fn.name}: loop at {header.label} exceeds the unroll limit "
        f"({max_trips} iterations)"
    )


def _control_slice(
    fn: ir.Function,
    header: ir.Block,
    latch: ir.Block,
    body: Set[ir.Block],
    term: ir.CondBr,
    phis: List[ir.Phi],
) -> Set[ir.Instr]:
    roots: List[ir.Value] = [term.cond]
    for phi in phis:
        latch_value = _incoming_from(phi, {latch})
        if latch_value is not None:
            roots.append(latch_value)
    slice_set: Set[ir.Instr] = set()
    stack = [r for r in roots if isinstance(r, ir.Instr)]
    while stack:
        instr = stack.pop()
        if instr in slice_set or isinstance(instr, ir.Phi):
            continue
        if instr.block not in body:
            continue  # loop-invariant: evaluated via env lazily
        slice_set.add(instr)
        stack.extend(op for op in instr.operands if isinstance(op, ir.Instr))
    for instr in slice_set:
        if instr.block not in (header, latch):
            raise ConformanceError(
                f"{fn.name}: loop condition depends on %{instr.id} computed "
                "under control flow inside the loop body"
            )
    return slice_set


def _execution_order(
    header: ir.Block, latch: ir.Block, slice_instrs: Set[ir.Instr]
) -> List[ir.Instr]:
    order = [i for i in header.instrs if i in slice_instrs]
    if latch is not header:
        order += [i for i in latch.instrs if i in slice_instrs]
    return order


def _value_in_env(value: ir.Value, env: Dict[int, int]) -> Optional[int]:
    if isinstance(value, ir.Const):
        return value.value
    if isinstance(value, ir.Instr):
        return env.get(value.id)
    return None


def _abstract_eval(instr: ir.Instr, env: Dict[int, int]) -> Optional[int]:
    """Fold a pure instruction as constant folding does, its operands
    read from the abstract env (a select needs only its condition)."""
    if not isinstance(instr, (ir.BinOp, ir.UnOp, ir.Cast, ir.Select)):
        return None
    values = [_value_in_env(op, env) for op in instr.operands]
    if None in values[: 1 if isinstance(instr, ir.Select) else None]:
        return None
    probe = object.__new__(type(instr))  # instr over the known values, no new id
    probe.__dict__.update(instr.__dict__, operands=[
        op if v is None else ir.Const(op.ty, v) for op, v in zip(instr.operands, values)
    ])
    folded = try_fold(probe)
    return None if folded is None else _value_in_env(folded, env)
