"""AST -> NIR lowering (the nclc frontend's IR generation).

:func:`lower_unit` produces one :class:`repro.nir.ir.Module` containing
every network kernel and the helper functions they call, plus
:class:`GlobalRef` descriptors for all switch/host state.
:func:`lower_host` produces the *host module*: every host function (a
function with a body that is not a kernel), run by
:class:`repro.runtime.HostProgram` on the same generated executor.

Notable semantic choices in kernel code (documented deviations from C,
both driven by the PISA target -- see DESIGN.md):

* ``&&``/``||``/``?:`` evaluate **both** operands eagerly and combine
  with bitwise ops / ``select``. Match-action pipelines evaluate all
  action operands anyway; NCL kernel expressions are side-effect-free
  apart from Map lookups, which are pure reads.
* ``&expr`` is only meaningful as a ``memcpy`` operand (there is no
  general address space on a switch).

Host code keeps C's semantics where the two differ: ``&&``/``||``/``?:``
evaluate one side, and parameters are assignable locals. The five
``ncl::`` runtime calls become calls of body-less *extern* functions
named after the call and its static operands (``ncl::ctrl_wr``,
``ncl::map_insert``, ``ncl::map_erase``, ``ncl::out <kernel> [<dst>]``,
``ncl::in <kernel>``), which the runtime binds; a global passed whole to
one (``{data}``, ``&done``, ``&nworkers``, a bare Map) is a
:class:`repro.nir.ir.GlobalAddr`.

In both, a declaration is visible to the end of its block.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import NclTypeError, ReproError
from repro.ncl import ast
from repro.ncl.sema import HOST_RUNTIME_CALLS, TranslationUnit
from repro.ncl.symbols import Symbol
from repro.ncl.types import (
    ArrayType,
    BloomFilterType,
    BOOL,
    I32,
    MapType,
    PointerType,
    Type,
    U32,
    VOID,
    common_type,
    is_signed,
    scalar_bits,
)
from repro.nir import ir


#: What lenient lowering swallows: type errors plus the internal faults a
#: poisoned (recovered-from-error) AST can trip inside the lowerer.
_LOWERING_ERRORS = (NclTypeError, AssertionError, IndexError, KeyError)


class _LoopFrame:
    def __init__(self, continue_block: ir.Block, break_block: ir.Block):
        self.continue_block = continue_block
        self.break_block = break_block


class _Access:
    """Resolved element access: where a read/write lands."""

    def __init__(
        self,
        kind: str,  # 'local' | 'param' | 'global' | 'ctrl' | 'map'
        elem_ty: Type,
        slot: Optional[ir.Alloca] = None,
        param: Optional[ir.Param] = None,
        ref: Optional[ir.GlobalRef] = None,
        index: Optional[ir.Value] = None,
    ):
        self.kind = kind
        self.elem_ty = elem_ty
        self.slot = slot
        self.param = param
        self.ref = ref
        self.index = index


class ModuleLowerer:
    """Lowers a whole analyzed translation unit to one NIR module.

    With ``lenient=True`` (the linter's mode), a function or global that
    fails to lower -- typically because semantic recovery left poisoned
    constructs behind -- is dropped from the module instead of aborting,
    so NIR-level analyses still run over everything that *did* lower.
    """

    def __init__(self, unit: TranslationUnit, name: str = "ncl", lenient: bool = False):
        self.unit = unit
        self.lenient = lenient
        self.module = ir.Module(name)
        self.module.window_fields = list(unit.window_fields)

    def lower(self) -> ir.Module:
        self._lower_globals()
        # Only helpers reachable from kernels are lowered here; host
        # functions (main, setup code using the ncl:: runtime API) go to
        # the host module (lower_host).
        for name in self._kernel_reachable_helpers():
            decl = self.unit.functions[name]
            fn = self._make_function(decl, ir.FunctionKind.HELPER)
            self.module.add_function(fn)
        for name, info in self.unit.out_kernels.items():
            fn = self._make_function(info.decl, ir.FunctionKind.OUT_KERNEL)
            self.module.add_function(fn)
        for name, info in self.unit.in_kernels.items():
            fn = self._make_function(info.decl, ir.FunctionKind.IN_KERNEL)
            self.module.add_function(fn)
        # Helpers come first in insertion order, so a helper dropped here
        # cascades: kernels calling it fail on "unknown function" and are
        # dropped in turn rather than referencing a half-lowered callee.
        for fn_name in list(self.module.functions):
            decl = self._decl_for(fn_name)
            try:
                FunctionLowerer(self, self.module.functions[fn_name], decl).lower()
            except _LOWERING_ERRORS:
                if not self.lenient:
                    raise
                del self.module.functions[fn_name]
        return self.module

    def extern(self, name: str, ret: Type) -> ir.Function:
        """The body-less function standing for runtime call *name*."""
        fn = self.module.functions.get(name)
        if fn is None:
            fn = self.module.add_function(ir.Function(name, ir.FunctionKind.HELPER, [], ret))
        return fn

    def _kernel_reachable_helpers(self) -> "List[str]":
        """Helper functions transitively called from any kernel body."""

        def calls_in(decl: ast.FuncDecl) -> set:
            names = set()
            if decl.body is not None:
                for node in decl.body.walk():
                    if isinstance(node, ast.Call) and node.name in self.unit.functions:
                        names.add(node.name)
            return names

        reachable: set = set()
        frontier = set()
        for info in list(self.unit.out_kernels.values()) + list(
            self.unit.in_kernels.values()
        ):
            frontier |= calls_in(info.decl)
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            decl = self.unit.functions.get(name)
            if decl is None or decl.body is None:
                continue
            reachable.add(name)
            frontier |= calls_in(decl)
        # Stable order: declaration order in the unit.
        return [n for n in self.unit.functions if n in reachable]

    def _decl_for(self, name: str) -> ast.FuncDecl:
        if name in self.unit.out_kernels:
            return self.unit.out_kernels[name].decl
        if name in self.unit.in_kernels:
            return self.unit.in_kernels[name].decl
        return self.unit.functions[name]

    def _lower_globals(self) -> None:
        def add(name: str, gvar: ast.GlobalVar, space: str, with_init: bool) -> None:
            at_label = gvar.at_label if space != "host" else None
            try:
                init = _flatten_init(gvar) if with_init else None
                self.module.add_global(
                    ir.GlobalRef(name, gvar.ty, space, at_label, init)
                )
            except _LOWERING_ERRORS:
                if not self.lenient:
                    raise

        for name, gvar in self.unit.net_globals.items():
            add(name, gvar, "net", True)
        for name, gvar in self.unit.ctrl_vars.items():
            add(name, gvar, "ctrl", True)
        for name, gvar in self.unit.maps.items():
            add(name, gvar, "map", False)
        for name, gvar in self.unit.blooms.items():
            add(name, gvar, "bloom", False)
        for name, gvar in self.unit.host_globals.items():
            add(name, gvar, "host", True)

    def _make_function(self, decl: ast.FuncDecl, kind: ir.FunctionKind) -> ir.Function:
        params = [
            ir.Param(i, p.name, p.ty, p.ext) for i, p in enumerate(decl.params)
        ]
        return ir.Function(decl.name, kind, params, decl.ret, decl.at_label)


class FunctionLowerer:
    def __init__(self, parent: ModuleLowerer, fn: ir.Function, decl: ast.FuncDecl):
        self.parent = parent
        self.module = parent.module
        self.unit = parent.unit
        self.fn = fn
        self.decl = decl
        self.block = fn.new_block("entry")
        #: the names in scope; a scope works on a copy, dropped when it ends
        self.env: Dict[str, Union[ir.Alloca, ir.Param]] = {
            param.name: param for param in fn.params
        }
        self.loops: List[_LoopFrame] = []
        #: source location of the statement/expression being lowered;
        #: every emitted instruction is stamped with it (Instr.loc).
        self.cur_loc = None

    # -- emission helpers ---------------------------------------------------

    def emit(self, instr: ir.Instr) -> ir.Instr:
        if instr.loc is None:
            instr.loc = self.cur_loc
        return self.block.append(instr)

    def const(self, value: int, ty: Type = I32) -> ir.Const:
        return ir.Const(ty, value)

    def _terminate(self, instr: ir.Instr) -> None:
        if self.block.terminator is None:
            self.block.append(instr)

    def _switch_to(self, block: ir.Block) -> None:
        self.block = block

    # -- entry point ----------------------------------------------------------

    def lower(self) -> None:
        assert self.decl.body is not None
        self.lower_block(self.decl.body)
        self._terminate(ir.Ret())
        _prune_unreachable(self.fn)

    # -- statements ----------------------------------------------------------

    def lower_block(self, block: ast.Block) -> None:
        outer, self.env = self.env, dict(self.env)
        for stmt in block.stmts:
            self.lower_stmt(stmt)
        self.env = outer

    def lower_scoped(self, stmt: ast.Stmt) -> None:
        """Lower the body of an ``if``/loop: what it declares ends with it."""
        outer, self.env = self.env, dict(self.env)
        self.lower_stmt(stmt)
        self.env = outer

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if self.block.terminator is not None:
            return  # dead code after return/break/continue
        if getattr(stmt, "loc", None) is not None:
            self.cur_loc = stmt.loc
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            self.lower_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            if value is not None and stmt.value is not None:
                value = self.coerce(value, self.fn.ret, stmt.value)
            self._terminate(ir.Ret(value))
        elif isinstance(stmt, ast.Break):
            self._terminate(ir.Br(self.loops[-1].break_block))
        elif isinstance(stmt, ast.Continue):
            self._terminate(ir.Br(self.loops[-1].continue_block))
        else:
            raise NclTypeError(f"cannot lower {type(stmt).__name__}", stmt.loc)

    def alloca(self, ty: Type, name: str) -> ir.Alloca:
        """A stack slot for local *name*, declared in the innermost scope."""
        slot = ir.Alloca(ty, name)
        self.fn.entry.instrs.insert(0, slot)
        slot.block = self.fn.entry
        self.env[name] = slot
        return slot

    def lower_decl(self, stmt: ast.DeclStmt) -> None:
        assert stmt.ty is not None
        slot = self.alloca(stmt.ty, stmt.name)
        if stmt.init is not None:
            if stmt.ty.is_pointer:
                # `auto *idx = Idx[key]`: the local holds the lookup token,
                # not the looked-up value.
                value = self.lower_pointer(stmt.init)
            else:
                value = self.coerce(self.lower_expr(stmt.init), stmt.ty, stmt.init)
            self.emit(ir.Store(slot, value))
        else:
            self.emit(ir.Store(slot, ir.Undef(stmt.ty)))

    def lower_if(self, stmt: ast.If) -> None:
        # a condition declaration is in scope in the then-branch only (sema)
        outer, self.env = self.env, dict(self.env)
        if stmt.cond_decl is not None:
            self.lower_decl(stmt.cond_decl)
            decl_value = self._read_local(stmt.cond_decl.name)
            cond = self.as_bool(decl_value)
        else:
            assert stmt.cond is not None
            cond = self.as_bool(self.lower_expr(stmt.cond))
        then_block = self.fn.new_block("if.then")
        merge_block = self.fn.new_block("if.end")
        else_block = self.fn.new_block("if.else") if stmt.orelse else merge_block
        self._terminate(ir.CondBr(cond, then_block, else_block))
        self._switch_to(then_block)
        self.lower_scoped(stmt.then)
        self.env = outer
        self._terminate(ir.Br(merge_block))
        if stmt.orelse is not None:
            self._switch_to(else_block)
            self.lower_scoped(stmt.orelse)
            self._terminate(ir.Br(merge_block))
        self._switch_to(merge_block)

    def lower_while(self, stmt: ast.While) -> None:
        head = self.fn.new_block("while.head")
        body = self.fn.new_block("while.body")
        done = self.fn.new_block("while.end")
        self._terminate(ir.Br(head))
        self._switch_to(head)
        cond = self.as_bool(self.lower_expr(stmt.cond))
        self._terminate(ir.CondBr(cond, body, done))
        self._switch_to(body)
        self.loops.append(_LoopFrame(head, done))
        self.lower_scoped(stmt.body)
        self.loops.pop()
        self._terminate(ir.Br(head))
        self._switch_to(done)

    def lower_for(self, stmt: ast.For) -> None:
        outer, self.env = self.env, dict(self.env)  # the loop variable's scope
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.fn.new_block("for.head")
        body = self.fn.new_block("for.body")
        step = self.fn.new_block("for.step")
        done = self.fn.new_block("for.end")
        self._terminate(ir.Br(head))
        self._switch_to(head)
        if stmt.cond is not None:
            cond = self.as_bool(self.lower_expr(stmt.cond))
            self._terminate(ir.CondBr(cond, body, done))
        else:
            self._terminate(ir.Br(body))
        self._switch_to(body)
        self.loops.append(_LoopFrame(step, done))
        self.lower_scoped(stmt.body)
        self.loops.pop()
        self._terminate(ir.Br(step))
        self._switch_to(step)
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self._terminate(ir.Br(head))
        self._switch_to(done)
        self.env = outer

    # -- expressions ----------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> ir.Value:
        saved = self.cur_loc
        if getattr(expr, "loc", None) is not None:
            self.cur_loc = expr.loc
        try:
            return self._lower_expr_inner(expr)
        finally:
            self.cur_loc = saved

    def _lower_expr_inner(self, expr: ast.Expr) -> ir.Value:
        if isinstance(expr, ast.IntLit):
            ty = expr.ty if expr.ty is not None else I32
            return ir.Const(ty, expr.value)
        if isinstance(expr, ast.BoolLit):
            return ir.Const(BOOL, int(expr.value))
        if isinstance(expr, ast.Ident):
            return self.lower_ident(expr)
        if isinstance(expr, ast.Member):
            return self.lower_member(expr)
        if isinstance(expr, ast.Index):
            return self.load_access(self.resolve_access(expr), expr)
        if isinstance(expr, ast.Unary):
            return self.lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.lower_binary(expr)
        if isinstance(expr, ast.Assign):
            return self.lower_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self.lower_ternary(expr)
        if isinstance(expr, ast.Call):
            return self.lower_call(expr)
        if isinstance(expr, ast.Cast):
            value = self.lower_expr(expr.operand)
            if expr.target.is_scalar:
                result = self.coerce(value, expr.target, expr.operand)
                if isinstance(result, ir.Cast) and result is not value:
                    result.explicit = True  # programmer-written cast
                return result
            return value
        raise NclTypeError(f"cannot lower {type(expr).__name__}", expr.loc)

    def lower_ident(self, expr: ast.Ident) -> ir.Value:
        binding = self.env.get(expr.name)
        if isinstance(binding, ir.Param):
            return binding
        if isinstance(binding, ir.Alloca):
            return self.emit(ir.Load(binding))
        sym = expr.decl
        if isinstance(sym, Symbol):
            ref = self.module.globals.get(sym.name)
            if ref is None:
                raise NclTypeError(f"unlowered symbol {sym.name!r}", expr.loc)
            if isinstance(ref.ty, (ArrayType, MapType, BloomFilterType)):
                raise NclTypeError(
                    f"{sym.name!r} used as a value; arrays/maps must be indexed",
                    expr.loc,
                )
            if ref.space == "ctrl":
                return self.emit(ir.CtrlRead(ref))
            return self.emit(ir.LoadElem(ref, self.const(0, U32)))
        raise NclTypeError(f"unresolved identifier {expr.name!r}", expr.loc)

    def _read_local(self, name: str) -> ir.Value:
        binding = self.env[name]
        if isinstance(binding, ir.Alloca):
            return self.emit(ir.Load(binding))
        return binding

    def lower_member(self, expr: ast.Member) -> ir.Value:
        base = expr.base
        if isinstance(base, ast.Ident) and base.name == "window":
            fty = self.unit.window_field_type(expr.field)
            assert fty is not None
            return self.emit(ir.WinField(expr.field, fty))
        if isinstance(base, ast.Ident) and base.name == "location":
            return self.emit(ir.LocField(expr.field, expr.ty or I32))
        raise NclTypeError("unsupported member access", expr.loc)

    def lower_unary(self, expr: ast.Unary) -> ir.Value:
        op = expr.op
        if op in ("++", "--"):
            return self.lower_incdec(expr)
        if op == "*":
            return self.lower_deref(expr.operand, expr)
        if op == "&":
            raise NclTypeError(
                "address-of is only supported as a memcpy argument", expr.loc
            )
        operand = self.lower_expr(expr.operand)
        if op == "!":
            return self.emit(ir.UnOp("lnot", self.as_bool(operand), BOOL))
        ty = expr.ty or operand.ty
        operand = self.coerce(operand, ty, expr.operand)
        if op == "-":
            return self.emit(ir.UnOp("neg", operand, ty))
        if op == "~":
            return self.emit(ir.UnOp("not", operand, ty))
        raise NclTypeError(f"cannot lower unary {op!r}", expr.loc)

    def lower_deref(self, pointer_expr: ast.Expr, ctx: ast.Expr) -> ir.Value:
        pointer = self.lower_pointer(pointer_expr)
        if isinstance(pointer, ir.Param):
            return self.emit(ir.LoadParam(pointer, self.const(0, U32)))
        # Otherwise it must be a Map lookup token.
        ptr_ty = pointer.ty
        assert isinstance(ptr_ty, PointerType)
        return self.emit(ir.MapValue(pointer, ptr_ty.pointee))

    def lower_pointer(self, expr: ast.Expr) -> ir.Value:
        """Lower an expression of pointer type to its pointer value."""
        if isinstance(expr, ast.Ident):
            binding = self.env.get(expr.name)
            if isinstance(binding, ir.Param):
                return binding
            if isinstance(binding, ir.Alloca):
                return self.emit(ir.Load(binding))
        if isinstance(expr, ast.Index) and isinstance(expr.base.ty, MapType):
            ref = self._global_for(expr.base)
            key = self.lower_expr(expr.index)
            key_ty = ref.ty.key  # type: ignore[union-attr]
            return self.emit(ir.MapLookup(ref, self.coerce(key, key_ty, expr.index)))
        return self.lower_expr(expr)

    def lower_incdec(self, expr: ast.Unary) -> ir.Value:
        access = self.resolve_access(expr.operand)
        old = self.load_access(access, expr.operand)
        ty = old.ty
        delta = self.const(1, ty if ty.is_integer else I32)
        op = "add" if expr.op == "++" else "sub"
        new = self.emit(ir.BinOp(op, old, self.coerce(delta, ty, expr), ty))
        self.store_access(access, new, expr)
        return old if expr.postfix else new

    def lower_binary(self, expr: ast.Binary) -> ir.Value:
        op = expr.op
        if op == ",":
            self.lower_expr(expr.lhs)
            return self.lower_expr(expr.rhs)
        if op in ("&&", "||"):
            return self.lower_logical(expr)
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self.lower_compare(op, lhs, rhs, expr)
        ty = expr.ty or common_type(lhs.ty, rhs.ty)
        lhs = self.coerce(lhs, ty, expr.lhs)
        rhs = self.coerce(rhs, ty, expr.rhs)
        ir_op = _arith_op(op, ty, expr.loc)
        return self.emit(ir.BinOp(ir_op, lhs, rhs, ty))

    def lower_logical(self, expr: ast.Binary) -> ir.Value:
        """``&&``/``||`` in kernel code: both sides, combined bitwise."""
        lhs = self.as_bool(self.lower_expr(expr.lhs))
        rhs = self.as_bool(self.lower_expr(expr.rhs))
        return self.emit(ir.BinOp("and" if expr.op == "&&" else "or", lhs, rhs, BOOL))

    def lower_ternary(self, expr: ast.Ternary) -> ir.Value:
        """``?:`` in kernel code: both sides, then a ``select``."""
        cond = self.as_bool(self.lower_expr(expr.cond))
        a = self.lower_expr(expr.then)
        b = self.lower_expr(expr.other)
        ty = expr.ty or common_type(a.ty, b.ty)
        a = self.coerce(a, ty, expr.then)
        b = self.coerce(b, ty, expr.other)
        return self.emit(ir.Select(cond, a, b, ty))

    def lower_compare(
        self, op: str, lhs: ir.Value, rhs: ir.Value, expr: ast.Binary
    ) -> ir.Value:
        # Pointer comparisons reduce to found-ness (a Map token compares
        # against "null").
        if lhs.ty.is_pointer or rhs.ty.is_pointer:
            pointer = lhs if lhs.ty.is_pointer else rhs
            found = self.emit(ir.MapFound(pointer))
            if op == "==":
                return self.emit(ir.UnOp("lnot", found, BOOL))
            return found
        ty = common_type(lhs.ty, rhs.ty)
        lhs = self.coerce(lhs, ty, expr.lhs)
        rhs = self.coerce(rhs, ty, expr.rhs)
        signed = is_signed(ty)
        ir_op = {
            "==": "eq",
            "!=": "ne",
            "<": "slt" if signed else "ult",
            "<=": "sle" if signed else "ule",
            ">": "sgt" if signed else "ugt",
            ">=": "sge" if signed else "uge",
        }[op]
        return self.emit(ir.BinOp(ir_op, lhs, rhs, ty))

    def lower_assign(self, expr: ast.Assign) -> ir.Value:
        access = self.resolve_access(expr.target)
        value = self.lower_expr(expr.value)
        if expr.op == "=":
            if not access.elem_ty.is_pointer:
                value = self.coerce(value, access.elem_ty, expr.value)
        else:
            old = self.load_access(access, expr.target)
            ty = access.elem_ty
            value = self.coerce(value, ty, expr.value)
            ir_op = _arith_op(expr.op.rstrip("="), ty, expr.loc)
            value = self.emit(ir.BinOp(ir_op, old, value, ty))
        self.store_access(access, value, expr)
        return value

    # -- access resolution -----------------------------------------------------

    def _global_for(self, expr: ast.Expr) -> ir.GlobalRef:
        node = expr
        while isinstance(node, ast.Index):
            node = node.base
        if isinstance(node, ast.Ident) and node.name in self.module.globals:
            return self.module.globals[node.name]
        raise NclTypeError("expected a global symbol", expr.loc)

    def resolve_access(self, expr: ast.Expr) -> _Access:
        """Resolve an lvalue (or readable element) expression."""
        if isinstance(expr, ast.Ident):
            binding = self.env.get(expr.name)
            if isinstance(binding, ir.Alloca):
                return _Access("local", binding.slot_ty, slot=binding)
            if isinstance(binding, ir.Param):
                ty = binding.ty
                elem = ty.pointee if isinstance(ty, PointerType) else ty
                if isinstance(ty, PointerType):
                    raise NclTypeError(
                        f"pointer parameter {expr.name!r} must be dereferenced "
                        "or indexed",
                        expr.loc,
                    )
                raise NclTypeError(
                    f"cannot assign to scalar parameter {expr.name!r} "
                    "(window scalars are per-window inputs)",
                    expr.loc,
                )
            sym = expr.decl
            if isinstance(sym, Symbol) and sym.name in self.module.globals:
                ref = self.module.globals[sym.name]
                if ref.space == "ctrl":
                    return _Access("ctrl", ref.elem_type, ref=ref, index=None)
                return _Access(
                    "global", ref.elem_type, ref=ref, index=self.const(0, U32)
                )
            raise NclTypeError(f"cannot resolve {expr.name!r}", expr.loc)
        if isinstance(expr, ast.Index):
            return self.resolve_index_access(expr)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self.lower_pointer(expr.operand)
            if isinstance(pointer, ir.Param):
                elem = pointer.ty.pointee  # type: ignore[union-attr]
                return _Access("param", elem, param=pointer, index=self.const(0, U32))
            ptr_ty = pointer.ty
            assert isinstance(ptr_ty, PointerType)
            access = _Access("map", ptr_ty.pointee)
            access.token = pointer  # type: ignore[attr-defined]
            return access
        raise NclTypeError("expression is not an lvalue", expr.loc)

    def resolve_index_access(self, expr: ast.Index) -> _Access:
        # Collect the index chain: base[ i0 ][ i1 ] ...
        indices: List[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        base = node
        if isinstance(base, ast.Ident):
            binding = self.env.get(base.name)
            if isinstance(binding, ir.Param) and isinstance(binding.ty, PointerType):
                if len(indices) != 1:
                    raise NclTypeError("pointer parameters are 1-D", expr.loc)
                idx = self._index_value(indices[0])
                return _Access(
                    "param", binding.ty.pointee, param=binding, index=idx
                )
            sym = base.decl
            if isinstance(sym, Symbol) and sym.name in self.module.globals:
                ref = self.module.globals[sym.name]
                if isinstance(ref.ty, MapType):
                    if len(indices) != 1:
                        raise NclTypeError("Map lookup takes one key", expr.loc)
                    key = self.lower_expr(indices[0])
                    key = self.coerce(key, ref.ty.key, indices[0])
                    token = self.emit(ir.MapLookup(ref, key))
                    access = _Access("map", ref.ty.value)
                    access.token = token  # type: ignore[attr-defined]
                    return access
                if isinstance(ref.ty, ArrayType):
                    linear = self._linearize(ref.ty, indices, expr)
                    space = "ctrl" if ref.space == "ctrl" else "global"
                    return _Access(space, ref.ty.scalar_element, ref=ref, index=linear)
                raise NclTypeError(f"cannot index {ref.ty!r}", expr.loc)
        raise NclTypeError("unsupported indexed expression", expr.loc)

    def _index_value(self, index_expr: ast.Expr) -> ir.Value:
        value = self.lower_expr(index_expr)
        if value.ty.is_pointer:
            # Fig 5 idiom: Valid[idx] where idx is a Map token.
            ptr_ty = value.ty
            assert isinstance(ptr_ty, PointerType)
            value = self.emit(ir.MapValue(value, ptr_ty.pointee))
        return self.coerce(value, U32, index_expr)

    def _linearize(
        self, array_ty: ArrayType, indices: List[ast.Expr], expr: ast.Expr
    ) -> ir.Value:
        dims: List[int] = []
        elem: Type = array_ty
        while isinstance(elem, ArrayType):
            dims.append(elem.length)
            elem = elem.element
        if len(indices) != len(dims):
            raise NclTypeError(
                f"expected {len(dims)} indices, got {len(indices)} "
                "(partial indexing is only valid inside memcpy)",
                expr.loc,
            )
        linear: Optional[ir.Value] = None
        for dim_idx, index_expr in enumerate(indices):
            idx = self._index_value(index_expr)
            stride = 1
            for d in dims[dim_idx + 1 :]:
                stride *= d
            if stride != 1:
                idx = self.emit(ir.BinOp("mul", idx, self.const(stride, U32), U32))
            linear = (
                idx
                if linear is None
                else self.emit(ir.BinOp("add", linear, idx, U32))
            )
        assert linear is not None
        return linear

    def load_access(self, access: _Access, ctx: ast.Expr) -> ir.Value:
        if access.kind == "local":
            assert access.slot is not None
            return self.emit(ir.Load(access.slot))
        if access.kind == "param":
            assert access.param is not None and access.index is not None
            return self.emit(ir.LoadParam(access.param, access.index))
        if access.kind == "global":
            assert access.ref is not None and access.index is not None
            return self.emit(ir.LoadElem(access.ref, access.index))
        if access.kind == "ctrl":
            assert access.ref is not None
            return self.emit(ir.CtrlRead(access.ref, access.index))
        if access.kind == "map":
            token = getattr(access, "token")
            return self.emit(ir.MapValue(token, access.elem_ty))
        raise NclTypeError("unreadable access", ctx.loc)

    def store_access(self, access: _Access, value: ir.Value, ctx: ast.Expr) -> None:
        if access.kind == "local":
            assert access.slot is not None
            self.emit(ir.Store(access.slot, value))
            return
        if access.kind == "param":
            assert access.param is not None and access.index is not None
            self.emit(ir.StoreParam(access.param, access.index, value))
            return
        if access.kind == "global":
            assert access.ref is not None and access.index is not None
            self.emit(ir.StoreElem(access.ref, access.index, value))
            return
        raise NclTypeError("cannot assign to this expression", ctx.loc)

    # -- calls -----------------------------------------------------------------

    def lower_call(self, expr: ast.Call) -> ir.Value:
        name = expr.name
        if name in ("_drop", "_bcast", "_reflect", "_pass"):
            label = None
            if name == "_pass" and expr.args:
                arg = expr.args[0]
                assert isinstance(arg, ast.StrLit)
                label = arg.value
            return self.emit(ir.Fwd(ir.FwdKind.from_intrinsic(name), label))
        if name == "memcpy":
            return self.lower_memcpy(expr)
        if name == "_locid":
            arg = expr.args[0]
            assert isinstance(arg, ast.StrLit)
            return self.emit(ir.LocLabel(arg.value))
        if name in ("ncl::bf_insert", "ncl::bf_query"):
            ref = self._global_for(expr.args[0])
            key = self.lower_expr(expr.args[1])
            op = "insert" if name.endswith("insert") else "query"
            return self.emit(ir.BloomOp(ref, op, key))
        if name.startswith("ncl::"):
            raise NclTypeError(
                f"{name} is host runtime API and cannot appear in kernel/helper "
                "code lowered to NIR",
                expr.loc,
            )
        callee = self.module.functions.get(name)
        if callee is None:
            raise NclTypeError(f"call to unknown function {name!r}", expr.loc)
        args = []
        for arg_expr, param in zip(expr.args, callee.params):
            value = self.lower_expr(arg_expr)
            if param.ty.is_scalar:
                value = self.coerce(value, param.ty, arg_expr)
            args.append(value)
        return self.emit(ir.CallFn(callee, args))

    def lower_memcpy(self, expr: ast.Call) -> ir.Value:
        dst, dst_off = self.lower_region(expr.args[0])
        src, src_off = self.lower_region(expr.args[1])
        nbytes = self.lower_expr(expr.args[2])
        nbytes = self.coerce(nbytes, U32, expr.args[2])
        return self.emit(ir.Memcpy(dst, dst_off, src, src_off, nbytes))

    def lower_region(self, expr: ast.Expr) -> Tuple[ir.MemRegion, ir.Value]:
        """Resolve a memcpy argument to a region + element offset."""
        node = expr
        if isinstance(node, ast.Unary) and node.op == "&":
            node = node.operand
        # Bare identifier: param pointer or whole global array.
        if isinstance(node, ast.Ident):
            binding = self.env.get(node.name)
            if isinstance(binding, ir.Param):
                return ir.MemRegion("param", param=binding), self.const(0, U32)
            sym = node.decl
            if isinstance(sym, Symbol) and sym.name in self.module.globals:
                ref = self.module.globals[sym.name]
                return ir.MemRegion("global", ref=ref), self.const(0, U32)
            raise NclTypeError("bad memcpy operand", node.loc)
        if isinstance(node, ast.Index):
            indices: List[ast.Expr] = []
            walker: ast.Expr = node
            while isinstance(walker, ast.Index):
                indices.append(walker.index)
                walker = walker.base
            indices.reverse()
            base = walker
            if isinstance(base, ast.Ident):
                binding = self.env.get(base.name)
                if isinstance(binding, ir.Param):
                    if len(indices) != 1:
                        raise NclTypeError("pointer params are 1-D", node.loc)
                    off = self._index_value(indices[0])
                    return ir.MemRegion("param", param=binding), off
                sym = base.decl
                if isinstance(sym, Symbol) and sym.name in self.module.globals:
                    ref = self.module.globals[sym.name]
                    if not isinstance(ref.ty, ArrayType):
                        raise NclTypeError("memcpy needs an array global", node.loc)
                    off = self._partial_linearize(ref.ty, indices, node)
                    return ir.MemRegion("global", ref=ref), off
        raise NclTypeError("unsupported memcpy operand", expr.loc)

    def _partial_linearize(
        self, array_ty: ArrayType, indices: List[ast.Expr], expr: ast.Expr
    ) -> ir.Value:
        """Like _linearize but allows fewer indices than dimensions
        (row addressing: Cache[*idx] selects a 128-element row)."""
        dims: List[int] = []
        elem: Type = array_ty
        while isinstance(elem, ArrayType):
            dims.append(elem.length)
            elem = elem.element
        if len(indices) > len(dims):
            raise NclTypeError("too many indices", expr.loc)
        linear: Optional[ir.Value] = None
        for dim_idx, index_expr in enumerate(indices):
            idx = self._index_value(index_expr)
            stride = 1
            for d in dims[dim_idx + 1 :]:
                stride *= d
            if stride != 1:
                idx = self.emit(ir.BinOp("mul", idx, self.const(stride, U32), U32))
            linear = (
                idx if linear is None else self.emit(ir.BinOp("add", linear, idx, U32))
            )
        return linear if linear is not None else self.const(0, U32)

    # -- coercions ---------------------------------------------------------------

    def as_bool(self, value: ir.Value) -> ir.Value:
        if value.ty == BOOL:
            return value
        if value.ty.is_pointer:
            return self.emit(ir.MapFound(value))
        return self.emit(ir.Cast("bool", value, BOOL))

    def coerce(self, value: ir.Value, to_ty: Type, ctx: ast.Expr) -> ir.Value:
        if value.ty == to_ty or not to_ty.is_scalar:
            return value
        if isinstance(value, ir.Const):
            from repro.util.intops import wrap

            bits = scalar_bits(to_ty)
            return ir.Const(to_ty, wrap(value.value, bits, is_signed(to_ty)))
        if to_ty == BOOL:
            return self.as_bool(value)
        from_bits = scalar_bits(value.ty)
        to_bits = scalar_bits(to_ty)
        if from_bits == to_bits:
            kind = "zext"  # same width re-signing: bit pattern preserved
        elif from_bits < to_bits:
            kind = "sext" if is_signed(value.ty) else "zext"
        else:
            kind = "trunc"
        return self.emit(ir.Cast(kind, value, to_ty))


#: how many arguments each control-plane runtime call takes
_CONTROL_ARITY = {"ncl::ctrl_wr": (2, 3), "ncl::map_insert": (3,), "ncl::map_erase": (2,)}


class HostFunctionLowerer(FunctionLowerer):
    """Lowers one host function (see the module docstring)."""

    def lower(self) -> None:
        for param in self.fn.params:  # C parameters are assignable locals
            if param.ty.is_scalar:
                self.emit(ir.Store(self.alloca(param.ty, param.name), param))
        super().lower()

    def _either(
        self, cond: ir.Value, then: Callable[[], ir.Value],
        other: Callable[[], ir.Value], ty: Type,
    ) -> ir.Value:
        """``cond ? then() : other()``, lowering each side on its own branch."""
        arms = (self.fn.new_block("host.then"), self.fn.new_block("host.else"))
        merge = self.fn.new_block("host.end")
        self._terminate(ir.CondBr(cond, *arms))
        phi = ir.Phi(ty)
        for block, side in zip(arms, (then, other)):
            self._switch_to(block)
            phi.add_incoming(side(), self.block)
            self._terminate(ir.Br(merge))
        self._switch_to(merge)
        return self.emit(phi)

    def lower_logical(self, expr: ast.Binary) -> ir.Value:
        lhs = self.as_bool(self.lower_expr(expr.lhs))
        sides = [
            lambda: self.as_bool(self.lower_expr(expr.rhs)),
            lambda: ir.Const(BOOL, int(expr.op == "||")),  # when rhs is skipped
        ]
        if expr.op == "||":
            sides.reverse()
        return self._either(lhs, *sides, BOOL)

    def lower_ternary(self, expr: ast.Ternary) -> ir.Value:
        cond = self.as_bool(self.lower_expr(expr.cond))
        ty = expr.ty
        return self._either(
            cond,
            lambda: self.coerce(self.lower_expr(expr.then), ty, expr.then),
            lambda: self.coerce(self.lower_expr(expr.other), ty, expr.other),
            ty,
        )

    def lower_call(self, expr: ast.Call) -> ir.Value:
        name = expr.name
        if name not in HOST_RUNTIME_CALLS:
            return super().lower_call(expr)
        if name in _CONTROL_ARITY:
            args = [self.lower_operand(arg) for arg in expr.args]
            arity = _CONTROL_ARITY[name]
            if len(args) not in arity:
                raise NclTypeError(
                    f"{name} takes {' or '.join(map(str, arity))} arguments", expr.loc
                )
            if not (isinstance(args[0], ir.GlobalAddr) and args[0].ref.space != "host"):
                raise NclTypeError(
                    f"{name} expects a _ctrl_ variable or Map first", expr.loc
                )
            return self.emit(ir.CallFn(self.parent.extern(name, VOID), args))
        # ncl::out(kernel, {a, b, ...} [, "dst"]) / ncl::in(kernel, {a, ...})
        static = [name, expr.args[0].name]  # sema: an identifier naming a kernel
        items = expr.args[1:2]
        if items and isinstance(items[0], ast.Call) and items[0].name == "__list__":
            items = items[0].args
        args = [self.lower_operand(item) for item in items]
        if name == "ncl::out":
            dst = None
            for extra in expr.args[2:]:
                if isinstance(extra, ast.StrLit):
                    dst = extra.value  # a destination label (Fig 2's "Host-B")
                else:
                    self.lower_expr(extra)
            if dst is not None:
                static.append(dst)
        return self.emit(ir.CallFn(self.parent.extern(" ".join(static), I32), args))

    def lower_operand(self, expr: ast.Expr) -> ir.Value:
        """A runtime call's argument: the address of the host global,
        ``_ctrl_`` variable or container it names (``&x``, or a bare array,
        ``_ctrl_`` variable or container), else its value."""
        node = expr.operand if isinstance(expr, ast.Unary) and expr.op == "&" else expr
        ref = None
        if isinstance(node, ast.Ident) and node.name not in self.env:
            ref = self.module.globals.get(node.name)
        if ref is not None and (
            node is not expr or ref.space != "host" or isinstance(ref.ty, ArrayType)
        ):
            return self.emit(ir.GlobalAddr(ref))
        if node is not expr:
            raise NclTypeError("host code takes the address of a global only", expr.loc)
        return self.lower_expr(expr)


def _arith_op(op: str, ty: Type, loc=None) -> str:
    signed = is_signed(ty) if ty.is_scalar else False
    table = {
        "+": "add",
        "-": "sub",
        "*": "mul",
        "/": "sdiv" if signed else "udiv",
        "%": "srem" if signed else "urem",
        "<<": "shl",
        ">>": "ashr" if signed else "lshr",
        "&": "and",
        "|": "or",
        "^": "xor",
    }
    if op not in table:
        raise NclTypeError(f"unknown arithmetic operator {op!r}", loc)
    return table[op]


def _flatten_init(gvar: ast.GlobalVar) -> Optional[List[int]]:
    """Evaluate a file-scope initializer to a flat element list.

    Follows C aggregate-initialization: missing elements are zero, a
    braced list distributes over rows of 2-D arrays, and ``{0}`` /
    ``{false}`` zero-fill.
    """
    from repro.ncl.parser import const_eval

    ty = gvar.ty
    if gvar.init is None:
        return None
    if not isinstance(ty, ArrayType):
        init = gvar.init
        if isinstance(init, list):
            init = init[0] if init else None
        value = const_eval(init) if init is not None else 0
        if value is None:
            raise NclTypeError("global initializer must be constant", gvar.loc)
        return [value]
    total = ty.total_elements
    flat = [0] * total
    init = gvar.init
    if not isinstance(init, list):
        raise NclTypeError("array initializer must be braced", gvar.loc)

    def fill(items: list, base: int, sub_ty: Type) -> None:
        if not isinstance(sub_ty, ArrayType):
            return
        elem_ty = sub_ty.element
        elem_size = (
            elem_ty.total_elements if isinstance(elem_ty, ArrayType) else 1
        )
        for i, item in enumerate(items):
            if isinstance(item, list):
                fill(item, base + i * elem_size, elem_ty)
            else:
                value = const_eval(item)
                if value is None:
                    raise NclTypeError("initializer must be constant", gvar.loc)
                flat[base + i * elem_size] = value

    fill(init, 0, ty)
    return flat


def _prune_unreachable(fn: ir.Function) -> None:
    """Drop blocks unreachable from the entry (dead merge blocks etc.)."""
    reachable = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if block in reachable:
            continue
        reachable.add(block)
        stack.extend(block.successors())
    fn.blocks = [b for b in fn.blocks if b in reachable]


def lower_unit(
    unit: TranslationUnit, name: str = "ncl", lenient: bool = False
) -> ir.Module:
    """Lower an analyzed translation unit to a NIR module.

    ``lenient=True`` drops functions/globals that fail to lower instead
    of raising -- used by the linter after error recovery, so analyses
    still see the parts of the program that are well-formed.
    """
    return ModuleLowerer(unit, name, lenient=lenient).lower()


def lower_host(unit: TranslationUnit) -> Tuple[Optional[ir.Module], Dict[str, str]]:
    """The host module of an analyzed translation unit: every host
    function lowered with host semantics (:class:`HostFunctionLowerer`),
    but one that does not lower, or calls one that does not, whose reason
    is returned by name instead. ``(None, {})`` without host functions."""
    decls = [decl for decl in unit.functions.values() if decl.body is not None]
    if not decls:
        return None, {}
    lowerer = ModuleLowerer(unit, "host")
    lowerer._lower_globals()
    module = lowerer.module
    for decl in decls:
        module.add_function(lowerer._make_function(decl, ir.FunctionKind.HELPER))
    errors: Dict[str, str] = {}
    for decl in decls:
        try:
            HostFunctionLowerer(lowerer, module.functions[decl.name], decl).lower()
        except (ReproError, *_LOWERING_ERRORS) as exc:
            errors[decl.name] = f"{type(exc).__name__}: {exc}"
    pending = list(errors)
    while pending:
        broken = pending.pop()
        for fn in module.functions.values():
            if fn.name not in errors and any(
                isinstance(i, ir.CallFn) and i.callee.name == broken
                for i in fn.instructions()
            ):
                errors[fn.name] = f"calls {broken!r}, which does not lower"
                pending.append(fn.name)
    for fn_name in errors:
        del module.functions[fn_name]
    return module, errors
