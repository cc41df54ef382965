"""Semantic analysis for NCL.

Resolves identifiers, type-checks every expression and statement, enforces
the NCL-specific rules from the paper (S4.1/S4.2), and produces the
:class:`TranslationUnit` semantic model that the nclc compiler driver
consumes.

Key NCL rules enforced here:

* ``_net_`` switch memory is accessible only from kernel code; host code
  touches ``_ctrl_`` variables exclusively through ``ncl::ctrl_wr``.
* ``_ctrl_`` variables and ``ncl::Map`` containers are read-only in
  kernels (Maps additionally require a location).
* forwarding intrinsics (``_drop``/``_pass``/``_bcast``/``_reflect``)
  are valid only inside outgoing kernels;
* ``_ext_`` parameters are valid only on incoming kernels and must
  trail the window-data parameters;
* the builtin ``window`` struct is readable in kernels only; extension
  fields come from a ``struct window { ... };`` declaration;
* incoming kernels' non-``_ext_`` parameter lists must be pairable with
  an outgoing kernel's parameter list (same types, same order).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.diag import DiagnosticSink, diagnostic_from_error
from repro.errors import NclTypeError, SourceLocation
from repro.ncl import ast
from repro.ncl.symbols import Scope, Symbol, SymbolKind
from repro.ncl.types import (
    ArrayType,
    BloomFilterType,
    BOOL,
    I32,
    I64,
    IntType,
    MapType,
    POISON,
    PointerType,
    Type,
    U16,
    U32,
    U64,
    VOID,
    assignable,
    common_type,
)

#: Builtin fields of the window struct (paper S4.2: "sequence number,
#: sender etc."). Extension fields are appended after these.
BUILTIN_WINDOW_FIELDS: List[Tuple[str, Type]] = [
    ("seq", U32),  # window sequence number within a kernel invocation
    ("from", U16),  # node id of the sending host
    ("last", BOOL),  # set on the final window of an invocation
]

#: Forwarding intrinsics available in _out_ kernels (paper S4.1).
FORWARDING_INTRINSICS = ("_drop", "_pass", "_bcast", "_reflect")

#: Runtime API entry points callable from host code.
HOST_RUNTIME_CALLS = ("ncl::out", "ncl::in", "ncl::ctrl_wr", "ncl::map_insert", "ncl::map_erase")


class KernelInfo:
    """Semantic summary of one network kernel."""

    def __init__(self, decl: ast.FuncDecl):
        self.decl = decl
        self.name = decl.name
        self.kind = decl.kernel_kind
        self.at_label = decl.at_label
        self.params = decl.params

    @property
    def data_params(self) -> List[ast.Param]:
        """Window-data parameters (everything that is not ``_ext_``)."""
        return [p for p in self.params if not p.ext]

    @property
    def ext_params(self) -> List[ast.Param]:
        return [p for p in self.params if p.ext]

    def data_signature(self) -> Tuple[Type, ...]:
        return tuple(p.ty for p in self.data_params)

    def __repr__(self) -> str:
        return f"KernelInfo({self.kind.name if self.kind else '?'} {self.name})"


class TranslationUnit:
    """The fully analyzed program: the compiler front end's output."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.out_kernels: Dict[str, KernelInfo] = {}
        self.in_kernels: Dict[str, KernelInfo] = {}
        self.functions: Dict[str, ast.FuncDecl] = {}  # host + helper functions
        self.net_globals: Dict[str, ast.GlobalVar] = {}  # switch memory
        self.ctrl_vars: Dict[str, ast.GlobalVar] = {}  # _ctrl_ scalars/arrays
        self.maps: Dict[str, ast.GlobalVar] = {}
        self.blooms: Dict[str, ast.GlobalVar] = {}
        self.host_globals: Dict[str, ast.GlobalVar] = {}
        self.window_fields: List[Tuple[str, Type]] = list(BUILTIN_WINDOW_FIELDS)
        self.symbols: Dict[str, Symbol] = {}

    @property
    def kernels(self) -> Dict[str, KernelInfo]:
        merged = dict(self.out_kernels)
        merged.update(self.in_kernels)
        return merged

    def window_field_type(self, name: str) -> Optional[Type]:
        for fname, fty in self.window_fields:
            if fname == name:
                return fty
        return None

    def paired_out_kernel(self, in_kernel: str) -> Optional[KernelInfo]:
        """Find the outgoing kernel whose parameter list the given incoming
        kernel matches (paper S4.1: an _in_ kernel is 'paired' with an
        _out_ kernel and must match its parameter list)."""
        info = self.in_kernels.get(in_kernel)
        if info is None:
            return None
        sig = info.data_signature()
        for out in self.out_kernels.values():
            if out.data_signature() == sig:
                return out
        return None


class _FnContext:
    """Tracks what the checker may see inside the current function body."""

    def __init__(self, decl: ast.FuncDecl):
        self.decl = decl
        self.kind = decl.kernel_kind  # None for host functions
        self.in_loop = 0
        # Host code may name _ctrl_ variables / Maps only as arguments to
        # control-plane runtime calls (ncl::ctrl_wr, ncl::map_insert, ...).
        self.in_ctrl_call = 0

    @property
    def is_out_kernel(self) -> bool:
        return self.kind is ast.KernelKind.OUT

    @property
    def is_in_kernel(self) -> bool:
        return self.kind is ast.KernelKind.IN

    @property
    def is_kernel(self) -> bool:
        return self.kind is not None


class SemanticAnalyzer:
    """Type checker with two failure modes.

    Without a sink, the first error raises :class:`NclTypeError`
    (fail-fast, the historical behaviour every caller relies on). With a
    :class:`repro.diag.DiagnosticSink`, errors are recorded and analysis
    keeps going: erroneous expressions get the poison type
    (:data:`repro.ncl.types.POISON`), failed declarations still bind
    their name, and every independent mistake in the program surfaces in
    a single run.
    """

    def __init__(self, program: ast.Program, sink: Optional[DiagnosticSink] = None):
        self._program = program
        self._unit = TranslationUnit(program)
        self._globals = Scope()
        self._sink = sink

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def analyze(self) -> TranslationUnit:
        self._collect_window_ext()
        self._collect_globals()
        self._collect_functions()
        for decl in self._program.functions:
            if decl.body is not None:
                with self._recover():
                    self._check_function(decl)
        self._check_kernel_pairing()
        return self._unit

    # ------------------------------------------------------------------
    # Error recovery
    # ------------------------------------------------------------------

    @contextmanager
    def _recover(self):
        """Catch an :class:`NclTypeError` and record it, or re-raise when
        running without a sink. The guarded region simply stops early."""
        try:
            yield
        except NclTypeError as exc:
            if self._sink is None:
                raise
            self._sink.add(diagnostic_from_error(exc))

    def _common_type(self, a: Type, b: Type, loc: SourceLocation) -> Type:
        """`common_type` with the caller's location attached on failure
        (the raw types.py raise carries no source position)."""
        try:
            return common_type(a, b)
        except NclTypeError as exc:
            if exc.loc is None:
                raise NclTypeError(exc.message, loc, code=exc.code) from None
            raise

    # ------------------------------------------------------------------
    # Declaration collection
    # ------------------------------------------------------------------

    def _collect_window_ext(self) -> None:
        ext = self._program.window_ext
        if ext is None:
            return
        builtin_names = {name for name, _ in BUILTIN_WINDOW_FIELDS}
        for name, ty in ext.fields:
            with self._recover():
                if name in builtin_names:
                    raise NclTypeError(
                        f"window extension field {name!r} shadows a builtin field",
                        ext.loc,
                    )
                if any(name == existing for existing, _ in self._unit.window_fields):
                    raise NclTypeError(f"duplicate window field {name!r}", ext.loc)
                self._unit.window_fields.append((name, ty))

    def _collect_globals(self) -> None:
        for gvar in self._program.globals:
            try:
                kind = self._classify_global(gvar)
            except NclTypeError as exc:
                if self._sink is None:
                    raise
                self._sink.add(diagnostic_from_error(exc))
                # Classify by structure anyway so later uses of the name
                # do not cascade into "undeclared identifier" errors.
                kind = self._fallback_kind(gvar)
            sym = Symbol(gvar.name, gvar.ty, kind, gvar.loc, at_label=gvar.at_label)
            with self._recover():
                self._globals.declare(sym)
            self._unit.symbols[gvar.name] = sym
            if kind is SymbolKind.MAP:
                self._unit.maps[gvar.name] = gvar
            elif kind is SymbolKind.BLOOM:
                self._unit.blooms[gvar.name] = gvar
            elif kind is SymbolKind.CTRL:
                self._unit.ctrl_vars[gvar.name] = gvar
            elif kind is SymbolKind.NET_MEM:
                self._unit.net_globals[gvar.name] = gvar
            else:
                self._unit.host_globals[gvar.name] = gvar

    def _classify_global(self, gvar: ast.GlobalVar) -> SymbolKind:
        if isinstance(gvar.ty, MapType):
            if gvar.at_label is None:
                raise NclTypeError(
                    f"Map {gvar.name!r} requires _at_: it is realized as a "
                    "match-action table managed by the control plane",
                    gvar.loc,
                )
            return SymbolKind.MAP
        if isinstance(gvar.ty, BloomFilterType):
            if not gvar.is_net:
                raise NclTypeError(f"BloomFilter {gvar.name!r} must be _net_", gvar.loc)
            return SymbolKind.BLOOM
        if gvar.is_ctrl:
            if not gvar.is_net:
                raise NclTypeError("_ctrl_ requires _net_", gvar.loc)
            if gvar.at_label is None:
                raise NclTypeError(
                    f"control variable {gvar.name!r} requires _at_(label) "
                    "(paper S4.1: location is required for _ctrl_)",
                    gvar.loc,
                )
            return SymbolKind.CTRL
        if gvar.is_net:
            if gvar.ty.is_pointer:
                raise NclTypeError("switch memory cannot be a pointer", gvar.loc)
            return SymbolKind.NET_MEM
        return SymbolKind.HOST_GLOBAL

    @staticmethod
    def _fallback_kind(gvar: ast.GlobalVar) -> SymbolKind:
        """Best-effort kind for a global whose classification errored."""
        if isinstance(gvar.ty, MapType):
            return SymbolKind.MAP
        if isinstance(gvar.ty, BloomFilterType):
            return SymbolKind.BLOOM
        if gvar.is_ctrl:
            return SymbolKind.CTRL
        if gvar.is_net:
            return SymbolKind.NET_MEM
        return SymbolKind.HOST_GLOBAL

    def _collect_functions(self) -> None:
        prototypes: Dict[str, ast.FuncDecl] = {}
        for decl in self._program.functions:
            existing = self._globals.lookup(decl.name)
            if existing is not None:
                proto = prototypes.get(decl.name)
                if (
                    proto is not None
                    and proto.body is None
                    and decl.body is not None
                    and proto.ret == decl.ret
                    and [p.ty for p in proto.params] == [p.ty for p in decl.params]
                ):
                    # definition completing a forward declaration
                    proto.body = decl.body
                    proto.params = decl.params
                    continue
                with self._recover():
                    raise NclTypeError(f"redefinition of {decl.name!r}", decl.loc)
                continue  # recovered: keep the first definition
            if decl.body is None:
                prototypes[decl.name] = decl
            sym = Symbol(decl.name, decl.ret, SymbolKind.FUNC, decl.loc, at_label=decl.at_label)
            self._globals.declare(sym)
            self._unit.symbols[decl.name] = sym
            # Recoverable: an invalid signature still registers the kernel
            # so ncl::out(kernel, ...) call sites do not cascade.
            with self._recover():
                self._validate_signature(decl)
            if decl.kernel_kind is ast.KernelKind.OUT:
                self._unit.out_kernels[decl.name] = KernelInfo(decl)
            elif decl.kernel_kind is ast.KernelKind.IN:
                self._unit.in_kernels[decl.name] = KernelInfo(decl)
            else:
                self._unit.functions[decl.name] = decl

    def _validate_signature(self, decl: ast.FuncDecl) -> None:
        seen_ext = False
        for param in decl.params:
            if param.ext:
                seen_ext = True
                if decl.kernel_kind is not ast.KernelKind.IN:
                    raise NclTypeError(
                        "_ext_ parameters are only valid on incoming kernels",
                        param.loc,
                    )
            elif seen_ext:
                raise NclTypeError(
                    "window-data parameters must precede _ext_ parameters",
                    param.loc,
                )
            if param.ty.is_array:
                raise NclTypeError(
                    "array parameters are not supported; pass a pointer", param.loc
                )
        if decl.kernel_kind is not None:
            if not decl.ret.is_void:
                raise NclTypeError("network kernels must return void", decl.loc)
            if not decl.params:
                raise NclTypeError("a kernel needs at least one data parameter", decl.loc)
            for param in decl.params:
                if not param.ext and not param.ty.is_pointer and not param.ty.is_scalar:
                    raise NclTypeError(
                        f"kernel parameter {param.name!r} must be scalar or pointer",
                        param.loc,
                    )
        if decl.kernel_kind is ast.KernelKind.IN and decl.at_label is not None:
            raise NclTypeError(
                "_at_ is meaningless on incoming kernels (they exist on all hosts)",
                decl.loc,
            )

    def _check_kernel_pairing(self) -> None:
        for name in self._unit.in_kernels:
            if self._unit.paired_out_kernel(name) is None and self._unit.out_kernels:
                info = self._unit.in_kernels[name]
                with self._recover():
                    raise NclTypeError(
                        f"incoming kernel {name!r} does not match any outgoing "
                        "kernel's parameter list",
                        info.decl.loc,
                    )

    # ------------------------------------------------------------------
    # Function body checking
    # ------------------------------------------------------------------

    def _check_function(self, decl: ast.FuncDecl) -> None:
        ctx = _FnContext(decl)
        scope = Scope(self._globals)
        for param in decl.params:
            scope.declare(Symbol(param.name, param.ty, SymbolKind.PARAM, param.loc, ext=param.ext))
        self._check_block(decl.body, scope, ctx)  # type: ignore[arg-type]

    def _check_block(self, block: ast.Block, scope: Scope, ctx: _FnContext) -> None:
        inner = Scope(scope)
        for stmt in block.stmts:
            self._check_stmt(stmt, inner, ctx)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope, ctx: _FnContext) -> None:
        # Statement granularity is the recovery unit: one bad statement is
        # recorded and skipped, its siblings are still checked.
        with self._recover():
            self._check_stmt_inner(stmt, scope, ctx)

    def _check_stmt_inner(self, stmt: ast.Stmt, scope: Scope, ctx: _FnContext) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope, ctx)
        elif isinstance(stmt, ast.DeclStmt):
            self._check_decl(stmt, scope, ctx)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope, ctx)
        elif isinstance(stmt, ast.If):
            self._check_if(stmt, scope, ctx)
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.cond, scope, ctx)
            ctx.in_loop += 1
            self._check_stmt(stmt.body, Scope(scope), ctx)
            ctx.in_loop -= 1
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner, ctx)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, inner, ctx)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner, ctx)
            ctx.in_loop += 1
            self._check_stmt(stmt.body, Scope(inner), ctx)
            ctx.in_loop -= 1
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt, scope, ctx)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if ctx.in_loop == 0:
                raise NclTypeError("break/continue outside a loop", stmt.loc)
        else:
            raise NclTypeError(f"unsupported statement {type(stmt).__name__}", stmt.loc)

    def _check_decl(self, stmt: ast.DeclStmt, scope: Scope, ctx: _FnContext) -> None:
        try:
            self._check_decl_inner(stmt, scope, ctx)
        except NclTypeError as exc:
            if self._sink is None:
                raise
            self._sink.add(diagnostic_from_error(exc))
            # Bind the name anyway (with poison if the type is unknown) so
            # later uses do not report it as undeclared.
            if stmt.ty is None:
                stmt.ty = POISON
            if scope.lookup(stmt.name) is None:
                scope.declare(Symbol(stmt.name, stmt.ty, SymbolKind.LOCAL, stmt.loc))

    def _check_decl_inner(self, stmt: ast.DeclStmt, scope: Scope, ctx: _FnContext) -> None:
        braced = getattr(stmt, "braced_init", None)
        if braced is not None:
            raise NclTypeError(
                "braced initializers are only supported at file scope", stmt.loc
            )
        if stmt.is_auto:
            init_ty = self._check_expr(stmt.init, scope, ctx)  # type: ignore[arg-type]
            depth = getattr(stmt, "auto_ptr_depth", 0)
            if depth > 0 and not init_ty.is_pointer:
                raise NclTypeError(
                    "auto* requires a pointer initializer (e.g. a Map lookup)",
                    stmt.loc,
                )
            stmt.ty = init_ty
        else:
            assert stmt.ty is not None
            if stmt.ty.is_void:
                raise NclTypeError("cannot declare a void variable", stmt.loc)
            if stmt.init is not None:
                init_ty = self._check_expr(stmt.init, scope, ctx)
                if not assignable(stmt.ty, init_ty):
                    raise NclTypeError(
                        f"cannot initialize {stmt.ty!r} from {init_ty!r}", stmt.loc
                    )
            if ctx.is_kernel and stmt.ty.is_array:
                raise NclTypeError(
                    "local arrays are not supported in kernels "
                    "(use _net_ switch memory)",
                    stmt.loc,
                )
        scope.declare(Symbol(stmt.name, stmt.ty, SymbolKind.LOCAL, stmt.loc))

    def _check_if(self, stmt: ast.If, scope: Scope, ctx: _FnContext) -> None:
        inner = Scope(scope)
        if stmt.cond_decl is not None:
            self._check_decl(stmt.cond_decl, inner, ctx)
            decl_ty = stmt.cond_decl.ty
            if not (decl_ty and (decl_ty.is_pointer or decl_ty.is_scalar)):
                raise NclTypeError(
                    "condition declaration must yield a pointer or scalar",
                    stmt.cond_decl.loc,
                )
        if stmt.cond is not None:
            self._check_condition(stmt.cond, inner, ctx)
        self._check_stmt(stmt.then, Scope(inner), ctx)
        if stmt.orelse is not None:
            self._check_stmt(stmt.orelse, Scope(scope), ctx)

    def _check_condition(self, cond: ast.Expr, scope: Scope, ctx: _FnContext) -> None:
        ty = self._check_expr(cond, scope, ctx)
        if not (ty.is_scalar or ty.is_pointer):
            raise NclTypeError(f"condition must be scalar or pointer, got {ty!r}", cond.loc)

    def _check_return(self, stmt: ast.Return, scope: Scope, ctx: _FnContext) -> None:
        ret = ctx.decl.ret
        if stmt.value is None:
            if not ret.is_void:
                raise NclTypeError("non-void function must return a value", stmt.loc)
            return
        if ret.is_void:
            raise NclTypeError("void function cannot return a value", stmt.loc)
        value_ty = self._check_expr(stmt.value, scope, ctx)
        if not assignable(ret, value_ty):
            raise NclTypeError(f"cannot return {value_ty!r} as {ret!r}", stmt.loc)

    # ------------------------------------------------------------------
    # Expression checking
    # ------------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: Scope, ctx: _FnContext) -> Type:
        try:
            ty = self._check_expr_inner(expr, scope, ctx)
        except NclTypeError as exc:
            if self._sink is None:
                raise
            self._sink.add(diagnostic_from_error(exc))
            ty = POISON
        expr.ty = ty
        return ty

    def _check_expr_inner(self, expr: ast.Expr, scope: Scope, ctx: _FnContext) -> Type:
        if isinstance(expr, ast.IntLit):
            # C-style: decimal literals take the first signed type that
            # fits (int, then long long); only huge values go unsigned.
            if expr.value <= 0x7FFFFFFF:
                return I32
            if expr.value <= 0x7FFFFFFFFFFFFFFF:
                return I64
            return U64
        if isinstance(expr, ast.BoolLit):
            return BOOL
        if isinstance(expr, ast.StrLit):
            return PointerType(IntType(8, signed=True))
        if isinstance(expr, ast.Ident):
            return self._check_ident(expr, scope, ctx)
        if isinstance(expr, ast.Member):
            return self._check_member(expr, scope, ctx)
        if isinstance(expr, ast.Index):
            return self._check_index(expr, scope, ctx)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr, scope, ctx)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, scope, ctx)
        if isinstance(expr, ast.Assign):
            return self._check_assign(expr, scope, ctx)
        if isinstance(expr, ast.Ternary):
            self._check_condition(expr.cond, scope, ctx)
            then_ty = self._check_expr(expr.then, scope, ctx)
            other_ty = self._check_expr(expr.other, scope, ctx)
            if then_ty == other_ty:
                return then_ty
            return self._common_type(then_ty, other_ty, expr.loc)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope, ctx)
        if isinstance(expr, ast.Cast):
            operand_ty = self._check_expr(expr.operand, scope, ctx)
            if expr.target.is_scalar and (operand_ty.is_scalar or operand_ty.is_pointer):
                return expr.target
            if expr.target.is_pointer and operand_ty.is_pointer:
                return expr.target
            raise NclTypeError(
                f"unsupported cast from {operand_ty!r} to {expr.target!r}", expr.loc
            )
        raise NclTypeError(f"unsupported expression {type(expr).__name__}", expr.loc)

    def _check_ident(self, expr: ast.Ident, scope: Scope, ctx: _FnContext) -> Type:
        if expr.name == "window":
            if not ctx.is_kernel:
                raise NclTypeError("'window' is only available in kernel code", expr.loc)
            return VOID  # only valid under a Member access; flagged there
        if expr.name == "location":
            if not ctx.is_out_kernel:
                raise NclTypeError(
                    "'location' is only available in outgoing kernels", expr.loc
                )
            return VOID
        sym = scope.lookup(expr.name)
        if sym is None:
            raise NclTypeError(
                f"use of undeclared identifier {expr.name!r}",
                expr.loc,
                code="NCL0404",
                length=len(expr.name),
            )
        expr.decl = sym
        self._check_symbol_access(sym, expr.loc, ctx)
        return sym.ty

    def _check_symbol_access(self, sym: Symbol, loc: SourceLocation, ctx: _FnContext) -> None:
        if sym.is_switch_side and not ctx.is_out_kernel:
            writable_kinds = (SymbolKind.CTRL, SymbolKind.MAP, SymbolKind.BLOOM)
            if ctx.in_ctrl_call and sym.kind in writable_kinds:
                return  # host writes _ctrl_ state via the control plane
            raise NclTypeError(
                f"switch-side symbol {sym.name!r} is only accessible in "
                "outgoing kernel code (hosts use the control plane)",
                loc,
            )
        if sym.kind is SymbolKind.HOST_GLOBAL and ctx.is_out_kernel:
            raise NclTypeError(
                f"host global {sym.name!r} is not accessible from switch code",
                loc,
            )

    def _check_member(self, expr: ast.Member, scope: Scope, ctx: _FnContext) -> Type:
        base = expr.base
        if isinstance(base, ast.Ident) and base.name == "window":
            if not ctx.is_kernel:
                raise NclTypeError("'window' is only available in kernel code", expr.loc)
            base.ty = VOID
            fty = self._unit.window_field_type(expr.field)
            if fty is None:
                raise NclTypeError(
                    f"window struct has no field {expr.field!r} "
                    "(declare it via `struct window { ... };`)",
                    expr.loc,
                )
            return fty
        if isinstance(base, ast.Ident) and base.name == "location":
            if not ctx.is_out_kernel:
                raise NclTypeError(
                    "'location' is only available in outgoing kernels", expr.loc
                )
            base.ty = VOID
            if expr.field == "id":
                return U16
            raise NclTypeError(f"location struct has no field {expr.field!r}", expr.loc)
        raise NclTypeError(
            "member access is only defined on the builtin window/location structs",
            expr.loc,
        )

    def _check_index(self, expr: ast.Index, scope: Scope, ctx: _FnContext) -> Type:
        base_ty = self._check_expr(expr.base, scope, ctx)
        index_ty = self._check_expr(expr.index, scope, ctx)
        if base_ty.is_error or index_ty.is_error:
            return POISON  # suppress cascades from an already-bad operand
        if isinstance(base_ty, MapType):
            if not ctx.is_out_kernel:
                raise NclTypeError("Map lookup is only valid in outgoing kernels", expr.loc)
            if not index_ty.is_integer:
                raise NclTypeError(f"Map key must be integer, got {index_ty!r}", expr.loc)
            return PointerType(base_ty.value)
        # Auto-deref a pointer used as an index (Fig 5: Valid[idx] with auto *idx).
        if index_ty.is_pointer:
            pointee = index_ty.pointee  # type: ignore[attr-defined]
            if not pointee.is_scalar:
                raise NclTypeError("cannot index with a non-scalar pointer", expr.loc)
            index_ty = pointee
        if not (index_ty.is_integer or index_ty.is_bool):
            raise NclTypeError(f"array index must be integer, got {index_ty!r}", expr.loc)
        if isinstance(base_ty, ArrayType):
            return base_ty.element
        if isinstance(base_ty, PointerType):
            return base_ty.pointee
        raise NclTypeError(f"cannot subscript {base_ty!r}", expr.loc)

    def _check_unary(self, expr: ast.Unary, scope: Scope, ctx: _FnContext) -> Type:
        operand_ty = self._check_expr(expr.operand, scope, ctx)
        if operand_ty.is_error:
            return POISON  # suppress cascades from an already-bad operand
        op = expr.op
        if op in ("++", "--"):
            self._require_lvalue(expr.operand, ctx)
            if not operand_ty.is_scalar:
                raise NclTypeError(f"cannot {op} a {operand_ty!r}", expr.loc)
            return operand_ty
        if op == "*":
            if not operand_ty.is_pointer:
                raise NclTypeError(f"cannot dereference {operand_ty!r}", expr.loc)
            return operand_ty.pointee  # type: ignore[attr-defined]
        if op == "&":
            self._require_lvalue(expr.operand, ctx, for_addressof=True)
            return PointerType(operand_ty)
        if op == "!":
            if not (operand_ty.is_scalar or operand_ty.is_pointer):
                raise NclTypeError(f"cannot logically negate {operand_ty!r}", expr.loc)
            return BOOL
        if op in ("-", "~"):
            if not operand_ty.is_scalar:
                raise NclTypeError(f"cannot apply {op} to {operand_ty!r}", expr.loc)
            return self._common_type(operand_ty, I32, expr.loc)
        raise NclTypeError(f"unsupported unary operator {op!r}", expr.loc)

    def _check_binary(self, expr: ast.Binary, scope: Scope, ctx: _FnContext) -> Type:
        lhs_ty = self._check_expr(expr.lhs, scope, ctx)
        rhs_ty = self._check_expr(expr.rhs, scope, ctx)
        if lhs_ty.is_error or rhs_ty.is_error:
            return POISON  # suppress cascades from an already-bad operand
        op = expr.op
        if op == ",":
            return rhs_ty
        if op in ("&&", "||"):
            for side, ty in ((expr.lhs, lhs_ty), (expr.rhs, rhs_ty)):
                if not (ty.is_scalar or ty.is_pointer):
                    raise NclTypeError(f"cannot use {ty!r} as a boolean", side.loc)
            return BOOL
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if lhs_ty.is_pointer and rhs_ty.is_pointer:
                return BOOL
            if lhs_ty.is_pointer or rhs_ty.is_pointer:
                # pointer vs null-ish integer comparison
                other = rhs_ty if lhs_ty.is_pointer else lhs_ty
                if not other.is_integer:
                    raise NclTypeError("invalid pointer comparison", expr.loc)
                return BOOL
            self._common_type(lhs_ty, rhs_ty, expr.loc)  # validates operands
            return BOOL
        if not (lhs_ty.is_scalar and rhs_ty.is_scalar):
            raise NclTypeError(
                f"invalid operands to {op!r}: {lhs_ty!r} and {rhs_ty!r}", expr.loc
            )
        return self._common_type(lhs_ty, rhs_ty, expr.loc)

    def _check_assign(self, expr: ast.Assign, scope: Scope, ctx: _FnContext) -> Type:
        target_ty = self._check_expr(expr.target, scope, ctx)
        value_ty = self._check_expr(expr.value, scope, ctx)
        self._require_lvalue(expr.target, ctx)
        if expr.op == "=":
            if not assignable(target_ty, value_ty):
                raise NclTypeError(
                    f"cannot assign {value_ty!r} to {target_ty!r}", expr.loc
                )
        else:
            if not (target_ty.is_scalar and value_ty.is_scalar):
                raise NclTypeError(
                    f"invalid compound assignment on {target_ty!r}", expr.loc
                )
        return target_ty

    def _require_lvalue(
        self, expr: ast.Expr, ctx: _FnContext, for_addressof: bool = False
    ) -> None:
        if isinstance(expr, ast.Ident):
            if expr.name in ("window", "location"):
                raise NclTypeError(f"{expr.name!r} is not assignable", expr.loc)
            sym = expr.decl
            if isinstance(sym, Symbol):
                if sym.kind in (SymbolKind.CTRL, SymbolKind.MAP, SymbolKind.BLOOM):
                    if for_addressof and ctx.in_ctrl_call:
                        return  # &ctrl_var handle passed to ncl::ctrl_wr
                    raise NclTypeError(
                        f"{sym.name!r} is read-only in kernel code "
                        "(written via the control plane)",
                        expr.loc,
                    )
                if sym.kind is SymbolKind.FUNC:
                    raise NclTypeError("cannot assign to a function", expr.loc)
            return
        if isinstance(expr, ast.Index):
            base_ty = expr.base.ty
            if isinstance(base_ty, MapType):
                raise NclTypeError(
                    "Map entries are read-only in kernel code", expr.loc
                )
            self._require_base_writable(expr.base)
            return
        if isinstance(expr, ast.Unary) and expr.op == "*":
            inner = expr.operand
            if isinstance(inner.ty, PointerType) and self._is_map_lookup(inner):
                raise NclTypeError("Map entries are read-only in kernel code", expr.loc)
            return
        if isinstance(expr, ast.Member):
            base = expr.base
            if isinstance(base, ast.Ident) and base.name == "window":
                raise NclTypeError(
                    "window metadata fields are read-only in kernel code", expr.loc
                )
            return
        if for_addressof and isinstance(expr, ast.Index):
            return
        raise NclTypeError("expression is not assignable", expr.loc)

    def _require_base_writable(self, base: ast.Expr) -> None:
        node = base
        while isinstance(node, ast.Index):
            node = node.base
        if isinstance(node, ast.Ident) and isinstance(node.decl, Symbol):
            sym = node.decl
            if sym.kind in (SymbolKind.CTRL, SymbolKind.MAP):
                raise NclTypeError(
                    f"{sym.name!r} is read-only in kernel code", node.loc
                )

    @staticmethod
    def _is_map_lookup(expr: ast.Expr) -> bool:
        return isinstance(expr, ast.Index) and isinstance(expr.base.ty, MapType)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _check_call(self, expr: ast.Call, scope: Scope, ctx: _FnContext) -> Type:
        name = expr.name
        if name in FORWARDING_INTRINSICS:
            return self._check_forwarding(expr, scope, ctx)
        if name == "memcpy":
            return self._check_memcpy(expr, scope, ctx)
        if name == "_locid":
            return self._check_locid(expr, ctx)
        if name in ("ncl::bf_insert", "ncl::bf_query"):
            return self._check_bloom_call(expr, scope, ctx)
        if name in HOST_RUNTIME_CALLS:
            return self._check_runtime_call(expr, scope, ctx)
        if name == "__list__":
            for arg in expr.args:
                self._check_expr(arg, scope, ctx)
            return VOID
        # User helper function.
        sym = self._globals.lookup(name)
        if sym is None or sym.kind is not SymbolKind.FUNC:
            raise NclTypeError(
                f"call to undeclared function {name!r}",
                expr.loc,
                code="NCL0405",
                length=len(name),
            )
        decl = self._find_function(name)
        if decl is None:
            raise NclTypeError(f"{name!r} is not callable here", expr.loc)
        if decl.is_kernel:
            raise NclTypeError(
                f"kernel {name!r} cannot be called directly; use ncl::out/ncl::in",
                expr.loc,
            )
        if len(expr.args) != len(decl.params):
            raise NclTypeError(
                f"{name!r} expects {len(decl.params)} arguments, got {len(expr.args)}",
                expr.loc,
            )
        for arg, param in zip(expr.args, decl.params):
            arg_ty = self._check_expr(arg, scope, ctx)
            if not assignable(param.ty, arg_ty):
                raise NclTypeError(
                    f"argument {param.name!r}: cannot pass {arg_ty!r} as {param.ty!r}",
                    arg.loc,
                )
        expr.decl = decl  # type: ignore[attr-defined]
        return decl.ret

    def _find_function(self, name: str) -> Optional[ast.FuncDecl]:
        for decl in self._program.functions:
            if decl.name == name:
                return decl
        return None

    def _check_forwarding(self, expr: ast.Call, scope: Scope, ctx: _FnContext) -> Type:
        expr.is_intrinsic = True
        # Allowed in outgoing kernels and in plain helper functions (which
        # only ever run inlined into outgoing kernels); forbidden in
        # incoming kernels, which have no forwarding role.
        if ctx.is_in_kernel or ctx.decl.name == "main":
            raise NclTypeError(
                f"{expr.name} is only valid inside outgoing kernels", expr.loc
            )
        if expr.name == "_pass":
            if len(expr.args) > 1:
                raise NclTypeError("_pass takes at most one label argument", expr.loc)
            if expr.args and not isinstance(expr.args[0], ast.StrLit):
                raise NclTypeError("_pass label must be a string literal", expr.loc)
            if expr.args:
                expr.args[0].ty = PointerType(IntType(8, signed=True))
        elif expr.args:
            raise NclTypeError(f"{expr.name} takes no arguments", expr.loc)
        return VOID

    def _check_memcpy(self, expr: ast.Call, scope: Scope, ctx: _FnContext) -> Type:
        expr.is_intrinsic = True
        if len(expr.args) != 3:
            raise NclTypeError("memcpy(dst, src, nbytes) takes 3 arguments", expr.loc)
        dst_ty = self._check_expr(expr.args[0], scope, ctx)
        src_ty = self._check_expr(expr.args[1], scope, ctx)
        len_ty = self._check_expr(expr.args[2], scope, ctx)
        for what, ty, arg in (("dst", dst_ty, expr.args[0]), ("src", src_ty, expr.args[1])):
            if not (ty.is_pointer or ty.is_array or ty.is_error):
                raise NclTypeError(f"memcpy {what} must be pointer/array, got {ty!r}", arg.loc)
        if not (len_ty.is_integer or len_ty.is_error):
            raise NclTypeError("memcpy length must be an integer", expr.args[2].loc)
        return VOID

    def _check_locid(self, expr: ast.Call, ctx: _FnContext) -> Type:
        expr.is_intrinsic = True
        if not ctx.is_out_kernel:
            raise NclTypeError("_locid is only valid in outgoing kernels", expr.loc)
        if len(expr.args) != 1 or not isinstance(expr.args[0], ast.StrLit):
            raise NclTypeError('_locid expects a single string label, e.g. _locid("s1")', expr.loc)
        expr.args[0].ty = PointerType(IntType(8, signed=True))
        return U16

    def _check_bloom_call(self, expr: ast.Call, scope: Scope, ctx: _FnContext) -> Type:
        expr.is_intrinsic = True
        if not ctx.is_out_kernel:
            raise NclTypeError(f"{expr.name} is only valid in outgoing kernels", expr.loc)
        if len(expr.args) != 2:
            raise NclTypeError(f"{expr.name}(filter, key) takes 2 arguments", expr.loc)
        filt_ty = self._check_expr(expr.args[0], scope, ctx)
        key_ty = self._check_expr(expr.args[1], scope, ctx)
        if not isinstance(filt_ty, BloomFilterType) and not filt_ty.is_error:
            raise NclTypeError("first argument must be a BloomFilter", expr.args[0].loc)
        if not (key_ty.is_integer or key_ty.is_error):
            raise NclTypeError("BloomFilter key must be integer", expr.args[1].loc)
        return BOOL if expr.name == "ncl::bf_query" else VOID

    def _check_runtime_call(self, expr: ast.Call, scope: Scope, ctx: _FnContext) -> Type:
        expr.is_intrinsic = True
        if ctx.is_kernel:
            raise NclTypeError(
                f"{expr.name} is host-side runtime API, not available in kernels",
                expr.loc,
            )
        is_ctrl_call = expr.name in ("ncl::ctrl_wr", "ncl::map_insert", "ncl::map_erase")
        if is_ctrl_call:
            ctx.in_ctrl_call += 1
        try:
            for arg in expr.args:
                self._check_expr(arg, scope, ctx)
        finally:
            if is_ctrl_call:
                ctx.in_ctrl_call -= 1
        if expr.name in ("ncl::out", "ncl::in"):
            if not expr.args:
                raise NclTypeError(f"{expr.name} requires a kernel argument", expr.loc)
            head = expr.args[0]
            if not isinstance(head, ast.Ident) or (
                head.name not in self._unit.out_kernels
                and head.name not in self._unit.in_kernels
            ):
                raise NclTypeError(
                    f"first argument of {expr.name} must name a kernel", head.loc
                )
        return I32 if expr.name in ("ncl::out", "ncl::in") else VOID


def analyze(
    program: ast.Program, sink: Optional[DiagnosticSink] = None
) -> TranslationUnit:
    """Run semantic analysis over a parsed NCL program.

    Without *sink*, the first error raises :class:`NclTypeError`. With a
    sink, all independent errors are collected and the (possibly
    poison-typed) translation unit is returned; check
    ``sink.has_errors`` before handing it to the compiler.
    """
    return SemanticAnalyzer(program, sink=sink).analyze()
