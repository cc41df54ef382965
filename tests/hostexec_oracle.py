"""The host-code reference walker: the independent oracle for
:class:`repro.runtime.HostProgram`.

This is the AST-level executor that ``repro.runtime.hostexec`` shipped
until host functions were lowered through ``repro.nir.lower`` and run by
the generated NIR executor. It shares no code with that path except
:mod:`repro.util.intops`' *runtime* functions, so
``tests/test_host_differential.py`` can hold the executor against it.
Behaviour is unchanged, including the four places the executor
deliberately differs (listed in that suite): a declaration leaks out of
a nested block, a host array index is not bounds-checked, a loop stops
after 10M iterations rather than a call after ``MAX_STEPS`` steps, and
an unsigned ``%`` by zero raises Python's own message.

It runs the program's ``main()`` from the translation unit the kernels
came from -- the frontend run again on the program's source and the
defines it was compiled with (:func:`frontend`) -- with the ``ncl::``
calls bound to the live runtime:

* ``ncl::ctrl_wr(&var, value)``      -> control-plane write;
* ``ncl::map_insert(&map, k, v)``    -> control-plane table insert;
* ``ncl::out(kernel, {arrays...})``  -> invoke the outgoing kernel
  (arrays are host variables; windows per the compiled WindowConfig);
* ``ncl::in(kernel, {args...})``     -> co-simulate the network until
  the next window for *kernel* has been handled by the incoming kernel;
  returns the number of windows received so far.

Host code runs under C semantics (fixed-width wrapping, short-circuit
``&&``/``||`` -- hosts are real CPUs, unlike the eager data plane).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Mapping, Optional

from repro.errors import RuntimeApiError
from repro.ncl import ast
from repro.ncl.lexer import tokenize
from repro.ncl.parser import Parser
from repro.ncl.sema import TranslationUnit, analyze
from repro.ncl.symbols import Symbol, SymbolKind
from repro.ncl.types import ArrayType, IntType, Type, is_signed, scalar_bits
from repro.runtime.host_rt import NclHost
from repro.util import intops


class Cell:
    """A mutable reference produced by ``&scalar`` -- behaves like a
    1-element buffer so incoming kernels can write through it."""

    __slots__ = ("container", "key")

    def __init__(self, container, key):
        self.container = container
        self.key = key

    def __getitem__(self, idx):
        if idx != 0:
            raise RuntimeApiError("scalar reference indexed out of range")
        return self.container[self.key]

    def __setitem__(self, idx, value):
        if idx != 0:
            raise RuntimeApiError("scalar reference indexed out of range")
        self.container[self.key] = value

    def __len__(self):
        return 1


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _CtrlHandle:
    """Result of ``&ctrl_var`` in host code: names switch-side state."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


def frontend(source: str, defines: Optional[Mapping[str, int]] = None) -> TranslationUnit:
    """Lex, parse and analyze *source*: the walker's input."""
    return analyze(Parser(tokenize(source, "<ncl>", dict(defines or {}))).parse_program())


class OracleHostProgram:
    """Binds a translation unit's host code to a deployed cluster host.
    :attr:`unit` is the frontend's on the cluster program's source; assign
    it to walk a program compiled with ``-D`` values."""

    def __init__(self, cluster, host_label: str):
        self.cluster = cluster
        self.program = cluster.program
        self.host: NclHost = cluster.host(host_label)
        self._registered_in: Dict[str, bool] = {}

    @cached_property
    def unit(self) -> TranslationUnit:
        return frontend(self.program.source)

    # -- entry points ----------------------------------------------------------

    def run(self, fn_name: str = "main", args: Optional[List] = None):
        decl = self.unit.functions.get(fn_name)
        if decl is None or decl.body is None:
            raise RuntimeApiError(f"no host function {fn_name!r} to run")
        env: Dict[str, object] = {}
        for param, value in zip(decl.params, args or []):
            env[param.name] = value
        try:
            self._exec_block(decl.body, env)
        except _Return as ret:
            return ret.value
        return None

    # -- statements -------------------------------------------------------------

    def _exec_block(self, block: ast.Block, env: Dict[str, object]) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.Stmt, env: Dict[str, object]) -> None:
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, env)
        elif isinstance(stmt, ast.DeclStmt):
            self._exec_decl(stmt, env)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.If):
            inner = dict(env)
            if stmt.cond_decl is not None:
                self._exec_decl(stmt.cond_decl, inner)
                cond = bool(inner[stmt.cond_decl.name])
            else:
                cond = bool(self._eval(stmt.cond, inner))
            if cond:
                self._exec_stmt(stmt.then, inner)
            elif stmt.orelse is not None:
                self._exec_stmt(stmt.orelse, inner)
            self._copy_back(env, inner)
        elif isinstance(stmt, ast.While):
            guard = 0
            while bool(self._eval(stmt.cond, env)):
                guard += 1
                if guard > 10_000_000:
                    raise RuntimeApiError("host loop exceeded 10M iterations")
                try:
                    self._exec_stmt(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.For):
            inner = dict(env)
            if stmt.init is not None:
                self._exec_stmt(stmt.init, inner)
            guard = 0
            while stmt.cond is None or bool(self._eval(stmt.cond, inner)):
                guard += 1
                if guard > 10_000_000:
                    raise RuntimeApiError("host loop exceeded 10M iterations")
                try:
                    self._exec_stmt(stmt.body, inner)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self._eval(stmt.step, inner)
            self._copy_back(env, inner)
        elif isinstance(stmt, ast.Return):
            raise _Return(self._eval(stmt.value, env) if stmt.value else None)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        else:
            raise RuntimeApiError(f"cannot execute {type(stmt).__name__} on host")

    @staticmethod
    def _copy_back(outer: Dict[str, object], inner: Dict[str, object]) -> None:
        for key in outer:
            if key in inner:
                outer[key] = inner[key]

    def _exec_decl(self, stmt: ast.DeclStmt, env: Dict[str, object]) -> None:
        ty = stmt.ty
        if isinstance(ty, ArrayType):
            env[stmt.name] = [0] * ty.total_elements
            return
        value = self._eval(stmt.init, env) if stmt.init is not None else 0
        if ty is not None and ty.is_scalar:
            value = self._wrap(value, ty)
        env[stmt.name] = value

    # -- expressions --------------------------------------------------------------

    def _wrap(self, value, ty: Type):
        if isinstance(value, int) and ty.is_scalar:
            return intops.wrap(value, scalar_bits(ty), is_signed(ty))
        return value

    def _eval(self, expr: ast.Expr, env: Dict[str, object]):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return int(expr.value)
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self._load_ident(expr, env)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, env)
            idx = self._eval(expr.index, env)
            return base[idx]
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr, env)
        if isinstance(expr, ast.Ternary):
            if self._eval(expr.cond, env):
                return self._eval(expr.then, env)
            return self._eval(expr.other, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Cast):
            value = self._eval(expr.operand, env)
            return self._wrap(value, expr.target) if expr.target.is_scalar else value
        raise RuntimeApiError(f"cannot evaluate {type(expr).__name__} on host")

    def _load_ident(self, expr: ast.Ident, env: Dict[str, object]):
        if expr.name in env:
            return env[expr.name]
        sym = expr.decl
        if isinstance(sym, Symbol):
            if sym.kind is SymbolKind.HOST_GLOBAL:
                array = self.host.state.arrays.get(sym.name)
                if array is None:
                    raise RuntimeApiError(f"host global {sym.name!r} missing")
                if isinstance(sym.ty, ArrayType):
                    return array
                return array[0]
            if sym.kind in (SymbolKind.CTRL, SymbolKind.MAP, SymbolKind.BLOOM):
                return _CtrlHandle(sym.name)
        raise RuntimeApiError(f"unbound identifier {expr.name!r} in host code")

    def _eval_unary(self, expr: ast.Unary, env):
        op = expr.op
        if op == "&":
            return self._address_of(expr.operand, env)
        if op == "*":
            pointer = self._eval(expr.operand, env)
            return pointer[0]
        if op in ("++", "--"):
            old = self._eval(expr.operand, env)
            delta = 1 if op == "++" else -1
            new = self._wrap(old + delta, expr.operand.ty or IntType(32, True))
            self._store(expr.operand, new, env)
            return old if expr.postfix else new
        value = self._eval(expr.operand, env)
        if op == "!":
            return int(not value)
        if op == "-":
            return self._wrap(-value, expr.ty or IntType(32, True))
        if op == "~":
            return self._wrap(~value, expr.ty or IntType(32, True))
        raise RuntimeApiError(f"unsupported host unary {op!r}")

    def _address_of(self, expr: ast.Expr, env):
        if isinstance(expr, ast.Ident):
            if isinstance(expr.decl, Symbol) and expr.decl.is_switch_side:
                return _CtrlHandle(expr.decl.name)
            if expr.name in env:
                return Cell(env, expr.name)
            sym = expr.decl
            if isinstance(sym, Symbol) and sym.kind is SymbolKind.HOST_GLOBAL:
                return Cell(self.host.state.arrays[sym.name], 0)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, env)
            idx = self._eval(expr.index, env)
            return Cell(base, idx)
        raise RuntimeApiError("unsupported address-of in host code")

    def _eval_binary(self, expr: ast.Binary, env):
        op = expr.op
        if op == "&&":
            return int(bool(self._eval(expr.lhs, env)) and bool(self._eval(expr.rhs, env)))
        if op == "||":
            return int(bool(self._eval(expr.lhs, env)) or bool(self._eval(expr.rhs, env)))
        if op == ",":
            self._eval(expr.lhs, env)
            return self._eval(expr.rhs, env)
        a = self._eval(expr.lhs, env)
        b = self._eval(expr.rhs, env)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return int(
                {
                    "==": a == b,
                    "!=": a != b,
                    "<": a < b,
                    "<=": a <= b,
                    ">": a > b,
                    ">=": a >= b,
                }[op]
            )
        return self._arith(op, a, b, expr.ty)

    def _arith(self, op: str, a, b, ty):
        """``a op b`` wrapped to *ty*: the one arithmetic table, under
        binary expressions and compound assignments alike."""
        ty = ty or IntType(32, True)
        if op == "+":
            raw = a + b
        elif op == "-":
            raw = a - b
        elif op == "*":
            raw = a * b
        elif op == "/":
            raw = intops.checked_sdiv(a, b) if is_signed(ty) else intops.checked_udiv(a, b)
        elif op == "%":
            raw = intops.checked_srem(a, b) if is_signed(ty) else a % b
        elif op == "<<":
            raw = a << intops.shift_amount(b, scalar_bits(ty))
        elif op == ">>":
            raw = a >> intops.shift_amount(b, scalar_bits(ty))
        elif op == "&":
            raw = a & b
        elif op == "|":
            raw = a | b
        elif op == "^":
            raw = a ^ b
        else:
            raise RuntimeApiError(f"unsupported host operator {op!r}")
        return self._wrap(raw, ty)

    def _eval_assign(self, expr: ast.Assign, env):
        value = self._eval(expr.value, env)
        if expr.op != "=":
            old = self._eval(expr.target, env)
            value = self._arith(expr.op.rstrip("="), old, value, expr.target.ty)
        if expr.target.ty is not None and expr.target.ty.is_scalar:
            value = self._wrap(value, expr.target.ty)
        self._store(expr.target, value, env)
        return value

    def _store(self, target: ast.Expr, value, env) -> None:
        if isinstance(target, ast.Ident):
            if target.name in env:
                env[target.name] = value
                return
            sym = target.decl
            if isinstance(sym, Symbol) and sym.kind is SymbolKind.HOST_GLOBAL:
                self.host.state.arrays[sym.name][0] = value
                return
            raise RuntimeApiError(f"cannot assign {target.name!r} on host")
        if isinstance(target, ast.Index):
            base = self._eval(target.base, env)
            idx = self._eval(target.index, env)
            base[idx] = value
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            pointer = self._eval(target.operand, env)
            pointer[0] = value
            return
        raise RuntimeApiError("unsupported host assignment target")

    # -- calls ---------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, env):
        name = expr.name
        if name == "ncl::ctrl_wr":
            handle = self._eval(expr.args[0], env)
            value = self._eval(expr.args[1], env)
            if not isinstance(handle, _CtrlHandle):
                raise RuntimeApiError("ncl::ctrl_wr expects &ctrl_variable")
            index = self._eval(expr.args[2], env) if len(expr.args) > 2 else 0
            self.cluster.controller.ctrl_wr(handle.name, value, index)
            return None
        if name == "ncl::map_insert":
            handle = self._eval(expr.args[0], env)
            key = self._eval(expr.args[1], env)
            value = self._eval(expr.args[2], env)
            self.cluster.controller.map_insert(handle.name, key, value)
            return None
        if name == "ncl::map_erase":
            handle = self._eval(expr.args[0], env)
            key = self._eval(expr.args[1], env)
            self.cluster.controller.map_erase(handle.name, key)
            return None
        if name == "ncl::out":
            return self._ncl_out(expr, env)
        if name == "ncl::in":
            return self._ncl_in(expr, env)
        if name == "__list__":
            return [self._eval(a, env) for a in expr.args]
        decl = self.unit.functions.get(name)
        if decl is not None and decl.body is not None:
            args = [self._eval(a, env) for a in expr.args]
            sub_env: Dict[str, object] = {}
            for param, value in zip(decl.params, args):
                sub_env[param.name] = value
            try:
                self._exec_block(decl.body, sub_env)
            except _Return as ret:
                return ret.value
            return None
        raise RuntimeApiError(f"cannot call {name!r} from host code")

    def _kernel_name(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Ident):
            return expr.name
        raise RuntimeApiError("first argument must name a kernel")

    def _ncl_out(self, expr: ast.Call, env):
        kernel = self._kernel_name(expr.args[0])
        arrays = self._eval(expr.args[1], env)
        if not isinstance(arrays, list):
            arrays = [arrays]
        dst = None
        for extra in expr.args[2:]:
            value = self._eval(extra, env)
            if isinstance(value, str):
                dst = value  # destination label (Fig 2: kernel(h0, h1, "Host-B"))
        buffers = [a if hasattr(a, "__len__") else [a] for a in arrays]
        return self.host.out(kernel, buffers, dst=dst)

    def _ncl_in(self, expr: ast.Call, env):
        kernel = self._kernel_name(expr.args[0])
        args = self._eval(expr.args[1], env) if len(expr.args) > 1 else []
        if not isinstance(args, list):
            args = [args]
        info = self.unit.in_kernels.get(kernel)
        if info is None:
            raise RuntimeApiError(f"{kernel!r} is not an incoming kernel")
        n_ext = len(info.ext_params)
        ext_args = args[-n_ext:] if n_ext else []
        if not self._registered_in.get(kernel):
            self.host.register_in(kernel, ext_args)
            self._registered_in[kernel] = True
        before = self.host.received_count(kernel)
        # Co-simulate one event at a time until the next window lands (the
        # blocking recv of the paper's Fig 4 line 20) or the network drains.
        limit = 10_000_000
        while self.host.received_count(kernel) == before and limit:
            if not self.cluster.sim.step():
                break
            limit -= 1
        return self.host.received_count(kernel)
