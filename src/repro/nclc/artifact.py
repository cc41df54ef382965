"""The ``repro.nclc/1`` compile artifact: a versioned, serializable
snapshot of a :class:`repro.nclc.driver.CompiledProgram`.

An artifact carries everything the runtime/cluster and benchmarks need
to *run* a compiled program without re-invoking the frontend: the
reference NIR module (host-side interpretation), the per-location
optimized switch NIR, the generated P4 programs, kernel window layouts,
window configs, the AND overlay, acceptance reports, a slim semantic
summary of the translation unit (kernel signatures + pairing) and, when
the program has host functions, the ``host`` key: the host module
:class:`repro.runtime.HostProgram` runs and why any host function left
out of it did not lower.

Two properties are deliberate:

* **Determinism** -- :func:`dump_program` renumbers NIR instructions in
  block order before encoding (``ir.Instr.id`` comes from a global
  counter, so raw ids differ between compiles), and the JSON is emitted
  with sorted keys and fixed separators. Compiling the same source twice
  yields byte-identical artifacts, which is what makes the
  content-addressed cache (:mod:`repro.nclc.cache`) return stable bytes.
* **Closed-world schema** -- every node kind is explicitly tagged;
  anything unrecognized raises :class:`repro.errors.ArtifactError`
  instead of silently reconstructing garbage.

What is *not* in an artifact: the NCL AST. Nothing needs it: host code
runs from the host module. The schema string did not move when the
``host`` key arrived, because a program without host functions writes
none, byte for byte as before; an artifact written before it loads
without host code, and ``HostProgram.run`` refuses to run any.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.andspec.model import AndSpec, parse_and
from repro.errors import ArtifactError
from repro.ncl import types as T
from repro.nir import ir
from repro.p4 import model as p4
from repro.p4.backend import AcceptanceReport

SCHEMA = "repro.nclc/1"

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_SCALARS = {
    "void": T.VOID,
    "bool": T.BOOL,
    "i8": T.I8,
    "i16": T.I16,
    "i32": T.I32,
    "i64": T.I64,
    "u8": T.U8,
    "u16": T.U16,
    "u32": T.U32,
    "u64": T.U64,
}
_SCALAR_NAMES = {ty: name for name, ty in _SCALARS.items()}


def dump_type(ty: T.Type):
    if isinstance(ty, (T.VoidType, T.BoolType)) or isinstance(ty, T.IntType):
        name = _SCALAR_NAMES.get(ty)
        if name is None:
            raise ArtifactError(f"unserializable scalar type {ty!r}")
        return name
    if isinstance(ty, T.PointerType):
        return ["ptr", dump_type(ty.pointee)]
    if isinstance(ty, T.ArrayType):
        return ["arr", dump_type(ty.element), ty.length]
    if isinstance(ty, T.MapType):
        return ["map", dump_type(ty.key), dump_type(ty.value), ty.capacity]
    if isinstance(ty, T.BloomFilterType):
        return ["bloom", ty.nbits, ty.nhashes]
    raise ArtifactError(f"unserializable type {ty!r}")


def load_type(enc) -> T.Type:
    if isinstance(enc, str):
        if enc not in _SCALARS:
            raise ArtifactError(f"unknown scalar type {enc!r}")
        return _SCALARS[enc]
    if not isinstance(enc, list) or not enc:
        raise ArtifactError(f"malformed type encoding {enc!r}")
    tag = enc[0]
    if tag == "ptr":
        return T.PointerType(load_type(enc[1]))
    if tag == "arr":
        return T.ArrayType(load_type(enc[1]), int(enc[2]))
    if tag == "map":
        return T.MapType(load_type(enc[1]), load_type(enc[2]), int(enc[3]))
    if tag == "bloom":
        return T.BloomFilterType(int(enc[1]), int(enc[2]))
    raise ArtifactError(f"unknown type tag {tag!r}")


# ---------------------------------------------------------------------------
# NIR modules
# ---------------------------------------------------------------------------

#: instruction class -> stable tag
_INSTR_TAGS = {
    ir.BinOp: "bin",
    ir.UnOp: "un",
    ir.Cast: "cast",
    ir.Select: "sel",
    ir.Alloca: "alloca",
    ir.Load: "load",
    ir.Store: "store",
    ir.LoadElem: "ldelem",
    ir.StoreElem: "stelem",
    ir.LoadParam: "ldparam",
    ir.StoreParam: "stparam",
    ir.WinField: "winfld",
    ir.LocField: "locfld",
    ir.LocLabel: "locid",
    ir.CtrlRead: "ctrlrd",
    ir.MapLookup: "maplkp",
    ir.MapFound: "mapfnd",
    ir.MapValue: "mapval",
    ir.BloomOp: "bloom",
    ir.Memcpy: "memcpy",
    ir.GlobalAddr: "gaddr",
    ir.Fwd: "fwd",
    ir.CallFn: "call",
    ir.Phi: "phi",
    ir.Br: "br",
    ir.CondBr: "condbr",
    ir.Ret: "ret",
}
_TAG_CLASSES = {tag: cls for cls, tag in _INSTR_TAGS.items()}


class _FnDumper:
    """Encodes one function with deterministic local instruction ids."""

    def __init__(self, fn: ir.Function):
        self.fn = fn
        self.local_ids: Dict[int, int] = {}
        n = 0
        for block in fn.blocks:
            for instr in block.instrs:
                self.local_ids[id(instr)] = n
                n += 1

    def value(self, val: ir.Value):
        if isinstance(val, ir.Const):
            return ["c", dump_type(val.ty), val.value]
        if isinstance(val, ir.Undef):
            return ["u", dump_type(val.ty)]
        if isinstance(val, ir.Param):
            return ["p", val.index]
        if isinstance(val, ir.Instr):
            lid = self.local_ids.get(id(val))
            if lid is None:
                raise ArtifactError(
                    f"{self.fn.name}: instruction operand %{val.id} is not "
                    "in any block (dangling reference)"
                )
            return ["r", lid]
        raise ArtifactError(f"unserializable value {val!r}")

    def region(self, region: ir.MemRegion):
        if region.kind == "param":
            return ["param", region.param.index]
        return ["global", region.ref.name]

    def instr(self, instr: ir.Instr):
        tag = _INSTR_TAGS.get(type(instr))
        if tag is None:
            raise ArtifactError(f"unserializable instruction {instr!r}")
        rec: Dict[str, object] = {
            "t": tag,
            "ty": dump_type(instr.ty),
            "ops": [self.value(op) for op in instr.operands],
        }
        if isinstance(instr, (ir.BinOp, ir.UnOp)):
            rec["op"] = instr.op
        elif isinstance(instr, ir.Cast):
            rec["kind"] = instr.kind
            rec["explicit"] = instr.explicit
        elif isinstance(instr, ir.Alloca):
            rec["slot_ty"] = dump_type(instr.slot_ty)
            rec["name"] = instr.name
        elif isinstance(instr, (ir.LoadElem, ir.StoreElem, ir.CtrlRead,
                                ir.MapLookup, ir.GlobalAddr)):
            rec["ref"] = instr.ref.name
        elif isinstance(instr, (ir.LoadParam, ir.StoreParam)):
            rec["param"] = instr.param.index
        elif isinstance(instr, (ir.WinField, ir.LocField)):
            rec["field"] = instr.field
        elif isinstance(instr, ir.LocLabel):
            rec["label"] = instr.label
        elif isinstance(instr, ir.BloomOp):
            rec["ref"] = instr.ref.name
            rec["op"] = instr.op
        elif isinstance(instr, ir.Memcpy):
            rec["dst"] = self.region(instr.dst)
            rec["src"] = self.region(instr.src)
        elif isinstance(instr, ir.Fwd):
            rec["kind"] = instr.kind.name
            rec["label"] = instr.label
        elif isinstance(instr, ir.CallFn):
            rec["callee"] = instr.callee.name
        elif isinstance(instr, ir.Phi):
            # incoming duplicates operands; encode (value, block) pairs
            # instead and rebuild operands on load.
            rec["ops"] = []
            rec["incoming"] = [
                [self.value(val), block.label] for val, block in instr.incoming
            ]
        elif isinstance(instr, ir.Br):
            rec["target"] = instr.target.label
        elif isinstance(instr, ir.CondBr):
            rec["then"] = instr.then.label
            rec["other"] = instr.other.label
        return rec

    def dump(self):
        fn = self.fn
        return {
            "name": fn.name,
            "kind": fn.kind.name,
            "at_label": fn.at_label,
            "ret": dump_type(fn.ret),
            "params": [
                {"name": p.name, "ty": dump_type(p.ty), "ext": p.ext}
                for p in fn.params
            ],
            "label_counter": fn._label_counter,
            "blocks": [
                {
                    "label": block.label,
                    "instrs": [self.instr(i) for i in block.instrs],
                }
                for block in fn.blocks
            ],
        }


def dump_module(module: ir.Module):
    return {
        "name": module.name,
        "window_fields": [
            [name, dump_type(ty)] for name, ty in module.window_fields
        ],
        "globals": [
            {
                "name": ref.name,
                "ty": dump_type(ref.ty),
                "space": ref.space,
                "at_label": ref.at_label,
                "init": ref.init,
            }
            for ref in module.globals.values()
        ],
        "functions": [_FnDumper(fn).dump() for fn in module.functions.values()],
    }


class _FnLoader:
    """Rebuilds one function; CallFn callees resolve in a later phase."""

    def __init__(self, enc, module: ir.Module,
                 pending_calls: List[Tuple[ir.CallFn, str]]):
        self.enc = enc
        self.module = module
        self.pending_calls = pending_calls
        self.instrs: List[ir.Instr] = []
        self.blocks: Dict[str, ir.Block] = {}
        self.params: List[ir.Param] = []

    def load(self) -> ir.Function:
        enc = self.enc
        try:
            kind = ir.FunctionKind[enc["kind"]]
        except KeyError:
            raise ArtifactError(f"unknown function kind {enc.get('kind')!r}")
        self.params = [
            ir.Param(i, p["name"], load_type(p["ty"]), bool(p["ext"]))
            for i, p in enumerate(enc["params"])
        ]
        fn = ir.Function(
            enc["name"], kind, self.params, load_type(enc["ret"]),
            enc.get("at_label"),
        )
        fn._label_counter = int(enc.get("label_counter", 0))
        # Phase 1: shell instructions + blocks (forward refs allowed).
        for benc in enc["blocks"]:
            block = ir.Block(benc["label"])
            self.blocks[block.label] = block
            fn.blocks.append(block)
            for ienc in benc["instrs"]:
                instr = self._shell(ienc)
                instr.block = block
                block.instrs.append(instr)
                self.instrs.append(instr)
        # Phase 2: resolve operands, phi incoming, branch targets.
        n = 0
        for benc in enc["blocks"]:
            for ienc in benc["instrs"]:
                self._connect(self.instrs[n], ienc)
                n += 1
        return fn

    def _block(self, label: str) -> ir.Block:
        if label not in self.blocks:
            raise ArtifactError(f"unknown block label {label!r}")
        return self.blocks[label]

    def _global(self, name: str) -> ir.GlobalRef:
        if name not in self.module.globals:
            raise ArtifactError(f"unknown global {name!r}")
        return self.module.globals[name]

    def _value(self, enc) -> ir.Value:
        tag = enc[0]
        if tag == "c":
            return ir.Const(load_type(enc[1]), enc[2])
        if tag == "u":
            return ir.Undef(load_type(enc[1]))
        if tag == "p":
            return self.params[enc[1]]
        if tag == "r":
            idx = enc[1]
            if not 0 <= idx < len(self.instrs):
                raise ArtifactError(f"instruction reference %{idx} out of range")
            return self.instrs[idx]
        raise ArtifactError(f"unknown value tag {tag!r}")

    def _region(self, enc) -> ir.MemRegion:
        if enc[0] == "param":
            return ir.MemRegion("param", param=self.params[enc[1]])
        return ir.MemRegion("global", ref=self._global(enc[1]))

    def _shell(self, enc) -> ir.Instr:
        cls = _TAG_CLASSES.get(enc.get("t"))
        if cls is None:
            raise ArtifactError(f"unknown instruction tag {enc.get('t')!r}")
        instr = object.__new__(cls)
        instr.ty = load_type(enc["ty"])
        instr.operands = []
        instr.id = next(ir._id_counter)
        instr.block = None
        instr.loc = None
        if cls in (ir.BinOp, ir.UnOp):
            instr.op = enc["op"]
        elif cls is ir.Cast:
            instr.kind = enc["kind"]
            instr.explicit = bool(enc["explicit"])
        elif cls is ir.Alloca:
            instr.slot_ty = load_type(enc["slot_ty"])
            instr.name = enc["name"]
        elif cls in (ir.LoadElem, ir.StoreElem, ir.CtrlRead, ir.MapLookup,
                     ir.GlobalAddr):
            instr.ref = self._global(enc["ref"])
        elif cls in (ir.LoadParam, ir.StoreParam):
            instr.param = self.params[enc["param"]]
        elif cls in (ir.WinField, ir.LocField):
            instr.field = enc["field"]
        elif cls is ir.LocLabel:
            instr.label = enc["label"]
        elif cls is ir.BloomOp:
            instr.ref = self._global(enc["ref"])
            instr.op = enc["op"]
            instr.has_side_effects = enc["op"] == "insert"
        elif cls is ir.Fwd:
            instr.kind = ir.FwdKind[enc["kind"]]
            instr.label = enc.get("label")
        elif cls is ir.CallFn:
            self.pending_calls.append((instr, enc["callee"]))
        elif cls is ir.Phi:
            instr.incoming = []
        return instr

    def _connect(self, instr: ir.Instr, enc) -> None:
        instr.operands = [self._value(op) for op in enc["ops"]]
        if isinstance(instr, ir.Phi):
            for venc, label in enc["incoming"]:
                instr.add_incoming(self._value(venc), self._block(label))
        elif isinstance(instr, ir.Memcpy):
            instr.dst = self._region(enc["dst"])
            instr.src = self._region(enc["src"])
        elif isinstance(instr, ir.Br):
            instr.target = self._block(enc["target"])
        elif isinstance(instr, ir.CondBr):
            instr.then = self._block(enc["then"])
            instr.other = self._block(enc["other"])


def load_module(enc) -> ir.Module:
    module = ir.Module(enc["name"])
    module.window_fields = [
        (name, load_type(ty)) for name, ty in enc["window_fields"]
    ]
    for genc in enc["globals"]:
        module.add_global(
            ir.GlobalRef(
                genc["name"],
                load_type(genc["ty"]),
                genc["space"],
                genc.get("at_label"),
                genc.get("init"),
            )
        )
    pending_calls: List[Tuple[ir.CallFn, str]] = []
    for fenc in enc["functions"]:
        module.add_function(_FnLoader(fenc, module, pending_calls).load())
    for call, callee in pending_calls:
        if callee not in module.functions:
            raise ArtifactError(f"call to unknown function {callee!r}")
        call.callee = module.functions[callee]
    return module


# ---------------------------------------------------------------------------
# P4 programs
# ---------------------------------------------------------------------------


def _dump_pexpr(e: p4.PExpr):
    if isinstance(e, p4.PConst):
        return ["c", e.value, e.bits]
    if isinstance(e, p4.PField):
        return ["f", e.ref]
    if isinstance(e, p4.PParam):
        return ["a", e.name, e.bits]
    if isinstance(e, p4.PBin):
        return ["b", e.op, _dump_pexpr(e.lhs), _dump_pexpr(e.rhs), e.bits,
                e.signed]
    if isinstance(e, p4.PUn):
        return ["n", e.op, _dump_pexpr(e.operand), e.bits, e.signed]
    if isinstance(e, p4.PMux):
        return ["m", _dump_pexpr(e.cond), _dump_pexpr(e.a), _dump_pexpr(e.b),
                e.bits]
    raise ArtifactError(f"unserializable P4 expression {e!r}")


def _load_pexpr(enc) -> p4.PExpr:
    tag = enc[0]
    if tag == "c":
        return p4.PConst(enc[1], enc[2])
    if tag == "f":
        return p4.PField(enc[1])
    if tag == "a":
        return p4.PParam(enc[1], enc[2])
    if tag == "b":
        return p4.PBin(enc[1], _load_pexpr(enc[2]), _load_pexpr(enc[3]),
                       enc[4], bool(enc[5]))
    if tag == "n":
        return p4.PUn(enc[1], _load_pexpr(enc[2]), enc[3], bool(enc[4]))
    if tag == "m":
        return p4.PMux(_load_pexpr(enc[1]), _load_pexpr(enc[2]),
                       _load_pexpr(enc[3]), enc[4])
    raise ArtifactError(f"unknown P4 expression tag {tag!r}")


def _dump_prim(prim: p4.Primitive):
    if isinstance(prim, p4.PAssign):
        return ["set", prim.dst, _dump_pexpr(prim.expr)]
    if isinstance(prim, p4.PRegRead):
        return ["rrd", prim.dst, prim.reg, _dump_pexpr(prim.index)]
    if isinstance(prim, p4.PRegWrite):
        return ["rwr", prim.reg, _dump_pexpr(prim.index), _dump_pexpr(prim.expr)]
    raise ArtifactError(f"unserializable primitive {prim!r}")


def _load_prim(enc) -> p4.Primitive:
    tag = enc[0]
    if tag == "set":
        return p4.PAssign(enc[1], _load_pexpr(enc[2]))
    if tag == "rrd":
        return p4.PRegRead(enc[1], enc[2], _load_pexpr(enc[3]))
    if tag == "rwr":
        return p4.PRegWrite(enc[1], _load_pexpr(enc[2]), _load_pexpr(enc[3]))
    raise ArtifactError(f"unknown primitive tag {tag!r}")


def _dump_control(node: p4.ControlNode):
    if isinstance(node, p4.Apply):
        return ["apply", node.table]
    if isinstance(node, p4.Do):
        return ["do", node.action]
    if isinstance(node, p4.IfNode):
        return [
            "if",
            _dump_pexpr(node.cond),
            [_dump_control(n) for n in node.then_nodes],
            [_dump_control(n) for n in node.else_nodes],
        ]
    raise ArtifactError(f"unserializable control node {node!r}")


def _load_control(enc) -> p4.ControlNode:
    tag = enc[0]
    if tag == "apply":
        return p4.Apply(enc[1])
    if tag == "do":
        return p4.Do(enc[1])
    if tag == "if":
        return p4.IfNode(
            _load_pexpr(enc[1]),
            [_load_control(n) for n in enc[2]],
            [_load_control(n) for n in enc[3]],
        )
    raise ArtifactError(f"unknown control tag {tag!r}")


def dump_p4_program(prog: p4.P4Program):
    return {
        "name": prog.name,
        "headers": [
            {
                "name": ht.name,
                "fields": [[f.name, f.bits] for f in ht.fields],
            }
            for ht in prog.headers.values()
        ],
        "instances": dict(prog.instances),
        "metadata": dict(prog.metadata),
        "parser": [
            {
                "name": st.name,
                "extracts": list(st.extracts),
                "select_field": st.select_field,
                "transitions": [[v, nxt] for v, nxt in st.transitions],
                "default_next": st.default_next,
            }
            for st in prog.parser
        ],
        "actions": [
            {
                "name": a.name,
                "primitives": [_dump_prim(pr) for pr in a.primitives],
                "params": [[n, b] for n, b in a.params],
            }
            for a in prog.actions.values()
        ],
        "tables": [
            {
                "name": t.name,
                "keys": [[ref, kind] for ref, kind in t.keys],
                "actions": list(t.actions),
                "default_action": t.default_action,
                "default_args": list(t.default_args),
                "entries": [
                    {
                        "match": [
                            list(m) if isinstance(m, tuple) else m
                            for m in e.match
                        ],
                        "mkinds": [
                            "tern" if isinstance(m, tuple) else "exact"
                            for m in e.match
                        ],
                        "action": e.action,
                        "args": list(e.args),
                        "priority": e.priority,
                    }
                    for e in t.entries
                ],
                "managed_by": t.managed_by,
                "size": t.size,
            }
            for t in prog.tables.values()
        ],
        "registers": [
            {"name": r.name, "bits": r.bits, "size": r.size, "signed": r.signed}
            for r in prog.registers.values()
        ],
        "control": [_dump_control(n) for n in prog.control],
        "deparser": list(prog.deparser),
    }


def load_p4_program(enc) -> p4.P4Program:
    prog = p4.P4Program(enc["name"])
    for henc in enc["headers"]:
        prog.headers[henc["name"]] = p4.HeaderType(
            henc["name"], [(n, b) for n, b in henc["fields"]]
        )
    prog.instances = dict(enc["instances"])
    prog.metadata = dict(enc["metadata"])
    prog.parser = [
        p4.ParseState(
            st["name"],
            st["extracts"],
            st["select_field"],
            [(v, nxt) for v, nxt in st["transitions"]],
            st["default_next"],
        )
        for st in enc["parser"]
    ]
    for aenc in enc["actions"]:
        prog.add_action(
            p4.Action(
                aenc["name"],
                [_load_prim(pr) for pr in aenc["primitives"]],
                [(n, b) for n, b in aenc["params"]],
            )
        )
    for tenc in enc["tables"]:
        entries = [
            p4.TableEntry(
                [
                    tuple(m) if kind == "tern" else m
                    for m, kind in zip(e["match"], e["mkinds"])
                ],
                e["action"],
                e["args"],
                e["priority"],
            )
            for e in tenc["entries"]
        ]
        prog.add_table(
            p4.Table(
                tenc["name"],
                [(ref, kind) for ref, kind in tenc["keys"]],
                tenc["actions"],
                tenc["default_action"],
                tenc["default_args"],
                entries,
                tenc["managed_by"],
                tenc["size"],
            )
        )
    for renc in enc["registers"]:
        prog.add_register(
            p4.RegisterArray(
                renc["name"], renc["bits"], renc["size"], renc["signed"]
            )
        )
    prog.control = [_load_control(n) for n in enc["control"]]
    prog.deparser = list(enc["deparser"])
    prog.validate()
    return prog


# ---------------------------------------------------------------------------
# Unit summary (the runtime's view of the frontend output)
# ---------------------------------------------------------------------------


class ArtifactParam:
    """Kernel parameter as the runtime sees it (name, type, _ext_)."""

    __slots__ = ("name", "ty", "ext")

    def __init__(self, name: str, ty: T.Type, ext: bool):
        self.name = name
        self.ty = ty
        self.ext = ext

    def __repr__(self) -> str:
        return f"ArtifactParam({'_ext_ ' if self.ext else ''}{self.name}: {self.ty!r})"


class ArtifactKernelInfo:
    """KernelInfo-shaped summary reconstructed from an artifact."""

    def __init__(self, name: str, kind: str, at_label: Optional[str],
                 params: List[ArtifactParam]):
        self.name = name
        self.kind = kind
        self.at_label = at_label
        self.params = params

    @property
    def data_params(self) -> List[ArtifactParam]:
        return [p for p in self.params if not p.ext]

    @property
    def ext_params(self) -> List[ArtifactParam]:
        return [p for p in self.params if p.ext]

    def data_signature(self) -> Tuple[T.Type, ...]:
        return tuple(p.ty for p in self.data_params)

    def __repr__(self) -> str:
        return f"ArtifactKernelInfo({self.kind} {self.name})"


class ArtifactUnit:
    """TranslationUnit stand-in for programs loaded from artifacts.

    Carries exactly the semantic surface the runtime consumes: kernel
    signatures, pairing, and window fields.
    """

    def __init__(
        self,
        out_kernels: Dict[str, ArtifactKernelInfo],
        in_kernels: Dict[str, ArtifactKernelInfo],
        window_fields: List[Tuple[str, T.Type]],
    ):
        self.out_kernels = out_kernels
        self.in_kernels = in_kernels
        self.window_fields = window_fields

    @property
    def kernels(self) -> Dict[str, ArtifactKernelInfo]:
        merged = dict(self.out_kernels)
        merged.update(self.in_kernels)
        return merged

    def window_field_type(self, name: str) -> Optional[T.Type]:
        for fname, fty in self.window_fields:
            if fname == name:
                return fty
        return None

    def paired_out_kernel(self, in_kernel: str) -> Optional[ArtifactKernelInfo]:
        info = self.in_kernels.get(in_kernel)
        if info is None:
            return None
        sig = info.data_signature()
        for out in self.out_kernels.values():
            if out.data_signature() == sig:
                return out
        return None


def _dump_kernel_info(info) -> Dict[str, object]:
    kind = getattr(info.kind, "name", info.kind)
    return {
        "name": info.name,
        "kind": kind,
        "at_label": info.at_label,
        "params": [
            {"name": p.name, "ty": dump_type(p.ty), "ext": bool(p.ext)}
            for p in info.params
        ],
    }


def _load_kernel_info(enc) -> ArtifactKernelInfo:
    return ArtifactKernelInfo(
        enc["name"],
        enc["kind"],
        enc.get("at_label"),
        [
            ArtifactParam(p["name"], load_type(p["ty"]), bool(p["ext"]))
            for p in enc["params"]
        ],
    )


def dump_unit(unit) -> Dict[str, object]:
    return {
        "out_kernels": [
            _dump_kernel_info(unit.out_kernels[k])
            for k in sorted(unit.out_kernels)
        ],
        "in_kernels": [
            _dump_kernel_info(unit.in_kernels[k])
            for k in sorted(unit.in_kernels)
        ],
        "window_fields": [
            [name, dump_type(ty)] for name, ty in unit.window_fields
        ],
    }


def load_unit(enc) -> ArtifactUnit:
    return ArtifactUnit(
        {k["name"]: _load_kernel_info(k) for k in enc["out_kernels"]},
        {k["name"]: _load_kernel_info(k) for k in enc["in_kernels"]},
        [(name, load_type(ty)) for name, ty in enc["window_fields"]],
    )


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------


def program_payload(program) -> Dict[str, object]:
    """The artifact as a JSON-ready dict (schema ``repro.nclc/1``)."""
    from repro.nclc.pm import NCLC_VERSION

    labels = sorted(program.switch_programs)
    payload = {
        "schema": SCHEMA,
        "nclc_version": NCLC_VERSION,
        "opt_level": program.opt_level,
        "profile": program.profile.name,
        "source": program.source,
        "and": program.and_spec.render(),
        "unit": dump_unit(program.unit),
        "window_configs": {
            name: {"mask": list(cfg.mask),
                   "ext": {k: cfg.ext[k] for k in sorted(cfg.ext)}}
            for name, cfg in program.window_configs.items()
        },
        "layouts": {
            name: {
                "kernel_id": lo.kernel_id,
                "kernel_name": lo.kernel_name,
                "chunks": [
                    {"name": c.name, "count": c.count, "bits": c.bits,
                     "signed": c.signed}
                    for c in lo.chunks
                ],
                "ext_fields": [[n, b, s] for n, b, s in lo.ext_fields],
            }
            for name, lo in program.layouts.items()
        },
        "ref_module": dump_module(program.ref_module),
        "switch_modules": {
            label: dump_module(program.switch_modules[label])
            for label in sorted(program.switch_modules)
        },
        "switch_programs": {
            label: dump_p4_program(program.switch_programs[label])
            for label in labels
        },
        "switch_sources": {
            label: program.switch_sources[label] for label in labels
        },
        "reports": {
            label: program.reports[label].as_dict() for label in labels
        },
        "split_info": {
            label: [
                {"name": s.name, "stride": s.stride,
                 "part_names": list(s.part_names)}
                for s in splits
            ]
            for label, splits in sorted(program.split_info.items())
        },
    }
    if program.host_module is not None:
        payload["host"] = {
            "module": dump_module(program.host_module),
            "errors": program.host_errors,
        }
    return payload


def dump_program(program) -> str:
    """Canonical, byte-stable artifact JSON for a CompiledProgram."""
    return json.dumps(
        program_payload(program), sort_keys=True, separators=(",", ":")
    ) + "\n"


def load_program(text: str):
    """Reconstruct a CompiledProgram from ``repro.nclc/1`` artifact JSON."""
    from repro.ncp.wire import ChunkLayout, KernelLayout
    from repro.nir.passes.regsplit import SplitInfo
    from repro.pisa.arch import profile_by_name
    from repro.nclc.driver import CompiledProgram, WindowConfig

    try:
        enc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from None
    if not isinstance(enc, dict) or enc.get("schema") != SCHEMA:
        raise ArtifactError(
            f"unsupported artifact schema {enc.get('schema')!r} "
            f"(this reader understands {SCHEMA!r})"
        )
    try:
        profile = profile_by_name(enc["profile"])
    except KeyError:
        raise ArtifactError(f"unknown chip profile {enc['profile']!r}") from None
    try:
        and_spec: AndSpec = parse_and(enc["and"])
        unit = load_unit(enc["unit"])
        window_configs = {
            name: WindowConfig(cfg["mask"], cfg["ext"])
            for name, cfg in enc["window_configs"].items()
        }
        layouts = {
            name: KernelLayout(
                lo["kernel_id"],
                lo["kernel_name"],
                [
                    ChunkLayout(c["name"], c["count"], c["bits"], c["signed"])
                    for c in lo["chunks"]
                ],
                [(n, b, s) for n, b, s in lo["ext_fields"]],
            )
            for name, lo in enc["layouts"].items()
        }
        ref_module = load_module(enc["ref_module"])
        switch_modules = {
            label: load_module(menc)
            for label, menc in enc["switch_modules"].items()
        }
        switch_programs = {
            label: load_p4_program(penc)
            for label, penc in enc["switch_programs"].items()
        }
        reports = {
            label: AcceptanceReport(**renc)
            for label, renc in enc["reports"].items()
        }
        split_info = {
            label: [
                SplitInfo(s["name"], s["stride"], list(s["part_names"]))
                for s in splits
            ]
            for label, splits in enc["split_info"].items()
        }
        host = enc.get("host")
        host_module = load_module(host["module"]) if host is not None else None
        host_errors = dict(host["errors"]) if host is not None else {}
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed artifact: {exc!r}") from None
    program = CompiledProgram(
        unit=unit,
        ref_module=ref_module,
        and_spec=and_spec,
        layouts=layouts,
        window_configs=window_configs,
        switch_programs=switch_programs,
        switch_sources=dict(enc["switch_sources"]),
        reports=reports,
        stats={},
        stage_times={},
        profile=profile,
        source=enc["source"],
        split_info=split_info,
        compile_trace=None,
        opt_level=int(enc["opt_level"]),
        switch_modules=switch_modules,
    )
    program.host_module, program.host_errors = host_module, host_errors
    return program
