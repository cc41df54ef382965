"""The ``repro.nclc/2`` compile artifact: a versioned, serializable
snapshot of a :class:`repro.nclc.driver.CompiledProgram`.

An artifact stores each fact once: the compile's inputs (source, AND
overlay, chip profile, ``-O`` level, window configs) and the NIR it
produced -- the reference module, whose kernels carry the signatures
the runtime reads, and the optimized NIR of each switch -- plus sema's
in -> out kernel pairing, the register splits and, when the program has
host functions, the ``host`` key: the host module
:class:`repro.runtime.HostProgram` runs and why any host function left
out of it did not lower. Everything else is a function of those, and
:func:`load_program` recomputes it with the code that computed it the
first time: the kernel layouts with :func:`repro.nclc.pm.build_layouts`,
each switch's P4 program, its printed text and its acceptance report
with :func:`repro.nclc.pm.generate_switch_programs`.

Two properties are deliberate:

* **Determinism** -- :func:`dump_program` renumbers NIR instructions in
  block order before encoding (``ir.Instr.id`` comes from a global
  counter, so raw ids differ between compiles), and the JSON is emitted
  with sorted keys and fixed separators. Compiling the same source twice
  yields byte-identical artifacts, which is what makes the
  content-addressed cache (:mod:`repro.nclc.cache`) return stable bytes.
* **Closed-world schema** -- every node kind is explicitly tagged;
  anything unrecognized, and any payload that does not decode, raises
  :class:`repro.errors.ArtifactError` instead of silently reconstructing
  garbage. A ``repro.nclc/1`` artifact is refused the same way.

What is *not* in an artifact: the NCL AST. Nothing needs it: host code
runs from the host module.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.andspec.model import AndSpec, parse_and
from repro.errors import ArtifactError, ReproError
from repro.ncl import types as T
from repro.nir import ir

SCHEMA = "repro.nclc/2"

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
# Whole programs
# ---------------------------------------------------------------------------


def program_payload(program) -> Dict[str, object]:
    """The artifact as a JSON-ready dict (schema ``repro.nclc/2``)."""
    from repro.nclc.pm import NCLC_VERSION

    payload = {
        "schema": SCHEMA,
        "nclc_version": NCLC_VERSION,
        "opt_level": program.opt_level,
        "profile": program.profile.name,
        "source": program.source,
        "and": program.and_spec.render(),
        "pairs": program.pairs,
        "window_configs": {
            name: {"mask": list(cfg.mask),
                   "ext": {k: cfg.ext[k] for k in sorted(cfg.ext)}}
            for name, cfg in program.window_configs.items()
        },
        "ref_module": dump_module(program.ref_module),
        "switch_modules": {
            label: dump_module(program.switch_modules[label])
            for label in sorted(program.switch_modules)
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
    """Reconstruct a CompiledProgram from ``repro.nclc/2`` artifact JSON:
    decode what the artifact stores, then rebuild the layouts, P4
    programs, P4 text and reports with the compile's own code."""
    from repro.nir.passes.regsplit import SplitInfo
    from repro.pisa.arch import profile_by_name
    from repro.nclc.driver import CompiledProgram, WindowConfig
    from repro.nclc.pm import build_layouts, generate_switch_programs

    try:
        enc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from None
    if not isinstance(enc, dict):
        raise ArtifactError(f"artifact is not a JSON object: {text[:40]!r}")
    if enc.get("schema") != SCHEMA:
        raise ArtifactError(
            f"unsupported artifact schema {enc.get('schema')!r} "
            f"(this reader understands {SCHEMA!r})"
        )
    try:
        profile = profile_by_name(enc["profile"])
        opt_level = int(enc["opt_level"])
        source = enc["source"]
        and_spec: AndSpec = parse_and(enc["and"])
        pairs = dict(enc["pairs"])
        window_configs = {
            name: WindowConfig(cfg["mask"], cfg["ext"])
            for name, cfg in enc["window_configs"].items()
        }
        ref_module = load_module(enc["ref_module"])
        switch_modules = {
            label: load_module(menc)
            for label, menc in enc["switch_modules"].items()
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
        layouts = build_layouts(ref_module, window_configs)
        switch_programs, switch_sources, reports = generate_switch_programs(
            ref_module.name, switch_modules, layouts, and_spec.label_ids(), profile
        )
    except ArtifactError:
        raise
    except (ReproError, AttributeError, KeyError, IndexError, TypeError,
            ValueError) as exc:
        raise ArtifactError(f"malformed artifact: {exc!r}") from None
    program = CompiledProgram(
        ref_module=ref_module,
        pairs=pairs,
        and_spec=and_spec,
        layouts=layouts,
        window_configs=window_configs,
        switch_programs=switch_programs,
        switch_sources=switch_sources,
        reports=reports,
        stats={},
        stage_times={},
        profile=profile,
        source=source,
        split_info=split_info,
        compile_trace=None,
        opt_level=opt_level,
        switch_modules=switch_modules,
    )
    program.host_module, program.host_errors = host_module, host_errors
    return program
