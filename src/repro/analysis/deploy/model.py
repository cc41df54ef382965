"""The deployment model: N compiled programs placed onto one fabric.

A :class:`Deployment` is the unit the whole-fabric checker admits or
rejects: a :class:`repro.andspec.fabric.FabricSpec` (physical switches
with chip profiles, hosts, links with MTUs) plus one
:class:`TenantDeployment` per co-resident program -- the compiled
program, its NCP kernel-id base, and the mapping of its AND overlay
onto the fabric.

Deployments are built either programmatically (the multi-tenant runtime
of roadmap item 3 will do this at deploy time) or from a *deployment
manifest*, a text file extending the fabric format with tenant
declarations::

    # physical fabric
    switch sw0 profile=tofino-like
    host   trainer0
    link   trainer0 sw0 mtu=1500

    # tenants
    tenant training allreduce.ncl and=allreduce.and idbase=0
    define training DATA_LEN=64
    define training WIN_LEN=8
    window training allreduce=8 len=8
    map    training s1=sw0
    pin    training worker0=trainer0

``program=`` paths ending in ``.nclc.json`` are loaded as serialized
``repro.nclc/2`` artifacts; anything else is compiled as NCL source
(with the tenant's ``define``/``window``/``and=`` configuration).
Every declaration records its :class:`repro.errors.SourceLocation`, so
check findings carry carets into the manifest itself.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.andspec.fabric import (
    FabricSpec,
    declared_profile,
    fabric_lines,
    parse_kv_options,
)
from repro.errors import (
    AndError,
    ArtifactError,
    DeployError,
    NclError,
    ReproError,
    SourceLocation,
)


class TenantDeployment:
    """One tenant: a compiled program plus its placement on the fabric."""

    def __init__(
        self,
        name: str,
        program: "CompiledProgram",
        *,
        program_path: str = "<program>",
        idbase: int = 0,
        placement: Optional[Dict[str, str]] = None,
        host_pins: Optional[Dict[str, str]] = None,
        loc: Optional[SourceLocation] = None,
    ) -> None:
        self.name = name
        self.program = program
        #: the program reference as written in the manifest (or a label)
        self.program_path = program_path
        #: NCP kernel-id namespace base: the runtime adds this to every
        #: compiled kernel id so co-resident programs occupy disjoint
        #: id spaces (checked by the isolation analysis)
        self.idbase = int(idbase)
        #: overlay switch label -> fabric switch name
        self.placement: Dict[str, str] = dict(placement or {})
        #: overlay host label -> fabric host name (optional pins; unpinned
        #: overlay hosts resolve by name match, then greedily)
        self.host_pins: Dict[str, str] = dict(host_pins or {})
        #: manifest declaration sites, for diagnostics
        self.loc = loc
        self.map_locs: Dict[str, SourceLocation] = {}
        self.pin_locs: Dict[str, SourceLocation] = {}
        self.window_locs: Dict[str, SourceLocation] = {}

    def effective_kernel_ids(self) -> Dict[str, int]:
        """Kernel name -> fabric-wide NCP id (compiled id + idbase)."""
        return {
            name: layout.kernel_id + self.idbase
            for name, layout in self.program.layouts.items()
        }

    def anchor(self, label: Optional[str] = None) -> Optional[SourceLocation]:
        """Best manifest location for a finding about this tenant."""
        if label is not None and label in self.map_locs:
            return self.map_locs[label]
        return self.loc

    def __repr__(self) -> str:
        return (
            f"TenantDeployment({self.name}: {self.program_path}, "
            f"idbase={self.idbase}, map={self.placement})"
        )


class Deployment:
    """The checker's input: a fabric plus its co-resident tenants."""

    def __init__(
        self,
        fabric: FabricSpec,
        tenants: List[TenantDeployment],
        filename: str = "<deployment>",
        sources: Optional[Dict[str, str]] = None,
    ) -> None:
        self.fabric = fabric
        self.tenants = list(tenants)
        self.filename = filename
        #: every text this deployment references (manifest, NCL sources),
        #: for caret excerpts in the rendered report
        self.sources: Dict[str, str] = dict(sources or {})

    def tenant(self, name: str) -> TenantDeployment:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise DeployError(f"unknown tenant {name!r}")

    def __repr__(self) -> str:
        return (
            f"Deployment({len(self.tenants)} tenants on "
            f"{len(self.fabric.switches)} switches)"
        )


class _TenantDecl:
    """Parse-time accumulator for one tenant's manifest lines."""

    def __init__(self, name: str, program: str, options: Dict[str, str],
                 loc: SourceLocation) -> None:
        self.name = name
        self.program = program
        self.options = options
        self.loc = loc
        self.defines: Dict[str, int] = {}
        self.windows: Dict[str, Tuple[Tuple[int, ...], Dict[str, int]]] = {}
        self.window_locs: Dict[str, SourceLocation] = {}
        self.placement: Dict[str, str] = {}
        self.map_locs: Dict[str, SourceLocation] = {}
        self.host_pins: Dict[str, str] = {}
        self.pin_locs: Dict[str, SourceLocation] = {}
        self.and_text: Optional[str] = None


def _parse_int(value: str, where: str, what: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise DeployError(f"{where}: bad {what} {value!r}") from None


def parse_deployment(
    text: str,
    filename: str = "<deployment>",
    *,
    base_dir: Optional[str] = None,
    opt_level: int = 2,
) -> Deployment:
    """Parse a deployment manifest and compile/load its tenant programs.

    Relative ``program=``/``and=`` paths resolve against *base_dir*
    (default: the manifest's own directory). Identical program
    references (path + defines + windows + AND + profile) are compiled
    once and shared. Raises :class:`DeployError` on malformed input and
    lets compile errors (:class:`repro.errors.NclError` subclasses)
    propagate with the tenant named.
    """
    root = Path(base_dir) if base_dir is not None else Path(filename).parent

    fabric = FabricSpec()
    pending_links: List[Tuple[SourceLocation, List[str]]] = []
    decls: Dict[str, _TenantDecl] = {}
    order: List[str] = []

    def decl_for(name: str, where: str) -> _TenantDecl:
        if name not in decls:
            raise DeployError(
                f"{where}: unknown tenant {name!r} "
                "(declare it with a 'tenant' line first)"
            )
        return decls[name]

    for loc, parts in fabric_lines(text, filename):
        kind = parts[0].lower()
        where = f"{filename}:{loc.line}"
        try:
            if kind in ("host", "switch"):
                if len(parts) < 2:
                    raise DeployError(
                        f"{where}: expected '{kind} <name> [options]'"
                    )
                fabric.add_node(
                    parts[1], kind, declared_profile(kind, parts, where), loc
                )
            elif kind == "link":
                if len(parts) < 3:
                    raise DeployError(
                        f"{where}: expected 'link <a> <b> [mtu=N]'"
                    )
                pending_links.append((loc, parts))
            elif kind == "tenant":
                if len(parts) < 3:
                    raise DeployError(
                        f"{where}: expected 'tenant <name> <program> [options]'"
                    )
                name = parts[1]
                if name in decls:
                    raise DeployError(f"{where}: duplicate tenant {name!r}")
                options = parse_kv_options(
                    parts[3:], where, ("and", "idbase", "profile")
                )
                decls[name] = _TenantDecl(name, parts[2], options, loc)
                order.append(name)
            elif kind == "define":
                if len(parts) != 3 or "=" not in parts[2]:
                    raise DeployError(
                        f"{where}: expected 'define <tenant> NAME=VALUE'"
                    )
                decl = decl_for(parts[1], where)
                dname, _, dval = parts[2].partition("=")
                decl.defines[dname] = _parse_int(dval, where, "define value")
            elif kind == "window":
                if len(parts) < 3 or "=" not in parts[2]:
                    raise DeployError(
                        f"{where}: expected "
                        "'window <tenant> KERNEL=N[,N...] [FIELD=V ...]'"
                    )
                decl = decl_for(parts[1], where)
                kname, _, mask_text = parts[2].partition("=")
                mask = tuple(
                    _parse_int(m, where, "window mask entry")
                    for m in mask_text.split(",")
                )
                ext: Dict[str, int] = {}
                for part in parts[3:]:
                    if "=" not in part:
                        raise DeployError(
                            f"{where}: expected FIELD=VALUE, got {part!r}"
                        )
                    fname, _, fval = part.partition("=")
                    ext[fname] = _parse_int(fval, where, "window field value")
                decl.windows[kname] = (mask, ext)
                decl.window_locs[kname] = loc
            elif kind == "map":
                if len(parts) < 3:
                    raise DeployError(
                        f"{where}: expected 'map <tenant> LABEL=SWITCH ...'"
                    )
                decl = decl_for(parts[1], where)
                for part in parts[2:]:
                    if "=" not in part:
                        raise DeployError(
                            f"{where}: expected LABEL=SWITCH, got {part!r}"
                        )
                    label, _, target = part.partition("=")
                    if label in decl.placement:
                        raise DeployError(
                            f"{where}: duplicate map for label {label!r}"
                        )
                    decl.placement[label] = target
                    decl.map_locs[label] = loc
            elif kind == "pin":
                if len(parts) < 3:
                    raise DeployError(
                        f"{where}: expected 'pin <tenant> HOST=PHYSHOST ...'"
                    )
                decl = decl_for(parts[1], where)
                for part in parts[2:]:
                    if "=" not in part:
                        raise DeployError(
                            f"{where}: expected HOST=PHYSHOST, got {part!r}"
                        )
                    label, _, target = part.partition("=")
                    if label in decl.host_pins:
                        raise DeployError(
                            f"{where}: duplicate pin for host {label!r}"
                        )
                    decl.host_pins[label] = target
                    decl.pin_locs[label] = loc
            else:
                raise DeployError(
                    f"{where}: unknown declaration {kind!r}"
                )
        except AndError as exc:
            raise DeployError(f"{where}: {exc}") from None

    for loc, parts in pending_links:
        where = f"{filename}:{loc.line}"
        options = parse_kv_options(parts[3:], where, ("mtu",))
        mtu = _parse_int(options.get("mtu", "1500"), where, "mtu")
        try:
            fabric.add_link(parts[1], parts[2], mtu, loc)
        except AndError as exc:
            raise DeployError(f"{where}: {exc}") from None
    try:
        fabric.validate()
    except AndError as exc:
        raise DeployError(f"{filename}: {exc}") from None
    if not order:
        raise DeployError(f"{filename}: no tenants declared")

    sources: Dict[str, str] = {filename: text}
    tenants: List[TenantDeployment] = []
    compiled: Dict[Tuple, "CompiledProgram"] = {}
    for name in order:
        decl = decls[name]
        program = _load_or_compile(
            decl, root, sources, compiled, opt_level=opt_level
        )
        tenant = TenantDeployment(
            name,
            program,
            program_path=decl.program,
            idbase=_parse_int(
                decl.options.get("idbase", "0"),
                f"{filename}:{decl.loc.line}",
                "idbase",
            ),
            placement=decl.placement,
            host_pins=decl.host_pins,
            loc=decl.loc,
        )
        tenant.map_locs = decl.map_locs
        tenant.pin_locs = decl.pin_locs
        tenant.window_locs = decl.window_locs
        tenants.append(tenant)
    return Deployment(fabric, tenants, filename, sources)


def _load_or_compile(
    decl: _TenantDecl,
    root: Path,
    sources: Dict[str, str],
    compiled: Dict[Tuple, "CompiledProgram"],
    *,
    opt_level: int,
) -> "CompiledProgram":
    from repro.nclc.driver import CompiledProgram, Compiler, WindowConfig

    where = f"tenant '{decl.name}'"
    path = Path(decl.program)
    if not path.is_absolute():
        path = root / path
    try:
        text = path.read_text()
    except OSError as exc:
        raise DeployError(f"{where}: cannot read program: {exc}") from None

    if decl.program.endswith(".nclc.json"):
        if decl.defines or decl.windows or "and" in decl.options:
            raise DeployError(
                f"{where}: define/window/and= apply at compile time and "
                "cannot reconfigure a serialized artifact"
            )
        try:
            program = CompiledProgram.from_json(text)
        except ArtifactError as exc:
            raise DeployError(f"{where}: {exc}") from None
        sources.setdefault(decl.program, program.source)
        return program

    and_text: Optional[str] = None
    if "and" in decl.options:
        and_path = Path(decl.options["and"])
        if not and_path.is_absolute():
            and_path = root / and_path
        try:
            and_text = and_path.read_text()
        except OSError as exc:
            raise DeployError(f"{where}: cannot read AND file: {exc}") from None

    windows = {
        kname: WindowConfig(mask=mask, ext=ext)
        for kname, (mask, ext) in decl.windows.items()
    }
    key = (
        decl.program,
        and_text,
        tuple(sorted(decl.defines.items())),
        tuple(sorted((k, cfg.mask, tuple(sorted(cfg.ext.items())))
                     for k, cfg in windows.items())),
        decl.options.get("profile"),
        opt_level,
    )
    if key in compiled:
        sources.setdefault(decl.program, text)
        return compiled[key]
    compiler = Compiler(
        profile=decl.options.get("profile"), opt_level=opt_level
    )
    try:
        program = compiler.compile(
            text,
            and_text=and_text,
            windows=windows or None,
            defines=decl.defines or None,
            filename=decl.program,
        )
    except NclError:
        raise
    except ReproError as exc:
        raise DeployError(
            f"{where}: program failed to compile: {exc}"
        ) from None
    compiled[key] = program
    sources.setdefault(decl.program, text)
    return program


from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover
    from repro.nclc.driver import CompiledProgram
