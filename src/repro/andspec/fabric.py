"""The physical fabric description (``FabricSpec``).

The AND (:mod:`repro.andspec.model`) describes *one application's*
functional overlay; a :class:`FabricSpec` describes the shared physical
substrate many such applications are deployed onto: switches with their
chip profiles, hosts, and links with their MTUs and bandwidths. It is the
one description of a physical network: the generators
(:func:`repro.net.topo.fat_tree`, :func:`repro.net.topo.leaf_spine`)
return one, :meth:`FabricSpec.build` instantiates it in the simulator,
the overlay mapper and the whole-fabric deployment checker
(:mod:`repro.analysis.deploy`) read its :meth:`FabricSpec.graph`.

A switch is a kernel placement target iff it has a chip profile
(:attr:`FabricNode.programmable`). Every switch a fabric file declares
gets one (``bmv2`` by default); a generator leaves its transit tiers
without one, so they forward traffic but run no kernel.

Text format (one declaration per line, ``#`` comments)::

    switch sw0 profile=tofino-like
    switch sw1                      # profile defaults to bmv2
    host   worker0
    link   worker0 sw0 mtu=1500     # mtu defaults to 1500
    link   sw0 sw1 mtu=9000

:meth:`FabricSpec.render` and :func:`parse_fabric` are inverses for a
parsed fabric (the text has no way to say "no profile");
:meth:`FabricSpec.to_dict` is the ``fabric`` key of the deployment
report. Neither holds link bandwidth: only the simulator reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import AndError, SourceLocation

DEFAULT_MTU = 1500
DEFAULT_PROFILE = "bmv2"
#: default link parameters (10 GbE, 1 us propagation)
DEFAULT_BANDWIDTH = 10e9
DEFAULT_LATENCY = 1e-6


class FabricNode:
    """One physical node: a host, or a switch with or without a chip
    profile."""

    __slots__ = ("name", "kind", "profile", "loc")

    def __init__(
        self,
        name: str,
        kind: str,
        profile: Optional[str] = None,
        loc: Optional[SourceLocation] = None,
    ) -> None:
        if kind not in ("host", "switch"):
            raise AndError(f"unknown fabric node kind {kind!r}")
        if kind == "host" and profile is not None:
            raise AndError(f"host {name!r} cannot carry a chip profile")
        self.name = name
        self.kind = kind
        #: chip profile name (programmable switches only); resolved
        #: lazily so a spec can be parsed without importing the PISA
        #: architecture tables
        self.profile = profile
        #: declaration site in the fabric/deployment file, when parsed
        self.loc = loc

    @property
    def is_switch(self) -> bool:
        return self.kind == "switch"

    @property
    def is_host(self) -> bool:
        return self.kind == "host"

    @property
    def programmable(self) -> bool:
        """Can a kernel be placed here? Iff the node has a chip profile."""
        return self.profile is not None

    def __repr__(self) -> str:
        prof = f" profile={self.profile}" if self.programmable else ""
        return f"FabricNode({self.kind} {self.name}{prof})"


class FabricLink:
    """One physical link with its MTU (bytes of frame it can carry) and
    its bandwidth (bits per second)."""

    __slots__ = ("a", "b", "mtu", "bandwidth", "loc")

    def __init__(
        self,
        a: str,
        b: str,
        mtu: int = DEFAULT_MTU,
        loc: Optional[SourceLocation] = None,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> None:
        if mtu <= 0:
            raise AndError(f"link {a!r} -- {b!r}: mtu must be positive")
        self.a = a
        self.b = b
        self.mtu = int(mtu)
        self.bandwidth = bandwidth
        self.loc = loc

    @property
    def key(self) -> Tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def __repr__(self) -> str:
        return f"FabricLink({self.a} -- {self.b}, mtu={self.mtu})"


class FabricSpec:
    """A physical fabric: parsed from a file or made by a generator."""

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        self.nodes: Dict[str, FabricNode] = {}
        self.links: List[FabricLink] = []
        self._by_key: Dict[Tuple[str, str], FabricLink] = {}

    # -- construction -------------------------------------------------------

    def add_node(
        self,
        name: str,
        kind: str,
        profile: Optional[str] = None,
        loc: Optional[SourceLocation] = None,
    ) -> FabricNode:
        if name in self.nodes:
            raise AndError(f"duplicate fabric node {name!r}")
        node = FabricNode(name, kind, profile, loc)
        self.nodes[name] = node
        return node

    def add_host(
        self, name: str, loc: Optional[SourceLocation] = None
    ) -> FabricNode:
        return self.add_node(name, "host", loc=loc)

    def add_switch(
        self,
        name: str,
        profile: Optional[str] = DEFAULT_PROFILE,
        loc: Optional[SourceLocation] = None,
    ) -> FabricNode:
        """Add a switch; ``profile=None`` makes it a plain forwarder that
        carries traffic but is no placement target."""
        return self.add_node(name, "switch", profile, loc)

    def add_link(
        self,
        a: str,
        b: str,
        mtu: int = DEFAULT_MTU,
        loc: Optional[SourceLocation] = None,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> FabricLink:
        for name in (a, b):
            if name not in self.nodes:
                raise AndError(f"link references unknown fabric node {name!r}")
        if a == b:
            raise AndError(f"self-link on {a!r}")
        link = FabricLink(a, b, mtu, loc, bandwidth)
        if link.key in self._by_key:
            raise AndError(f"duplicate link {a!r} -- {b!r}")
        self._by_key[link.key] = link
        self.links.append(link)
        return link

    # -- queries -----------------------------------------------------------

    @property
    def hosts(self) -> List[str]:
        """Host names, in declaration order."""
        return [n.name for n in self.nodes.values() if n.is_host]

    @property
    def switches(self) -> List[str]:
        """Switch names, in declaration order."""
        return [n.name for n in self.nodes.values() if n.is_switch]

    def node(self, name: str) -> FabricNode:
        if name not in self.nodes:
            raise AndError(f"unknown fabric node {name!r}")
        return self.nodes[name]

    def link_between(self, a: str, b: str) -> Optional[FabricLink]:
        return self._by_key.get((a, b) if a <= b else (b, a))

    def switch_profile(self, name: str) -> "ArchProfile":
        """The resolved :class:`repro.pisa.arch.ArchProfile` of a switch."""
        from repro.pisa.arch import ArchProfile, profile_by_name

        node = self.node(name)
        if not node.programmable:
            raise AndError(f"fabric node {name!r} has no chip profile")
        profile: ArchProfile = profile_by_name(node.profile)
        return profile

    def validate(self) -> None:
        if not self.nodes:
            raise AndError("empty fabric: no nodes declared")
        from repro.pisa.arch import PROFILES

        for node in self.nodes.values():
            if node.programmable and node.profile not in PROFILES:
                raise AndError(
                    f"switch {node.name!r} names unknown chip profile "
                    f"{node.profile!r} (known: {', '.join(sorted(PROFILES))})"
                )

    def graph(self) -> "nx.Graph":
        """The view the overlay mapper and the deployment checker read
        (the same one :meth:`repro.net.network.Network.graph` gives of a
        live network): node ``kind`` and ``programmable``, edge ``mtu``."""
        import networkx as nx

        g = nx.Graph()
        for node in self.nodes.values():
            g.add_node(node.name, kind=node.kind, programmable=node.programmable)
        for link in self.links:
            g.add_edge(link.a, link.b, mtu=link.mtu)
        return g

    def build(
        self,
        obs: Optional["Observability"] = None,
        latency: float = DEFAULT_LATENCY,
        pisa_factory: Optional[Callable[[str], "PisaSwitch"]] = None,
        ecmp: bool = True,
        queue_limit_bytes: Optional[int] = None,
    ) -> "Network":
        """Instantiate the fabric as a live simulated network.

        Hosts claim the low node ids in declaration order (h0 -> id 0,
        ...) so application code can address them positionally; the
        switches follow in declaration order, and so do the links (the
        index :meth:`~repro.net.network.Network.inject` seeds a link's
        loss draw with). A switch is a plain :class:`ForwardingSwitchNode`
        unless it is programmable and ``pisa_factory`` is given, in which
        case it runs a fresh device from the factory. Routes are
        installed ECMP by default -- that is what spreads flows over a
        fat-tree's parallel paths.
        """
        from repro.net.network import Network

        net = Network(obs=obs)
        for name in self.hosts:
            net.add_host(name)
        for name in self.switches:
            if pisa_factory is not None and self.nodes[name].programmable:
                net.add_pisa_switch(name, pisa_factory(name))
            else:
                net.add_forwarding_switch(name)
        for link in self.links:
            net.add_link(
                link.a, link.b, latency=latency, bandwidth=link.bandwidth,
                queue_limit_bytes=queue_limit_bytes,
            )
        net.compute_routes(ecmp=ecmp)
        return net

    # -- serialization ------------------------------------------------------

    def render(self) -> str:
        lines: List[str] = []
        for node in self.nodes.values():
            if node.programmable:
                lines.append(f"switch {node.name} profile={node.profile}")
            elif node.is_switch:
                lines.append(f"switch {node.name}")
            else:
                lines.append(f"host   {node.name}")
        lines += [
            f"link   {link.a} {link.b} mtu={link.mtu}" for link in self.links
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (deterministically ordered)."""
        return {
            "hosts": sorted(self.hosts),
            "switches": [
                {"name": name, "profile": self.nodes[name].profile}
                for name in sorted(self.switches)
            ],
            "links": [
                {"a": link.key[0], "b": link.key[1], "mtu": link.mtu}
                for link in sorted(self.links, key=lambda link: link.key)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"FabricSpec({self.name}: {len(self.hosts)} hosts, "
            f"{len(self.switches)} switches, {len(self.links)} links)"
        )


def parse_kv_options(
    parts: List[str], where: str, allowed: Tuple[str, ...]
) -> Dict[str, str]:
    """Parse trailing ``key=value`` options of one declaration line."""
    out: Dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise AndError(f"{where}: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        if key not in allowed:
            raise AndError(
                f"{where}: unknown option {key!r} "
                f"(allowed: {', '.join(allowed)})"
            )
        if key in out:
            raise AndError(f"{where}: duplicate option {key!r}")
        out[key] = value
    return out


def declared_profile(kind: str, parts: List[str], where: str) -> Optional[str]:
    """The chip profile of a ``host``/``switch`` line: every declared
    switch gets one (``bmv2`` unless ``profile=`` names another)."""
    if kind == "host":
        parse_kv_options(parts[2:], where, ())
        return None
    options = parse_kv_options(parts[2:], where, ("profile",))
    return options.get("profile") or DEFAULT_PROFILE


def fabric_lines(
    text: str, filename: str = "<fabric>"
) -> Iterator[Tuple[SourceLocation, List[str]]]:
    """Comment-stripped, tokenized declaration lines with locations."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        column = len(raw) - len(raw.lstrip()) + 1
        yield SourceLocation(filename, lineno, column), line.split()


def parse_fabric(text: str, filename: str = "<fabric>") -> FabricSpec:
    """Parse the fabric text format (``switch``/``host``/``link`` lines)."""
    spec = FabricSpec()
    pending: List[Tuple[SourceLocation, List[str]]] = []
    for loc, parts in fabric_lines(text, filename):
        kind = parts[0].lower()
        where = f"line {loc.line}"
        if kind in ("host", "switch"):
            if len(parts) < 2:
                raise AndError(f"{where}: expected '{kind} <name> [options]'")
            spec.add_node(parts[1], kind, declared_profile(kind, parts, where), loc)
        elif kind == "link":
            if len(parts) < 3:
                raise AndError(f"{where}: expected 'link <a> <b> [mtu=N]'")
            pending.append((loc, parts))
        else:
            raise AndError(f"{where}: unknown declaration {kind!r}")
    for loc, parts in pending:
        where = f"line {loc.line}"
        options = parse_kv_options(parts[3:], where, ("mtu",))
        try:
            mtu = int(options.get("mtu", DEFAULT_MTU))
        except ValueError:
            raise AndError(f"{where}: bad mtu {options['mtu']!r}") from None
        try:
            spec.add_link(parts[1], parts[2], mtu, loc)
        except AndError as exc:
            raise AndError(f"{where}: {exc}") from None
    spec.validate()
    return spec


if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.net.network import Network
    from repro.obs.context import Observability
    from repro.pisa.arch import ArchProfile
    from repro.pisa.switch_dev import PisaSwitch
