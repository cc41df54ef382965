"""Abstract Network Description: overlay model, parser, physical mapping,
and the physical-fabric spec -- the one description of a physical network
the mapper, the simulator and the deployment checker read."""

from repro.andspec.fabric import FabricLink, FabricNode, FabricSpec, parse_fabric
from repro.andspec.mapping import Mapping, map_overlay, place_hosts
from repro.andspec.model import AndNode, AndSpec, parse_and

__all__ = [
    "AndNode",
    "AndSpec",
    "FabricLink",
    "FabricNode",
    "FabricSpec",
    "Mapping",
    "map_overlay",
    "parse_and",
    "parse_fabric",
    "place_hosts",
]
