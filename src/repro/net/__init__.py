"""Discrete-event network simulator: hosts, links, PISA switch nodes."""

from repro.net.events import Simulator, Timer
from repro.net.frame import Frame
from repro.net.link import Link
from repro.net.network import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, FaultPlan, Network
from repro.net.node import ForwardingSwitchNode, HostNode, Node
from repro.net.pisanode import PisaSwitchNode
from repro.net.topo import fat_tree, leaf_spine

__all__ = [
    "DEFAULT_BANDWIDTH",
    "DEFAULT_LATENCY",
    "FaultPlan",
    "ForwardingSwitchNode",
    "Frame",
    "HostNode",
    "Link",
    "Network",
    "Node",
    "PisaSwitchNode",
    "Simulator",
    "Timer",
    "fat_tree",
    "leaf_spine",
]
