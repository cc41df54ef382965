"""Baselines the reproduction compares against: hand-written P4 (Fig 1b)
and host-only implementations of the paper's use cases."""

from repro.baselines.host_allreduce import ParameterServerAllReduce, RingAllReduce
from repro.baselines.host_kvs import HostOnlyKvs
from repro.baselines.p4_netcache import build_netcache_program, handwritten_p4_source

__all__ = [
    "HostOnlyKvs",
    "ParameterServerAllReduce",
    "RingAllReduce",
    "build_netcache_program",
    "handwritten_p4_source",
]
