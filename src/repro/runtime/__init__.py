"""libncrt: the NCL host runtime -- kernel invocation, windowing,
control-plane access, and cluster deployment."""

from repro.runtime.cluster import Cluster
from repro.runtime.controller import Controller
from repro.runtime.host_rt import HostProgram, NclHost

__all__ = ["Cluster", "Controller", "HostProgram", "NclHost"]
