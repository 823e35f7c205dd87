"""Algorithms written against the abstract MAC layer.

The point of the abstract MAC layer is that algorithms written against it run
unchanged on any implementation of the layer; with LBAlg providing the layer,
they run in the dual graph model.  The applications here are the ones the
paper's related-work section points at:

* :mod:`repro.mac.applications.flood` -- global single-message broadcast by
  flooding (the canonical example);
* :mod:`repro.mac.applications.multi_message` -- multi-message broadcast (k
  sources, every node relays every new token);
* :mod:`repro.mac.applications.neighbor_discovery` -- neighbor discovery via
  one announcement per node.
"""

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "FloodClient": "repro.mac.applications.flood",
    "FloodResult": "repro.mac.applications.flood",
    "run_flood": "repro.mac.applications.flood",
    "Token": "repro.mac.applications.multi_message",
    "MultiMessageClient": "repro.mac.applications.multi_message",
    "MultiMessageResult": "repro.mac.applications.multi_message",
    "run_multi_message_broadcast": "repro.mac.applications.multi_message",
    "Announcement": "repro.mac.applications.neighbor_discovery",
    "NeighborDiscoveryClient": "repro.mac.applications.neighbor_discovery",
    "NeighborDiscoveryResult": "repro.mac.applications.neighbor_discovery",
    "run_neighbor_discovery": "repro.mac.applications.neighbor_discovery",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
