"""The abstract MAC layer interpretation of the local broadcast service.

The abstract MAC layer (Kuhn, Lynch, Newport) presents a wireless link layer
to higher-level algorithms as three events per node -- ``bcast(m)``,
``ack(m)`` and ``recv(m)`` -- with two timing guarantees, an acknowledgment
bound ``f_ack`` and a progress bound ``f_prog``.  The paper's local broadcast
service provides exactly those events and bounds, so LBAlg can serve as an
implementation of the layer in the dual graph model.

* :mod:`repro.mac.spec` -- the client-facing layer interface
  (:class:`MacClient`, :class:`MacLayerGuarantees`).
* :mod:`repro.mac.adapter` -- :class:`MacEnvironment`, the environment that
  hosts the :class:`MacClient` instances over any local-broadcast-capable
  population (LBAlg or a baseline) and drives them with MAC-layer events.
* :mod:`repro.mac.applications` -- algorithms written against the layer; the
  flooding / global single-message broadcast of
  :mod:`repro.mac.applications.flood` is the representative example.
"""

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "MacClient": "repro.mac.spec",
    "MacLayerGuarantees": "repro.mac.spec",
    "MacEnvironment": "repro.mac.adapter",
    "FloodClient": "repro.mac.applications.flood",
    "FloodResult": "repro.mac.applications.flood",
    "run_flood": "repro.mac.applications.flood",
    "MultiMessageResult": "repro.mac.applications.multi_message",
    "run_multi_message_broadcast": "repro.mac.applications.multi_message",
    "NeighborDiscoveryResult": "repro.mac.applications.neighbor_discovery",
    "run_neighbor_discovery": "repro.mac.applications.neighbor_discovery",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
