"""The four tiers of the RingNet hierarchy (paper §3, Figure 1)."""

from __future__ import annotations

import enum


class Tier(enum.Enum):
    """BRT / AGT / APT / MHT.

    * ``BR`` — Border Routers: communicate among administrative domains;
      the (single) BR ring is the *top logical ring* where total ordering
      happens.
    * ``AG`` — Access Gateways: bridge wireless and wired networks;
      organized into logical rings, one ring per parent BR.
    * ``AP`` — Access Proxies: talk directly to mobile hosts; children of
      AGs, not organized into rings.
    * ``MH`` — Mobile Hosts: leaf endpoints, attach to one AP at a time.
    """

    BR = "br"
    AG = "ag"
    AP = "ap"
    MH = "mh"

    @property
    def prefix(self) -> str:
        """Node-id prefix used by :func:`repro.net.address.make_id`."""
        return self.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
