"""Analytic core of the paper.

This package implements the paper's own modelling contribution, which needs
no hardware substitution:

* :mod:`repro.core.params` — the IEEE 802.11b protocol parameters of
  Table 1 and the rate set.
* :mod:`repro.core.encapsulation` — the encapsulation-overhead stack of
  Figure 1.
* :mod:`repro.core.airtime` — per-frame channel occupancy at each rate.
* :mod:`repro.core.throughput_model` — the maximum-throughput model of
  Equations (1) and (2), which regenerates Table 2.
* :mod:`repro.core.range_model` — analytic link-budget range estimation
  (transmission / carrier-sense / interference ranges).
"""

from repro.core.params import (
    DEFAULT_MAC_PARAMETERS,
    Dot11bConfig,
    HeaderRatePolicy,
    MacParameters,
    PlcpParameters,
    PlcpPreamble,
    Rate,
)
from repro.core.encapsulation import (
    IP_HEADER_BYTES,
    TransportProtocol,
    encapsulation_report,
    mac_payload_bytes,
)
from repro.core.airtime import AirtimeCalculator
from repro.core.throughput_model import (
    ChannelOccupancy,
    RtsCtsOverheadModel,
    ThroughputModel,
    table2,
)
from repro.core.range_model import (
    loss_probability,
    solve_range_m,
)

__all__ = [
    "AirtimeCalculator",
    "ChannelOccupancy",
    "DEFAULT_MAC_PARAMETERS",
    "Dot11bConfig",
    "HeaderRatePolicy",
    "IP_HEADER_BYTES",
    "MacParameters",
    "PlcpParameters",
    "PlcpPreamble",
    "Rate",
    "RtsCtsOverheadModel",
    "ThroughputModel",
    "TransportProtocol",
    "encapsulation_report",
    "loss_probability",
    "mac_payload_bytes",
    "solve_range_m",
    "table2",
]
