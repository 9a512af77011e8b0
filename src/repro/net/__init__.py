"""Wireless-network substrate: topology, channel model, OFDMA, SINR.

This subpackage implements the physical-layer evaluation substrate of the
paper (Sec. III-A-2 and the simulation setup of Sec. V): a hexagonal
multi-cell layout, the distance-based path-loss model with log-normal
shadowing, OFDMA sub-band bookkeeping, and the SINR / achievable-rate
computation with inter-cell interference.
"""

from repro.net.channel import ChannelModel
from repro.net.fading import RayleighFading, RicianFading, faded_scenario
from repro.net.ofdma import OfdmaGrid
from repro.net.pathloss import LogNormalShadowing, UrbanMacroPathLoss
from repro.net.sinr import (
    LinkStats,
    compute_link_stats,
    compute_rates,
    total_received_power,
)
from repro.net.topology import HexCell, Topology, hex_grid_positions

__all__ = [
    "ChannelModel",
    "HexCell",
    "LinkStats",
    "LogNormalShadowing",
    "RayleighFading",
    "RicianFading",
    "OfdmaGrid",
    "Topology",
    "UrbanMacroPathLoss",
    "compute_link_stats",
    "compute_rates",
    "faded_scenario",
    "hex_grid_positions",
    "total_received_power",
]
