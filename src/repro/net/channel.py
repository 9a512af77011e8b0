"""Channel-gain generation: path loss x shadowing over a topology.

Produces the gain tensor ``h[u, s, j]`` of Eq. (3): the channel power gain
between user ``u`` and base station ``s`` on sub-band ``j``.  Because the
association timescale averages out fast fading (Sec. III-A-2), the gain is
frequency-flat by default — identical across sub-bands — but a per-band
log-normal jitter can be enabled to model residual frequency selectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.net.pathloss import LogNormalShadowing, UrbanMacroPathLoss
from repro.net.topology import Topology
from repro.units import db_to_linear


@dataclass(frozen=True)
class ChannelModel:
    """Generates uplink channel gains for a user population.

    Parameters
    ----------
    pathloss:
        Distance-based path-loss model (paper default urban-macro NLOS).
    shadowing:
        Log-normal shadowing model (paper default 8 dB).
    per_band_sigma_db:
        Optional extra per-sub-band log-normal jitter.  ``0`` (default)
        yields frequency-flat gains as in the paper.
    """

    pathloss: UrbanMacroPathLoss = field(default_factory=UrbanMacroPathLoss)
    shadowing: LogNormalShadowing = field(default_factory=LogNormalShadowing)
    per_band_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.per_band_sigma_db < 0:
            raise ConfigurationError(
                f"per_band_sigma_db must be non-negative, got {self.per_band_sigma_db}"
            )

    def link_gains(
        self,
        topology: Topology,
        user_positions: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-link gains ``(U, S)``: path loss plus one shadowing draw."""
        distances = topology.distances_km(user_positions)
        gains = self.pathloss.gain_linear(distances)
        gains = gains * self.shadowing.sample_linear(distances.shape, rng)
        return gains

    def gains(
        self,
        topology: Topology,
        user_positions: np.ndarray,
        n_subbands: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Gain tensor ``h[u, s, j]`` of shape ``(U, S, N)``.

        Frequency-flat unless ``per_band_sigma_db > 0``.
        """
        if n_subbands < 1:
            raise ConfigurationError(
                f"need at least one sub-band, got {n_subbands}"
            )
        link = self.link_gains(topology, user_positions, rng)
        tensor = np.repeat(link[:, :, None], n_subbands, axis=2)
        if self.per_band_sigma_db > 0.0:
            jitter_db = rng.normal(0.0, self.per_band_sigma_db, size=tensor.shape)
            tensor = tensor * db_to_linear(jitter_db)
        return tensor
