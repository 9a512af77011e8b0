"""Simulation configuration with the paper's default parameters (Sec. V).

``SimulationConfig`` is a declarative description of one experiment point:
network geometry, radio parameters, compute parameters and the (homogeneous)
task population.  ``Scenario.build`` turns a config plus a seed into a
concrete random instance (user drops, shadowing draws).

Defaults reproduce Sec. V exactly:

* S = 9 hexagonal cells, 1 km inter-BS distance
* path loss 140.7 + 36.7 log10 d[km] dB, 8 dB log-normal shadowing
* P_u = 10 dBm, B = 20 MHz, sigma^2 = -100 dBm, N = 3 sub-bands
* f_s = 20 GHz, f_local = 1 GHz, kappa = 5e-27
* d_u = 420 KB, beta_time = beta_energy = 0.5, lambda_u = 1
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.units import dbm_to_watts, ghz_to_hz, kb_to_bits, megacycles_to_cycles, mhz_to_hz


@dataclass(frozen=True)
class SimulationConfig:
    """Declarative description of one simulated MEC deployment.

    All quantities are given in the paper's units and converted to SI by
    the accessor properties.
    """

    # Population / geometry.
    n_users: int = 30
    n_servers: int = 9
    inter_site_distance_km: float = 1.0
    min_bs_distance_km: float = 0.01

    # Radio.
    n_subbands: int = 3
    bandwidth_mhz: float = 20.0
    tx_power_dbm: float = 10.0
    noise_dbm: float = -100.0
    pathloss_intercept_db: float = 140.7
    pathloss_slope_db: float = 36.7
    shadowing_sigma_db: float = 8.0

    # Compute.
    server_cpu_ghz: float = 20.0
    user_cpu_ghz: float = 1.0
    kappa: float = 5e-27

    # Task population (homogeneous, as in Sec. V).
    input_kb: float = 420.0
    workload_megacycles: float = 1000.0
    beta_time: float = 0.5
    operator_weight: float = 1.0

    # Execution knobs (wall-clock only: none changes any result bit).
    #: Score annealer moves with the incremental
    #: :class:`~repro.core.delta.DeltaEvaluator` (bitwise-equal fast path).
    use_delta: bool = False
    #: Default process count for multi-seed runs (1 = run in-process).
    n_workers: int = 1

    # Spatial sharding (metro-scale decomposition; see docs/sharding.md).
    #: Solve via :class:`~repro.core.sharding.ShardedScheduler`: partition
    #: the topology into cell clusters, solve each independently, then
    #: reconcile boundary users.  Exact (bitwise-identical) when the
    #: partition yields one cluster; a bounded approximation otherwise.
    use_sharding: bool = False
    #: Grid-tile side for the station partition, in km.  Larger tiles
    #: mean fewer cut interference edges (smaller utility gap) but
    #: costlier per-cluster solves.
    cluster_radius_km: float = 2.0
    #: Far-field cutoff: stations beyond this distance are treated as
    #: non-interfering when computing boundary sets.  ``None`` resolves
    #: to the inter-site distance at solve time.
    interference_radius_km: Optional[float] = None
    #: Fixed-point iteration cap for the boundary-reconciliation pass
    #: (0 disables reconciliation).
    max_reconcile_rounds: int = 2

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise ConfigurationError(f"n_users must be non-negative, got {self.n_users}")
        if self.n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.n_subbands < 1:
            raise ConfigurationError(
                f"n_subbands must be >= 1, got {self.n_subbands}"
            )
        for name in (
            "inter_site_distance_km",
            "bandwidth_mhz",
            "server_cpu_ghz",
            "user_cpu_ghz",
            "kappa",
            "input_kb",
            "workload_megacycles",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.min_bs_distance_km < 0:
            raise ConfigurationError(
                f"min_bs_distance_km must be non-negative, got {self.min_bs_distance_km}"
            )
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError(
                f"shadowing_sigma_db must be non-negative, got {self.shadowing_sigma_db}"
            )
        if not 0.0 <= self.beta_time <= 1.0:
            raise ConfigurationError(
                f"beta_time must lie in [0, 1], got {self.beta_time}"
            )
        if not 0.0 < self.operator_weight <= 1.0:
            raise ConfigurationError(
                f"operator_weight must lie in (0, 1], got {self.operator_weight}"
            )
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.cluster_radius_km <= 0:
            raise ConfigurationError(
                f"cluster_radius_km must be positive, got {self.cluster_radius_km}"
            )
        if self.interference_radius_km is not None and self.interference_radius_km <= 0:
            raise ConfigurationError(
                "interference_radius_km must be positive, got "
                f"{self.interference_radius_km}"
            )
        if self.max_reconcile_rounds < 0:
            raise ConfigurationError(
                "max_reconcile_rounds must be non-negative, got "
                f"{self.max_reconcile_rounds}"
            )

    # --- SI accessors -----------------------------------------------------

    @property
    def bandwidth_hz(self) -> float:
        return mhz_to_hz(self.bandwidth_mhz)

    @property
    def subband_width_hz(self) -> float:
        """``W = B / N``."""
        return self.bandwidth_hz / self.n_subbands

    @property
    def tx_power_watts(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def server_cpu_hz(self) -> float:
        return ghz_to_hz(self.server_cpu_ghz)

    @property
    def user_cpu_hz(self) -> float:
        return ghz_to_hz(self.user_cpu_ghz)

    @property
    def input_bits(self) -> float:
        return kb_to_bits(self.input_kb)

    @property
    def workload_cycles(self) -> float:
        return megacycles_to_cycles(self.workload_megacycles)

    @property
    def beta_energy(self) -> float:
        return 1.0 - self.beta_time

    def replace(self, **changes: Any) -> "SimulationConfig":
        """A copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)


#: The confined small-network setting of Fig. 3 where exhaustive search is
#: tractable: U = 6 users, S = 4 cells, N = 2 sub-bands.
def small_network_config(**overrides: Any) -> SimulationConfig:
    """The Fig. 3 small-network configuration (exhaustive-search scale)."""
    base = dict(n_users=6, n_servers=4, n_subbands=2)
    base.update(overrides)
    return SimulationConfig(**base)
