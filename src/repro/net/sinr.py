"""SINR and achievable-rate computation with inter-cell interference.

Implements Eq. (3)-(4) of the paper: each offloading user transmits on one
sub-band of one base station; intra-cell transmissions are orthogonal
(one user per (station, sub-band) slot, constraint 12d) while co-channel
users attached to *other* stations interfere.

The assignment is given in compact form as two integer vectors —
``server_of_user`` and ``channel_of_user`` — where ``-1`` marks a user that
executes locally.  This representation is what all schedulers in the
library operate on; it makes the hot inner loop of the annealer a pair of
O(U·S) numpy reductions instead of a dense (U, S, N) tensor walk.

For a *feasible* assignment (at most one user per (station, sub-band)
slot) the computation matches Eq. (3) exactly.  If an infeasible
assignment with slot collisions is evaluated, colliding same-cell users
are counted as interferers — a graceful degradation the schedulers never
exercise, since they maintain feasibility by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Marker used in assignment vectors for "execute locally".
LOCAL = -1


@dataclass(frozen=True)
class LinkStats:
    """Per-user uplink statistics for a given offloading assignment.

    All arrays have length ``U``.  Entries for local (non-offloading)
    users are zero.

    Attributes
    ----------
    sinr:
        Linear SINR ``gamma_u`` of Eq. (3) at the serving station.
    spectral_efficiency:
        ``log2(1 + gamma_u)`` in bits/s/Hz.
    rate_bps:
        Achievable uplink rate ``R_u = W log2(1 + gamma_u)`` of Eq. (4).
    """

    sinr: np.ndarray
    spectral_efficiency: np.ndarray
    rate_bps: np.ndarray


def _validate_inputs(
    gains: np.ndarray,
    tx_power_watts: np.ndarray,
    server_of_user: np.ndarray,
    channel_of_user: np.ndarray,
) -> None:
    if gains.ndim != 3:
        raise ConfigurationError(f"gains must have shape (U, S, N), got {gains.shape}")
    n_users, n_servers, n_channels = gains.shape
    if tx_power_watts.shape != (n_users,):
        raise ConfigurationError(
            f"tx_power_watts must have shape ({n_users},), got {tx_power_watts.shape}"
        )
    if server_of_user.shape != (n_users,) or channel_of_user.shape != (n_users,):
        raise ConfigurationError(
            "assignment vectors must have shape "
            f"({n_users},), got {server_of_user.shape} / {channel_of_user.shape}"
        )
    offloaded = server_of_user >= 0
    if np.any(server_of_user[offloaded] >= n_servers):
        raise ConfigurationError("server index out of range")
    if np.any((channel_of_user[offloaded] < 0) | (channel_of_user[offloaded] >= n_channels)):
        raise ConfigurationError("channel index out of range for an offloaded user")
    if np.any((server_of_user == LOCAL) != (channel_of_user == LOCAL)):
        raise ConfigurationError(
            "server and channel assignments must both be LOCAL or both be set"
        )


def total_received_power(
    gains: np.ndarray,
    tx_power_watts: np.ndarray,
    server_of_user: np.ndarray,
    channel_of_user: np.ndarray,
) -> np.ndarray:
    """Per-(sub-band, station) total received power, shape ``(N, S)``.

    ``out[j, s]`` is the power station ``s`` receives on sub-band ``j``
    from *every* user transmitting on ``j`` — the bucket matrix Eq. (3)'s
    interference sum is carved out of (a user's interference at its
    serving slot is its bucket minus its own signal).  The accumulation
    is the sequential ascending-user-order sum documented in
    :func:`compute_link_stats`; the incremental cache of
    ``repro.core.delta`` must reproduce these exact bits after any
    rebuild, which is what the interference-cache property tests pin.
    """
    gains = np.asarray(gains, dtype=float)
    n_users, n_servers, n_channels = gains.shape
    total_rx = np.zeros((n_channels, n_servers))
    offloaded = np.flatnonzero(np.asarray(server_of_user) >= 0)
    if offloaded.size:
        chan = np.asarray(channel_of_user)[offloaded]
        rx = gains[offloaded, :, chan] * np.asarray(tx_power_watts, dtype=float)[
            offloaded, None
        ]
        np.add.at(total_rx, chan, rx)
    return total_rx


def compute_link_stats(
    gains: np.ndarray,
    tx_power_watts: np.ndarray,
    noise_watts: float,
    subband_width_hz: float,
    server_of_user: np.ndarray,
    channel_of_user: np.ndarray,
    validate: bool = True,
    external_rx: np.ndarray | None = None,
) -> LinkStats:
    """Evaluate Eq. (3)-(4) for every user under a given assignment.

    Parameters
    ----------
    gains:
        Channel gain tensor ``h[u, s, j]`` with shape ``(U, S, N)``.
    tx_power_watts:
        Constant uplink transmit power per user, shape ``(U,)``.
    noise_watts:
        Background noise variance ``sigma^2`` in watts.
    subband_width_hz:
        Sub-band width ``W = B / N``.
    server_of_user, channel_of_user:
        Compact assignment vectors (``LOCAL`` = execute locally).
    validate:
        Skip input validation when the caller guarantees shapes (hot path).
    external_rx:
        Optional ``(N, S)`` frozen received power from transmitters
        *outside* this instance (the sharded scheduler's boundary
        coupling), added elementwise to the interference buckets.  With
        ``None`` the computation is untouched — the default path stays
        bitwise identical to the pre-sharding implementation.
    """
    gains = np.asarray(gains, dtype=float)
    tx_power_watts = np.asarray(tx_power_watts, dtype=float)
    server_of_user = np.asarray(server_of_user)
    channel_of_user = np.asarray(channel_of_user)
    if validate:
        _validate_inputs(gains, tx_power_watts, server_of_user, channel_of_user)
        if noise_watts <= 0:
            raise ConfigurationError(f"noise power must be positive, got {noise_watts}")
        if subband_width_hz <= 0:
            raise ConfigurationError(
                f"sub-band width must be positive, got {subband_width_hz}"
            )
        if external_rx is not None:
            expected = (gains.shape[2], gains.shape[1])
            if np.asarray(external_rx).shape != expected:
                raise ConfigurationError(
                    f"external_rx must have shape {expected}, got "
                    f"{np.asarray(external_rx).shape}"
                )

    n_users, n_servers, n_channels = gains.shape
    sinr = np.zeros(n_users)
    offloaded = np.flatnonzero(server_of_user >= 0)
    if offloaded.size:
        srv = server_of_user[offloaded]
        chan = channel_of_user[offloaded]
        # rx[k, s]: power user k's transmission deposits at station s on
        # its own sub-band.  Accumulating rows into per-(band, station)
        # buckets gives the total received power; subtracting the user's
        # own signal at its serving station leaves exactly Eq. (3)'s
        # interference sum (intra-cell transmissions are orthogonal under
        # constraint 12d, so every other co-channel user belongs to a
        # different cell).
        # Accumulation-order contract: np.add.at walks the rows in
        # ascending user order, so each (band, station) bucket is the
        # sequential sum of its members' rx rows by user index.  The
        # delta evaluator (repro.core.delta) rebuilds touched buckets in
        # that same order to stay bitwise equal to this path — do not
        # change the accumulation scheme without updating it.
        total_rx = total_received_power(
            gains, tx_power_watts, server_of_user, channel_of_user
        )
        if external_rx is not None:
            total_rx = total_rx + np.asarray(external_rx, dtype=float)

        signal = tx_power_watts[offloaded] * gains[offloaded, srv, chan]
        interference = total_rx[chan, srv] - signal
        # Guard tiny negative values from floating-point cancellation.
        interference = np.maximum(interference, 0.0)
        sinr[offloaded] = signal / (interference + noise_watts)

    spectral_efficiency = np.log2(1.0 + sinr)
    rate_bps = subband_width_hz * spectral_efficiency
    return LinkStats(
        sinr=sinr, spectral_efficiency=spectral_efficiency, rate_bps=rate_bps
    )


def compute_rates(
    gains: np.ndarray,
    tx_power_watts: np.ndarray,
    noise_watts: float,
    subband_width_hz: float,
    server_of_user: np.ndarray,
    channel_of_user: np.ndarray,
) -> np.ndarray:
    """Achievable uplink rates ``R_u`` (Eq. 4); zero for local users."""
    stats = compute_link_stats(
        gains,
        tx_power_watts,
        noise_watts,
        subband_width_hz,
        server_of_user,
        channel_of_user,
    )
    return stats.rate_bps
