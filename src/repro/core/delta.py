"""Incremental (delta) evaluation of ``J*(X)`` — the annealer's fast lane.

Every TTSA proposal differs from the incumbent in at most a handful of
users (Algorithm 2 touches one or two, plus a possibly displaced slot
occupant), yet :meth:`ObjectiveEvaluator.evaluate_assignment` rebuilds the
whole ``O(U·S·N)`` link-stats computation from scratch.
:class:`DeltaEvaluator` instead caches, for the last evaluated assignment,

* the per-user received-power rows ``rx[u][s] = p_u · h[u, s, j_u]``,
* the per-``(sub-band, server)`` total received power (Eq. 3's
  interference bookkeeping), with the occupant set of every sub-band,
* the per-user spectral efficiency, net benefit (gain minus
  communication cost) and the masked ``Σ√η`` KKT inputs,

and on the next call recomputes only what a move can change: the SINR of
users sharing a touched sub-band, the occupancy buckets of those bands,
and the affected users' objective terms.

Bitwise contract
----------------
The delta path returns values **bit-for-bit equal** to the full path, so
``use_delta=True`` reproduces the exact annealing trajectory (the
accept/reject comparisons and the RNG stream never diverge).  Three
invariants make this work; keep them in lockstep with
:mod:`repro.core.objective` and :mod:`repro.net.sinr` when editing:

1. every ``total_rx[j][s]`` bucket always equals the *sequential,
   ascending-user-order* sum of its current occupants' ``rx`` rows —
   the accumulation order ``np.add.at`` uses in
   :func:`~repro.net.sinr.compute_link_stats` — plus, when the
   evaluator carries a frozen ``external_rx`` matrix (the sharded
   scheduler's boundary coupling), that band's external row added
   *after* the occupant sum, as ``total_rx + external_rx`` does there;
2. per-user terms (signal, SINR, net benefit) are elementwise IEEE
   formulas, so recomputing them with scalar Python floats (which *are*
   IEEE doubles) yields the same bits as the full vectorised
   computation.  The one exception is ``log2``, whose numpy SIMD kernel
   differs from libm's — it therefore stays a (small, batched) numpy
   call;
3. the final reductions run over the same fixed-length masked arrays
   (``net``, ``√η`` weights, server indices) with the same pairwise
   order as the full path (``np.add.reduce`` / ``np.bincount``).

Most cache state is kept in plain Python lists rather than numpy arrays:
the per-move working set is a handful of scalars, where list indexing
beats numpy scalar indexing by an order of magnitude.  The price is an
extra Python-native copy of the gain tensor (``U·N·S`` floats), paid
once per scenario.

Touched-set protocol
--------------------
``evaluate_assignment(server, channel, touched=...)`` takes an iterable
of user indices that is a **superset** of the users whose assignment may
differ from the *previously evaluated* one (not the incumbent: a
rejected proposal still updates the cache, so the annealer passes the
union of the new move's touched set and the rejected move's).  Passing
``touched=None`` falls back to an ``O(U)`` vector diff, which makes the
evaluator a safe drop-in for any caller, including the baselines'
scratch-array loops.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.objective import ObjectiveEvaluator

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class DeltaEvaluator(ObjectiveEvaluator):
    """Cache-backed evaluator producing bitwise-identical ``J*(X)``.

    Construction costs ``O(U·S·N)`` time and memory (the Python-native
    gain copy); :meth:`rebuild` resets the cache to the all-local
    assignment, after which the evaluator is indistinguishable from a
    fresh one.
    """

    def __init__(
        self, scenario: "Scenario", external_rx: Optional[np.ndarray] = None
    ) -> None:
        super().__init__(scenario, external_rx=external_rx)
        #: Incremental (touched-set) evaluations vs O(U) vector-diff ones;
        #: plain int telemetry read by the scheduler's observability event
        #: (``fast_evals + full_evals == evaluations`` at all times).
        #: Kept as direct attribute increments — not recorder calls — so
        #: the annealer's inner loop pays nothing for the bookkeeping.
        self.fast_evals = 0
        self.full_evals = 0
        # Python-native copies of the constants read per move: list
        # indexing returns ready-made floats, numpy scalar indexing
        # allocates a wrapper object each time.  float() is exact, so
        # scalar arithmetic on these matches numpy's kernels bitwise.
        self._p_list = scenario.tx_power_watts.tolist()
        self._sqrt_eta_list = scenario.sqrt_eta.tolist()
        self._comm_list = scenario.comm_weight.tolist()
        self._gain_list = scenario.offload_gain.tolist()
        self._noise = float(scenario.noise_watts)
        self._n_servers = scenario.n_servers
        self._cpu_hz = scenario.server_cpu_hz
        #: ``_gain_rows[u][j][s]`` = ``h[u, s, j]``, band-major.
        self._gain_rows = scenario.gains.transpose(0, 2, 1).tolist()
        #: ``_external_rows[j][s]``: frozen out-of-instance received power,
        #: added to a band's bucket after its occupant sum (invariant 1).
        self._external_rows: Optional[List[List[float]]] = (
            None if self.external_rx is None else self.external_rx.tolist()
        )
        self.rebuild()

    # --- Cache lifecycle ---------------------------------------------------

    def rebuild(self) -> None:
        """Reset the cache to the all-local assignment."""
        sc = self.scenario
        n_users, n_servers, n_subbands = sc.n_users, sc.n_servers, sc.n_subbands
        self._server_list: List[int] = [LOCAL] * n_users
        self._channel_list: List[int] = [LOCAL] * n_users
        #: Occupants of each sub-band, kept sorted ascending (invariant 1).
        self._band_users: List[List[int]] = [[] for _ in range(n_subbands)]
        #: Current received-power row of each offloaded user.
        self._rx_rows: List[Optional[List[float]]] = [None] * n_users
        self._total_rx = (
            [list(row) for row in self._external_rows]
            if self._external_rows is not None
            else [[0.0] * n_servers for _ in range(n_subbands)]
        )
        self._signal = [0.0] * n_users
        self._se = [0.0] * n_users
        self._net = np.zeros(n_users)
        self._w = np.zeros(n_users)
        self._idx = np.zeros(n_users, dtype=np.int64)
        self._dead = [False] * n_users
        self._n_dead = 0
        self._n_offloaded = 0
        self._lambda_cost = 0.0
        self._kkt_dirty = False

    # --- Evaluation --------------------------------------------------------

    def evaluate_assignment(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]] = None,
    ) -> float:
        """``J*(X)`` (Eq. 24), recomputing only what changed since the last call.

        ``touched`` must cover every user whose assignment may differ
        from the previously evaluated one (see the module docstring);
        ``None`` diffs the full vectors instead.
        """
        self.evaluations += 1
        server_list, channel_list = self._server_list, self._channel_list
        if touched is None:
            self.full_evals += 1
            server = np.asarray(server_of_user)
            channel = np.asarray(channel_of_user)
            diff = np.flatnonzero(
                (server != np.asarray(server_list, dtype=server.dtype))
                | (channel != np.asarray(channel_list, dtype=channel.dtype))
            )
            changed = [
                (int(u), int(server[u]), int(channel[u])) for u in diff
            ]
        else:
            self.fast_evals += 1
            server, channel = server_of_user, channel_of_user
            changed = []
            seen: List[int] = []
            for u in touched:
                if u in seen:  # touched sets are tiny; a set() costs more
                    continue
                seen.append(u)
                new_server = int(server[u])
                new_channel = int(channel[u])
                if server_list[u] != new_server or channel_list[u] != new_channel:
                    changed.append((u, new_server, new_channel))
        if changed:
            self._apply(changed)
        return self._value()

    def evaluate_move(
        self, decision: OffloadingDecision, touched: Iterable[int] = ()
    ) -> float:
        """``J*(X)`` (Eq. 24) for a decision whose changed users lie in ``touched``."""
        # Inlined copy of evaluate_assignment's touched path — this is the
        # annealer's per-proposal call, where even argument re-dispatch
        # shows up in the profile.
        self.evaluations += 1
        self.fast_evals += 1
        server = decision.server
        channel = decision.channel
        server_list, channel_list = self._server_list, self._channel_list
        changed: List[Tuple[int, int, int]] = []
        seen: List[int] = []
        for u in touched:
            if u in seen:
                continue
            seen.append(u)
            new_server = int(server[u])
            new_channel = int(channel[u])
            if server_list[u] != new_server or channel_list[u] != new_channel:
                changed.append((u, new_server, new_channel))
        if changed:
            self._apply(changed)
        return self._value()

    # --- Internals ---------------------------------------------------------

    def _apply(self, changed: List[Tuple[int, int, int]]) -> None:
        server_list, channel_list = self._server_list, self._channel_list
        rx_rows = self._rx_rows
        bands = set()
        # Detach every changed user from its old slot first, so the band
        # occupant lists never hold a stale entry while new ones insert.
        for u, _, _ in changed:
            if server_list[u] != LOCAL:
                old_band = channel_list[u]
                bands.add(old_band)
                self._band_users[old_band].remove(u)
                self._n_offloaded -= 1
                if self._dead[u]:
                    self._dead[u] = False
                    self._n_dead -= 1
        for u, new_server, new_band in changed:
            old_server = server_list[u]
            server_list[u] = new_server
            channel_list[u] = new_band
            if new_server != old_server:
                # The masked KKT inputs change only on offload-state or
                # server changes; pure channel moves keep Lambda intact.
                self._kkt_dirty = True
                if new_server == LOCAL:
                    self._w[u] = 0.0
                    self._idx[u] = 0
                else:
                    self._w[u] = self._sqrt_eta_list[u]
                    self._idx[u] = new_server
            if new_server == LOCAL:
                self._signal[u] = 0.0
                self._se[u] = 0.0
                self._net[u] = 0.0
            else:
                bands.add(new_band)
                insort(self._band_users[new_band], u)
                self._n_offloaded += 1
                p = self._p_list[u]
                row = [g * p for g in self._gain_rows[u][new_band]]
                rx_rows[u] = row
                self._signal[u] = row[new_server]
        # Rebuild the received-power buckets of every touched band by
        # summing occupant rows in ascending-user order — the order
        # np.add.at accumulates in on the full path (invariant 1).  Bands
        # are visited in sorted order: each bucket is rebuilt independently,
        # so the order cannot change values, only make it deterministic.
        total_rx = self._total_rx
        external_rows = self._external_rows
        affected: List[int] = []
        for band in sorted(bands):
            occupants = self._band_users[band]
            if occupants:
                first = iter(occupants)
                bucket = list(rx_rows[next(first)])
                for u in first:
                    row = rx_rows[u]
                    for s, value in enumerate(row):
                        bucket[s] += value
                if external_rows is not None:
                    for s, value in enumerate(external_rows[band]):
                        bucket[s] += value
                total_rx[band] = bucket
                affected.extend(occupants)
            elif external_rows is not None:
                # An empty band holds only the frozen external power.
                total_rx[band] = list(external_rows[band])
            else:
                total_rx[band] = [0.0] * len(total_rx[band])
        if affected:
            self._refresh(affected)

    def _refresh(self, affected: List[int]) -> None:
        """Recompute SINR-dependent terms for users on touched bands.

        All scalar arithmetic below reproduces compute_link_stats'
        elementwise kernels bit-for-bit (invariant 2); only log2 stays a
        batched numpy call.
        """
        server_list, channel_list = self._server_list, self._channel_list
        signal_list = self._signal
        total_rx = self._total_rx
        noise = self._noise
        sinr = [0.0] * len(affected)
        for i, u in enumerate(affected):
            sig = signal_list[u]
            interference = total_rx[channel_list[u]][server_list[u]] - sig
            if interference <= 0.0:  # matches np.maximum(x, 0.0)
                interference = 0.0
            sinr[i] = sig / (interference + noise)
        se = np.log2(1.0 + np.array(sinr)).tolist()
        se_list = self._se
        net = self._net
        dead = self._dead
        gain_list, comm_list = self._gain_list, self._comm_list
        for i, u in enumerate(affected):
            se_u = se[i]
            se_list[u] = se_u
            if se_u > 0.0:
                if dead[u]:
                    dead[u] = False
                    self._n_dead -= 1
                net[u] = gain_list[u] - comm_list[u] / se_u
            else:
                # Zero spectral efficiency makes J* -inf regardless of the
                # net terms; park the entry at 0.0 (it is refreshed before
                # it can matter) and avoid the division by zero.
                if not dead[u]:
                    dead[u] = True
                    self._n_dead += 1
                net[u] = 0.0

    def _value(self) -> float:
        if self._n_offloaded == 0:
            return 0.0
        if self._n_dead:
            return float("-inf")
        # Identical reductions to the full path (invariant 3):
        # np.add.reduce is exactly ndarray.sum's pairwise kernel.  The
        # KKT cost is recomputed from the same masked arrays whenever
        # they changed, so caching it across channel-only moves is exact.
        if self._kkt_dirty:
            root_sums = np.bincount(
                self._idx, weights=self._w, minlength=self._n_servers
            )
            self._lambda_cost = float(
                np.add.reduce(root_sums * root_sums / self._cpu_hz)
            )
            self._kkt_dirty = False
        return float(np.add.reduce(self._net)) - self._lambda_cost
