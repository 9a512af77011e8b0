"""Incremental (delta) evaluation of ``J*(X)`` — the default scorer of the
search loops (TSAJS's annealer, hJTORA and LocalSearch).

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
and the affected users' objective terms.  hJTORA's steepest-ascent round
scores every placement of one user at a time; :meth:`evaluate_placements`
scores all of them in one what-if pass that never applies a candidate.

Bitwise contract
----------------
The delta path returns values **bit-for-bit equal** to the full path, so
a search scored by this evaluator reproduces the exact trajectory of one
scored by :class:`~repro.core.objective.ObjectiveEvaluator` (the
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
extra band-major copy of the gain tensor (``U·N·S`` raw doubles in one
``array('d')`` per user, a third of the memory of nested float lists),
paid once per scenario.

Touched-set protocol
--------------------
``evaluate_assignment(server, channel, touched=...)`` takes an iterable
of user indices that is a **superset** of the users whose assignment may
differ from the *previously evaluated* one (not the incumbent: a
rejected proposal still updates the cache, so the annealer passes the
union of the new move's touched set and the rejected move's).  Passing
``touched=None`` falls back to an ``O(U)`` vector diff, which makes the
evaluator a safe drop-in for any caller, including the baselines'
scratch-array loops.  :meth:`evaluate_placements` takes the same
``touched`` hint; since it applies no candidate, the cache afterwards
holds the vectors it was handed, and the next call's hint covers only
what the caller changed since.
"""

from __future__ import annotations

from array import array
from bisect import insort
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.objective import ObjectiveEvaluator

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class DeltaEvaluator(ObjectiveEvaluator):
    """Cache-backed evaluator producing bitwise-identical ``J*(X)``.

    Construction costs ``O(U·S·N)`` time and memory (the band-major
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
        #: ``_gain_rows[u][j * S + s]`` = ``h[u, s, j]``: one flat
        #: band-major array of raw doubles per user; slicing out a band
        #: yields plain Python floats, exactly as a nested list would.
        band_major = np.ascontiguousarray(scenario.gains.transpose(0, 2, 1))
        self._gain_rows = [array("d", gains.tobytes()) for gains in band_major]
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
        #: Current received-power row of each offloaded user (empty until
        #: a user first offloads; rows are replaced, never mutated).
        self._rx_rows: List[List[float]] = [[] for _ in range(n_users)]
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
        self._sync(server_of_user, channel_of_user, touched, 1)
        return self._value()

    def evaluate_placements(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        user: int,
        slots: Sequence[Tuple[int, int]],
        touched: Optional[Iterable[int]] = None,
    ) -> List[float]:
        """``J*(X)`` (Eq. 24) of each candidate that moves ``user`` to a slot.

        What-if kernel: the cache is synced to the vectors through
        ``touched`` (as in :meth:`evaluate_assignment`), then no candidate
        is ever applied, so the cache still holds the vectors' assignment
        afterwards.  The work shared by a user's candidates is done once:

        * ``user`` is detached from its own band once; every candidate
          that leaves that band (revoke included) shares the detached
          occupants' terms;
        * per target band, the bucket is rebuilt once with ``user``'s
          row inserted in ascending-user order (invariant 1), and the
          occupants' SINRs plus ``user``'s SINR at each target server go
          through one ``np.log2`` call; a move to another server on
          ``user``'s own band keeps that band's bucket and the other
          occupants' terms as they are;
        * one KKT ``bincount`` per target server.

        Each candidate then writes ``user``'s net term into its band's
        scratch copy of the net array and reduces it with the pairwise
        ``np.add.reduce`` (invariant 3).
        """
        n_slots = len(slots)
        self.evaluations += n_slots
        self._sync(server_of_user, channel_of_user, touched, n_slots)
        values = [0.0] * n_slots
        if not n_slots:
            return values
        u = int(user)
        home_server, home_band = self._server_list[u], self._channel_list[u]
        # Candidate indices by target band; revokes apart.
        revokes: List[int] = []
        by_band: Dict[int, List[int]] = {}
        for i, (s, j) in enumerate(slots):
            if s == LOCAL:
                revokes.append(i)
            else:
                by_band.setdefault(j, []).append(i)
        kkt: Dict[int, float] = {}  # KKT cost by target server
        n_dead_rest = self._n_dead - (1 if self._dead[u] else 0)
        # The state with ``user`` local: its own band loses its row.
        detached = self._net.copy()
        detached[u] = 0.0
        dead_detached = n_dead_rest
        if home_server != LOCAL:
            others = [v for v in self._band_users[home_band] if v != u]
            # Same-band moves keep the current bucket: user's row on its
            # band does not depend on the server.
            same_band = by_band.pop(home_band, [])
            rx_rows = self._rx_rows
            se = self._placement_se(
                others,
                self._bucket(home_band, others),
                [slots[i][0] for i in same_band],
                rx_rows[u],
                self._total_rx[home_band],
            )
            dead_detached += self._write_terms(detached, others, se)
            self._score(
                values, slots, same_band, u, se[len(others):],
                self._net.copy(), n_dead_rest, kkt,
            )
        offloaded_rest = self._n_offloaded - (0 if home_server == LOCAL else 1)
        for i in revokes:
            if offloaded_rest == 0:
                values[i] = 0.0
            elif dead_detached:
                values[i] = float("-inf")
            else:
                if LOCAL not in kkt:
                    kkt[LOCAL] = self._kkt_cost(u, LOCAL)
                values[i] = float(np.add.reduce(detached)) - kkt[LOCAL]
        n_servers = self._n_servers
        p = self._p_list[u]
        for band in sorted(by_band):
            candidates = by_band[band]
            occupants = self._band_users[band]
            start = band * n_servers
            row = [g * p for g in self._gain_rows[u][start:start + n_servers]]
            members = list(occupants)
            insort(members, u)
            # The bucket sum reads user's row on this band from the cache;
            # its own row goes back right after.
            rx_rows = self._rx_rows
            own_row, rx_rows[u] = rx_rows[u], row
            bucket = self._bucket(band, members)
            rx_rows[u] = own_row
            se = self._placement_se(
                occupants, bucket, [slots[i][0] for i in candidates], row, bucket
            )
            moved = detached.copy()
            dead = dead_detached + self._write_terms(moved, occupants, se)
            self._score(
                values, slots, candidates, u, se[len(occupants):], moved, dead, kkt
            )
        return values

    # --- Internals ---------------------------------------------------------

    def _sync(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]],
        n_evals: int,
    ) -> None:
        """Bring the cache to the vectors' assignment, counting ``n_evals``
        evaluations on the touched-set (fast) or vector-diff (full) lane."""
        server_list, channel_list = self._server_list, self._channel_list
        if touched is None:
            self.full_evals += n_evals
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
            self.fast_evals += n_evals
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
                start = new_band * self._n_servers
                gains = self._gain_rows[u][start:start + self._n_servers]
                row = [g * p for g in gains]
                rx_rows[u] = row
                self._signal[u] = row[new_server]
        # Rebuild the received-power buckets of every touched band by
        # summing occupant rows in ascending-user order — the order
        # np.add.at accumulates in on the full path (invariant 1).  Bands
        # are visited in sorted order: each bucket is rebuilt independently,
        # so the order cannot change values, only make it deterministic.
        affected: List[int] = []
        for band in sorted(bands):
            occupants = self._band_users[band]
            self._total_rx[band] = self._bucket(band, occupants)
            affected.extend(occupants)
        if affected:
            self._refresh(affected)

    def _bucket(self, band: int, members: List[int]) -> List[float]:
        """Total received power per server on ``band`` (invariant 1).

        The rx rows of ``members`` (ascending user indices) are summed in
        that order, then the band's external row is added; an empty band
        holds only the external row (or zeros).
        """
        external_rows = self._external_rows
        if not members:
            if external_rows is None:
                return [0.0] * self._n_servers
            return list(external_rows[band])
        rx_rows = self._rx_rows
        first = iter(members)
        bucket = list(rx_rows[next(first)])
        for v in first:
            for s, value in enumerate(rx_rows[v]):
                bucket[s] += value
        if external_rows is not None:
            for s, value in enumerate(external_rows[band]):
                bucket[s] += value
        return bucket

    def _placement_se(
        self,
        occupants: List[int],
        bucket: List[float],
        servers: List[int],
        row: List[float],
        user_bucket: List[float],
    ) -> List[float]:
        """Spectral efficiencies of ``occupants`` under ``bucket``, then of
        a user with rx ``row`` at each of ``servers`` under
        ``user_bucket``, through one ``np.log2`` call (invariant 2)."""
        server_list, signal_list = self._server_list, self._signal
        noise = self._noise
        sinr = [0.0] * (len(occupants) + len(servers))
        for k, v in enumerate(occupants):
            sig = signal_list[v]
            interference = bucket[server_list[v]] - sig
            if interference <= 0.0:  # matches np.maximum(x, 0.0)
                interference = 0.0
            sinr[k] = sig / (interference + noise)
        for k, s in enumerate(servers, len(occupants)):
            sig = row[s]
            interference = user_bucket[s] - sig
            if interference <= 0.0:
                interference = 0.0
            sinr[k] = sig / (interference + noise)
        se: List[float] = np.log2(1.0 + np.array(sinr)).tolist()
        return se

    def _write_terms(self, net: np.ndarray, occupants: List[int], se: List[float]) -> int:
        """Write ``occupants``' net terms for spectral efficiencies ``se``
        into the scratch array ``net``; return the change in the dead
        count.  A user left dead keeps its stale entry: any candidate with
        a dead user scores ``-inf`` without reducing."""
        dead = self._dead
        gain_list, comm_list = self._gain_list, self._comm_list
        change = 0
        for v, se_v in zip(occupants, se):
            if se_v > 0.0:
                net[v] = gain_list[v] - comm_list[v] / se_v
                if dead[v]:
                    change -= 1
            elif not dead[v]:
                change += 1
        return change

    def _score(
        self,
        values: List[float],
        slots: Sequence[Tuple[int, int]],
        candidates: List[int],
        user: int,
        se: List[float],
        net: np.ndarray,
        n_dead: int,
        kkt: Dict[int, float],
    ) -> None:
        """Score the candidates that place ``user`` on one band: ``se`` is
        its spectral efficiency at each, ``net`` and ``n_dead`` the band's
        state without its own term, ``kkt`` the memo of KKT costs by
        target server."""
        gain, comm = self._gain_list[user], self._comm_list[user]
        for i, se_u in zip(candidates, se):
            if n_dead or se_u <= 0.0:
                values[i] = float("-inf")
                continue
            net[user] = gain - comm / se_u
            server = slots[i][0]
            if server not in kkt:
                kkt[server] = self._kkt_cost(user, server)
            values[i] = float(np.add.reduce(net)) - kkt[server]

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
            self._lambda_cost = self._kkt_cost()
            self._kkt_dirty = False
        return float(np.add.reduce(self._net)) - self._lambda_cost

    def _kkt_cost(self, user: int = LOCAL, server: int = LOCAL) -> float:
        """``Lambda(X, F*)`` (Eq. 23) over the masked KKT inputs.

        With ``user`` given, the cost of the assignment that moves it to
        ``server`` (``LOCAL``: local execution); the inputs are restored
        before returning.
        """
        w, idx = self._w, self._idx
        if user != LOCAL:
            saved_w, saved_idx = w[user], idx[user]
            if server == LOCAL:
                w[user], idx[user] = 0.0, 0
            else:
                w[user], idx[user] = self._sqrt_eta_list[user], server
        root_sums = np.bincount(idx, weights=w, minlength=self._n_servers)
        if user != LOCAL:
            w[user], idx[user] = saved_w, saved_idx
        return float(np.add.reduce(root_sums * root_sums / self._cpu_hz))
