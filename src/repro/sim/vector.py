"""Vectorized struct-of-arrays wormhole simulator (``backend="vector"``).

:class:`VectorSimulator` re-implements the exact cycle semantics of
:class:`~repro.sim.network.NetworkSimulator` over numpy state so that the
per-cycle cost is a bounded number of array operations — instead of
Python object/dict traffic over every wire and node each cycle.  It is
**cycle-exact**: given the same topology, routing, rule and traffic it
produces bit-identical :class:`~repro.sim.stats.SimStats` (including
``deadlock_declared_at`` and the per-packet latency list, in the same
order).  The differential fuzz oracle (:mod:`repro.fuzz.oracle`) holds it
to that contract on every trial.

The kernel steps **B replicas** of one network — same topology, routing
instance, rule, buffer depth, pipeline delay and watchdog, each with its
own traffic — as one struct-of-arrays.  On small networks a cycle's cost
is mostly the fixed overhead of each numpy call, which B runs then pay
once.  :func:`run_batch` is the batch entry point;
:class:`VectorSimulator` is the B=1 case of the same kernel.

Layout
------
One replica of W₀ wires and N₀ nodes indexes its *sites* ``0..W₀+N₀-1``:
wires in sorted (= reference iteration) order, then one injection row
per node in topology order.  B replicas order their sites as [the wires
of replicas 0..B-1 | the injection rows of replicas 0..B-1], so with
W = B·W₀ every ``[:W]`` / ``[W:]`` slice below keeps its meaning, and
ascending site order is still each replica's reference order.  Replicas
share no wire, link or site, so how their sites interleave cannot change
a decision.  Link ids are offset per replica (each replica's round robin
sees only its own requests), and all replicas start at cycle 0 and share
one cycle counter, so ``cycle % count`` is unchanged.  Packet
destinations, the per-site destination router and the routing memo stay
in one replica's *local* numbering; only output wires carry the
replica's wire offset.

A site's "front" is the flit currently able to act — the head of the
wire FIFO, or the next flit of the packet streaming out of a source
queue — mirrored in flat arrays, and each site has one *state* naming
what its front does next, so every phase selects its sites with one
comparison instead of rebuilding a mask from the mirrors:

* ``_buf_pid/_buf_seq/_buf_state[W·depth]`` + ``_hpos/_tpos[W]`` —
  per-wire ring-buffer FIFOs, flat: wire ``w`` owns slots ``w·depth ..
  w·depth+depth-1``, ``_hpos``/``_tpos`` hold the flat slot of its front
  and of its next free slot, and ``_next_slot`` steps either round the
  ring.  A slot's state is 0 when it is empty, else the state its flit
  takes on reaching the front (``_HOME`` at its destination, else
  ``_WANT`` for a head, ``_GO`` for a body flit, which follows its
  head's route), so a wire is full exactly when its next free slot is
  taken, and a pop mirrors the new front's state with one gather;
* ``_fpid/_fseq[W+N]`` — the front mirror, valid where the site's state
  is not ``_IDLE``, updated incrementally on every pop and push;
* ``_state[W+N]`` — ``_IDLE`` (empty wire, idle injection row),
  ``_HOME`` (eject it), ``_WANT`` (an unrouted head: allocate it),
  ``_ASLEEP`` (an unrouted head waiting for a candidate output to free)
  or ``_GO`` (routed: it requests its output).  It changes only where
  fronts, routes and sleepers change — pops and pushes, route
  assignment, sleep and wake, and parking;
* ``_buf_arr[W·depth]`` / ``_farr[W+N]`` — arrival cycles of buffered
  flits and fronts, kept only when ``pipeline_delay > 0`` (at delay 0
  every buffered front arrived in an earlier cycle, so no phase reads
  them); injection rows always pass the pipeline-ready test (their
  ``_farr`` is a large negative constant);
* ``_route_out[W+N]`` — the output wire assigned to the front packet
  (wormhole FIFOs hold contiguous packet segments, so the reference's
  per-(wire, pid) assignment dict collapses to one array, read only
  where the state is ``_GO``);
* ``_owner`` — wormhole ownership per output wire;
* ``_pref_out`` — the sole routing candidate of each wanting site's
  front where known, which lets the allocation phase batch-resolve
  single-candidate cycles without a per-site Python loop.

Routing memoization is two-level: per input site, candidates are cached
by destination node, and — where the routing function publishes a
provable :meth:`~repro.routing.base.RoutingFunction.route_signature` —
the expensive ``candidates()`` call itself is shared across all
destinations with the same direction class.  Without the signature level
uniform random traffic never stops discovering new (site, destination)
pairs.  The memo is shared by every replica and every simulator on the
same routing instance, rule and topology (:func:`repro.sim.image.memo_for`),
and the points of a sweep share one routing instance
(:func:`repro.sim.image.spec_network`), so only a sweep's first point
pays the first-touch routing queries.

Phase semantics (mirrored decision for decision)
------------------------------------------------
1. **ejection** — the ``_HOME`` wires; ``nonzero`` yields them
   ascending, the order the reference appends delivery latencies in.
2. **allocation** — the ``_WANT`` sites are the heads needing a route;
   a Python loop walks them in reference order (wires ascending, then
   source nodes in topology order), because allocation is
   order-dependent: an earlier site claiming an output changes what
   later sites see.  Futile retries are suppressed: a blocked head's
   outcome can only change when one of its candidate outputs is released
   (releases happen only in the eject/traversal phases, claims only
   earlier in the same loop), so blocked sites sleep (state ``_ASLEEP``)
   until a release of one of their candidates wakes them.
   Failed attempts are side-effect-free in the reference (the ``first``
   selection consumes no RNG), so skipping them is exact.
3. **traversal** — fully batched.  Per-link round-robin arbitration
   looks sequential in the reference, but the link groups are
   independent (an output wire belongs to exactly one link, each link
   admits one winner), so every link's winner — ``requests[cycle %
   len(requests)]`` against the phase-start space snapshot — is computed
   at once with a stable sort + group boundaries (skipped on networks
   whose links each carry one wire, and in a cycle where no link has
   two requests: every request then wins), and the moves execute as
   array scatters.  Sources and outputs are each unique within a
   cycle and a same-wire pop+push commutes to the same ring state, so
   batch order cannot diverge from the reference's sequential one.

Scope (v1)
----------
Wormhole switching with the ``first`` (deterministic, RNG-free)
selection policy, both buffer disciplines, pipeline delay, Bernoulli or
traced traffic.  Telemetry (metrics/tracer), fault injection, recovery
and multicast waypoints are not implemented — requesting them raises
:class:`~repro.errors.ConfigError` up front (see
:func:`repro.sim.backend.backends` for the capability table).

Each replica of a batch keeps its own traffic, cycle limit, drain flag,
:class:`~repro.sim.stats.SimStats`, stall counter and watchdog.  It stops
at its cycle limit — or, draining, once idle or at its drain limit — when
its watchdog fires, or when it raises
:class:`~repro.errors.RoutingError` / :class:`~repro.errors.SimulationError`
(a routing dead-end stops only the replica that hit it).  A stopped
replica is *parked*: its buffers and queues are emptied, so it takes no
further part in any phase, its stats never change again and it never
raises.  A lone :class:`VectorSimulator` drains through the same step
loop as a batch, and is never parked at its cycle limit or watchdog, so
it can keep stepping, as the reference can; its errors propagate from
:meth:`~VectorSimulator.step` and :meth:`~VectorSimulator.run`.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.errors import RoutingError, SimulationError
from repro.routing.base import RoutingFunction
from repro.routing.packet import Packet
from repro.routing.selection import SelectionPolicy, first_candidate
from repro.sim.backend import check_features, resolve_backend, unsupported
from repro.sim.image import memo_for
from repro.sim.stats import SimStats
from repro.topology.base import Coord, Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.wires import Wire, wires_for

__all__ = ["VectorSimulator", "run_batch"]

#: Sentinel arrival cycle for injection rows: always pipeline-ready.
_ALWAYS_READY = -(1 << 40)

#: Site states: what a site's front does next (``_state``).  A ring slot
#: holds the state its flit takes at the front (``_HOME``, ``_GO`` or
#: ``_WANT``), or ``_IDLE`` when empty.
_IDLE, _HOME, _GO, _WANT, _ASLEEP = 0, 1, 2, 3, 4

#: No sites moved (the phases return the sites they moved).
_NO_SITES = np.empty(0, dtype=np.int64)


class VectorSimulator:
    """Struct-of-arrays twin of :class:`~repro.sim.network.NetworkSimulator`.

    Accepts the same constructor signature (unsupported features raise
    :class:`~repro.errors.ConfigError`) and exposes the same driving
    surface: :meth:`offer_packet`, :meth:`step`, :meth:`run`,
    :meth:`is_idle`, ``.cycle`` and ``.stats``.
    """

    #: Runs stepped together; :func:`run_batch` builds kernels of more.
    _replicas = 1

    def __init__(
        self,
        topology: Topology,
        routing: RoutingFunction,
        rule: ClassRule = no_classes,
        *,
        buffer_depth: int = 4,
        pipeline_delay: int = 0,
        selection: SelectionPolicy = first_candidate,
        atomic_buffers: bool = False,
        switching: str = "wormhole",
        watchdog: int = 500,
        seed: int = 0,
        tracer=None,
        metrics=None,
        faults=None,
        recovery=None,
        routing_factory=None,
        require_acyclic_reroute: bool = True,
    ) -> None:
        check_features(
            resolve_backend("vector"), metrics, tracer, faults, recovery, selection, switching
        )
        if pipeline_delay < 0:
            raise SimulationError("pipeline_delay cannot be negative")
        if buffer_depth < 1:
            raise SimulationError("buffers need capacity >= 1")

        self.topology = topology
        self.routing = routing
        self.rule = rule
        self.selection = selection
        self.atomic_buffers = atomic_buffers
        self.switching = switching
        self.pipeline_delay = pipeline_delay
        self.watchdog = watchdog
        self.buffer_depth = buffer_depth
        self.seed = seed

        wires = sorted(wires_for(topology, routing.channel_classes, rule), key=Wire.order_key)
        if not wires:
            raise SimulationError("routing channel classes instantiate no wires")
        #: One replica's wires, in site order.
        self.wires: tuple[Wire, ...] = tuple(wires)
        self._wire_lookup: dict[tuple[Coord, Coord, object], int] = {
            (w.src, w.dst, w.channel): i for i, w in enumerate(wires)
        }
        self._nodes: tuple[Coord, ...] = tuple(topology.nodes)
        #: Node -> index; failed routers are not nodes, so one lookup
        #: tells a packet's routers apart from dead or unknown ones.
        self._nindex: dict[Coord, int] = {n: i for i, n in enumerate(self._nodes)}
        self._dead = frozenset(getattr(topology, "failed_nodes", ()))
        R = self._replicas
        W0 = len(wires)
        N0 = len(self._nodes)
        W = R * W0
        N = R * N0
        X = W + N
        self._W0 = W0
        self._N0 = N0
        self._W = W

        #: Replica of each site, and the wire offset of that replica
        #: (added to the memo's local output wires).
        self._site_rep = np.concatenate(
            (np.repeat(np.arange(R), W0), np.repeat(np.arange(R), N0))
        )
        self._wbase: list[int] = (self._site_rep * W0).tolist()

        #: Destination router of each wire, local to its replica.
        self._wdst = np.tile(
            np.fromiter((self._nindex[w.dst] for w in wires), dtype=np.int64, count=W0), R
        )
        links = sorted({w.link for w in wires})
        lindex = {link: i for i, link in enumerate(links)}
        wlink = np.fromiter((lindex[w.link] for w in wires), dtype=np.int64, count=W0)
        self._wlink = (wlink + len(links) * np.arange(R)[:, None]).ravel()
        #: Some link carries several wires (virtual channels), so two
        #: requests can meet on one link and need round-robin arbitration.
        self._shared_links = len(links) < W0

        depth = buffer_depth
        self._buf_pid = np.zeros(W * depth, dtype=np.int64)
        self._buf_seq = np.zeros(W * depth, dtype=np.int64)
        self._buf_state = np.zeros(W * depth, dtype=np.int8)
        self._hpos = np.arange(W, dtype=np.int64) * depth
        self._tpos = self._hpos.copy()
        self._next_slot = np.arange(1, W * depth + 1, dtype=np.int64)
        self._next_slot[depth - 1::depth] -= depth

        #: Front mirrors over all sites (valid where the state is not idle).
        self._fpid = np.full(X, -1, dtype=np.int64)
        self._fseq = np.zeros(X, dtype=np.int64)
        #: Arrival stamps, read only by the pipeline-ready tests.
        self._buf_arr: np.ndarray | None = None
        self._farr: np.ndarray | None = None
        if pipeline_delay:
            self._buf_arr = np.zeros(W * depth, dtype=np.int64)
            self._farr = np.zeros(X, dtype=np.int64)
            self._farr[W:] = _ALWAYS_READY
        self._route_out = np.full(X, -1, dtype=np.int64)
        self._state = np.zeros(X, dtype=np.int8)

        #: Wormhole ownership per output wire (an array: the batched
        #: resolver gathers and scatters it by output index).
        self._owner = np.full(W, -1, dtype=np.int64)
        #: Cached first (sole) routing candidate of each wanting site's
        #: front, or -2 when unknown / not a singleton.  Lets the
        #: allocation phase batch-resolve when every pending site has a
        #: known single candidate; set whenever a head is exposed.
        self._pref_out = np.full(X, -2, dtype=np.int64)
        #: Allocation-retry suppression: the sites asleep on each output
        #: wire, woken when it is released.
        self._consumers: list[set[int]] = [set() for _ in range(W)]

        #: source row (replica offset + node index) -> deque of packet
        #: indices; only non-empty queues.
        self._queues: dict[int, deque[int]] = {}

        #: Packet table (struct of arrays, grown by doubling): destination
        #: index and last flit sequence number, plus a plain-list mirror
        #: of the destination for the scalar lookups in the allocation
        #: loop.
        self._p_cap = 1024
        self._p_dst = np.zeros(self._p_cap, dtype=np.int64)
        self._p_last = np.zeros(self._p_cap, dtype=np.int64)
        self._pl_dst: list[int] = []
        self._n_packets = 0
        self._ipackets: list[Packet] = []

        #: Two-level routing memo per memo group: by destination node
        #: index (fast hits), and by ``route_signature`` where published
        #: (so ``candidates()`` runs once per direction class, not once
        #: per destination).  Values: tuple of candidate output wire
        #: indices (local to a replica) in candidate order, or None for a
        #: raw dead-end.  Routings declaring ``uses_in_channel = False``
        #: share one group across every input port of a router; otherwise
        #: each site of a replica gets its own.  Replicas share the
        #: groups, and memos are further shared across simulator
        #: instances on the same (routing, rule, topology) via
        #: ``memo_for``.
        if routing.uses_in_channel:
            groups = W0 + N0
            self._memo_of: list[int] = (
                list(range(W0)) * R + list(range(W0, groups)) * R
            )
        else:
            groups = N0
            self._memo_of = [self._nindex[w.dst] for w in wires] * R + (
                list(range(N0)) * R
            )
        self._cand_by_in, self._sig_by_in = memo_for(topology, routing, rule, groups)
        #: Per-site view of the destination-level memo (one indirection
        #: fewer in the allocation hot loop; the dicts are shared, so a
        #: write through one alias is visible through all).
        self._cand_of_site: list[dict] = [
            self._cand_by_in[g] for g in self._memo_of
        ]
        self._fast_target = type(routing).target_of is RoutingFunction.target_of

        #: Source rows with a non-empty queue AND an idle injection row —
        #: exactly the sites the allocation phase must consider for a new
        #: packet (scanning every queue against numpy scalar reads each
        #: cycle is slower than maintaining the set at the three places
        #: row-idleness changes).
        self._ready_inj: set[int] = set()

        self.cycle = 0
        #: Per replica: stats, stall counter, the error that stopped it.
        self._stats = [SimStats() for _ in range(R)]
        self._stall = [0] * R
        self._errors: list[Exception | None] = [None] * R
        #: Replicas still stepping, ascending.
        self._running = list(range(R))
        self.stats = self._stats[0]
        #: Per replica: its wire sites and its injection rows.
        self._wires_of = [slice(r * W0, (r + 1) * W0) for r in range(R)]
        self._rows_of = [slice(W + r * N0, W + (r + 1) * N0) for r in range(R)]

    # -- state queries ----------------------------------------------------------

    def flits_in_network(self) -> int:
        """Flits currently buffered in wires."""
        return int(np.count_nonzero(self._buf_state))

    def packets_in_flight(self) -> int:
        """Packets injected but not fully delivered."""
        return self.stats.packets_injected - self.stats.packets_delivered

    def is_idle(self) -> bool:
        """No flits buffered, nothing queued and nothing streaming."""
        return not self._network_active(0)

    def _network_active(self, r: int) -> bool:
        queues = self._queues
        lo = r * self._N0
        state = self._state
        return (
            (
                bool(queues)
                and (self._replicas == 1 or any(lo <= n < lo + self._N0 for n in queues))
            )
            or bool(np.count_nonzero(state[self._rows_of[r]]))
            or bool(np.count_nonzero(state[self._wires_of[r]]))
        )

    # -- traffic entry ------------------------------------------------------------

    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet at its source node (reference semantics)."""
        self._offer(0, packet)

    def _offer(self, r: int, packet: Packet) -> None:
        stats = self._stats[r]
        nindex = self._nindex
        src = nindex.get(packet.src)
        dst = nindex.get(packet.dst)
        if src is None or dst is None or packet.waypoints:
            if packet.src in self._dead or packet.dst in self._dead:
                stats.packets_injected += 1
                stats.packets_lost += 1
                return
            if packet.waypoints:
                raise unsupported(resolve_backend("vector"), "multicast waypoints")
            self.topology.validate_node(packet.src)
            self.topology.validate_node(packet.dst)
            src = nindex[packet.src]
            dst = nindex[packet.dst]
        ip = self._add_packet(packet, dst)
        src += r * self._N0
        queue = self._queues.get(src)
        if queue is None:
            queue = self._queues[src] = deque()
            if not self._state[self._W + src]:
                self._ready_inj.add(src)
        queue.append(ip)
        stats.packets_injected += 1

    def _add_packet(self, packet: Packet, dst: int) -> int:
        ip = self._n_packets
        if ip >= self._p_cap:
            self._p_cap *= 2
            for name in ("_p_dst", "_p_last"):
                old = getattr(self, name)
                grown = np.zeros(self._p_cap, dtype=np.int64)
                grown[:ip] = old
                setattr(self, name, grown)
        self._p_dst[ip] = dst
        self._p_last[ip] = packet.length - 1
        self._pl_dst.append(dst)
        self._n_packets = ip + 1
        self._ipackets.append(packet)
        return ip

    # -- one cycle ------------------------------------------------------------------

    def step(self, new_packets: Sequence[Packet] = ()) -> int:
        """Advance one cycle; returns the number of flit movements."""
        for packet in new_packets:
            self.offer_packet(packet)
        moves = self._advance()[0]
        if self._errors[0] is not None:
            raise self._errors[0]
        return moves

    def _advance(self) -> Sequence[int]:
        """One kernel cycle over every replica; flit moves per replica."""
        ejected = self._eject_phase()
        self._allocation_phase()
        moved = self._traversal_phase()

        self.cycle += 1
        if self._replicas == 1:
            moves: Sequence[int] = (ejected.size + moved.size,)
        else:
            rep = self._site_rep
            R = self._replicas
            moves = np.bincount(
                rep[np.concatenate((ejected, moved))], minlength=R
            ).tolist()
        cycle = self.cycle
        stall = self._stall
        for r in self._running:
            stats = self._stats[r]
            stats.cycles = cycle
            stats.flit_moves += moves[r]
            if moves[r] == 0 and self._network_active(r):
                stall[r] += 1
                if stall[r] >= self.watchdog and not stats.deadlocked:
                    stats.deadlocked = True
                    stats.deadlock_declared_at = cycle
            else:
                stall[r] = 0
        return moves

    def _fail(self, r: int, exc: Exception) -> None:
        """Stop replica ``r`` on the error a solo run would have raised."""
        self._errors[r] = exc
        self._park(r)

    def _park(self, r: int) -> None:
        """Take replica ``r`` out of every phase; its stats stay as they are."""
        self._running.remove(r)
        wires, rows = self._wires_of[r], self._rows_of[r]
        depth = self.buffer_depth
        self._buf_state[wires.start * depth:wires.stop * depth] = _IDLE
        self._tpos[wires] = self._hpos[wires]
        self._state[wires] = _IDLE
        self._state[rows] = _IDLE
        for n in range(r * self._N0, (r + 1) * self._N0):
            self._queues.pop(n, None)
            self._ready_inj.discard(n)

    def _pop_fronts(self, idxs: np.ndarray) -> None:
        """Pop the front flit of the given wires; mirror their new fronts."""
        pos = self._hpos[idxs]
        self._buf_state[pos] = _IDLE
        pos = self._next_slot[pos]
        self._hpos[idxs] = pos
        pids = self._buf_pid[pos]
        self._fpid[idxs] = pids
        self._fseq[idxs] = self._buf_seq[pos]
        if self._farr is not None:
            self._farr[idxs] = self._buf_arr[pos]
        state = self._buf_state[pos]
        self._state[idxs] = state
        self._expose_heads(idxs, pids, state == _WANT)

    def _expose_heads(self, sites: np.ndarray, pids: np.ndarray, want: np.ndarray) -> None:
        """Cache the sole candidate of the newly exposed heads ``sites[want]``,
        so the allocation phase can batch-resolve them."""
        if not np.count_nonzero(want):
            return
        sites = sites[want]
        pref = self._pref_out
        if not self._fast_target:
            pref[sites] = -2
            return
        cand_of_site = self._cand_of_site
        pl_dst = self._pl_dst
        wbase = self._wbase
        pref[sites] = [
            outs[0] + wbase[w]
            if (outs := cand_of_site[w].get(pl_dst[ip])) is not None and len(outs) == 1
            else -2
            for w, ip in zip(sites.tolist(), pids[want].tolist())
        ]

    def _release(self, outs: np.ndarray) -> None:
        """Release wormhole ownership of output wires; wake their sleepers."""
        self._owner[outs] = -1
        consumers = self._consumers
        state = self._state
        for o in outs.tolist():
            sleepers = consumers[o]
            if sleepers:
                for k in sleepers:
                    if state[k] == _ASLEEP:
                        state[k] = _WANT
                sleepers.clear()

    # -- phase 1: ejection ---------------------------------------------------------

    def _eject_phase(self) -> np.ndarray:
        eject = self._state[:self._W] == _HOME
        if self._farr is not None:
            # With no pipeline delay the readiness test is a tautology —
            # every buffered front arrived in an earlier cycle.
            eject &= self._farr[:self._W] <= self.cycle - 1 - self.pipeline_delay
        idxs = eject.nonzero()[0]
        if idxs.size == 0:
            return idxs
        pids = self._fpid[idxs]
        tails = self._fseq[idxs] == self._p_last[pids]
        self._pop_fronts(idxs)
        if np.count_nonzero(tails):
            stats = self._stats
            W0 = self._W0
            cyc = self.cycle
            released = idxs[tails]
            # nonzero order is ascending wire order — each replica's
            # reference latency-append order.
            for w, ip in zip(released.tolist(), pids[tails].tolist()):
                packet = self._ipackets[ip]
                packet.delivered = cyc
                assert packet.entered is not None
                stats[w // W0].record_delivery(
                    cyc - packet.created, cyc - packet.entered, packet.length
                )
            if self.atomic_buffers:
                self._release(released)
        return idxs

    # -- phase 2: routing and VC allocation ------------------------------------------

    def _allocation_phase(self) -> None:
        # Allocation is order-dependent (an earlier site claiming an
        # output changes what later ones see), and the reference order is
        # wires ascending, then source nodes in topology order — which is
        # exactly ascending site index.  New heads popped from their
        # source queues join the wanting sites (popping has no allocation
        # side effects, so doing it before the resolve preserves order).
        state = self._state
        ready = self._ready_inj
        if ready:
            W = self._W
            fpid = self._fpid
            fseq = self._fseq
            pref = self._pref_out
            queues = self._queues
            pl_dst = self._pl_dst
            cand_of_site = self._cand_of_site
            wbase = self._wbase
            fast = self._fast_target
            for n in ready:
                queue = queues[n]
                ip = queue.popleft()
                if not queue:
                    del queues[n]
                site = W + n
                fpid[site] = ip
                fseq[site] = 0
                state[site] = _WANT
                if fast:
                    single = cand_of_site[site].get(pl_dst[ip])
                    pref[site] = (
                        single[0] + wbase[site]
                        if single is not None and len(single) == 1
                        else -2
                    )
                else:
                    pref[site] = -2
            ready.clear()

        pending = (state == _WANT).nonzero()[0]
        if pending.size == 0:
            return
        prefs = self._pref_out[pending]
        cold = (prefs < 0).nonzero()[0]
        if cold.size:
            # Warm the cold sites' memos first — a pure routing lookup
            # with no allocation side effects, so phase order is
            # preserved.  Under deterministic routing every candidate
            # set is a singleton, and one cold uniform-traffic
            # destination must not force the whole phase onto the
            # serial loop.  The first head with several candidates, or
            # a dead-end, does: the serial loop warms the rest itself.
            sites = pending[cold]
            for site, ip in zip(sites.tolist(), self._fpid[sites].tolist()):
                try:
                    several = len(self._outs_of(site, ip)) != 1
                except RoutingError:
                    several = True
                if several:
                    self._resolve_serial(pending)
                    return
            prefs = self._pref_out[pending]
        self._resolve_single(pending, prefs)

    def _resolve_single(self, pending: np.ndarray, prefs: np.ndarray) -> None:
        """Batched allocation when every pending site has one known candidate.

        Serially, the first site (ascending) wanting a given output wins
        it if it is free; everyone else wanting that output fails.  No
        output is released during the phase, so grouping by output and
        taking the first arrival per group reproduces the serial outcome
        exactly — the common case for dimension-order routing, where the
        Python attempt loop would dominate the whole cycle.
        """
        owner = self._owner
        order = prefs.argsort(kind="stable")
        po = prefs[order]
        first = np.empty(po.size, dtype=bool)
        first[0] = True
        np.not_equal(po[1:], po[:-1], out=first[1:])
        win = first & (owner[po] < 0)
        ws = pending[order[win]]
        wouts = po[win]
        owner[wouts] = self._fpid[ws]
        self._route_out[ws] = wouts
        self._state[ws] = _GO
        if np.count_nonzero(win) < win.size:
            lose = ~win
            ls = pending[order[lose]]
            self._state[ls] = _ASLEEP
            consumers = self._consumers
            for s, o in zip(ls.tolist(), po[lose].tolist()):
                consumers[o].add(s)

    def _resolve_serial(self, pending: np.ndarray) -> None:
        """Reference-order attempt loop (some head has several outputs).

        Every pending site leaves the loop routed or asleep, or hits a
        routing dead-end.  A dead-end stops its replica on the first one
        in that replica's reference order, as a solo run raises it; the
        other replicas allocate on.
        """
        owner = self._owner
        pl_dst = self._pl_dst
        fast = self._fast_target
        cand_of_site = self._cand_of_site
        wbase = self._wbase
        pref = self._pref_out
        route_out = self._route_out
        state = self._state
        failed: dict[int, RoutingError] = {}
        for site, ip in zip(pending.tolist(), self._fpid[pending].tolist()):
            outs = cand_of_site[site].get(pl_dst[ip], False) if fast else False
            if outs is False or outs is None:
                try:
                    out = self._alloc(site, ip)
                except RoutingError as exc:
                    failed.setdefault(int(self._site_rep[site]), exc)
                    continue
            else:
                base = wbase[site]
                if len(outs) == 1:
                    pref[site] = outs[0] + base
                out = -1
                for o in outs:
                    if owner[o + base] < 0:
                        out = o + base
                        owner[out] = ip
                        break
                if out < 0:
                    self._sleep(site, outs, base)
            if out >= 0:
                route_out[site] = out
                state[site] = _GO
        for r, exc in failed.items():
            self._fail(r, exc)

    def _sleep(self, site: int, outs, base: int) -> None:
        """Park a blocked site until one of its candidate outputs frees."""
        self._state[site] = _ASLEEP
        consumers = self._consumers
        for o in outs:
            consumers[o + base].add(site)

    def _in_site(self, in_key: int) -> tuple[Coord, object]:
        """(router, in_channel) of an input site (wire, or injection row)."""
        if in_key < self._W:
            wire = self.wires[in_key % self._W0]
            return wire.dst, wire.channel
        return self._nodes[(in_key - self._W) % self._N0], None

    def _build_outs(self, router, target, in_channel):
        """Instantiated output wire indices, or None on a raw dead-end."""
        candidates = self.routing.candidates(router, target, in_channel)
        if not candidates:
            return None
        lookup = self._wire_lookup
        return tuple(
            idx
            for nxt, ch in candidates
            if (idx := lookup.get((router, nxt, ch))) is not None
        )

    def _outs_of(self, in_key: int, ip: int):
        """Memoised candidate outputs of a site's head — lookup only.

        Fills the shared routing memos exactly like the reference's
        routing query, records a singleton in ``_pref_out``, and raises
        :class:`RoutingError` on a routing dead-end, exactly like the
        reference (the vector backend has no fault/recovery path to
        absorb it).  No allocation side effects.  The outputs are local
        to the site's replica.
        """
        if self._fast_target:
            tkey = self._pl_dst[ip]
        else:
            router, _ = self._in_site(in_key)
            tkey = self.routing.target_of(self._ipackets[ip], router)
        group = self._memo_of[in_key]
        memo = self._cand_by_in[group]
        outs = memo.get(tkey, False)
        if outs is False:
            router, in_channel = self._in_site(in_key)
            target = self._nodes[tkey] if type(tkey) is int else tkey
            sig = self.routing.route_signature(router, target)
            if sig is not None:
                sig_memo = self._sig_by_in[group]
                outs = sig_memo.get(sig, False)
                if outs is False:
                    outs = self._build_outs(router, target, in_channel)
                    sig_memo[sig] = outs
            else:
                outs = self._build_outs(router, target, in_channel)
            memo[tkey] = outs
        if outs is None:
            router, in_channel = self._in_site(in_key)
            raise RoutingError(
                f"{self.routing.name}: dead-end at {router} for"
                f" {self._ipackets[ip]} arriving on {in_channel}"
            )
        if len(outs) == 1:
            self._pref_out[in_key] = outs[0] + self._wbase[in_key]
        return outs

    def _alloc(self, in_key: int, ip: int) -> int:
        """One reference ``_try_allocate``: the chosen wire index, or -1."""
        outs = self._outs_of(in_key, ip)
        base = self._wbase[in_key]
        owner = self._owner
        # selection == first_candidate: the first free wire in candidate
        # order is exactly what the reference picks.
        for out in outs:
            if owner[out + base] < 0:
                owner[out + base] = ip
                return out + base
        self._sleep(in_key, outs, base)
        return -1  # blocked; a candidate release wakes the site

    # -- phase 3: switch allocation and traversal --------------------------------------

    def _traversal_phase(self) -> np.ndarray:
        # Requests over all sites at once; nonzero yields wires ascending
        # then source nodes in topology order — exactly the reference's
        # gather order.
        req = self._state == _GO
        if self._farr is not None:
            # Tautological at delay 0: buffered fronts arrived in the past.
            req &= self._farr <= self.cycle - 1 - self.pipeline_delay
        srcs = req.nonzero()[0]
        if srcs.size == 0:
            return srcs
        outs = self._route_out[srcs]

        # Credit gate against the phase-start space snapshot (a wire is
        # full when its next free slot holds a flit).  Winners only ever
        # consume space on their own link's wires, and each link admits
        # one winner, so the snapshot filter is exactly the reference's
        # sequential space bookkeeping.
        full = self._buf_state[self._tpos[outs]] != _IDLE
        n_full = np.count_nonzero(full)
        if n_full:
            if n_full == full.size:
                return _NO_SITES
            open_slots = ~full
            srcs = srcs[open_slots]
            outs = outs[open_slots]

        if self._shared_links:
            # Batched per-link round robin: stable sort groups each link's
            # requests in gather order; winner = requests[cycle % count].
            links = self._wlink[outs]
            order = links.argsort(kind="stable")
            sorted_links = links[order]
            boundary = np.empty(sorted_links.size, dtype=bool)
            boundary[0] = True
            np.not_equal(sorted_links[1:], sorted_links[:-1], out=boundary[1:])
            starts = boundary.nonzero()[0]
            if starts.size < boundary.size:  # some link has several requests
                counts = np.empty_like(starts)
                np.subtract(starts[1:], starts[:-1], out=counts[:-1])
                counts[-1] = sorted_links.size - starts[-1]
                winners = order[starts + self.cycle % counts]
                # Execution order is irrelevant (sources and outputs are
                # unique, same-wire pop+push commutes); ascending sources
                # let the wire / injection split below be prefix slices
                # instead of mask copies.
                winners.sort()
                srcs = srcs[winners]
                outs = outs[winners]
        self._execute_moves(srcs, outs)
        return srcs

    def _execute_moves(self, srcs, outs) -> None:
        """Apply all winning moves as array scatters.

        Sources and outputs are each unique within a cycle, and the only
        same-wire interaction (pop + push on one wire) commutes, so the
        pops-then-pushes batch order reproduces the reference's
        link-by-link sequential execution exactly.
        """
        cyc = self.cycle
        W = self._W
        fpid = self._fpid
        fseq = self._fseq

        # Departing flits, gathered before any mutation.  ``srcs`` is
        # ascending, so wires are the prefix and injections the suffix.
        all_ip = fpid[srcs]
        all_seq = fseq[srcs]
        all_tail = all_seq == self._p_last[all_ip]
        k = int(srcs.searchsorted(W))

        # Pops from wire buffers.
        if k:
            self._pop_fronts(srcs[:k])

        # Pops from injecting source nodes.
        if k < srcs.size:
            fseq[srcs[k:]] += 1
            packets = self._ipackets
            for ip, seq in zip(all_ip[k:].tolist(), all_seq[k:].tolist()):
                if seq == 0:
                    packets[ip].entered = cyc

        # A tail leaving a finished injection row empties it (re-arming
        # its source queue), and an atomic source wire releases.
        tails = np.count_nonzero(all_tail)
        if tails:
            tsite = srcs[all_tail]
            kt = int(tsite.searchsorted(W))
            if kt < tsite.size:
                done = tsite[kt:]
                self._state[done] = _IDLE
                queues = self._queues
                ready = self._ready_inj
                for site in done.tolist():
                    if site - W in queues:
                        ready.add(site - W)
            if self.atomic_buffers and kt:
                self._release(tsite[:kt])

        # Pushes into the output wires (unique: one winner per link).  A
        # flit's state at the front of its new wire: home if the wire ends
        # at its destination, else a head wants a route and a body flit
        # follows its head's.
        slot = self._tpos[outs]
        self._buf_pid[slot] = all_ip
        self._buf_seq[slot] = all_seq
        if self._buf_arr is not None:
            self._buf_arr[slot] = cyc
        code = (all_seq == 0) + _GO
        code[self._p_dst[all_ip] == self._wdst[outs]] = _HOME
        self._buf_state[slot] = code
        self._tpos[outs] = self._next_slot[slot]
        was_empty = self._state[outs] == _IDLE
        fresh = np.count_nonzero(was_empty)
        if fresh:
            f_out, f_ip, f_seq = outs, all_ip, all_seq
            if fresh < outs.size:
                f_out, f_ip, f_seq, code = (
                    outs[was_empty], all_ip[was_empty], all_seq[was_empty], code[was_empty]
                )
            fpid[f_out] = f_ip
            fseq[f_out] = f_seq
            if self._farr is not None:
                self._farr[f_out] = cyc
            self._state[f_out] = code
            self._expose_heads(f_out, f_ip, code == _WANT)
        if not self.atomic_buffers and tails:
            # EbDa-relaxed: re-allocatable once the tail is buffered.
            self._release(outs[all_tail])

    # -- driving loop ----------------------------------------------------------------

    def _drive(
        self,
        limits: Sequence[int],
        traffics: Sequence,
        drains: Sequence[bool] = (),
        drain_limit: int = 100_000,
    ) -> None:
        """Step the running replicas until each stops.

        A replica steps with its traffic until its cycle limit.  Then, if
        ``drains[r]`` is set, it keeps stepping with no new traffic while
        it is not idle, for at most ``drain_limit`` cycles.  It stops
        earlier when its watchdog fires or it raises — the stopping rules
        of a solo :meth:`run`.  A replica that stops while others still
        step is parked; the last one is left as it is, so a lone
        simulator can keep stepping afterwards.
        """
        stats = self._stats
        errors = self._errors
        #: Drain cycles stepped so far, per replica that drains.
        extra = {r: 0 for r, drain in enumerate(drains) if drain}

        def steps_on(r: int) -> bool:
            if errors[r] is not None or stats[r].deadlocked:
                return False
            if self.cycle < limits[r]:
                return True
            return r in extra and extra[r] < drain_limit and self._network_active(r)

        live = [r for r in self._running if steps_on(r)]
        while live:
            if len(live) < len(self._running):
                for r in [r for r in self._running if r not in live]:
                    self._park(r)
            cycle = self.cycle
            for r in live:
                if cycle >= limits[r]:
                    extra[r] += 1
                    continue
                traffic = traffics[r]
                if not traffic:
                    continue
                try:
                    for packet in traffic.packets_for_cycle(cycle):
                        self._offer(r, packet)
                except (RoutingError, SimulationError) as exc:
                    self._fail(r, exc)
            if not self._running:  # every live replica failed on its traffic
                break
            self._advance()
            cycle = self.cycle
            for r in live:
                if errors[r] is not None or stats[r].deadlocked or cycle >= limits[r]:
                    live = [r for r in live if steps_on(r)]
                    break

    def run(
        self,
        cycles: int,
        traffic=None,
        *,
        drain: bool = False,
        drain_limit: int = 100_000,
        raise_on_deadlock: bool = False,
    ) -> SimStats:
        """Run ``cycles`` cycles (plus optional drain) and return the stats.

        Mirrors :meth:`NetworkSimulator.run
        <repro.sim.network.NetworkSimulator.run>` except that
        ``raise_on_deadlock`` (which needs the object-graph wait-for
        witness) is unsupported.
        """
        if raise_on_deadlock:
            raise unsupported(
                resolve_backend("vector"),
                "raise_on_deadlock=True (the wait-for witness needs the"
                " reference object graph)"
            )
        self._drive([self.cycle + cycles], [traffic], [drain], drain_limit)
        if self._errors[0] is not None:
            raise self._errors[0]
        return self.stats


class _Batch(VectorSimulator):
    """A kernel of ``replicas`` runs of one network (see :func:`run_batch`)."""

    def __init__(self, replicas: int, *args, **kwargs) -> None:
        self._replicas = replicas
        super().__init__(*args, **kwargs)


def run_batch(
    topology: Topology,
    routing: RoutingFunction,
    rule: ClassRule,
    runs: Sequence[tuple[int, object]],
    *,
    drain: Sequence[bool] = (),
    **sim_kwargs,
) -> list[SimStats | Exception]:
    """Run several traffics on one network in one kernel step loop.

    ``runs`` is a sequence of ``(cycles, traffic)``; ``drain`` flags, per
    run, whether it drains after its cycles (runs past its end do not);
    ``sim_kwargs`` are :class:`VectorSimulator`'s keyword options, shared
    by every run.  Returns, per run and in order, its
    :class:`~repro.sim.stats.SimStats` — bit-identical to a solo
    ``VectorSimulator(...).run(cycles, traffic, drain=...)`` — or the
    :class:`~repro.errors.RoutingError` /
    :class:`~repro.errors.SimulationError` that run raised.  A run stops
    at its cycle limit (or, draining, once idle or at the solo drain
    limit) or when its watchdog fires.  Configurations outside the
    kernel's scope raise :class:`~repro.errors.ConfigError` before any
    run starts.
    """
    runs = list(runs)
    if not runs:
        return []
    kernel = _Batch(len(runs), topology, routing, rule, **sim_kwargs)
    kernel._drive([cycles for cycles, _ in runs], [traffic for _, traffic in runs], drain)
    return [
        stats if error is None else error
        for stats, error in zip(kernel._stats, kernel._errors)
    ]
