"""Seeded design generation: valid EbDa designs and deliberate mutants.

Every trial draws from ``random.Random(f"{seed}:{trial}")`` — a private
stream per trial index — so any single trial replays exactly without
re-generating its predecessors, and a worker pool produces the same
designs regardless of scheduling.

Valid designs come from the library's own constructive machinery (the
fuzzer cross-checks it, so generation must not hand-roll designs):

* meshes — Algorithm 1 over a random VC budget
  (:func:`~repro.core.partitioning.partition_vc_budget`);
* tori — the dateline scheme
  (:func:`~repro.core.torus_designs.dateline_design`) with the ``dateline``
  class rule;
* dragonflies — the minimal L1 -> G -> L2 engine over the two-class
  sequence, or Up*/Down* over a dragonfly with one global link dropped
  (the group-link-drop topology mutation, still deadlock-free);
* fat-trees — Up*/Down* with sign-derived levels;
* irregular meshes — Algorithm 1 over a mesh minus 1-2 random links that
  keep it connected, routed with progressive directions and an escape
  fallback; when the failures leave some pair unroutable under the
  design's turns, the trial is demoted to ``mutant:link-failures`` so the
  unroutable verdict stays soft.

Mutants start from a valid design and apply one :class:`Mutation` (see
:mod:`repro.fuzz.design` for the catalogue) or swap in a deliberately
broken engine: ``dragonfly-single-vc`` (no VC escape across groups, the
classic credit-loop deadlock) and ``greedy-up-down`` (Up*/Down* tags
without the down-then-up prohibition).

The default ``families=("mesh", "torus")`` reproduces the pre-family
trial stream byte-for-byte; any other selection draws the family first
from its own stream.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.channel import NEG, POS, Channel
from repro.core.partitioning import partition_vc_budget
from repro.core.sequence import PartitionSequence
from repro.core.torus_designs import dateline_design
from repro.errors import TopologyError
from repro.fuzz.design import FAMILIES, FuzzDesign, Mutation
from repro.topology.dragonfly import GLOBAL_DIM, Dragonfly
from repro.topology.mesh import Mesh

__all__ = ["DEFAULT_FAMILIES", "DesignGenerator"]

#: The pre-family default: preserves the original trial stream exactly.
DEFAULT_FAMILIES = ("mesh", "torus")

#: Probability a base design of the default family selection targets a
#: torus (dateline scheme) instead of a mesh (Algorithm 1).
TORUS_FRACTION = 0.3


class DesignGenerator:
    """Deterministic sampler over the fuzz design space.

    Parameters
    ----------
    seed:
        Root seed; combined with the trial index per design.
    mutant_fraction:
        Probability a trial yields a deliberately invalid mutant instead
        of a generator-certified valid design.
    families:
        Topology families to draw from (:data:`repro.fuzz.design.FAMILIES`
        members).  The default keeps the legacy mesh/torus stream.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        mutant_fraction: float = 0.4,
        families: tuple[str, ...] = DEFAULT_FAMILIES,
    ) -> None:
        self.seed = seed
        self.mutant_fraction = mutant_fraction
        families = tuple(families)
        if not families:
            raise ValueError("at least one topology family is required")
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown topology families {unknown}; known: {list(FAMILIES)}"
            )
        self.families = families

    # -- public API --------------------------------------------------------

    def design_for(self, trial: int) -> FuzzDesign:
        """The design of one trial (independent of all other trials)."""
        rng = random.Random(f"{self.seed}:{trial}")
        if self.families == DEFAULT_FAMILIES:
            # Legacy stream: torus-vs-mesh decided by TORUS_FRACTION inside
            # _valid, byte-identical to the pre-family generator.
            base = self._valid(rng)
            if rng.random() < self.mutant_fraction:
                return self._mutate(base, rng)
            return base
        family = self.families[rng.randrange(len(self.families))]
        if family == "dragonfly":
            return self._dragonfly_trial(rng)
        if family == "fattree":
            return self._fattree_trial(rng)
        if family == "irregular":
            return self._irregular_trial(rng)
        base = self._valid_torus(rng) if family == "torus" else self._valid_mesh(rng)
        if rng.random() < self.mutant_fraction:
            return self._mutate(base, rng)
        return base

    def designs(self, n: int, start: int = 0) -> list[FuzzDesign]:
        """Designs for trials ``start .. start + n - 1``."""
        return [self.design_for(i) for i in range(start, start + n)]

    # -- valid designs -----------------------------------------------------

    def _valid(self, rng: random.Random) -> FuzzDesign:
        if rng.random() < TORUS_FRACTION:
            return self._valid_torus(rng)
        return self._valid_mesh(rng)

    def _valid_torus(self, rng: random.Random) -> FuzzDesign:
        n_dims = rng.choice((1, 2))
        shape = tuple(rng.randint(3, 4) for _ in range(n_dims))
        return FuzzDesign(
            topology_kind="torus",
            shape=shape,
            sequence=dateline_design(n_dims).arrow_notation(),
            rule="dateline",
            label="valid:torus-dateline",
        )

    def _valid_mesh(self, rng: random.Random) -> FuzzDesign:
        n_dims = rng.choice((2, 2, 3))
        max_radix = 4 if n_dims == 2 else 3
        shape = tuple(rng.randint(2, max_radix) for _ in range(n_dims))
        budget = [rng.choice((1, 1, 2)) for _ in range(n_dims)]
        return FuzzDesign(
            topology_kind="mesh",
            shape=shape,
            sequence=partition_vc_budget(budget).arrow_notation(),
            rule="none",
            label="valid:mesh-alg1",
        )

    # -- family trials -----------------------------------------------------

    def _dragonfly_trial(self, rng: random.Random) -> FuzzDesign:
        groups = rng.randint(3, 4)
        if rng.random() >= self.mutant_fraction:
            if rng.random() < 0.3:
                # Group-link drop: still valid — Up*/Down* over the
                # degraded dragonfly is deadlock-free by construction.
                return self._dragonfly_link_drop(groups, rng)
            return FuzzDesign(
                topology_kind="dragonfly",
                shape=(groups,),
                sequence="X+@l -> Y+@g -> X2+@l",
                rule="dragonfly",
                engine="dragonfly",
                label="valid:dragonfly-minimal",
            )
        # The classic dragonfly deadlock: one local VC, so cross-group
        # l -> g -> l chains close credit loops.
        return FuzzDesign(
            topology_kind="dragonfly",
            shape=(groups,),
            sequence="X+@l -> Y+@g",
            rule="dragonfly",
            engine="dragonfly-single-vc",
            mutations=(Mutation("backward-transition", src=1, dst=0),),
            label="mutant:single-vc",
        )

    def _dragonfly_link_drop(self, groups: int, rng: random.Random) -> FuzzDesign:
        topo = Dragonfly(groups)
        pairs = sorted(
            {
                tuple(sorted((l.src, l.dst)))
                for l in topo.links
                if l.dim == GLOBAL_DIM
            }
        )
        for _ in range(8):
            pair = pairs[rng.randrange(len(pairs))]
            design = FuzzDesign(
                topology_kind="dragonfly",
                shape=(groups,),
                sequence="X+@u Y+@u -> X+@d Y+@d",
                rule="updown-bfs",
                engine="up-down",
                failed_links=(pair,),
                label="valid:dragonfly-link-drop",
            )
            try:
                design.topology()  # rejects a disconnecting drop
            except TopologyError:
                continue
            return design
        return FuzzDesign(
            topology_kind="dragonfly",
            shape=(groups,),
            sequence="X+@l -> Y+@g -> X2+@l",
            rule="dragonfly",
            engine="dragonfly",
            label="valid:dragonfly-minimal",
        )

    def _fattree_trial(self, rng: random.Random) -> FuzzDesign:
        leaves = rng.randint(2, 3)
        spines = rng.randint(1, 2)
        hosts = rng.randint(1, 2)
        if rng.random() >= self.mutant_fraction:
            return FuzzDesign(
                topology_kind="fattree",
                shape=(leaves, spines, hosts),
                sequence="X+@u -> X-@d",
                rule="updown-signs",
                engine="up-down",
                label="valid:fattree-updown",
            )
        # Up/down violation: the greedy engine takes up-links after
        # down-links.  Two spines guarantee a node-simple leaf/spine cycle.
        return FuzzDesign(
            topology_kind="fattree",
            shape=(leaves, max(2, spines), hosts),
            sequence="X+@u -> X-@d",
            rule="updown-signs",
            engine="greedy-up-down",
            mutations=(Mutation("backward-transition", src=1, dst=0),),
            label="mutant:greedy-up-down",
        )

    def _irregular_trial(self, rng: random.Random) -> FuzzDesign:
        shape = (rng.randint(3, 4), rng.randint(3, 4))
        budget = [rng.choice((1, 1, 2)) for _ in range(2)]
        sequence = partition_vc_budget(budget).arrow_notation()
        mesh = Mesh(*shape)
        pairs = sorted({tuple(sorted((l.src, l.dst))) for l in mesh.links})
        n_fail = rng.choice((1, 1, 2))
        design = None
        for _ in range(8):
            chosen = tuple(rng.sample(pairs, n_fail))
            candidate = FuzzDesign(
                topology_kind="irregular",
                shape=shape,
                sequence=sequence,
                failed_links=chosen,
                label="valid:irregular-alg1",
            )
            try:
                candidate.topology()  # rejects disconnecting failures
            except TopologyError:
                continue
            design = candidate
            break
        if design is None:  # every draw disconnected; keep the mesh intact
            design = FuzzDesign(
                topology_kind="irregular",
                shape=shape,
                sequence=sequence,
                label="valid:irregular-alg1",
            )
        if rng.random() < self.mutant_fraction:
            return self._mutate(design, rng)
        if self._irregular_dead_pairs(design):
            # The failures strand some pair under the design's turns: a
            # genuine topology mutation, so the unroutable verdict is soft.
            return replace(design, label="mutant:link-failures")
        return design

    @staticmethod
    def _irregular_dead_pairs(design: FuzzDesign) -> bool:
        from repro.routing.table import TurnTableRouting

        seq, turnset = design.compile()
        routing = TurnTableRouting(
            design.topology(),
            seq,
            design.class_rule(),
            turnset=turnset,
            validate=False,
            directions="progressive",
            fallback="escape",
        )
        return bool(routing.dead_pairs())

    # -- mutants -----------------------------------------------------------

    def _mutate(self, base: FuzzDesign, rng: random.Random) -> FuzzDesign:
        seq = base.base_sequence()
        makers = {
            "backward-transition": self._backward_transition,
            "add-turn": self._add_turn,
            "drop-channel": self._drop_channel,
        }
        if len(base.shape) >= 2:
            makers["duplicate-pair"] = self._duplicate_pair
        for kind in rng.sample(sorted(makers), len(makers)):
            mutation = makers[kind](seq, base, rng)
            if mutation is not None:
                return FuzzDesign(
                    topology_kind=base.topology_kind,
                    shape=base.shape,
                    sequence=base.sequence,
                    rule=base.rule,
                    mutations=(mutation,),
                    label=f"mutant:{kind}",
                    engine=base.engine,
                    failed_links=base.failed_links,
                )
        # Unreachable for the bases above, but keep the generator total.
        return base

    def _duplicate_pair(
        self, seq: PartitionSequence, base: FuzzDesign, rng: random.Random
    ) -> Mutation | None:
        """Graft a fresh complete pair into a partition that has one."""
        n_dims = len(base.shape)
        candidates = [
            (i, p) for i, p in enumerate(seq) if p.complete_pair_dims
        ]
        if not candidates:
            return None
        idx, part = rng.choice(candidates)
        pair_dim = sorted(part.complete_pair_dims)[0]
        other_dims = [d for d in range(n_dims) if d != pair_dim]
        if not other_dims:
            return None
        dim = rng.choice(other_dims)
        fresh_vc = 1 + max(
            (c.vc for c in seq.all_channels if c.dim == dim), default=0
        )
        # Dateline designs only instantiate tagged channels; graft onto
        # the regular links so the mutant pair carries concrete wires.
        cls = "r" if base.rule == "dateline" else ""
        specs = " ".join(
            str(Channel(dim, sign, fresh_vc, cls)) for sign in (POS, NEG)
        )
        return Mutation("duplicate-pair", partition=idx, channels=specs)

    def _backward_transition(
        self, seq: PartitionSequence, base: FuzzDesign, rng: random.Random
    ) -> Mutation | None:
        """Allow every turn from a later partition back into an earlier one."""
        if len(seq) < 2:
            return None
        src = rng.randrange(1, len(seq))
        dst = rng.randrange(0, src)
        return Mutation("backward-transition", src=src, dst=dst)

    def _add_turn(
        self, seq: PartitionSequence, base: FuzzDesign, rng: random.Random
    ) -> Mutation | None:
        """Add one descending U-/I-turn (breaks the Theorem 2 numbering)."""
        options = []
        for part in seq:
            for dim in sorted(part.complete_pair_dims):
                chans = part.channels_in_dim(dim)
                if len(chans) >= 2:
                    options.append(f"{chans[-1]}->{chans[0]}")
        if not options:
            return None
        return Mutation("add-turn", turn=rng.choice(options))

    def _drop_channel(
        self, seq: PartitionSequence, base: FuzzDesign, rng: random.Random
    ) -> Mutation | None:
        """Remove one channel (escape/connectivity probe)."""
        idx = rng.randrange(len(seq))
        part = seq[idx]
        ch = part.channels[rng.randrange(len(part.channels))]
        return Mutation("drop-channel", partition=idx, channels=str(ch))
