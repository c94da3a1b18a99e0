"""The fuzzing campaign driver: fan out trials, shrink and persist findings.

:func:`run_fuzz` generates seeded designs, runs each through the
:class:`~repro.fuzz.oracle.DifferentialOracle` (fanning batches out
through :meth:`~repro.sim.parallel.SweepEngine.run_campaign`), and collects
a :class:`FuzzReport`.  Any trial whose verdicts disagree is delta-debugged
down to a minimal witness that *still reproduces the same
disagreement* and — when a corpus directory is given — persisted with its
generator seed and trial index so the exact design replays forever.

:func:`replay_corpus` re-runs every saved witness; :func:`self_check`
injects a synthetic disagreement (a mutant falsely labeled valid) and
proves the whole detect → shrink → persist pipeline catches it and
minimises it to within the 2-ary 2-mesh witness bound.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry, save_entry
from repro.fuzz.design import FuzzDesign, Mutation
from repro.fuzz.generator import DEFAULT_FAMILIES, DesignGenerator
from repro.fuzz.oracle import DifferentialOracle, SimProfile, TrialResult
from repro.fuzz.shrink import ShrinkResult, shrink, within_witness_bound
from repro.obs.ledger import record_run
from repro.obs.trace import current_tracer
from repro.sim.parallel import SweepEngine
from repro.store import write_jsonl

__all__ = [
    "Disagreement",
    "FuzzReport",
    "replay_corpus",
    "run_fuzz",
    "self_check",
]


def _run_trial(payload: tuple[dict, SimProfile]) -> TrialResult:
    """One differential trial (module-level so worker pools can pickle it)."""
    design_dict, profile = payload
    oracle = DifferentialOracle(profile)
    return oracle.run(FuzzDesign.from_dict(design_dict))


@dataclass
class Disagreement:
    """A hard oracle disagreement, with its minimised witness."""

    trial: int
    classification: str
    original: FuzzDesign
    shrunk: ShrinkResult
    error: str | None = None
    corpus_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "classification": self.classification,
            "original": self.original.to_dict(),
            "shrunk": self.shrunk.to_dict(),
            "error": self.error,
            "corpus_path": self.corpus_path,
        }


@dataclass
class FuzzReport:
    """Everything one fuzzing campaign produced."""

    seed: int
    runs_requested: int
    runs_completed: int = 0
    elapsed_s: float = 0.0
    counts: dict = field(default_factory=dict)
    disagreements: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    #: The wall-clock budget cut the campaign before ``runs_requested``.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        """No hard disagreement surfaced (a budget cut is not a failure)."""
        return not self.disagreements

    def summary(self) -> str:
        status = "interrupted" if self.interrupted else "complete"
        parts = [
            f"fuzz seed={self.seed}:"
            f" {self.runs_completed}/{self.runs_requested} trials [{status}]"
            f" in {self.elapsed_s:.1f}s"
        ]
        for cls in sorted(self.counts):
            parts.append(f"  {cls}: {self.counts[cls]}")
        if self.disagreements:
            parts.append(f"  HARD DISAGREEMENTS: {len(self.disagreements)}")
            for d in self.disagreements:
                parts.append(
                    f"    trial {d.trial} [{d.classification}]"
                    f" -> {d.shrunk.design.describe()}"
                )
        else:
            parts.append("  oracles agree on every trial")
        return "\n".join(parts)

    def to_jsonl(self, path: str | Path) -> Path:
        """One JSON line per trial, then one ``report`` line with totals."""
        path = Path(path)
        report = {
            "kind": "report",
            "seed": self.seed,
            "runs_requested": self.runs_requested,
            "runs_completed": self.runs_completed,
            "interrupted": self.interrupted,
            "elapsed_s": self.elapsed_s,
            "counts": self.counts,
            "ok": self.ok,
            "disagreements": [d.to_dict() for d in self.disagreements],
        }
        trials = (
            {"kind": "trial", "trial": i, **trial.to_dict()}
            for i, trial in enumerate(self.trials)
        )
        write_jsonl(path, [*trials, report])
        return path


def run_fuzz(
    runs: int = 200,
    seed: int = 0,
    *,
    budget_s: float | None = None,
    corpus_dir: str | Path | None = None,
    engine: SweepEngine | None = None,
    profile: SimProfile | None = None,
    generator: DesignGenerator | None = None,
    families: tuple[str, ...] | None = None,
    progress=None,
    heartbeat=None,
) -> FuzzReport:
    """Run a differential fuzzing campaign.

    Trials are generated and judged in batches by
    :meth:`~repro.sim.parallel.SweepEngine.run_campaign` on ``engine`` (a
    serial :class:`~repro.sim.parallel.SweepEngine` by default).
    ``budget_s`` bounds wall-clock time, checked *after* each batch, so at
    least one batch always runs and a campaign is cut short cleanly rather
    than mid-trial; a cut campaign's report, summary and last heartbeat
    read ``interrupted``, and so does its ledger outcome unless a
    disagreement was found.  Each hard disagreement is shrunk (preserving its exact
    classification) and, with ``corpus_dir`` set, saved for replay.

    ``families`` selects the topology families the generator draws from
    (:data:`repro.fuzz.design.FAMILIES` members); it is a convenience for
    ``generator=DesignGenerator(seed, families=...)`` and is ignored when
    an explicit ``generator`` is passed.

    ``progress`` is an optional ``callable(str)`` invoked with one status
    line per completed batch (trials done, disagreements so far, elapsed);
    ``heartbeat`` is an optional
    :class:`~repro.obs.heartbeat.HeartbeatWriter` beaten per batch so
    ``repro top`` can watch the campaign live.  Both are observational
    only — they never change which trials run or how they are judged.
    """
    profile = profile or SimProfile()
    if generator is None:
        generator = DesignGenerator(
            seed, families=tuple(families) if families else DEFAULT_FAMILIES
        )
    engine = engine if engine is not None else SweepEngine()
    started = time.monotonic()
    report = FuzzReport(seed=seed, runs_requested=runs)
    tracer = current_tracer()

    def absorb(trials: list[int], results: list[TrialResult]) -> None:
        for trial, result in zip(trials, results):
            report.trials.append(result)
            if result.disagreement:
                with tracer.span("fuzz.shrink", trial=trial):
                    report.disagreements.append(
                        _handle_disagreement(trial, result, profile, corpus_dir, seed)
                    )

    report.interrupted = engine.run_campaign(
        "fuzz",
        _run_trial,
        range(runs),
        lambda trial: (generator.design_for(trial).to_dict(), profile),
        absorb,
        total=runs,
        status=lambda: {"disagreements": len(report.disagreements)},
        budget_s=budget_s,
        progress=progress,
        heartbeat=heartbeat,
        runs=runs,
        seed=seed,
        jobs=engine.jobs,
    )
    report.runs_completed = len(report.trials)
    report.counts = dict(Counter(t.classification for t in report.trials))
    report.elapsed_s = time.monotonic() - started
    spec = f"runs={runs},seed={seed}"
    gen_families = tuple(getattr(generator, "families", ()) or ())
    if gen_families and gen_families != DEFAULT_FAMILIES:
        spec += f",families={'+'.join(gen_families)}"
    record_run(
        "fuzz",
        spec=spec,
        seed=seed,
        outcome=(
            "disagreement"
            if not report.ok
            else ("interrupted" if report.interrupted else "ok")
        ),
        payload={
            "runs_completed": report.runs_completed,
            "counts": report.counts,
            "disagreements": [
                {"trial": d.trial, "classification": d.classification}
                for d in report.disagreements
            ],
        },
        wall_s=report.elapsed_s,
    )
    return report


def _same_classification(oracle: DifferentialOracle, target: str):
    """The shrink predicate: does a candidate still classify as ``target``?"""

    def same(candidate: FuzzDesign) -> bool:
        return oracle.run(candidate).classification == target

    return same


def _handle_disagreement(
    trial: int,
    result: TrialResult,
    profile: SimProfile,
    corpus_dir: str | Path | None,
    seed: int,
) -> Disagreement:
    """Shrink a disagreeing design and persist the witness."""
    target = result.classification
    oracle = DifferentialOracle(profile)
    shrunk = shrink(result.design, _same_classification(oracle, target))
    disagreement = Disagreement(
        trial=trial,
        classification=target,
        original=result.design,
        shrunk=shrunk,
        error=result.error,
    )
    if corpus_dir is not None:
        entry = CorpusEntry(
            design=shrunk.design,
            expect=target,
            note=f"minimised from fuzz trial {trial} ({result.design.describe()})",
            origin={"seed": seed, "trial": trial, "found-by": "run_fuzz"},
        )
        disagreement.corpus_path = str(save_entry(entry, corpus_dir))
    return disagreement


def replay_corpus(
    corpus_dir: str | Path,
    *,
    profile: SimProfile | None = None,
) -> list[tuple[CorpusEntry, bool, TrialResult]]:
    """Re-judge every saved witness; (entry, still_detected, trial) each."""
    oracle = DifferentialOracle(profile or SimProfile())
    out = []
    for entry in load_corpus(corpus_dir):
        detected, trial = replay_entry(entry, oracle)
        out.append((entry, detected, trial))
    return out


def self_check(profile: SimProfile | None = None) -> tuple[bool, str]:
    """Prove the detect → shrink pipeline works, end to end.

    Injects a synthetic disagreement — a Theorem-1-violating mutant
    *falsely labeled valid*, which the oracle must classify as the hard
    ``valid-design-rejected`` — then shrinks it and checks the witness
    lands within the 2-ary 2-mesh bound.  A fuzzer whose own alarm wiring
    is broken would pass every campaign silently; this catches that.
    """
    oracle = DifferentialOracle(profile or SimProfile())
    injected = FuzzDesign(
        topology_kind="mesh",
        shape=(4, 4),
        sequence="X+ X- Y+ -> Y-",
        rule="none",
        mutations=(
            Mutation("duplicate-pair", partition=0, channels="Y2+ Y2-"),
        ),
        label="valid:injected-self-check",
    )
    result = oracle.run(injected)
    if result.classification != "valid-design-rejected":
        return (
            False,
            "self-check FAILED: injected disagreement classified as"
            f" {result.classification!r}, expected 'valid-design-rejected'",
        )

    shrunk = shrink(injected, _same_classification(oracle, "valid-design-rejected"))
    if not within_witness_bound(shrunk.design):
        return (
            False,
            "self-check FAILED: witness did not shrink within the 2-ary"
            f" 2-mesh bound: {shrunk.design.describe()}",
        )
    return (
        True,
        "self-check ok: injected disagreement detected and shrunk to"
        f" {shrunk.design.describe()} in {shrunk.steps} steps",
    )
