"""The pipeline driver.

``Pipeline`` owns an ordered stage list (wired and checked at
construction) and an optional :class:`ArtifactCache`.  ``run`` executes
the stages against a fresh :class:`FlowContext`; cacheable stages whose
(fingerprint, config-subset) key is warm are spliced in from the cache
instead of recomputed.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from repro.ir.graph import CDFG
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.config import FlowConfig
from repro.pipeline.context import FlowContext
from repro.pipeline.result import SynthesisPair, SynthesisResult
from repro.pipeline.stages import Stage, StageError, default_stages


class PipelineWiringError(Exception):
    """A stage list whose artifact dataflow cannot work."""


class Pipeline:
    """An ordered, introspectable sequence of synthesis stages."""

    def __init__(self, stages: Iterable[Stage] | None = None,
                 cache: ArtifactCache | None = None) -> None:
        self.stages: tuple[Stage, ...] = (
            tuple(stages) if stages is not None else default_stages())
        self.cache = cache
        self._check_wiring()

    def _check_wiring(self) -> None:
        seen: set[str] = set()
        available: set[str] = set()
        for stage in self.stages:
            if not stage.name:
                raise PipelineWiringError(
                    f"stage {stage!r} has no name")
            if stage.name in seen:
                raise PipelineWiringError(
                    f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
            missing = [r for r in stage.requires if r not in available]
            if missing:
                raise PipelineWiringError(
                    f"stage {stage.name!r} requires {missing} but earlier "
                    f"stages only provide {sorted(available)}")
            available.update(stage.provides)

    # -- introspection ---------------------------------------------------

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(
            f"no stage named {name!r}; have {list(self.stage_names)}")

    def describe(self) -> str:
        """Human-readable wiring table: stage, requires -> provides."""
        header = (f"{'stage':<14s} {'requires':<24s}    "
                  f"{'provides':<22s} caching")
        return "\n".join([header] + [s.describe() for s in self.stages])

    # -- execution -------------------------------------------------------

    def run_context(self, graph: CDFG, config: FlowConfig,
                    given: Mapping[str, object] | None = None,
                    ) -> FlowContext:
        """Run every stage; return the full artifact store.

        ``given`` holds artifacts the caller already has for this run,
        say the ``pm`` of a PM pass it ran itself.  A stage whose
        ``provides`` are all given publishes them as its own and does not
        run; the cache is neither read nor written for it, and
        ``ctx.given`` names it.
        """
        config.require_steps()
        given = dict(given or {})
        provided = {name for stage in self.stages for name in stage.provides}
        if set(given) - provided:
            raise StageError(f"no stage provides given artifacts "
                             f"{sorted(set(given) - provided)}")
        ctx = FlowContext(graph=graph, config=config)
        for stage in self.stages:
            supplied = [name for name in stage.provides if name in given]
            if not supplied:
                self._run_stage(stage, ctx)
                continue
            if len(supplied) != len(stage.provides):
                raise StageError(
                    f"stage {stage.name!r} provides {list(stage.provides)} "
                    f"but only {supplied} were given")
            for name in supplied:
                ctx.put(name, given[name], stage.name)
            ctx.given.append(stage.name)
        return ctx

    def run(self, graph: CDFG, config: FlowConfig,
            given: Mapping[str, object] | None = None) -> SynthesisResult:
        """Run the flow and return its final ``result`` artifact.

        Use :meth:`run_context` instead for custom pipelines that do not
        end in a report stage; ``given`` is as there.
        """
        ctx = self.run_context(graph, config, given)
        if not ctx.has("result"):
            raise StageError(
                "pipeline produced no 'result' artifact; add a ReportStage "
                "or use run_context()")
        return ctx.result

    def run_many(self, jobs: Sequence[tuple[CDFG, FlowConfig]],
                 ) -> list[FlowContext]:
        """Run several (graph, config) jobs through this one pipeline.

        Sequential — cache reuse across jobs is the point.  For process
        parallelism over a design space use :func:`repro.pipeline.explore`.
        """
        return [self.run_context(graph, config) for graph, config in jobs]

    def _run_stage(self, stage: Stage, ctx: FlowContext) -> None:
        use_cache = self.cache is not None and stage.cacheable
        key = stage.cache_key(ctx) if use_cache else None
        if use_cache:
            cached = self.cache.lookup(key)
            if cached is not None:
                for name, value in cached.items():
                    ctx.put(name, value, stage.name)
                ctx.cache_hits.append(stage.name)
                ctx.stage_seconds[stage.name] = 0.0
                return
        started = time.perf_counter()
        produced = stage.run(ctx)
        ctx.stage_seconds[stage.name] = time.perf_counter() - started
        if set(produced) != set(stage.provides):
            raise StageError(
                f"stage {stage.name!r} returned artifacts "
                f"{sorted(produced)} but declared {sorted(stage.provides)}")
        for name, value in produced.items():
            ctx.put(name, value, stage.name)
        if use_cache:
            self.cache.store(key, produced)
            ctx.cache_misses.append(stage.name)


def run_flow(graph: CDFG, config: FlowConfig,
             pipeline: Pipeline | None = None) -> SynthesisResult:
    """One-shot convenience: run the default pipeline on one config."""
    return (pipeline or Pipeline()).run(graph, config)


def run_pair(graph: CDFG, config: FlowConfig,
             pipeline: Pipeline | None = None) -> SynthesisPair:
    """Synthesize the baseline and power-managed designs of one config.

    With a caching pipeline the two runs share the config-independent
    stages (validate/analyze), which is the Table II/III access pattern.
    """
    pipeline = pipeline or Pipeline(cache=ArtifactCache())
    baseline = pipeline.run(graph, config.baseline())
    managed = pipeline.run(graph, config)
    return SynthesisPair(baseline=baseline, managed=managed)
