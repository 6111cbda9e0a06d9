"""The shared artifact store a pipeline run writes into.

Every stage reads named artifacts produced by earlier stages and
publishes its own; the context also records provenance (which stage made
what), per-stage wall time, and which stages were served from cache — so
a run is fully introspectable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.graph import CDFG
from repro.pipeline.cache import graph_fingerprint
from repro.pipeline.config import FlowConfig


class MissingArtifactError(KeyError):
    """A stage asked for an artifact nothing has produced."""


@dataclass
class FlowContext:
    """One synthesis run: the input graph + config and all artifacts."""

    graph: CDFG
    config: FlowConfig
    artifacts: dict[str, object] = field(default_factory=dict)
    produced_by: dict[str, str] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_hits: list[str] = field(default_factory=list)
    cache_misses: list[str] = field(default_factory=list)
    #: Stages whose artifacts the caller supplied (see ``Pipeline.run``).
    given: list[str] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        """Content hash of the input graph (memoized on the graph)."""
        return graph_fingerprint(self.graph)

    def put(self, name: str, value: object, stage: str) -> None:
        self.artifacts[name] = value
        self.produced_by[name] = stage

    def get(self, name: str) -> object:
        try:
            return self.artifacts[name]
        except KeyError:
            raise MissingArtifactError(
                f"artifact {name!r} has not been produced; available: "
                f"{sorted(self.artifacts)}") from None

    def has(self, name: str) -> bool:
        return name in self.artifacts

    @property
    def result(self):
        """The final :class:`~repro.pipeline.SynthesisResult` artifact."""
        return self.get("result")

    def summary(self) -> str:
        """One line per artifact: name, producing stage, cached or not."""
        lines = [f"run of {self.graph.name!r} @ "
                 f"{self.config.n_steps} steps "
                 f"[{self.config.scheduler} scheduler]"]
        for name, stage in self.produced_by.items():
            origin = ("cache" if stage in self.cache_hits
                      else "given" if stage in self.given else "computed")
            lines.append(f"  {name:<12s} <- {stage} ({origin})")
        return "\n".join(lines)
