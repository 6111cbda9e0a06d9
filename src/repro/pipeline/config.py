"""Flow configuration: one immutable object instead of a kwarg pile.

``FlowConfig`` carries every knob the synthesis flow understands.  It is
frozen so a config can be shared between runs, varied with
:func:`dataclasses.replace`, and turned into stable cache keys.  The PM
options default to ``None`` (meaning "paper defaults") rather than a
shared ``PMOptions()`` instance, so no mutable state leaks between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.core.pm_pass import PMOptions
from repro.ir.ops import check_width


@dataclass(frozen=True)
class FlowConfig:
    """Everything a :class:`~repro.pipeline.Pipeline` run needs to know.

    n_steps:              control-step budget (throughput constraint).
                          Must be set before running.
    pm:                   PM pass options; ``None`` means ``PMOptions()``.
    scheduler:            named strategy from the scheduler registry
                          (``list``, ``force_directed``, ``exact``, or
                          anything registered via
                          :func:`repro.pipeline.register_scheduler`).
    width:                datapath bit width, an ``int`` of at least 1.
    initiation_interval:  pipelined initiation interval.  The ``list``
                          strategy schedules at exactly this II; the
                          ``pipeline`` strategy treats it as an upper
                          bound and searches down toward MII (see
                          :mod:`repro.sched.modulo`).  Other strategies
                          reject it.
    pipelined_gating:     what to do with PM gating whose guard crosses
                          an II boundary under overlap (see
                          :mod:`repro.core.pipelined_gating`):
                          ``per_sample`` keeps it via stage-indexed
                          guard-register copies, ``drop`` removes it.
    mutex_sharing:        share units between mutually-exclusive ops.
    verify:               check the design: the structural
                          gating-soundness argument, then a functional
                          differential of the design against the
                          reference model on 16 seeded vectors, with
                          power management on and off (see
                          :class:`~repro.pipeline.stages.VerifyStage`).
    label:                free-form tag used by ``explore()`` reports.
    """

    n_steps: int | None = None
    pm: PMOptions | None = None
    scheduler: str = "list"
    width: int = 8
    initiation_interval: int | None = None
    pipelined_gating: str = "per_sample"
    mutex_sharing: bool = False
    verify: bool = False
    label: str = field(default="default", compare=False)

    def __post_init__(self) -> None:
        check_width(self.width)

    @property
    def pm_options(self) -> PMOptions:
        """The effective PM options (paper defaults when ``pm is None``)."""
        return self.pm if self.pm is not None else PMOptions()

    def require_steps(self) -> int:
        if self.n_steps is None or self.n_steps < 0:
            raise ValueError(
                "FlowConfig.n_steps must be a control-step budget "
                f"before running (got {self.n_steps!r})")
        return self.n_steps

    def baseline(self) -> "FlowConfig":
        """The traditional (non-power-managed) twin of this config."""
        return replace(self, pm=PMOptions(enabled=False), verify=False,
                       label=f"{self.label}+baseline")

    def cache_key(self, config_fields: tuple[str, ...]) -> tuple[str, ...]:
        """Stable key over the subset of fields a stage depends on.

        Stages declare only the fields that change their output, so e.g.
        a ``width`` sweep reuses cached PM and scheduling artifacts.
        """
        return tuple(f"{name}={getattr(self, name)!r}"
                     for name in config_fields)

    def describe(self) -> str:
        parts = [f"{f.name}={getattr(self, f.name)!r}"
                 for f in fields(self) if f.name != "label"]
        return f"FlowConfig({', '.join(parts)})"
