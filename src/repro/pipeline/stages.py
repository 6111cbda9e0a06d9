"""The named stages of the synthesis flow.

Each stage is a small class declaring the artifacts it consumes
(``requires``), the artifacts it publishes (``provides``), and the
:class:`~repro.pipeline.FlowConfig` fields its output depends on
(``config_fields`` — the basis of its cache key).  Stages after the PM
pass (:class:`PostPMStage`) key on the content of the PM result instead
of the ``pm`` options that produced it, so MUX orderings that commit the
same control edges share their scheduling, allocation and elaboration.
The default pipeline runs them in the paper's order::

    validate -> analyze -> power_manage -> schedule -> allocate
             -> elaborate -> verify -> report

Splitting the flow this way keeps every stage independently cacheable
and replaceable: swapping the scheduler is a config change, and a custom
stage only has to honour the artifact contract.
"""

from __future__ import annotations

from repro.core.pm_pass import pm_digest
from repro.pipeline.context import FlowContext
from repro.pipeline.registry import get_scheduler
from repro.pipeline.result import SynthesisResult


class StageError(Exception):
    """A stage broke its artifact contract."""


class Stage:
    """Base class: one named, introspectable step of the flow.

    Subclasses override :meth:`run` to return a dict with exactly the
    keys named in ``provides``.  ``cacheable`` stages must be pure
    functions of their :meth:`cache_key`: by default the input graph
    plus their ``config_fields``.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    config_fields: tuple[str, ...] = ()
    cacheable: bool = False

    def run(self, ctx: FlowContext) -> dict[str, object]:
        raise NotImplementedError

    def cache_key(self, ctx: FlowContext) -> tuple:
        return (self.name, ctx.fingerprint,
                ctx.config.cache_key(self.config_fields))

    def describe(self) -> str:
        requires = ", ".join(self.requires) or "-"
        provides = ", ".join(self.provides) or "-"
        return (f"{self.name:<14s} {requires:<24s} -> {provides:<22s} "
                f"[{'cached' if self.cacheable else 'always'}]")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PostPMStage(Stage):
    """A stage downstream of the PM pass, keyed on what the pass produced.

    The key is the input fingerprint, the :func:`~repro.core.pm_pass.pm_digest`
    of the ``pm`` artifact and the ``config_fields`` subset, which must
    not name ``pm``: such a stage reads PM options only through the
    ``pm`` artifact, so two orderings with one PM result share its entry.
    """

    def cache_key(self, ctx: FlowContext) -> tuple:
        return (self.name, ctx.fingerprint,
                pm_digest(ctx.get("pm"), ctx.fingerprint),
                ctx.config.cache_key(self.config_fields))


def effective_pm(ctx: FlowContext):
    """The PM result downstream stages should build on: this run's PM
    pass output, minus the guards a pipelined ``drop``-mode schedule
    breaks (see :meth:`PipelinedGatingReport.adjusted_for
    <repro.core.pipelined_gating.PipelinedGatingReport.adjusted_for>`)."""
    pm = ctx.get("pm")
    report = ctx.get("pipelined_gating") if ctx.has("pipelined_gating") \
        else None
    return report.adjusted_for(pm) if report is not None else pm


class ValidateStage(Stage):
    """Structural well-formedness of the input CDFG."""

    name = "validate"
    provides = ("validated",)

    def run(self, ctx: FlowContext) -> dict[str, object]:
        from repro.ir.validate import validate

        validate(ctx.graph)
        return {"validated": True}


class AnalyzeStage(Stage):
    """Circuit statistics (Table I numbers) for reports and exploration."""

    name = "analyze"
    provides = ("stats",)
    cacheable = True

    def run(self, ctx: FlowContext) -> dict[str, object]:
        from repro.analysis.stats import circuit_stats

        return {"stats": circuit_stats(ctx.graph)}


class PowerManageStage(Stage):
    """The paper's Figure-3 PM pass: commit control edges per MUX."""

    name = "power_manage"
    provides = ("pm",)
    config_fields = ("n_steps", "pm")
    cacheable = True

    def run(self, ctx: FlowContext) -> dict[str, object]:
        from repro.core.pm_pass import apply_power_management

        pm = apply_power_management(ctx.graph, ctx.config.require_steps(),
                                    ctx.config.pm_options)
        return {"pm": pm}


class ScheduleStage(PostPMStage):
    """Resource-minimizing scheduling via the registered strategy.

    Scheduler strategies see the PM pass only through the ``pm``
    artifact's augmented graph, never through ``config.pm``.

    For pipelined schedules (an II on the result) this stage also
    re-checks every PM gating decision against the overlap condition
    (see :mod:`repro.core.pipelined_gating`) and publishes the analysis
    as the ``pipelined_gating`` artifact — ``None`` when unpipelined.
    """

    name = "schedule"
    requires = ("pm",)
    provides = ("schedule", "allocation", "pipelined_gating")
    config_fields = ("n_steps", "scheduler", "initiation_interval",
                     "pipelined_gating")
    cacheable = True

    def run(self, ctx: FlowContext) -> dict[str, object]:
        strategy = get_scheduler(ctx.config.scheduler)
        pm = ctx.get("pm")
        schedule, allocation = strategy(pm.graph, ctx.config)
        gating = None
        if schedule.initiation_interval \
                and schedule.initiation_interval < schedule.n_steps:
            from repro.core.pipelined_gating import analyze_pipelined_gating

            gating = analyze_pipelined_gating(
                pm, schedule, mode=ctx.config.pipelined_gating)
        return {"schedule": schedule, "allocation": allocation,
                "pipelined_gating": gating}


class AllocateStage(PostPMStage):
    """Bind operations to units and values to registers."""

    name = "allocate"
    requires = ("pm", "schedule")
    provides = ("binding", "registers")
    config_fields = ("n_steps", "scheduler", "initiation_interval",
                     "mutex_sharing")
    cacheable = True

    def run(self, ctx: FlowContext) -> dict[str, object]:
        from repro.alloc.fu_binding import bind_operations
        from repro.alloc.register_alloc import allocate_registers

        schedule = ctx.get("schedule")
        binding = bind_operations(schedule,
                                  mutex_sharing=ctx.config.mutex_sharing)
        registers = allocate_registers(schedule)
        return {"binding": binding, "registers": registers}


class ElaborateStage(PostPMStage):
    """Interconnect, guards, FSM controller: the finished RTL design.

    Elaborates from the overlap-adjusted PM result when the schedule is
    pipelined, so ``pipelined_gating="drop"`` actually removes the broken
    guards from the controller.
    """

    name = "elaborate"
    requires = ("pm", "schedule", "binding", "registers",
                "pipelined_gating")
    provides = ("design",)
    config_fields = ("n_steps", "scheduler", "initiation_interval",
                     "pipelined_gating", "mutex_sharing", "width")
    cacheable = True

    def run(self, ctx: FlowContext) -> dict[str, object]:
        from repro.rtl.design import elaborate

        design = elaborate(effective_pm(ctx), ctx.get("schedule"),
                           width=ctx.config.width,
                           binding=ctx.get("binding"),
                           registers=ctx.get("registers"))
        return {"design": design}


class VerifyStage(Stage):
    """Soundness checks (when ``config.verify``): the structural gating
    argument plus a functional differential — the batch engine ``auto``
    picks for this vector count (compiled) runs the elaborated design
    against the reference model on a seeded vector set, with power
    management on and off: one runner, run in both modes."""

    name = "verify"
    requires = ("pm", "design", "pipelined_gating")
    provides = ("verified",)

    #: Vectors simulated per power-management mode by the functional check.
    n_check_vectors = 16

    def run(self, ctx: FlowContext) -> dict[str, object]:
        if not ctx.config.verify:
            return {"verified": False}
        from repro.analysis.verify_gating import verify_gating
        from repro.sim.backend import create_engine
        from repro.sim.reference import evaluate
        from repro.sim.vectors import random_vectors

        verify_gating(effective_pm(ctx))
        design = ctx.get("design")
        vectors = random_vectors(ctx.graph, self.n_check_vectors,
                                 width=design.width, seed=1996)
        expected = [evaluate(ctx.graph, v, width=design.width)
                    for v in vectors]
        for pm in (True, False):
            engine = create_engine(design, power_management=pm,
                                   n_vectors=len(vectors))
            outputs, _ = engine.run_many(vectors)
            if outputs != expected:
                raise StageError(
                    f"design {design.name!r} diverges from the reference "
                    f"model (power_management={pm})")
        return {"verified": True}


class ReportStage(Stage):
    """Assemble the public :class:`SynthesisResult`.

    ``result.pm`` is the PM result the design was elaborated from (the
    overlap-adjusted one for pipelined ``drop``-mode runs), so static
    power reports agree with the controller's actual guards.
    """

    name = "report"
    requires = ("pm", "schedule", "design", "pipelined_gating")
    provides = ("result",)

    def run(self, ctx: FlowContext) -> dict[str, object]:
        return {"result": SynthesisResult(
            design=ctx.get("design"),
            pm=effective_pm(ctx),
            schedule=ctx.get("schedule"),
            pipelined_gating=ctx.get("pipelined_gating"))}


def default_stages() -> tuple[Stage, ...]:
    """The full flow in its canonical order."""
    return (ValidateStage(), AnalyzeStage(), PowerManageStage(),
            ScheduleStage(), AllocateStage(), ElaborateStage(),
            VerifyStage(), ReportStage())
