"""repro: reproduction of "Scheduling Techniques to Enable Power Management"
(Monteiro, Devadas, Ashar, Mauskar — DAC 1996).

A behavioral-synthesis flow with a power-management-aware scheduling pass:
operations that compute conditional-select signals are scheduled before the
operations they control, so the generated controller can keep the input
latches of unneeded execution units disabled.

Quick start — the flow is a pipeline of named stages driven by one
config object::

    from repro import FlowConfig, Pipeline, abs_diff

    pipeline = Pipeline()                  # validate -> ... -> report
    result = pipeline.run(abs_diff(), FlowConfig(n_steps=3))
    print(result.design.summary())
    print(result.static_report().reduction_pct)  # % datapath power saved

Pick the base scheduler by name, turn on artifact caching, and sweep a
design space in parallel::

    from repro import ArtifactCache, explore

    pipeline = Pipeline(cache=ArtifactCache())
    exact = pipeline.run(abs_diff(), FlowConfig(n_steps=3,
                                                scheduler="exact"))
    space = explore(["dealer", "gcd", "vender"], budgets=[5, 6, 7],
                    workers=4)
    print(space.table())

``run_pair`` synthesizes the baseline and power-managed designs of one
config together, the shape of the paper's Table II/III comparisons.
"""

from repro.circuits import abs_diff, build, cordic, dealer, diffeq, gcd, vender
from repro.core import (
    PMOptions,
    PMResult,
    apply_power_management,
    compute_cones,
    describe_decisions,
)
from repro.ir import CDFG, GraphBuilder, Op, ResourceClass, unroll
from repro.pipeline import (
    ArtifactCache,
    ExplorationResult,
    FlowConfig,
    FlowContext,
    Pipeline,
    Stage,
    SynthesisPair,
    SynthesisResult,
    available_schedulers,
    default_stages,
    explore,
    register_scheduler,
    run_flow,
    run_pair,
)
from repro.opt import Objective, OptResult, SearchSpec, optimize
from repro.power import (
    PowerWeights,
    SelectModel,
    compare_designs,
    expected_op_counts,
    measure_power,
    static_power,
)
from repro.rtl import generate_vhdl
from repro.sched import (
    Allocation,
    Schedule,
    critical_path_length,
    list_schedule,
    minimize_resources,
)
from repro.sim import CompiledEngine, RTLSimulator, evaluate, random_vectors

__version__ = "1.1.0"

__all__ = [
    "Allocation",
    "ArtifactCache",
    "CDFG",
    "CompiledEngine",
    "ExplorationResult",
    "FlowConfig",
    "FlowContext",
    "GraphBuilder",
    "Objective",
    "Op",
    "OptResult",
    "PMOptions",
    "PMResult",
    "Pipeline",
    "SearchSpec",
    "PowerWeights",
    "RTLSimulator",
    "ResourceClass",
    "Schedule",
    "SelectModel",
    "Stage",
    "SynthesisPair",
    "SynthesisResult",
    "__version__",
    "abs_diff",
    "apply_power_management",
    "available_schedulers",
    "build",
    "compare_designs",
    "compute_cones",
    "cordic",
    "critical_path_length",
    "dealer",
    "default_stages",
    "describe_decisions",
    "diffeq",
    "evaluate",
    "expected_op_counts",
    "explore",
    "gcd",
    "generate_vhdl",
    "list_schedule",
    "measure_power",
    "minimize_resources",
    "optimize",
    "random_vectors",
    "register_scheduler",
    "run_flow",
    "run_pair",
    "static_power",
    "unroll",
    "vender",
]
