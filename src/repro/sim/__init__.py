"""Cycle-accurate RTL simulation with switching-activity accounting."""

from repro.sim.activity import ActivityCounter, hamming
from repro.sim.backend import BACKENDS, create_engine
from repro.sim.engine import (
    BatchResult,
    CompiledEngine,
    ExecutionPlan,
    clear_compile_caches,
    compile_plan,
    cached_plan,
    design_fingerprint,
    generate_outputs_source,
)
from repro.sim.reference import evaluate, evaluate_all
from repro.sim.simulator import RTLSimulator, SampleResult
from repro.sim.vectorized import (
    ArrayBatchResult,
    VectorizationError,
    VectorizedEngine,
    generate_vector_source,
)
from repro.sim.vectors import (
    exhaustive_vectors,
    input_names,
    iter_random_vectors,
    random_vectors,
    vectors_to_array,
)
from repro.sim.workloads import (
    balanced_condition_vectors,
    gcd_trace_vectors,
    iter_balanced_condition_vectors,
    iter_gcd_trace_vectors,
)

__all__ = [
    "ActivityCounter",
    "ArrayBatchResult",
    "BACKENDS",
    "BatchResult",
    "CompiledEngine",
    "ExecutionPlan",
    "RTLSimulator",
    "SampleResult",
    "VectorizationError",
    "VectorizedEngine",
    "balanced_condition_vectors",
    "cached_plan",
    "clear_compile_caches",
    "compile_plan",
    "create_engine",
    "design_fingerprint",
    "evaluate",
    "evaluate_all",
    "exhaustive_vectors",
    "gcd_trace_vectors",
    "generate_outputs_source",
    "generate_vector_source",
    "hamming",
    "input_names",
    "iter_balanced_condition_vectors",
    "iter_gcd_trace_vectors",
    "iter_random_vectors",
    "random_vectors",
    "vectors_to_array",
]
