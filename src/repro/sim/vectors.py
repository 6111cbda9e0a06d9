"""Input-vector generation for simulation-based power estimation.

The paper validates with "random input vectors"; we provide a seeded
generator (reproducible runs) and an exhaustive enumerator for tiny
widths (used by equivalence tests).  The ``iter_*`` variant streams
vectors lazily — Monte Carlo power estimation draws from it block by
block without materializing a full list — and its first ``n`` draws equal
the list form's at the same seed.  Vectors are input dicts everywhere;
:func:`vectors_to_array` packs them into the ``(batch, n_inputs)`` int64
matrix that :meth:`~repro.sim.vectorized.VectorizedEngine.run_array`
takes.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Sequence

from repro.ir.graph import CDFG


def input_names(graph: CDFG) -> list[str]:
    """Input names of ``graph`` in declaration order (array column order)."""
    return [n.name for n in graph.inputs()]


def vectors_to_array(vectors: Iterable[dict[str, int]],
                     names: Sequence[str]):
    """Pack vector dicts into a ``(batch, len(names))`` int64 matrix.

    Raises the same ``KeyError`` as the batch engines when a vector is
    missing an input.
    """
    import numpy as np

    rows = []
    for vector in vectors:
        try:
            rows.append([vector[name] for name in names])
        except KeyError as e:
            raise KeyError("missing input %r" % (e.args[0],)) from None
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(names))


def iter_random_vectors(graph: CDFG, count: int | None = None,
                        width: int = 8,
                        seed: int = 1996) -> Iterator[dict[str, int]]:
    """Stream uniform random input assignments for ``graph``.

    ``count=None`` streams forever (the Monte Carlo estimator's source);
    the first ``n`` draws are identical to ``random_vectors(graph, n)``
    at the same seed.
    """
    rng = random.Random(seed)
    names = [n.name for n in graph.inputs()]
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    counter = itertools.count() if count is None else range(count)
    for _ in counter:
        yield {name: rng.randint(lo, hi) for name in names}


def random_vectors(graph: CDFG, count: int, width: int = 8,
                   seed: int = 1996) -> list[dict[str, int]]:
    """``count`` uniform random input assignments for ``graph``."""
    return list(iter_random_vectors(graph, count, width=width, seed=seed))


def exhaustive_vectors(graph: CDFG, width: int = 3) -> list[dict[str, int]]:
    """Every input assignment at a reduced width (keeps the count small)."""
    names = [n.name for n in graph.inputs()]
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    values = range(lo, hi + 1)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(values, repeat=len(names))
    ]
