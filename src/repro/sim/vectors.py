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

:class:`RandomMatrixStream` draws the same seeded values as
:func:`iter_random_vectors` straight into that matrix, with no dicts in
between: it replays CPython's ``randint`` on NumPy's MT19937 (see
``docs/simulation.md``, "Vector generation").  The power estimator uses
it whenever the vectorized engine runs vectors it draws itself.
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


def select_columns(matrix, names: Sequence[str], columns: Sequence[str]):
    """The ``columns`` of ``matrix``, whose columns are the inputs
    ``names``, in that order.

    Raises the same ``KeyError`` as the batch engines when ``columns``
    names an input ``names`` lacks.
    """
    index = {name: i for i, name in enumerate(names)}
    try:
        picks = [index[name] for name in columns]
    except KeyError as e:
        raise KeyError("missing input %r" % (e.args[0],)) from None
    return matrix[:, picks]


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


def _check_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")


def iter_random_vectors(graph: CDFG, count: int | None = None,
                        width: int = 8,
                        seed: int = 1996) -> Iterator[dict[str, int]]:
    """Stream uniform random input assignments for ``graph``.

    ``count=None`` streams forever (the Monte Carlo estimator's source);
    the first ``n`` draws are identical to ``random_vectors(graph, n)``
    at the same seed.  A negative ``count`` or a ``width`` below 1
    raises ``ValueError`` at the call.
    """
    if count is not None:
        _check_count(count)
    _check_width(width)
    counter = itertools.count() if count is None else range(count)
    return _random_dicts(random.Random(seed), input_names(graph), width,
                         counter)


def _random_dicts(rng: random.Random, names: list[str], width: int,
                  counter: Iterable[int]) -> Iterator[dict[str, int]]:
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    randint = rng.randint
    for _ in counter:
        yield {name: randint(lo, hi) for name in names}


def random_vectors(graph: CDFG, count: int, width: int = 8,
                   seed: int = 1996) -> list[dict[str, int]]:
    """``count`` uniform random input assignments for ``graph``."""
    return list(iter_random_vectors(graph, count, width=width, seed=seed))


#: Widest input ``randint`` draws from one 32-bit MT19937 word: a
#: ``width``-bit range needs ``width + 1`` random bits.
MATRIX_WIDTH_LIMIT = 31


def mt19937_state(seed: int) -> tuple[int, ...] | None:
    """The 624 MT19937 key words plus position of ``random.Random(seed)``,
    or ``None`` when this interpreter's ``randint`` is not the
    ``getrandbits`` rejection sampler :class:`RandomMatrixStream`
    replays (then the stream packs dicts instead)."""
    if random.Random._randbelow is not getattr(
            random.Random, "_randbelow_with_getrandbits", None):
        return None
    version, internal, _gauss = random.Random(seed).getstate()
    if version != 3 or len(internal) != 625:
        return None
    return internal


class RandomMatrixStream:
    """The values of ``iter_random_vectors(graph, None, width, seed)``,
    drawn as ``(n, n_inputs)`` int64 matrices in declaration order.

    Successive :meth:`take` calls continue one stream, so their rows
    concatenate to ``vectors_to_array(iter_random_vectors(...),
    input_names(graph))`` however the count is split.  Up to
    :data:`MATRIX_WIDTH_LIMIT` bits, when :func:`mt19937_state` holds,
    NumPy's MT19937 replays ``randint(lo, hi)`` from the same state:
    ``getrandbits(width + 1)`` is one 32-bit word shifted right by
    ``31 - width``, and ``_randbelow`` redraws words at or above
    ``1 << width``.  Accepted words left over from one :meth:`take` are
    kept for the next.  Anywhere else the stream packs the dict
    generator's vectors.
    """

    def __init__(self, graph: CDFG, width: int = 8,
                 seed: int = 1996) -> None:
        _check_width(width)
        self.names = tuple(input_names(graph))
        self._lo = -(1 << (width - 1))
        state = mt19937_state(seed) if width <= MATRIX_WIDTH_LIMIT else None
        self.fast = state is not None
        if not self.fast:
            self._vectors = iter_random_vectors(graph, None, width=width,
                                                seed=seed)
            return
        import numpy as np

        self._bits = np.random.MT19937()
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(state[:624], dtype=np.uint32),
                      "pos": state[624]}}
        self._shift = np.uint64(MATRIX_WIDTH_LIMIT - width)
        self._limit = 1 << width
        self._spare = np.empty(0, dtype=np.uint64)

    def take(self, n: int):
        """The next ``n`` vectors as an ``(n, len(self.names))`` matrix."""
        import numpy as np

        _check_count(n)
        if not self.fast:
            return vectors_to_array(itertools.islice(self._vectors, n),
                                    self.names)
        need = n * len(self.names)
        words = self._spare
        while len(words) < need:
            # Half the words pass the rejection step; the margin makes a
            # second draw rare.
            raw = self._bits.random_raw(2 * (need - len(words)) + 64)
            raw >>= self._shift
            words = np.concatenate((words, raw[raw < self._limit]))
        self._spare = words[need:].copy()  # not a view pinning the block
        matrix = words[:need].astype(np.int64)
        matrix += self._lo
        return matrix.reshape(n, len(self.names))


def exhaustive_vectors(graph: CDFG, width: int = 3) -> list[dict[str, int]]:
    """Every input assignment at a reduced width (keeps the count small)."""
    _check_width(width)
    names = [n.name for n in graph.inputs()]
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    values = range(lo, hi + 1)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(values, repeat=len(names))
    ]
