"""``RandomMatrixStream``: seeded random vectors drawn as int64 matrices.

The stream must reproduce :func:`iter_random_vectors` exactly — the same
values, row-major in declaration order — however its draws are split
into blocks, at every width (the MT19937 replay up to 31 bits, the
packing fallback above), and its columns must land where the engine
reads them.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build
from repro.ir.builder import GraphBuilder
from repro.pipeline import FlowConfig, Pipeline
from repro.sched.timing import critical_path_length
from repro.sim import vectors as vectors_module
from repro.sim.backend import create_engine
from repro.sim.vectors import (
    MATRIX_WIDTH_LIMIT,
    RandomMatrixStream,
    exhaustive_vectors,
    input_names,
    iter_random_vectors,
    mt19937_state,
    random_vectors,
    select_columns,
    vectors_to_array,
)


def _inputs_graph(names):
    """A graph declaring ``names`` as inputs (only inputs matter here)."""
    builder = GraphBuilder("inputs")
    for name in names:
        builder.input(name)
    return builder.build(validate_graph=False)


def _packed(graph, count, width, seed):
    return vectors_to_array(iter_random_vectors(graph, count, width=width,
                                                seed=seed),
                            input_names(graph))


def _taken(stream, splits):
    return np.concatenate([stream.take(n) for n in splits]
                          or [stream.take(0)])


#: Block sizes worth hitting on purpose: empty, single, and counts that
#: fill a whole number of default Monte Carlo and ``auto`` blocks.
_SPLITS = st.lists(st.one_of(st.sampled_from((0, 1, 64, 256)),
                             st.integers(min_value=0, max_value=300)),
                   max_size=5)


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           width=st.integers(min_value=1, max_value=40),
           n_inputs=st.integers(min_value=0, max_value=6),
           splits=_SPLITS)
    def test_blocks_concatenate_to_packed_dicts(self, seed, width, n_inputs,
                                                splits):
        graph = _inputs_graph([f"in{k}" for k in range(n_inputs)])
        stream = RandomMatrixStream(graph, width, seed)
        assert stream.fast == (width <= MATRIX_WIDTH_LIMIT)
        got = _taken(stream, splits)
        expected = _packed(graph, sum(splits), width, seed)
        assert got.dtype == np.int64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", ["dealer", "gcd", "vender", "cordic",
                                      "chstone:adpcm"])
    @pytest.mark.parametrize("width", [8, 16, 31])
    def test_power_workload_split(self, name, width):
        """4096 vectors in blocks of 100, 0 and 3996 equal one packed
        draw, on every circuit the ``power`` benchmark simulates."""
        graph = build(name)
        for seed in (0, 1996, 2 ** 31 - 1):
            stream = RandomMatrixStream(graph, width, seed)
            assert np.array_equal(_taken(stream, [100, 0, 3996]),
                                  _packed(graph, 4096, width, seed))

    def test_take_that_empties_the_spare_words(self):
        """A take that consumes exactly the accepted words left over by
        the previous one draws fresh words next time."""
        graph = _inputs_graph(["a"])
        stream = RandomMatrixStream(graph, 8, 7)
        first = stream.take(5)
        spare = len(stream._spare)
        assert spare > 0
        second = stream.take(spare)
        assert len(stream._spare) == 0
        third = stream.take(3)
        assert np.array_equal(np.concatenate([first, second, third]),
                              _packed(graph, 5 + spare + 3, 8, 7))

    def test_fallback_when_guard_fails(self, monkeypatch, dealer_graph):
        monkeypatch.setattr(vectors_module, "mt19937_state",
                            lambda seed: None)
        stream = RandomMatrixStream(dealer_graph, 8, 3)
        assert not stream.fast
        assert np.array_equal(_taken(stream, [10, 0, 7]),
                              _packed(dealer_graph, 17, 8, 3))


class TestGuard:
    def test_fast_path_taken_at_width_8(self, dealer_graph):
        """The replay depends on CPython's ``randint`` internals: this
        fails on an interpreter where they change, instead of letting
        the power estimator silently run the slow path there."""
        assert random.Random._randbelow \
            is random.Random._randbelow_with_getrandbits
        state = random.Random(1996).getstate()
        assert state[0] == 3 and len(state[1]) == 625
        assert mt19937_state(1996) == state[1]
        assert RandomMatrixStream(dealer_graph, 8, 1996).fast

    def test_wide_inputs_pack_dicts(self, dealer_graph):
        assert RandomMatrixStream(dealer_graph, MATRIX_WIDTH_LIMIT).fast
        assert not RandomMatrixStream(dealer_graph,
                                      MATRIX_WIDTH_LIMIT + 1).fast


class TestColumns:
    def test_engine_column_order(self):
        """A stream drawn from one declaration order feeds a design that
        declares the same inputs in another; columns follow the names."""
        builder = GraphBuilder("ordered")
        a, b, c = (builder.input(name) for name in "abc")
        builder.output(a + b * c, "out")
        graph = builder.build()
        design = Pipeline().run(graph, FlowConfig(
            n_steps=critical_path_length(graph))).design
        engine = create_engine(design, backend="vectorized")
        drawn_from = _inputs_graph(["c", "a", "b"])
        stream = RandomMatrixStream(drawn_from, 8, 11)
        assert engine.input_names == ("a", "b", "c")
        assert stream.names != engine.input_names
        matrix = select_columns(stream.take(300), stream.names,
                                engine.input_names)
        vectors = random_vectors(drawn_from, 300, seed=11)
        assert np.array_equal(matrix,
                              vectors_to_array(vectors, engine.input_names))
        assert engine.run_array(matrix).activity \
            == create_engine(design, backend="compiled") \
            .run_batch(vectors).activity

    def test_missing_column_raises_engine_key_error(self, dealer_graph):
        stream = RandomMatrixStream(dealer_graph)
        with pytest.raises(KeyError, match="missing input 'a'"):
            select_columns(stream.take(4), stream.names, ("p", "a"))


class TestArgumentErrors:
    """Bad counts and widths are named, on the dict and matrix paths."""

    def test_negative_count(self, dealer_graph):
        with pytest.raises(ValueError, match="count must be non-negative, "
                                             "got -3"):
            random_vectors(dealer_graph, -3)
        with pytest.raises(ValueError, match="count .*-3"):
            iter_random_vectors(dealer_graph, -3)
        for width in (8, MATRIX_WIDTH_LIMIT + 1):
            stream = RandomMatrixStream(dealer_graph, width)
            with pytest.raises(ValueError, match="count .*-3"):
                stream.take(-3)

    @pytest.mark.parametrize("width", [0, -2])
    def test_width_below_one(self, dealer_graph, width):
        message = f"width must be at least 1, got {width}"
        with pytest.raises(ValueError, match=message):
            random_vectors(dealer_graph, 2, width=width)
        with pytest.raises(ValueError, match=message):
            iter_random_vectors(dealer_graph, width=width)
        with pytest.raises(ValueError, match=message):
            RandomMatrixStream(dealer_graph, width)
        with pytest.raises(ValueError, match=message):
            exhaustive_vectors(dealer_graph, width=width)
