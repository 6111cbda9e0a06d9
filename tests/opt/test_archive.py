"""NSGA-II layer: nondominated sort, crowding, and the ParetoArchive.

The sort is pinned against the brute-force :func:`pareto_front` filter
(peel fronts by repeated filtering), crowding-distance tie-breaking is
pinned deterministic, and the archive invariants (always a front,
key-stable ties, coverage) are property-tested over random vector
clouds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt.archive import (
    ArchiveEntry,
    ParetoArchive,
    crowding_distances,
    nondominated_sort,
    nsga_select,
)
from repro.opt.objective import Objective, dominates, pareto_front
from repro.opt.space import Candidate

_SETTINGS = dict(deadline=None)

vectors = st.lists(
    st.tuples(st.integers(min_value=-20, max_value=20),
              st.integers(min_value=-20, max_value=20)),
    min_size=0, max_size=24)


def brute_force_fronts(vecs):
    """Peel Pareto fronts by repeated brute-force filtering."""
    remaining = list(enumerate(vecs))
    fronts = []
    while remaining:
        front = pareto_front(remaining, key=lambda pair: pair[1])
        fronts.append(sorted(i for i, _ in front))
        taken = {i for i, _ in front}
        remaining = [pair for pair in remaining if pair[0] not in taken]
    return fronts


class TestNondominatedSort:
    @settings(max_examples=150, **_SETTINGS)
    @given(vecs=vectors)
    def test_matches_brute_force_front_peeling(self, vecs):
        fronts = [sorted(front) for front in nondominated_sort(vecs)]
        assert fronts == brute_force_fronts(vecs)

    @settings(max_examples=80, **_SETTINGS)
    @given(vecs=vectors)
    def test_partitions_and_respects_dominance(self, vecs):
        fronts = nondominated_sort(vecs)
        flat = [i for front in fronts for i in front]
        assert sorted(flat) == list(range(len(vecs)))
        # Nothing inside a front dominates a peer; every member of a
        # later front is dominated by someone in the previous front.
        for rank, front in enumerate(fronts):
            for i in front:
                assert not any(dominates(vecs[j], vecs[i])
                               for j in front if j != i)
                if rank:
                    assert any(dominates(vecs[j], vecs[i])
                               for j in fronts[rank - 1])

    def test_empty(self):
        assert nondominated_sort([]) == []


class TestCrowdingDistances:
    def test_boundaries_are_infinite(self):
        distances = crowding_distances([(0, 4), (1, 2), (2, 1), (4, 0)])
        assert distances[0] == math.inf
        assert distances[3] == math.inf
        assert all(d > 0 for d in distances)

    def test_interior_neighbor_gaps(self):
        # One dimension, points 0, 1, 10: the middle point's distance is
        # the normalized neighbor gap (10 - 0) / (10 - 0) = 1.
        distances = crowding_distances([(0,), (1,), (10,)])
        assert distances == [math.inf, pytest.approx(1.0), math.inf]

    def test_duplicate_vectors_do_not_divide_by_zero(self):
        distances = crowding_distances([(1, 1), (1, 1), (1, 1)])
        assert len(distances) == 3

    @settings(max_examples=60, **_SETTINGS)
    @given(vecs=vectors)
    def test_deterministic(self, vecs):
        assert crowding_distances(vecs) == crowding_distances(vecs)

    @settings(max_examples=60, **_SETTINGS)
    @given(vecs=vectors.filter(lambda v: len(v) >= 3), k=st.integers(1, 6))
    def test_nsga_select_is_deterministic_and_rank_first(self, vecs, k):
        picked = nsga_select(vecs, k)
        assert picked == nsga_select(vecs, k)
        assert len(picked) == min(k, len(vecs))
        # Selection never skips a better-ranked front: anything picked
        # from front r implies every earlier front is fully picked.
        fronts = nondominated_sort(vecs)
        chosen = set(picked)
        for earlier, front in zip(fronts, fronts[1:]):
            if chosen & set(front):
                assert set(earlier) <= chosen


def _candidate(order, n_steps=5):
    return Candidate(order=tuple(order), n_steps=n_steps)


def _archive(spec="gated_weight,area=1"):
    return ParetoArchive(Objective.parse(spec))


class TestParetoArchive:
    def test_offer_keeps_only_nondominated(self):
        archive = _archive()
        # gated_weight maximized, area minimized.
        assert archive.offer(_candidate([1]), {"gated_weight": 1, "area": 9})
        assert archive.offer(_candidate([2]), {"gated_weight": 2, "area": 5})
        # Dominated by [2] on both axes: rejected, front unchanged.
        assert not archive.offer(_candidate([3]),
                                 {"gated_weight": 1, "area": 6})
        assert {e.candidate.key() for e in archive.front()} == {
            _candidate([2]).key()}

    def test_incomparable_points_coexist(self):
        archive = _archive()
        archive.offer(_candidate([1]), {"gated_weight": 5, "area": 9})
        archive.offer(_candidate([2]), {"gated_weight": 2, "area": 3})
        assert len(archive) == 2

    def test_vector_tie_keeps_smallest_candidate_key(self):
        archive = _archive()
        archive.offer(_candidate([2, 1]), {"gated_weight": 1, "area": 1})
        # Same objective vector, lexicographically smaller key: swaps in.
        assert archive.offer(_candidate([1, 2]),
                             {"gated_weight": 1, "area": 1})
        assert not archive.offer(_candidate([2, 1]),
                                 {"gated_weight": 1, "area": 1})
        assert [e.candidate.key() for e in archive.front()] == [
            _candidate([1, 2]).key()]

    def test_best_is_scalar_best(self):
        archive = _archive()
        archive.offer(_candidate([1]), {"gated_weight": 5, "area": 9})
        archive.offer(_candidate([2]), {"gated_weight": 2, "area": 3})
        best = archive.best()
        assert best.candidate.key() == _candidate([2]).key() or \
            best.score == max(e.score for e in archive.front())

    def test_max_size_truncates_by_nsga(self):
        archive = ParetoArchive(Objective.parse("gated_weight,area=1"),
                                max_size=2)
        for i in range(5):
            # Higher gating always costs more area: all incomparable.
            archive.offer(_candidate([i + 1]),
                          {"gated_weight": i, "area": i})
        assert len(archive) == 2

    def test_covered_by(self):
        small, big = _archive(), _archive()
        small.offer(_candidate([1]), {"gated_weight": 1, "area": 5})
        big.offer(_candidate([2]), {"gated_weight": 2, "area": 4})
        assert small.covered_by(big)
        assert not big.covered_by(small)
        # Equal vectors count as covered.
        twin = _archive()
        twin.offer(_candidate([3]), {"gated_weight": 2, "area": 4})
        assert big.covered_by(twin) and twin.covered_by(big)

    def test_roundtrip_dict(self):
        archive = _archive()
        archive.offer(_candidate([1]), {"gated_weight": 5, "area": 9},
                      label="seed")
        data = archive.to_dict()
        clone = ParetoArchive.from_dict(data)
        assert clone.to_dict() == data
        # Run counters live on OptResult, not in the archive's JSON.
        assert set(data) == {"objective", "size", "front"}
        assert clone.front() == archive.front()

    @settings(max_examples=60, **_SETTINGS)
    @given(vecs=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=16))
    def test_archive_is_always_a_front(self, vecs):
        archive = _archive()
        for i, (gw, area) in enumerate(vecs):
            archive.offer(_candidate([i + 1]),
                          {"gated_weight": gw, "area": area})
        front = archive.front()
        assert front  # never empty once something was offered
        for entry in front:
            assert not any(dominates(other.vector, entry.vector)
                           for other in front if other is not entry)
        # Every offered point is dominated-or-matched by the front.
        for gw, area in vecs:
            vector = (-float(gw), float(area))
            assert any(e.vector == vector or dominates(e.vector, vector)
                       for e in front)

    def test_entry_roundtrip(self):
        entry = ArchiveEntry(
            candidate=_candidate([1, 2]),
            metrics={"gated_weight": 1.0, "area": 2.0},
            score=1.0, vector=(-1.0, 2.0), label="island2")
        assert ArchiveEntry.from_dict(entry.to_dict()) == entry
