import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsubmod import ParetoArchive
from ccsubmod.algorithms import Individual
from ccsubmod.chance import Objectives
from oracles import dominates, filter_nondominated


def ind(g1, g2):
    return Individual(state=np.zeros(1, dtype=np.uint8), size=0, expected=0.0,
                      g1=float(g1), g2=float(g2))


def archive_pairs(archive):
    return sorted((m.g1, m.g2) for m in archive.members)


class TestInsert:
    def test_empty_archive_accepts(self):
        archive = ParetoArchive()
        assert archive.insert(ind(0, 0))
        assert len(archive) == 1

    def test_strictly_dominated_rejected(self):
        archive = ParetoArchive()
        archive.insert(ind(5, 3))
        assert not archive.insert(ind(4, 4))
        assert not archive.insert(ind(5, 4))
        assert not archive.insert(ind(4, 3))
        assert len(archive) == 1

    def test_weakly_dominated_members_removed(self):
        archive = ParetoArchive()
        archive.insert(ind(1, 1))
        archive.insert(ind(3, 5))
        assert archive.insert(ind(3, 1))
        assert archive_pairs(archive) == [(3.0, 1.0)]

    def test_duplicate_objectives_replace_old_member(self):
        archive = ParetoArchive()
        first = ind(2, 2)
        archive.insert(first)
        second = ind(2, 2)
        assert archive.insert(second)
        assert len(archive) == 1
        assert archive.members[0] is second

    def test_incomparable_coexist(self):
        archive = ParetoArchive()
        archive.insert(ind(1, 1))
        archive.insert(ind(5, 9))
        archive.insert(ind(3, 4))
        assert archive_pairs(archive) == [(1.0, 1.0), (3.0, 4.0), (5.0, 9.0)]

    def test_peak_size_tracks_maximum(self):
        archive = ParetoArchive()
        archive.insert(ind(1, 1))
        archive.insert(ind(2, 2))
        archive.insert(ind(3, 3))
        assert archive.peak_size == 3
        archive.insert(ind(3, 0))  # wipes everything below
        assert len(archive) == 1
        assert archive.peak_size == 3


class TestStaircaseInvariants:
    def check_staircase(self, archive):
        members = archive.members
        for a, b in zip(members, members[1:]):
            assert a.g2 < b.g2
            assert a.g1 < b.g1

    def test_random_sequences_match_bruteforce_filter(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            archive = ParetoArchive()
            pairs = []
            for _ in range(100):
                g1 = float(rng.integers(-1, 20))
                g2 = float(rng.integers(0, 20))
                pairs.append((g1, g2))
                archive.insert(ind(g1, g2))
            assert archive_pairs(archive) == filter_nondominated(pairs)
            self.check_staircase(archive)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(-1, 12), st.integers(0, 12)),
            min_size=1, max_size=40,
        )
    )
    def test_hypothesis_sequences(self, pairs):
        archive = ParetoArchive()
        for g1, g2 in pairs:
            archive.insert(ind(g1, g2))
        assert archive_pairs(archive) == filter_nondominated([(float(a), float(b)) for a, b in pairs])
        self.check_staircase(archive)


class TestRejects:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(st.tuples(st.integers(-1, 12), st.integers(0, 12)), min_size=1, max_size=30),
        query=st.tuples(st.integers(-1, 14), st.integers(0, 13)),
    )
    def test_rejects_exactly_the_strictly_dominated_pairs(self, pairs, query):
        archive = ParetoArchive()
        for g1, g2 in pairs:
            archive.insert(ind(g1, g2))
        g1, g2 = query
        want = any(dominates(Objectives(m.g1, m.g2), Objectives(g1, g2), strict=True) for m in archive.members)
        assert archive.rejects(g1, g2) == want
        # Rejection is monotone in g1: a pair rejected at some g1 is
        # rejected at every lower one, which is what lets a run reject a
        # child at an upper bound on its coverage.
        if want:
            assert all(archive.rejects(lower, g2) for lower in range(-1, g1))
        assert archive.insert(ind(g1, g2)) != want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=30),
        floor=st.sampled_from([-float("inf"), 0.5, 4.0, 9.0]),
        pick=st.integers(0, 29),
    )
    def test_reinserting_a_member_changes_nothing(self, pairs, floor, pick):
        # Inserting a member again accepts it and leaves the archive, its
        # states and its peak as they were.
        archive = ParetoArchive()
        archive.raise_floor(floor)
        for g1, g2 in pairs:
            archive.insert(ind(g1, g2))
        before = list(archive.members)
        states = [m.state for m in before]
        peak = archive.peak_size
        assert archive.insert(before[pick % len(before)])
        assert len(archive.members) == len(before)
        assert all(a is b and a.state is state for a, b, state in zip(archive.members, before, states))
        assert archive.peak_size == peak


class TestIndexRange:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(st.tuples(st.integers(-1, 12), st.integers(0, 12)), min_size=1, max_size=30),
        lo=st.integers(-1, 13),
        width=st.integers(0, 3),
    )
    def test_range_holds_exactly_the_members_in_the_g2_interval(self, pairs, lo, width):
        archive = ParetoArchive()
        for g1, g2 in pairs:
            archive.insert(ind(g1, g2))
        hi = lo + width
        start, stop = archive.index_range(lo, hi)
        members = archive.members
        assert 0 <= start <= stop <= len(members)
        assert [m.g2 for m in members[start:stop]] == [m.g2 for m in members if lo <= m.g2 <= hi]
        assert all(m.g2 < lo for m in members[:start])
