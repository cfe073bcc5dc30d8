import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsubmod import GraphFormatError, coverage_count, load_graph, save_edge_list
from ccsubmod.graphs import coverage_of_indices, update_coverage
from conftest import GRAPHS, random_sparse_graph
from oracles import adjacency_lists, naive_coverage


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadGraph:
    def test_one_indexed_edge_list(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 2\n2 3\n")
        g = load_graph(p)
        assert g.n == 3
        assert list(g.closed_neighborhood(0)) == [0, 1]
        assert list(g.closed_neighborhood(1)) == [0, 1, 2]

    def test_zero_indexed_autodetected(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 1\n1 2\n")
        g = load_graph(p)
        assert g.n == 3
        assert list(g.neighbors(1)) == [0, 2]

    def test_self_loop_dropped(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 1\n")
        g = load_graph(p)
        assert g.n == 1
        assert list(g.closed_neighborhood(0)) == [0]
        assert g.degrees[0] == 0

    def test_duplicate_edges_merged(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 2\n2 1\n1 2\n")
        g = load_graph(p)
        assert g.num_edges == 1

    def test_comments_ignored(self, tmp_path):
        p = write(tmp_path, "g.txt", "% header\n# another\n1 2\n")
        assert load_graph(p).n == 2

    def test_matrix_market_header_and_size(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n%\n5 5 2\n1 2\n4 5\n"
        g = load_graph(write(tmp_path, "g.mtx", text))
        assert g.n == 5
        assert g.num_edges == 2
        # 1-indexed: nodes 0..4, edge (0,1) and (3,4)
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(3)) == [4]

    def test_declared_size_keeps_isolated_tail(self, tmp_path):
        p = write(tmp_path, "g.txt", "4 4 1\n1 2\n")
        g = load_graph(p)
        assert g.n == 4
        assert g.degrees[3] == 0

    def test_id_beyond_declared_size_grows_graph(self, tmp_path):
        p = write(tmp_path, "g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n5 6\n")
        assert load_graph(p).n == 6

    def test_malformed_token_raises(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 2\nfoo 3\n")
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_non_integer_weight_column_raises(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 2 0.5\n")
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_id_below_indexing_base_raises(self, tmp_path):
        p = write(tmp_path, "g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n0 2\n")
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.txt")

    @pytest.mark.parametrize("name", ["round.txt", "round.mtx"])
    def test_roundtrip_identical(self, tmp_path, name):
        g = random_sparse_graph(60, 120, seed=5)
        p = tmp_path / name
        save_edge_list(g, p)
        g2 = load_graph(p)
        assert g2.n == g.n
        assert np.array_equal(g2.degrees, g.degrees)
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)


class TestClosedNeighborhood:
    def test_contains_self_and_has_degree_plus_one(self):
        g = random_sparse_graph(40, 80, seed=1)
        for v in range(g.n):
            cn = g.closed_neighborhood(v)
            assert v in cn
            assert len(cn) == g.degrees[v] + 1

    @pytest.mark.parametrize("name", ["isolated-tail", "star", "duplicates-and-loops", "random"])
    def test_csr_rows_self_first_sorted_symmetric(self, name):
        g = GRAPHS[name]
        assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
        for v in range(g.n):
            row = g.indices[g.indptr[v] : g.indptr[v + 1]]
            assert row[0] == v
            assert len(row) == g.degrees[v] + 1
            assert np.all(np.diff(row[1:]) > 0)
            assert v not in row[1:]
            for u in row[1:]:
                assert v in g.neighbors(u)

    def test_adjacency_symmetric(self):
        g = random_sparse_graph(40, 80, seed=2)
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)


class TestCoverage:
    def test_triangle_single_node_covers_all(self, triangle):
        assert coverage_count(triangle, [1, 0, 0]) == 3

    def test_path_endpoint_covers_two(self, path3):
        assert coverage_count(path3, [1, 0, 0]) == 2

    def test_empty_selection(self, path3):
        assert coverage_count(path3, [0, 0, 0]) == 0

    def test_length_mismatch(self, path3):
        with pytest.raises(ValueError):
            coverage_count(path3, [1, 0])

    def test_matches_set_union_oracle(self):
        g = random_sparse_graph(50, 100, seed=3)
        adjacency = adjacency_lists(g)
        rng = np.random.default_rng(4)
        for _ in range(200):
            sel = (rng.random(50) < rng.uniform(0, 0.4)).astype(np.uint8)
            assert coverage_count(g, sel) == naive_coverage(adjacency, sel)

    def test_full_selection_covers_everything(self):
        g = random_sparse_graph(30, 60, seed=6)
        assert coverage_count(g, np.ones(30, dtype=np.uint8)) == 30

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_monotone_and_submodular(self, data):
        g = random_sparse_graph(25, 50, seed=9)
        smaller = np.array(data.draw(st.lists(st.booleans(), min_size=25, max_size=25)), dtype=np.uint8)
        extra = np.array(data.draw(st.lists(st.booleans(), min_size=25, max_size=25)), dtype=np.uint8)
        larger = smaller | extra
        assert coverage_count(g, smaller) <= coverage_count(g, larger)
        v = data.draw(st.integers(min_value=0, max_value=24))
        if not larger[v]:
            with_s = smaller.copy(); with_s[v] = 1
            with_l = larger.copy(); with_l[v] = 1
            gain_small = coverage_count(g, with_s) - coverage_count(g, smaller)
            gain_large = coverage_count(g, with_l) - coverage_count(g, larger)
            assert gain_small >= gain_large


def full_mask(g, bits):
    covered = np.zeros(g.n, dtype=bool)
    count = coverage_of_indices(g, np.flatnonzero(bits), covered)
    return covered, count


class TestIncrementalCoverage:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(GRAPHS)),
        mode=st.sampled_from(["add", "remove", "mixed"]),
    )
    def test_flip_sequences_match_full_mask_and_oracle(self, data, name, mode):
        g = GRAPHS[name]
        adjacency = adjacency_lists(g)
        if mode == "add":
            bits = np.zeros(g.n, dtype=np.uint8)
        elif mode == "remove":
            bits = np.ones(g.n, dtype=np.uint8)
        else:
            bits = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=np.uint8)
        covered, _ = full_mask(g, bits)
        for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
            if mode == "add":
                allowed = np.flatnonzero(bits == 0)
            elif mode == "remove":
                allowed = np.flatnonzero(bits == 1)
            else:
                allowed = np.arange(g.n)
            if allowed.size == 0:
                break
            pos = np.array(
                data.draw(st.lists(st.sampled_from(allowed.tolist()), min_size=1, max_size=3, unique=True)),
                dtype=np.int64,
            )
            bits[pos] ^= 1
            update_coverage(g, covered, bits, pos)
            want, count = full_mask(g, bits)
            assert np.array_equal(covered, want)
            assert np.count_nonzero(covered) == count == naive_coverage(adjacency, bits)

    def test_removing_hub_keeps_leaves_covered_by_other_leaves(self):
        g = GRAPHS["star"]
        bits = np.zeros(g.n, dtype=np.uint8)
        bits[[0, 3]] = 1
        covered, _ = full_mask(g, bits)
        bits[0] = 0
        update_coverage(g, covered, bits, np.array([0]))
        assert np.flatnonzero(covered).tolist() == [0, 3]

    def test_out_receives_mask(self):
        g = GRAPHS["isolated-tail"]
        covered = np.zeros(g.n, dtype=bool)
        assert coverage_of_indices(g, np.array([1, 11]), covered) == 4
        assert np.flatnonzero(covered).tolist() == [0, 1, 2, 11]
