import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsubmod import Graph, GraphFormatError, load_graph, save_edge_list
from ccsubmod.graphs import coverage_of_indices, update_coverage
from conftest import GRAPHS, random_sparse_graph
from oracles import (
    adjacency_lists,
    closed_neighborhood,
    coverage_count,
    full_state,
    naive_coverage,
    reference_csr,
    reference_load,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import graphgen  # noqa: E402


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadGraph:
    def test_one_indexed_edge_list(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 2\n2 3\n")
        g = load_graph(p)
        assert g.n == 3
        assert list(closed_neighborhood(g, 0)) == [0, 1]
        assert list(closed_neighborhood(g, 1)) == [0, 1, 2]

    def test_zero_indexed_autodetected(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 1\n1 2\n")
        g = load_graph(p)
        assert g.n == 3
        assert list(g.neighbors(1)) == [0, 2]

    def test_self_loop_dropped(self, tmp_path):
        p = write(tmp_path, "g.txt", "1 1\n")
        g = load_graph(p)
        assert g.n == 1
        assert list(closed_neighborhood(g, 0)) == [0]
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

    def test_weighted_first_line_is_an_edge(self, tmp_path):
        # Only an "n n m" first line is a size header outside Matrix-Market
        # files; "1 2 7" is the weighted edge 1-2.
        g = load_graph(write(tmp_path, "g.txt", "1 2 7\n2 3 1\n3 4 2\n"))
        assert g.n == 4
        assert len(g.edge_array()) == 3
        assert list(closed_neighborhood(g, 0)) == [0, 1]

    def test_weighted_first_line_is_a_header_in_mtx(self, tmp_path):
        g = load_graph(write(tmp_path, "g.mtx", "5 4 2\n1 2 7\n2 3 1\n"))
        assert g.n == 5
        assert len(g.edge_array()) == 2

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

    def test_id_beyond_int64_raises_naming_its_line(self, tmp_path):
        for token in ["9223372036854775808", "-9223372036854775809", "1" + "0" * 30]:
            p = write(tmp_path, "g.txt", f"1 2\n3 {token}\n")
            with pytest.raises(GraphFormatError, match=r"g\.txt:2: id or size beyond int64"):
                load_graph(p)

    def test_weight_beyond_int64_is_ignored(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "1 2 99999999999999999999\n2 3 -7\n"))
        assert g.n == 3
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]

    def test_errors_name_the_first_faulty_line(self, tmp_path):
        cases = {
            "1 2\n\n3\n4 x\n": ":3: expected an integer pair",
            "1 2\n4 x\n3\n": ":2: non-integer token",
            "% c\n1 2 0.5\n": ":2: non-integer token",
            "1 2\r\n2 3\r\n+ 1\r\n": ":3: non-integer token",
            "1 2\n2 3 -": ":2: non-integer token",
        }
        for text, where in cases.items():
            with pytest.raises(GraphFormatError, match=where):
                load_graph(write(tmp_path, "g.txt", text))
        p = write(tmp_path, "g.mtx", "3 3 2\n1 2\n\n0 3\n")
        with pytest.raises(GraphFormatError, match=r"g\.mtx:4: node id below the indexing base"):
            load_graph(p)

    def test_python_integer_spellings(self, tmp_path):
        # Tokens mean what int() makes of them, and str.split() whitespace
        # (here a vertical tab and a no-break space) separates them.
        g = load_graph(write(tmp_path, "g.txt", "+1 002\n1_0\x0b3\n\u0663\xa04\n"))
        assert g.n == 10
        assert g.edge_array().tolist() == [[0, 1], [2, 3], [2, 9]]

    def test_only_newline_carriage_return_and_crlf_end_lines(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "1 2\r2 3\r\n3\x0c4\x1c\n"))
        assert g.edge_array().tolist() == [[0, 1], [1, 2], [2, 3]]
        # str.splitlines() would also break at these; to file iteration they
        # are whitespace inside one line, so "3 4" and "5 6" are ignored columns.
        g = load_graph(write(tmp_path, "g.txt", "1 2\x853 4\u20285 6\n"))
        assert g.n == 2

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

    @pytest.mark.parametrize("name", ["condmat.txt", "condmat.mtx"])
    def test_roundtrip_identical_at_condmat_size(self, tmp_path, name):
        g = random_sparse_graph(21363, 91286, seed=8)
        p = tmp_path / name
        save_edge_list(g, p)
        g2 = load_graph(p)
        assert g2.n == g.n
        for attr in ("indptr", "indices", "degrees"):
            assert getattr(g2, attr).dtype == np.int64
            assert np.array_equal(getattr(g2, attr), getattr(g, attr))


def assert_graph_equals_reference(graph, n, pairs):
    indptr, indices, degrees = reference_csr(n, pairs)
    assert graph.n == n
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)
    assert np.array_equal(graph.degrees, degrees)


def outcome(load, path):
    """What a loader makes of a file: its result, or its error message."""
    try:
        return load(path), None
    except GraphFormatError as exc:
        return None, str(exc)


SPACES = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003"]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def integer_tokens(draw, low=0, high=12):
    """An int token as a file may spell it: plain, '+'-signed or zero-padded."""
    value = draw(st.integers(min_value=low, max_value=high))
    spelling = draw(st.sampled_from(["{}", "{}", "{}", "+{}", "0{}", "00{}"]))
    return spelling.format(value) if value >= 0 else str(value)


@st.composite
def graph_lines(draw):
    kind = draw(st.sampled_from(["pair"] * 6 + ["weighted", "blank", "comment", "odd"]))
    if kind == "blank":
        return "".join(draw(st.lists(st.sampled_from(SPACES), max_size=3)))
    if kind == "comment":
        prefix = draw(st.sampled_from(["%", "#", "%%MatrixMarket matrix", "% 1 2"]))
        return prefix + draw(st.text(alphabet="ab 17%#\té", max_size=8))
    if kind == "odd":
        return draw(st.sampled_from([
            "5", "x 1", "1 2.5", "1_0 2", "1 2 w", "+ 1", "1- 2", "\u0661 \u0662", "--1 2",
            "99999999999999999999 1", "1 -99999999999999999999", "1 2 %c", "1 2 " + "7" * 25,
            "0000000000000000000000003 4", "\x00", "\ufffd 1", "-1 2", "1 2 -", "3 +",
        ]))
    tokens = [draw(integer_tokens()), draw(integer_tokens())]
    if kind == "weighted":
        tokens.append(draw(integer_tokens(low=-(10**20), high=10**20)))
    return draw(st.sampled_from(SPACES)).join(tokens)


@st.composite
def graph_files(draw):
    """File text with random line endings, spacing, comments, an optional
    banner and size header, ragged weight columns and some faulty lines."""
    lines = draw(st.lists(graph_lines(), max_size=12))
    if draw(st.booleans()):
        size = draw(st.integers(min_value=0, max_value=15))
        lines.insert(0, f"{size} {size if draw(st.booleans()) else size + 1} {len(lines)}")
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["%%MatrixMarket matrix coordinate pattern symmetric", "%%matrixmarket"])))
    text = ""
    for line in lines:
        pad = draw(st.sampled_from(["", "", " ", "\t", " \x0c"]))
        text += pad + line + draw(st.sampled_from(["", " ", "\t "])) + draw(st.sampled_from(ENDINGS))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class TestLoaderMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=graph_files(), suffix=st.sampled_from([".txt", ".mtx", ".edges"]))
    def test_random_files(self, tmp_path_factory, text, suffix):
        path = tmp_path_factory.getbasetemp() / f"hypothesis{suffix}"
        path.write_bytes(text.encode("utf-8"))
        want, want_error = outcome(reference_load, path)
        got, got_error = outcome(load_graph, path)
        assert got_error == want_error
        if want is not None:
            assert_graph_equals_reference(got, *want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec", [graphgen.CSPHD, graphgen.CONDMAT], ids=lambda s: s.name)
    def test_generated_benchmark_graphs(self, tmp_path, spec, seed):
        path = tmp_path / f"{spec.name}.mtx"
        graphgen.write_mtx(path, spec.n, graphgen.generate(spec, seed))
        assert_graph_equals_reference(load_graph(path), *reference_load(path))


class TestFromEdges:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=14))
    def test_matches_set_oracle(self, data, n):
        node = st.integers(min_value=0, max_value=n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=30))
        # Repeat some edges in either orientation, and add self loops.
        edges += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(edges), max_size=5))] if edges else []
        edges += [(v, v) for v in data.draw(st.lists(node, max_size=3))]
        order = data.draw(st.permutations(range(len(edges))))
        edges = np.array([edges[i] for i in order], dtype=np.int64).reshape(-1, 2)
        assert_graph_equals_reference(Graph.from_edges(n, edges), n, edges.tolist())

    @pytest.mark.parametrize("n", [1, 5])
    def test_no_edges(self, n):
        g = Graph.from_edges(n, np.empty((0, 2), dtype=np.int64))
        assert_graph_equals_reference(g, n, [])
        assert g.indices.tolist() == list(range(n))

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, np.array([[0, 3]]))


class TestClosedNeighborhood:
    def test_contains_self_and_has_degree_plus_one(self):
        g = random_sparse_graph(40, 80, seed=1)
        for v in range(g.n):
            cn = closed_neighborhood(g, v)
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


class TestIncrementalCoverage:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(GRAPHS)),
        mode=st.sampled_from(["add", "remove", "mixed"]),
    )
    def test_flip_sequences_match_full_mask_and_oracle(self, data, name, mode):
        # ``bits`` tracks the selection apart from the state under test.
        g = GRAPHS[name]
        adjacency = adjacency_lists(g)
        if mode == "add":
            bits = np.zeros(g.n, dtype=np.uint8)
        elif mode == "remove":
            bits = np.ones(g.n, dtype=np.uint8)
        else:
            bits = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=np.uint8)
        state, _ = full_state(g, bits)
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
            update_coverage(g, state, pos)
            want, count = full_state(g, bits)
            assert np.array_equal(state, want)
            assert set(np.unique(state).tolist()) <= {0, 1, 3}
            assert np.count_nonzero(state) == count == naive_coverage(adjacency, bits)

    def test_removing_hub_keeps_leaves_covered_by_other_leaves(self):
        g = GRAPHS["star"]
        bits = np.zeros(g.n, dtype=np.uint8)
        bits[[0, 3]] = 1
        state, _ = full_state(g, bits)
        update_coverage(g, state, np.array([0]))
        assert np.flatnonzero(state).tolist() == [0, 3]
        assert state[[0, 3]].tolist() == [1, 3]

    def test_out_receives_mask(self):
        g = GRAPHS["isolated-tail"]
        covered = np.zeros(g.n, dtype=bool)
        assert coverage_of_indices(g, np.array([1, 11]), covered) == 4
        assert np.flatnonzero(covered).tolist() == [0, 1, 2, 11]
