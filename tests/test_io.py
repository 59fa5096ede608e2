"""Tests for graph dataset I/O (transaction text format and JSON)."""

from __future__ import annotations

import pytest

from repro.errors import GraphFormatError
from repro.graph import Graph, molecule_dataset
from repro.graph.io import (
    format_transaction_text,
    load_dataset,
    load_json_file,
    load_transaction_file,
    parse_transaction_text,
    save_json_file,
    save_transaction_file,
)

SAMPLE = """
t # 0
v 0 C
v 1 O
v 2 N
e 0 1
e 1 2 double
t # 1
v 0 C
v 1 C
e 0 1
"""


class TestParsing:
    def test_parse_two_graphs(self):
        graphs = parse_transaction_text(SAMPLE)
        assert len(graphs) == 2
        assert graphs[0].graph_id == 0
        assert graphs[0].num_vertices == 3
        assert graphs[0].num_edges == 2
        assert graphs[1].num_edges == 1

    def test_edge_label_parsed(self):
        graphs = parse_transaction_text(SAMPLE)
        assert graphs[0].edge_label(1, 2) == "double"

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nt # 5\nv 0 C\n"
        graphs = parse_transaction_text(text)
        assert len(graphs) == 1
        assert graphs[0].graph_id == 5

    def test_vertex_before_transaction_raises(self):
        with pytest.raises(GraphFormatError):
            parse_transaction_text("v 0 C\n")

    def test_edge_before_transaction_raises(self):
        with pytest.raises(GraphFormatError):
            parse_transaction_text("e 0 1\n")

    def test_malformed_vertex_raises(self):
        with pytest.raises(GraphFormatError):
            parse_transaction_text("t # 0\nv 0\n")

    def test_unknown_record_raises(self):
        with pytest.raises(GraphFormatError):
            parse_transaction_text("t # 0\nx 1 2\n")

    def test_string_graph_ids(self):
        graphs = parse_transaction_text("t # mol-1\nv 0 C\n")
        assert graphs[0].graph_id == "mol-1"


class TestRoundTrips:
    def test_text_round_trip(self):
        dataset = molecule_dataset(5, min_vertices=4, max_vertices=8, rng=3)
        text = format_transaction_text(dataset)
        back = parse_transaction_text(text)
        assert len(back) == len(dataset)
        for original, restored in zip(dataset, back):
            assert restored.num_vertices == original.num_vertices
            assert restored.num_edges == original.num_edges
            assert restored.label_counts() == original.label_counts()

    def test_file_round_trip(self, tmp_path):
        dataset = molecule_dataset(4, min_vertices=4, max_vertices=6, rng=4)
        path = tmp_path / "dataset.txt"
        save_transaction_file(dataset, path)
        back = load_transaction_file(path)
        assert len(back) == 4

    def test_json_round_trip(self, tmp_path):
        dataset = molecule_dataset(4, min_vertices=4, max_vertices=6, rng=5)
        path = tmp_path / "dataset.json"
        save_json_file(dataset, path)
        back = load_json_file(path)
        assert len(back) == 4
        assert back[0].label_counts() == dataset[0].label_counts()

    def test_load_dataset_dispatches_on_extension(self, tmp_path):
        dataset = molecule_dataset(3, min_vertices=4, max_vertices=6, rng=6)
        json_path = tmp_path / "d.json"
        text_path = tmp_path / "d.txt"
        save_json_file(dataset, json_path)
        save_transaction_file(dataset, text_path)
        assert len(load_dataset(json_path)) == 3
        assert len(load_dataset(text_path)) == 3

    def test_json_requires_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(GraphFormatError):
            load_json_file(path)

    def test_empty_dataset_serialises(self):
        assert format_transaction_text([]) == ""
        assert parse_transaction_text("") == []


class TestTextFormatIsLossless:
    """The text format writes only what reads back unchanged."""

    @staticmethod
    def graph(graph_id="g", vertex_label="C", edge_label=None):
        graph = Graph(graph_id=graph_id)
        graph.add_vertex("a", "C")
        graph.add_vertex("b", vertex_label)
        graph.add_edge("a", "b", edge_label)
        return graph

    def test_what_it_writes_reads_back_equal(self):
        graphs = [self.graph("mol-1", "_", "double"), self.graph(7, "N"), self.graph("x")]
        back = parse_transaction_text(format_transaction_text(graphs))
        for original, restored in zip(graphs, back):
            assert restored.graph_id == original.graph_id
            assert restored.structural_equal(original.relabel_vertices())

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"vertex_label": ""}, "vertex 'b'"),  # was written as '_'
            ({"vertex_label": "aromatic C"}, "vertex 'b'"),
            ({"edge_label": ""}, "edge"),  # was read back unlabelled
            ({"edge_label": "single bond"}, "edge"),
            ({"graph_id": "mol 1"}, "'mol 1'"),
            ({"graph_id": "7"}, "'7'"),  # would read back as the int 7
        ],
    )
    def test_write_refuses_what_it_cannot_carry(self, kwargs, fragment):
        with pytest.raises(GraphFormatError) as excinfo:
            format_transaction_text([self.graph(**kwargs)])
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "text",
        [
            "t # 0\nv 0 C\nv 0 O\n",  # repeated vertex
            "t # 0\nv 0 C\ne 0 1\n",  # edge to an undeclared vertex
            "t # 0\nv 0 C\ne 0 0\n",  # self loop
        ],
    )
    def test_bad_records_name_their_line(self, text):
        with pytest.raises(GraphFormatError, match="^line 3: "):
            parse_transaction_text(text)
