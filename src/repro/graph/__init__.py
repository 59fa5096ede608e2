"""Graph substrate: labelled undirected graphs, their compiled form, generators and I/O."""

from repro.graph.graph import (
    Graph,
    VertexId,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    star_graph,
)
from repro.graph.generators import (
    ATOM_ALPHABET,
    PROTEIN_ALPHABET,
    label_clustered_dataset,
    molecule_dataset,
    molecule_graph,
    power_law_graph,
    protein_like_graph,
    random_labelled_graph,
    synthetic_dataset,
)
from repro.graph.operations import (
    extend_graph,
    random_connected_subgraph,
    shrink_graph,
)
from repro.graph.io import (
    format_transaction_text,
    load_dataset,
    load_json_file,
    load_transaction_file,
    parse_transaction_text,
    save_json_file,
    save_transaction_file,
)
from repro.graph.sdf import (
    format_molfile,
    format_sdf_text,
    load_sdf_file,
    parse_molfile,
    parse_sdf_text,
    save_sdf_file,
)

__all__ = [
    "Graph",
    "VertexId",
    "graph_from_edges",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "ATOM_ALPHABET",
    "PROTEIN_ALPHABET",
    "molecule_graph",
    "molecule_dataset",
    "label_clustered_dataset",
    "random_labelled_graph",
    "power_law_graph",
    "protein_like_graph",
    "synthetic_dataset",
    "random_connected_subgraph",
    "shrink_graph",
    "extend_graph",
    "parse_transaction_text",
    "format_transaction_text",
    "load_transaction_file",
    "save_transaction_file",
    "load_json_file",
    "save_json_file",
    "load_dataset",
    "parse_molfile",
    "parse_sdf_text",
    "format_molfile",
    "format_sdf_text",
    "load_sdf_file",
    "save_sdf_file",
]
