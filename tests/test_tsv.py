import re

import pytest

from orthomask.dataio import (
    ExpressionDataset,
    read_expression_tsv,
    read_labels_tsv,
    write_expression_tsv,
)
from orthomask.errors import ParseError
from orthomask.interpret import read_weight_table
from orthomask.orthograph import (
    BiadjacencyMatrix,
    graph_to_tsv,
    read_gene_list,
    read_score_table,
    tsv_to_graph,
    write_gene_list,
)
from orthomask.tsv import write_table


def _expression(path):
    ds = read_expression_tsv(path)
    return ds.gene_ids, ds.sample_ids, ds.samples.tolist()


def _labels(path):
    ids, values = read_labels_tsv(path, "regression")
    return ids, values.tolist()


def _graph(path):
    return tsv_to_graph(path, ["t1", "t2"], ["s1", "s2"])


# (reader returning a comparable value, header, two records, a record with
# the first record's key)
READERS = {
    "score_table": (
        lambda path: read_score_table(path).entries,
        "query\tsubject\tscore",
        ["q1\ts1\t0.5", "q1\ts2\t0.25"],
        "q1\ts1\t0.75",
    ),
    "gene_list": (read_gene_list, "gene_id", ["g1", "g2"], "g1"),
    "graph": (_graph, "target_gene\tsource_gene", ["t1\ts2", "t2\ts1"], "t1\ts2"),
    "expression": (
        _expression,
        "sample_id\tg1\tg2",
        ["a\t1.0\t-2.5", "b\t0.0\t3.0"],
        "a\t4.0\t5.0",
    ),
    "labels": (_labels, "sample_id\tlabel", ["a\t1.5", "b\t-2.0"], "a\t3.0"),
    "weight_table": (
        read_weight_table,
        "target_gene\tsource_gene\tweight\ton_support",
        ["t1\ts1\t0.5\ttrue", "t1\ts2\t-1.0\tfalse"],
        "t1\ts1\t2.0\tfalse",
    ),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_shared_table_rules(tmp_path, name):
    read, header, (first, second), same_key = READERS[name]
    path = tmp_path / f"{name}.tsv"

    def parse_error_line(*lines):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}:{err.value.line}: ")
        return err.value.line

    path.write_text(f"{header}\n{first}\n{second}\n")
    plain = read(path)
    path.write_text(f"{header}\n\n{first}\n\n\n{second}\n\n")
    assert read(path) == plain

    # blank lines count towards line numbers
    assert parse_error_line(header, first, "", second + "\textra") == 4
    assert parse_error_line(header, first, "", same_key) == 4
    assert parse_error_line("wrong_" + header, first) == 1


# writers given one ID that holds ``bad``: in a record (gene list, graph)
# or in the header (expression gene IDs)
WRITERS = {
    "gene_list": lambda bad, path: write_gene_list(["g1", bad], path),
    "graph": lambda bad, path: graph_to_tsv(
        BiadjacencyMatrix(["t1", bad], ["s1"], [(0, 0), (1, 0)]), path
    ),
    "expression": lambda bad, path: write_expression_tsv(
        ExpressionDataset("sp", ["g1", bad], ["a"], [[1.0, 2.0]]), path
    ),
}


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_reject_tab_and_line_breaks(tmp_path, name, char):
    # such a field would read back as other fields or lines, or not at all
    bad = f"x{char}y"
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        WRITERS[name](bad, tmp_path / f"{name}.tsv")


def test_writer_rejects_wrong_width(tmp_path):
    with pytest.raises(ValueError, match="expected 2 fields, got 1"):
        write_table(tmp_path / "table.tsv", ("a", "b"), [("x", "y"), ("z",)])


def test_writer_rejects_empty_line(tmp_path):
    # a one-column record of an empty field would be written as a blank
    # line, which the reader skips: the empty gene ID would vanish
    path = tmp_path / "genes.tsv"
    with pytest.raises(ValueError, match="blank line"):
        write_gene_list(["", "a"], path)
    # an empty field beside others is still a line with a tab
    write_table(path, ("a", "b"), [("", "")])
    assert path.read_text() == "a\tb\n\t\n"
