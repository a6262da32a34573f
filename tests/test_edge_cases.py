"""Edge cases across the stack: minimal corpora, empty answers,
degenerate inputs."""

import pytest

from repro.config import ScaleProfile
from repro.engine.evaluator import evaluate_query, result_size_bytes
from repro.query.parser import parse_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus
from repro.xmark.corpus import Corpus
from repro.xmldb.model import Document, Element, Text
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize


def _single_document_corpus():
    root = Element(label="painting")
    root.set_attribute("id", "p1")
    name = Element(label="name")
    name.add(Text(value="Olympia"))
    root.add(name)
    document = Document(uri="only.xml", root=root)
    data = serialize(document)
    document.size_bytes = len(data)
    return Corpus(documents=[document], data={"only.xml": data})


class TestOneDocumentWarehouse:
    @pytest.fixture(scope="class")
    def warehouse(self):
        wh = Warehouse()
        wh.upload_corpus(_single_document_corpus())
        return wh

    def test_build_all_strategies(self, warehouse):
        for name in ("LU", "LUP", "LUI", "2LUPI"):
            built = warehouse.build_index(name, loaders=1)
            assert built.report.documents == 1
            assert built.report.puts > 0

    def test_query_hits_and_misses(self, warehouse):
        index = warehouse.build_index("LUI", loaders=1)
        hit = warehouse.run_query(
            parse_query("//painting/name{val}", name="hit"), index)
        assert hit.result_rows == 1
        miss = warehouse.run_query(
            parse_query("//sculpture{val}", name="miss"), index)
        assert miss.result_rows == 0
        assert miss.docs_from_index == 0
        assert miss.documents_fetched == 0

    def test_more_workers_than_documents(self, warehouse):
        built = warehouse.build_index("LU", loaders=6)
        assert built.report.documents == 1


class TestDeepDocument:
    """A document nested far below the interpreter's recursion limit is
    stored, indexed, queried and serialized: every walk over the model
    (``iter_elements``, ``iter_nodes``, ``string_value``, the
    evaluator's descendant axis, ``serialize`` and ``subtree_xml``)
    keeps an explicit stack."""

    DEPTH = 5000
    DATA = (b"<r>" + b'<a k="v">' * DEPTH + b"<leaf>gold</leaf>"
            + b"</a>" * DEPTH + b"</r>")

    @pytest.fixture(scope="class")
    def deep(self):
        return parse_document(self.DATA, "deep.xml")

    def test_round_trips_through_serialize(self, deep):
        assert serialize(deep) == self.DATA
        assert deep.node_count() == 2 * self.DEPTH + 3
        assert sum(1 for _ in deep.iter_elements()) == self.DEPTH + 2

    @pytest.mark.parametrize("text", [
        "//r{val}", "//r{cont}", "//r//leaf{val}", "//a/leaf{cont}",
        "//r//a/@k{val}"])
    def test_queried_as_the_engine_answers(self, deep, text):
        warehouse = Warehouse()
        warehouse.upload_corpus(Corpus(documents=[deep],
                                       data={deep.uri: self.DATA}))
        index = warehouse.build_index("LUI", loaders=1)
        query = parse_query(text, name="deep")
        direct = evaluate_query(query, [deep])
        execution = warehouse.run_query(query, index)
        assert direct and execution.result_rows == len(direct)
        assert execution.result_bytes == result_size_bytes(direct)


class TestMinimalScale:
    def test_one_document_generation(self):
        corpus = generate_corpus(ScaleProfile(documents=1, seed=7))
        assert len(corpus) == 1

    def test_five_documents_cover_plan(self):
        corpus = generate_corpus(ScaleProfile(documents=5, seed=7))
        assert len(corpus) == 5


class TestDegenerateQueries:
    @pytest.fixture(scope="class")
    def deployed(self):
        wh = Warehouse()
        wh.upload_corpus(generate_corpus(ScaleProfile(documents=20,
                                                      seed=151)))
        return wh, wh.build_index("LUP", loaders=2)

    def test_single_label_query(self, deployed):
        warehouse, index = deployed
        execution = warehouse.run_query(
            parse_query("//item{val}", name="one-label"), index)
        assert execution.index_gets == 1
        assert execution.docs_from_index >= execution.docs_with_results

    def test_deep_nonexistent_path(self, deployed):
        warehouse, index = deployed
        execution = warehouse.run_query(
            parse_query("//item/person/item/person{val}", name="deep"),
            index)
        assert execution.result_rows == 0

    def test_join_with_empty_side(self, deployed):
        warehouse, index = deployed
        query = parse_query(
            "//nonexistent[/@id{$a}] ; //item[/@id{$b}] join $a = $b",
            name="empty-join")
        execution = warehouse.run_query(query, index)
        assert execution.result_rows == 0

    def test_contains_unknown_word(self, deployed):
        warehouse, index = deployed
        execution = warehouse.run_query(
            parse_query('//item[/name contains("zzzunknown")]{cont}',
                        name="no-word"), index)
        assert execution.docs_from_index == 0
        assert execution.result_rows == 0

    def test_range_covering_everything(self, deployed):
        warehouse, index = deployed
        execution = warehouse.run_query(
            parse_query("//item[/quantity in(0, 9999)][/name{val}]",
                        name="wide-range"), index)
        assert execution.result_rows > 0


class TestRepeatedOperations:
    def test_same_query_twice_same_metrics(self):
        warehouse = Warehouse()
        warehouse.upload_corpus(generate_corpus(
            ScaleProfile(documents=15, seed=161)))
        index = warehouse.build_index("LU", loaders=1)
        query = parse_query("//item/name{val}", name="rep")
        first = warehouse.run_query(query, index)
        second = warehouse.run_query(query, index)
        assert first.result_rows == second.result_rows
        assert first.docs_from_index == second.docs_from_index
        assert first.response_s == pytest.approx(second.response_s,
                                                 rel=0.05)
