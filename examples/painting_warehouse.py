#!/usr/bin/env python
"""The paper's running example, end to end.

Builds Figure 3's "delacroix.xml" / "manet.xml", prints manet.xml's
(pre, post, depth) identifiers and label paths (a document stores
neither: one walk numbers it), then the §5 index tuples each strategy
extracts (compare with the paper's tables), then
runs the five Figure 2 queries through a real warehouse deployment —
including q5's value join across documents — and shows the XQuery each
pattern abbreviates.
"""

from repro import Warehouse, figure2_queries
from repro.indexing.registry import all_strategies
from repro.query.xquery import to_xquery
from repro.xmark.corpus import Corpus
from repro.xmldb.encoding import encode_ids_text
from repro.xmldb.model import Attribute, Document, Element, Text, number_nodes
from repro.xmldb.serializer import serialize


def painting(uri, painting_id, name, first, last, year=None):
    root = Element(label="painting")
    root.set_attribute("id", painting_id)
    name_el = Element(label="name")
    name_el.add(Text(value=name))
    root.add(name_el)
    if year:
        year_el = Element(label="year")
        year_el.add(Text(value=year))
        root.add(year_el)
    painter = Element(label="painter")
    painter_name = Element(label="name")
    for tag, value in (("first", first), ("last", last)):
        leaf = Element(label=tag)
        leaf.add(Text(value=value))
        painter_name.add(leaf)
    painter.add(painter_name)
    root.add(painter)
    document = Document(uri=uri, root=root)
    document.size_bytes = len(serialize(document))
    return document


def museum(uri, name, painting_ids):
    root = Element(label="museum")
    name_el = Element(label="name")
    name_el.add(Text(value=name))
    root.add(name_el)
    for painting_id in painting_ids:
        ref = Element(label="painting")
        ref.set_attribute("id", painting_id)
        root.add(ref)
    document = Document(uri=uri, root=root)
    document.size_bytes = len(serialize(document))
    return document


def show_numbering(document) -> None:
    print("=" * 68)
    print("Figure 3's numbering of {}: ID, label path, node".format(document.uri))
    for node, node_id, path in number_nodes(document):
        if isinstance(node, Element):
            shown = "<{}>".format(node.label)
        elif isinstance(node, Attribute):
            shown = "@{}={}".format(node.name, node.value)
        else:
            shown = repr(node.value)
        print("  {:<12} {:<34} {}".format(node_id.as_text(), path, shown))


def show_extraction(documents) -> None:
    print("=" * 68)
    print("Index tuples per strategy (compare with the paper's §5 tables)")
    for strategy in all_strategies():
        print("\n--- {} ---".format(strategy.describe()))
        for document in documents[:2]:
            for logical, entries in strategy.extract(document).items():
                interesting = [e for e in entries if e.key in (
                    "ename", "aid", "aid 1863-1", "aid 1854-1",
                    "wolympia", "wlion")]
                for entry in interesting:
                    if entry.kind == "presence":
                        payload = "ε"
                    elif entry.kind == "paths":
                        payload = ", ".join(entry.paths)
                    else:
                        payload = encode_ids_text(entry.ids)
                    print("  [{}] {:<12} {:<16} {}".format(
                        logical, entry.key, entry.uri, payload))


def main() -> None:
    documents = [
        painting("delacroix.xml", "1854-1", "The Lion Hunt",
                 "Eugene", "Delacroix", year="1854"),
        painting("manet.xml", "1863-1", "Olympia", "Edouard", "Manet",
                 year="1863"),
        museum("louvre.xml", "Louvre", ["1854-1"]),
        museum("orsay.xml", "Musee d'Orsay", ["1863-1"]),
    ]
    show_numbering(documents[1])
    show_extraction(documents)

    corpus = Corpus(documents=documents,
                    data={d.uri: serialize(d) for d in documents})
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("2LUPI", loaders=2)

    print("\n" + "=" * 68)
    print("Figure 2 queries through the warehouse (2LUPI index)")
    for query in figure2_queries():
        execution = warehouse.run_query(query, index)
        payload = warehouse.cloud.s3.peek(
            "results", "results/{}.txt".format(
                max(int(k.split("/")[1].split(".")[0]) for k in
                    warehouse.cloud.s3._bucket("results").objects)))
        print("\n{}: {}".format(query.name, query))
        print("  docs from index: {}   rows: {}".format(
            execution.docs_from_index, execution.result_rows))
        for line in payload.data.decode("utf-8").splitlines():
            print("  -> {}".format(line))

    print("\n" + "=" * 68)
    print("XQuery translation of fig2-q5 (§4):\n")
    print(to_xquery(figure2_queries()[-1]))


if __name__ == "__main__":
    main()
