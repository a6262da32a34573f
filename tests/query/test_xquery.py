"""Unit tests for the pattern → XQuery translation (§4)."""

from repro.query.parser import parse_query
from repro.query.xquery import to_xquery


def test_simple_pattern_translation():
    query = parse_query("//painting[/name{val}]")
    xquery = to_xquery(query)
    assert 'for $d1 in collection("warehouse")' in xquery
    assert "for $painting in $d1//painting" in xquery
    assert "for $name in $painting/name" in xquery
    assert "return" in xquery
    assert "string($name)" in xquery


def test_descendant_axis_renders_double_slash():
    xquery = to_xquery(parse_query("//a//b"))
    assert "$a//b" in xquery


def test_attribute_step():
    xquery = to_xquery(parse_query("//a/@id{val}"))
    assert "$a/@id" in xquery


def test_equality_predicate_in_where():
    xquery = to_xquery(parse_query('//a[/b="1854"]'))
    assert 'where string($b) = "1854"' in xquery


def test_contains_predicate():
    xquery = to_xquery(parse_query('//a[/b contains("Lion")]'))
    assert 'contains(string($b), "Lion")' in xquery


def test_range_predicate():
    xquery = to_xquery(parse_query("//a[/b in(1854, 1865)]"))
    assert 'string($b) >= "1854"' in xquery
    assert 'string($b) <= "1865"' in xquery


def test_cont_returns_node_not_string():
    xquery = to_xquery(parse_query("//a[/b{cont}]"))
    assert "return <result>{ $b }</result>" in xquery


def test_value_join_crosses_documents():
    query = parse_query(
        "//museum[//painting/@id{$i}] ; //painting[/@id{$j}] join $i = $j")
    xquery = to_xquery(query)
    assert "for $d1 in" in xquery and "for $d2 in" in xquery
    assert "string($i) = string($j)" in xquery


def test_duplicate_labels_get_fresh_variables():
    xquery = to_xquery(parse_query("//name[//name]"))
    assert "$name1" in xquery

