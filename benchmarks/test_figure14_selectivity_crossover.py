"""Regenerates the extension figure (the §8.5 LUI/2LUPI sweet-spot
conjecture on a multi-branch, highly selective twig).

Benchmark kernel: the holistic twig join on columnar streams shaped
like the crossover query's.
"""

from conftest import report

from repro.bench.experiments import figure14_selectivity_crossover as experiment
from repro.engine.columnar import BlockTwigJoin
from repro.query.parser import parse_pattern
from repro.xmldb.blocks import IDBlock
from repro.xmldb.ids import NodeID


def test_figure14_selectivity_crossover(ctx, benchmark):
    result = experiment.run(ctx)
    experiment.check(result, ctx)
    report(result)

    pattern = parse_pattern("//a[/b][/c][//d]")
    nodes = list(pattern.iter_nodes())
    streams = {
        id(nodes[0]): IDBlock.from_ids(NodeID(i * 10 + 1, i * 10 + 9, 1)
                                       for i in range(100)),
        id(nodes[1]): IDBlock.from_ids(NodeID(i * 10 + 2, i * 10 + 2, 2)
                                       for i in range(0, 100, 2)),
        id(nodes[2]): IDBlock.from_ids(NodeID(i * 10 + 3, i * 10 + 3, 2)
                                       for i in range(0, 100, 3)),
        id(nodes[3]): IDBlock.from_ids(NodeID(i * 10 + 4, i * 10 + 4, 2)
                                       for i in range(0, 100, 5)),
    }

    def run_join():
        return BlockTwigJoin(pattern, streams).matching_roots()

    roots = benchmark(run_join)
    assert roots  # multiples of 30 align all three branches
