"""Every look-up's answer and plan accounting, pinned with literals.

For q1-q10 on a fixed 30-document corpus, all four strategies and the
``assume_sorted=False`` ablation of LUI (which pays a sort per stream):
the URIs a pattern look-up returns (as the documents' serial numbers), its
billable ``index_gets``, its ``rows_processed`` and the
``operator_rows`` of every :class:`PlanStats` it opened, in order (the
2LUPI look-up opens two: the LUP pre-filter's and its own).  The values
were computed at commit 1f74c3d, before the read path was reorganised
("read once"): simulated plan CPU is a function of exactly these rows,
so a faster look-up must reproduce them key for key — no zero-row
entry the old code would not have written.
"""

from repro.config import ScaleProfile
from repro.indexing import lookup_plans
from repro.query.workload import workload
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

# (strategy, query, pattern index) ->
#     (document serials, index_gets, rows_processed, [operator_rows, ...])
PINNED = {('2LUPI', 'q1', 0): ([3], 5, 72,
                      [{'intersect': 9, 'path-filter': 21},
                       {'intersect': 3,
                        'lup-phase': 30,
                        'semijoin': 32,
                        'twig-join': 7}]),
 ('2LUPI', 'q10', 0): ([], 7, 84,
                       [{'intersect': 8, 'path-filter': 27},
                        {'intersect': 0, 'lup-phase': 35, 'semijoin': 49}]),
 ('2LUPI', 'q10', 1): ([30], 9, 109,
                       [{'intersect': 8, 'path-filter': 39},
                        {'intersect': 6,
                         'lup-phase': 47,
                         'semijoin': 48,
                         'twig-join': 8}]),
 ('2LUPI', 'q2', 0): ([10, 16, 18], 8, 152,
                      [{'intersect': 19, 'path-filter': 31},
                       {'intersect': 15,
                        'lup-phase': 50,
                        'semijoin': 64,
                        'twig-join': 23}]),
 ('2LUPI', 'q3', 0): ([], 7, 132,
                      [{'intersect': 10, 'path-filter': 45},
                       {'intersect': 0, 'lup-phase': 55, 'semijoin': 77}]),
 ('2LUPI', 'q4', 0): ([22, 23, 24, 25, 26], 6, 147,
                      [{'intersect': 11, 'path-filter': 16},
                       {'intersect': 20,
                        'lup-phase': 27,
                        'semijoin': 52,
                        'twig-join': 48}]),
 ('2LUPI', 'q5', 0): ([], 9, 77,
                      [{'intersect': 7, 'path-filter': 17},
                       {'intersect': 0, 'lup-phase': 24, 'semijoin': 53}]),
 ('2LUPI', 'q6', 0): ([9, 10, 11, 12, 16, 17, 18], 5, 152,
                      [{'intersect': 7, 'path-filter': 7},
                       {'intersect': 28,
                        'lup-phase': 14,
                        'semijoin': 59,
                        'twig-join': 51}]),
 ('2LUPI', 'q7', 0): ([], 9, 131,
                      [{'intersect': 3, 'path-filter': 41},
                       {'intersect': 0, 'lup-phase': 44, 'semijoin': 87}]),
 ('2LUPI', 'q8', 0): ([1, 2, 3, 4, 5, 6, 7, 8], 5, 209,
                      [{'intersect': 16, 'path-filter': 46},
                       {'intersect': 24,
                        'lup-phase': 62,
                        'semijoin': 78,
                        'twig-join': 45}]),
 ('2LUPI', 'q8', 1): ([27, 30], 6, 96,
                      [{'intersect': 6, 'path-filter': 34},
                       {'intersect': 8,
                        'lup-phase': 40,
                        'semijoin': 30,
                        'twig-join': 18}]),
 ('2LUPI', 'q9', 0): ([9, 10, 11, 12, 13, 15, 16, 17], 5, 216,
                      [{'intersect': 18, 'path-filter': 46},
                       {'intersect': 24,
                        'lup-phase': 64,
                        'semijoin': 80,
                        'twig-join': 48}]),
 ('2LUPI', 'q9', 1): ([22, 23, 24, 25, 26], 6, 147,
                      [{'intersect': 11, 'path-filter': 16},
                       {'intersect': 20,
                        'lup-phase': 27,
                        'semijoin': 52,
                        'twig-join': 48}]),
 ('LU', 'q1', 0): ([3], 3, 29, [{'intersect': 29}]),
 ('LU', 'q10', 0): ([], 5, 49, [{'intersect': 49}]),
 ('LU', 'q10', 1): ([28, 30], 6, 42, [{'intersect': 42}]),
 ('LU', 'q2', 0): ([10, 16, 18], 5, 49, [{'intersect': 49}]),
 ('LU', 'q3', 0): ([9, 10, 11, 12, 13, 14, 15, 16, 17], 5, 77,
                   [{'intersect': 77}]),
 ('LU', 'q4', 0): ([21, 22, 23, 24, 25, 26], 4, 32, [{'intersect': 32}]),
 ('LU', 'q5', 0): ([], 7, 53, [{'intersect': 53}]),
 ('LU', 'q6', 0): ([9, 10, 11, 12, 16, 17, 18], 4, 31, [{'intersect': 31}]),
 ('LU', 'q7', 0): ([16], 7, 87, [{'intersect': 87}]),
 ('LU', 'q8', 0): ([1, 2, 3, 4, 5, 6, 7, 8], 3, 54, [{'intersect': 54}]),
 ('LU', 'q8', 1): ([27, 28, 29, 30], 4, 22, [{'intersect': 22}]),
 ('LU', 'q9', 0): ([9, 10, 11, 12, 13, 14, 15, 16, 17, 18], 3, 56,
                   [{'intersect': 56}]),
 ('LU', 'q9', 1): ([21, 22, 23, 24, 25, 26], 4, 32, [{'intersect': 32}]),
 ('LUI', 'q1', 0): ([3], 3, 36, [{'intersect': 29, 'twig-join': 7}]),
 ('LUI', 'q10', 0): ([], 5, 49, [{'intersect': 49}]),
 ('LUI', 'q10', 1): ([30], 6, 58, [{'intersect': 42, 'twig-join': 16}]),
 ('LUI', 'q2', 0): ([10, 16, 18], 5, 72, [{'intersect': 49, 'twig-join': 23}]),
 ('LUI', 'q3', 0): ([], 5, 197, [{'intersect': 77, 'twig-join': 120}]),
 ('LUI', 'q4', 0): ([22, 23, 24, 25, 26], 4, 92,
                    [{'intersect': 32, 'twig-join': 60}]),
 ('LUI', 'q5', 0): ([], 7, 53, [{'intersect': 53}]),
 ('LUI', 'q6', 0): ([9, 10, 11, 12, 16, 17, 18], 4, 82,
                    [{'intersect': 31, 'twig-join': 51}]),
 ('LUI', 'q7', 0): ([], 7, 102, [{'intersect': 87, 'twig-join': 15}]),
 ('LUI', 'q8', 0): ([1, 2, 3, 4, 5, 6, 7, 8], 3, 99,
                    [{'intersect': 54, 'twig-join': 45}]),
 ('LUI', 'q8', 1): ([27, 30], 4, 52, [{'intersect': 22, 'twig-join': 30}]),
 ('LUI', 'q9', 0): ([9, 10, 11, 12, 13, 15, 16, 17], 3, 110,
                    [{'intersect': 56, 'twig-join': 54}]),
 ('LUI', 'q9', 1): ([22, 23, 24, 25, 26], 4, 92,
                    [{'intersect': 32, 'twig-join': 60}]),
 ('LUI-unsorted', 'q1', 0): ([3], 3, 48,
                             [{'intersect': 29, 'sort': 12, 'twig-join': 7}]),
 ('LUI-unsorted', 'q10', 0): ([], 5, 49, [{'intersect': 49}]),
 ('LUI-unsorted', 'q10', 1): ([30], 6, 70,
                              [{'intersect': 42,
                                'sort': 12,
                                'twig-join': 16}]),
 ('LUI-unsorted', 'q2', 0): ([10, 16, 18], 5, 96,
                             [{'intersect': 49, 'sort': 24, 'twig-join': 23}]),
 ('LUI-unsorted', 'q3', 0): ([], 5, 437,
                             [{'intersect': 77,
                               'sort': 240,
                               'twig-join': 120}]),
 ('LUI-unsorted', 'q4', 0): ([22, 23, 24, 25, 26], 4, 188,
                             [{'intersect': 32, 'sort': 96, 'twig-join': 60}]),
 ('LUI-unsorted', 'q5', 0): ([], 7, 53, [{'intersect': 53}]),
 ('LUI-unsorted', 'q6', 0): ([9, 10, 11, 12, 16, 17, 18], 4, 152,
                             [{'intersect': 31, 'sort': 70, 'twig-join': 51}]),
 ('LUI-unsorted', 'q7', 0): ([], 7, 129,
                             [{'intersect': 87, 'sort': 27, 'twig-join': 15}]),
 ('LUI-unsorted', 'q8', 0): ([1, 2, 3, 4, 5, 6, 7, 8], 3, 147,
                             [{'intersect': 54, 'sort': 48, 'twig-join': 45}]),
 ('LUI-unsorted', 'q8', 1): ([27, 30], 4, 94,
                             [{'intersect': 22, 'sort': 42, 'twig-join': 30}]),
 ('LUI-unsorted', 'q9', 0): ([9, 10, 11, 12, 13, 15, 16, 17], 3, 176,
                             [{'intersect': 56, 'sort': 66, 'twig-join': 54}]),
 ('LUI-unsorted', 'q9', 1): ([22, 23, 24, 25, 26], 4, 188,
                             [{'intersect': 32, 'sort': 96, 'twig-join': 60}]),
 ('LUP', 'q1', 0): ([3], 2, 30, [{'intersect': 9, 'path-filter': 21}]),
 ('LUP', 'q10', 0): ([], 2, 35, [{'intersect': 8, 'path-filter': 27}]),
 ('LUP', 'q10', 1): ([30], 3, 47, [{'intersect': 8, 'path-filter': 39}]),
 ('LUP', 'q2', 0): ([10, 16, 18], 3, 50,
                    [{'intersect': 19, 'path-filter': 31}]),
 ('LUP', 'q3', 0): ([], 2, 55, [{'intersect': 10, 'path-filter': 45}]),
 ('LUP', 'q4', 0): ([22, 23, 24, 25, 26], 2, 27,
                    [{'intersect': 11, 'path-filter': 16}]),
 ('LUP', 'q5', 0): ([], 2, 24, [{'intersect': 7, 'path-filter': 17}]),
 ('LUP', 'q6', 0): ([9, 10, 11, 12, 16, 17, 18], 1, 14,
                    [{'intersect': 7, 'path-filter': 7}]),
 ('LUP', 'q7', 0): ([], 2, 44, [{'intersect': 3, 'path-filter': 41}]),
 ('LUP', 'q8', 0): ([1, 2, 3, 4, 5, 6, 7, 8], 2, 62,
                    [{'intersect': 16, 'path-filter': 46}]),
 ('LUP', 'q8', 1): ([27, 30], 2, 40, [{'intersect': 6, 'path-filter': 34}]),
 ('LUP', 'q9', 0): ([9, 10, 11, 12, 13, 15, 16, 17], 2, 64,
                    [{'intersect': 18, 'path-filter': 46}]),
 ('LUP', 'q9', 1): ([22, 23, 24, 25, 26], 2, 27,
                    [{'intersect': 11, 'path-filter': 16}])}


def test_lookups_reproduce_the_pinned_rows(monkeypatch):
    opened = []

    class Recording(lookup_plans.PlanStats):
        def __init__(self):
            super().__init__()
            opened.append(self)

    monkeypatch.setattr(lookup_plans, "PlanStats", Recording)
    warehouse = Warehouse()
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=30, seed=31)))
    seen = {}
    for strategy in ("LU", "LUP", "LUI", "2LUPI", "LUI-unsorted"):
        lookup = warehouse.build_index(strategy.split("-")[0]).make_lookup()
        if strategy == "LUI-unsorted":
            lookup.assume_sorted = False
        for query in workload():
            for index, pattern in enumerate(query.patterns):
                del opened[:]
                outcome = warehouse.cloud.env.run_process(
                    lookup.lookup_pattern(pattern))
                seen[strategy, query.name, index] = (
                    [int(uri.split("-")[1][:5]) for uri in outcome.uris],
                    outcome.index_gets, outcome.rows_processed,
                    [stats.operator_rows for stats in opened])
    assert sorted(seen) == sorted(PINNED)
    for key in sorted(PINNED):
        assert seen[key] == PINNED[key], key
