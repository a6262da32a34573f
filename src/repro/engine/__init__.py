"""Single-site XML query engine.

§3: "Our framework includes 'standard' XML query evaluation [...] done
by means of a single-site XML processor, which one can choose freely"
(the paper uses ViP2P's Java engine).  This subpackage is our processor:

- :mod:`~repro.engine.evaluator` — tree-pattern evaluation over a
  :class:`~repro.xmldb.model.Document` (selections, projections,
  structural navigation), producing result rows;
- :mod:`~repro.engine.columnar` — the holistic twig join of Bruno et
  al. [7], specialised to the existence test the look-ups need
  ("identify the relevant documents", §5.3/§5.4), and the stack-based
  structural joins of Al-Khalifa et al. [3], all over
  :class:`~repro.xmldb.blocks.IDBlock` columns;
- :mod:`~repro.engine.value_join` — hash-based value joins across tree
  pattern results (§5.5);
- :mod:`~repro.engine.operators` — small physical-plan operators with
  row accounting, used by the look-up plans (Figure 5) to charge plan
  execution CPU.
"""

from repro.engine.columnar import (BlockTwigJoin, KernelStats,
                                   block_semi_join_ancestors,
                                   block_semi_join_descendants,
                                   block_stack_tree_join, hash_join_indices,
                                   make_twig_join)
from repro.engine.evaluator import (EvalRow, evaluate_pattern, evaluate_query,
                                    pattern_matches)
from repro.engine.value_join import hash_value_join, join_query_rows

__all__ = [
    "BlockTwigJoin",
    "EvalRow",
    "KernelStats",
    "block_semi_join_ancestors",
    "block_semi_join_descendants",
    "block_stack_tree_join",
    "evaluate_pattern",
    "evaluate_query",
    "hash_join_indices",
    "hash_value_join",
    "join_query_rows",
    "make_twig_join",
    "pattern_matches",
]
