"""The rival grouping that solvers._rival_groups ran before it became one
stable lexsort: np.unique over the rounded rival columns with axis=0, which
sorts each row as a structured record (a mergesort, since return_index is
asked for).  Kept out of gnepkit as the reference of tests/test_solvers.py."""

import numpy as np


def rival_groups(nodes, block):
    """(first, inverse) as _rival_groups defines them."""
    rivals = np.delete(nodes, np.arange(block.start, block.stop), axis=1)
    if rivals.shape[1] == 0:
        return np.zeros(1, dtype=int), np.zeros(len(nodes), dtype=int)
    _, first, inverse = np.unique(np.round(rivals, 12), axis=0, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)
