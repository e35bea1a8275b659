"""The n! enumeration of all assignments, kept as the assignment solver's
cross-check.  Not a test module: test_matching and test_cli import it.

Costs are summed robot by robot, left to right, as matching.assignment_cost
sums them, so an enumerated cost and the solver's are comparable bit for bit.
"""

import itertools
import math

import numpy as np

from dcopt.matching import _MIN_GAP, MatchingInstance


def permutation_costs(inst):
    """All n! permutations in lexicographic order, as an (n!, n) table, and
    the assignment_cost of each.

    Costs are summed robot by robot, left to right, so each equals the
    Python sum in assignment_cost bit for bit.
    """
    n = inst.n
    # block v of the table is v followed by the (n-1)! table mapped onto the
    # values other than v (row v of others): itertools enumerates only the
    # (n-1)! table, and numpy writes the n blocks
    rows = math.factorial(n - 1)
    rest = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n - 1))),
                       np.int8, count=rows * (n - 1)).reshape(rows, n - 1)
    others = np.arange(n - 1, dtype=np.int8) + (np.arange(n - 1) >= np.arange(n)[:, None])
    perms = np.empty((n, rows, n), np.int8)
    perms[:, :, 0] = np.arange(n)[:, None]
    perms[:, :, 1:] = others[:, rest]
    perms = perms.reshape(-1, n)
    d = inst.distances()
    costs = np.zeros(perms.shape[0])
    for l in range(n):
        costs += d[l, perms[:, l]]
    return perms, costs


def best(perms, costs):
    """(permutation, cost) of the first least cost: ties resolve to the
    lexicographically smallest permutation."""
    first = costs.argmin()
    return tuple(perms[first].tolist()), float(costs[first])


def brute_force(inst):
    """(permutation, cost) of inst's least-cost assignment, by enumeration."""
    return best(*permutation_costs(inst))


def enumerated_instance(seed, n, area=100.0):
    """generate_instance's sampling loop with uniqueness decided by
    enumeration: (attempt, instance, optimum) of the first attempt whose two
    least costs differ by at least _MIN_GAP."""
    for attempt in range(100):
        rng = np.random.default_rng(int(seed) + attempt)
        inst = MatchingInstance(rng.uniform(0.0, area, (n, 2)), rng.uniform(0.0, area, (n, 2)))
        perms, costs = permutation_costs(inst)
        optimum = best(perms, costs)
        if n == 1 or np.partition(costs, 1)[1] - optimum[1] >= _MIN_GAP:
            return attempt, inst, optimum
    raise RuntimeError("could not sample an instance with a unique optimum")
