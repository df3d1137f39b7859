"""Bitwise golden of the tree solver and the tree mechanism.

``tests/data/tree_rows.json`` pins, with every float as ``float.hex``:

- ``solo_rows``: :func:`~repro.mechanism.rows.solo_row` fields of tree
  rows at m ∈ {1, 2, 3, 5, 8, 13, 21} × seeds 0–39 × four deviants
  (none, ``1:misbid:1.5``, ``m:slow:2.0``, ``⌈m/2⌉:misbid:0.6``);
- ``solve_tree``: :func:`~repro.dlt.tree.solve_tree`'s alpha and
  makespan and :func:`~repro.dlt.tree.tree_equivalent_time` for
  ``random_tree_network(size, default_rng(5))``, sizes 1–29;
- ``mechanism``: ``assigned``, ``w_bar``, ``actual_rates``,
  ``makespan`` and every node's utility for 40
  :class:`~repro.mechanism.tree_mechanism.TreeMechanism` runs with one
  slow or misbidding node.

It was written at commit adc84a6, the parent of the change that merged
the tree solver's recursion and the tree mechanism's flattened copy into
one set of preorder passes, by running this module as a script against
that commit's sources::

    git archive adc84a6 src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/integration/test_tree_golden.py \\
        > tests/data/tree_rows.json
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.agents.strategies import MisbiddingAgent, SlowExecutionAgent, TruthfulAgent
from repro.dlt.tree import solve_tree, tree_equivalent_time
from repro.mechanism.rows import agent_rates, solo_row
from repro.mechanism.tree_mechanism import TreeMechanism
from repro.network.generators import random_tree_network

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "data", "tree_rows.json")

SIZES_M = (1, 2, 3, 5, 8, 13, 21)
SEEDS = range(40)


def _hex(value):
    """Floats (and float arrays) as ``float.hex``; everything else as is."""
    if isinstance(value, np.ndarray):
        return [float(x).hex() for x in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _deviants(m: int) -> tuple[str | None, ...]:
    return (None, "1:misbid:1.5", f"{m}:slow:2.0", f"{math.ceil(m / 2)}:misbid:0.6")


def _solo_rows() -> list[dict]:
    rows = []
    for m in SIZES_M:
        for seed in SEEDS:
            for deviant in _deviants(m):
                fields, _ = solo_row("tree", m, seed, 0.25, deviant)
                rows.append(
                    {
                        "m": m,
                        "seed": seed,
                        "deviant": deviant,
                        "fields": {k: _hex(v) for k, v in fields.items()},
                    }
                )
    return rows


def _solve_tree_rows() -> list[dict]:
    rows = []
    for size in range(1, 30):
        tree = random_tree_network(size, np.random.default_rng(5))
        sched = solve_tree(tree)
        rows.append(
            {
                "size": size,
                "alpha": _hex(sched.alpha),
                "makespan": _hex(float(sched.makespan)),
                "equivalent": _hex(float(tree_equivalent_time(tree))),
            }
        )
    return rows


def _mechanism_rows() -> list[dict]:
    rows = []
    for k in range(40):
        size = 2 + k % 12
        tree = random_tree_network(size, np.random.default_rng(1000 + k))
        rates = agent_rates("tree", tree)
        node = 1 + (7 * k) % (size - 1)
        if k % 2 == 0:
            deviant = SlowExecutionAgent(node, rates[node - 1], slowdown=1.25 + 0.5 * (k % 3))
        else:
            factor = (0.5, 0.9, 1.6)[k % 3]
            deviant = MisbiddingAgent(node, rates[node - 1], bid_factor=factor)
        agents = [TruthfulAgent(i, t) for i, t in enumerate(rates, start=1)]
        agents[node - 1] = deviant
        total_load = 1.0 if k < 20 else 2.5
        outcome = TreeMechanism(tree, agents, total_load=total_load).run()
        rows.append(
            {
                "k": k,
                "size": size,
                "node": node,
                "assigned": _hex(outcome.assigned),
                "w_bar": _hex(outcome.w_bar),
                "actual_rates": _hex(outcome.actual_rates),
                "makespan": _hex(float(outcome.makespan)),
                "utilities": [_hex(float(outcome.utility(i))) for i in range(size)],
            }
        )
    return rows


def render() -> str:
    """The golden's text: one JSON object, one entry per line."""
    sections = {
        "solo_rows": _solo_rows(),
        "solve_tree": _solve_tree_rows(),
        "mechanism": _mechanism_rows(),
    }
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]"
        for name, rows in sections.items()
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_tree_outputs_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read()
    rendered = render()
    if rendered != expected:
        want, got = json.loads(expected), json.loads(rendered)
        for name in want:
            for i, (a, b) in enumerate(zip(want[name], got[name])):
                assert a == b, f"{name}[{i}] differs"
        assert rendered == expected


if __name__ == "__main__":
    print(render(), end="")
