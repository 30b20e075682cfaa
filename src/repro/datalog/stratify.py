"""Stratification of Datalog programs with negation.

A program is stratifiable when no predicate depends on itself through a
negation. The stratifier assigns each IDB predicate a stratum number such
that positive dependencies stay within or below the stratum and negative
dependencies point strictly below. Evaluation then proceeds stratum by
stratum and, inside a stratum, one strongly connected component of the
dependency graph at a time, in dependency order (see
:mod:`repro.datalog.engine`).
"""

from __future__ import annotations

from typing import Iterator

from repro.datalog.errors import StratificationError
from repro.datalog.program import Program

__all__ = ["evaluation_order", "stratify"]


def stratify(program: Program) -> dict[str, int]:
    """Assign a stratum number to every predicate of ``program``.

    EDB predicates are always stratum 0. Raises
    :class:`StratificationError` when the program has a cycle through
    negation.
    """
    graph = program.dependency_graph()
    idb = program.idb_predicates()
    predicates = program.predicates()
    strata = {predicate: 0 for predicate in predicates}

    # Iteratively raise strata: h >= b for positive edges, h >= b+1 for
    # negative edges. The maximum legal stratum is the number of IDB
    # predicates; exceeding it implies a negative cycle.
    limit = max(1, len(idb))
    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > limit * max(1, len(predicates)) + 1:
            raise StratificationError(
                "program is not stratifiable (cycle through negation)")
        for head, edges in graph.items():
            for body_predicate, negated in edges:
                required = strata[body_predicate] + (1 if negated else 0)
                if strata[head] < required:
                    if required > limit:
                        raise StratificationError(
                            f"program is not stratifiable: predicate {head!r} depends "
                            f"negatively on a cycle")
                    strata[head] = required
                    changed = True
    return strata


def evaluation_order(program: Program) -> list[list[str]]:
    """The IDB predicates grouped into the components the engine evaluates.

    A component is a strongly connected component of the dependency graph:
    one recursive predicate group, or a single non-recursive predicate.
    Components come lowest stratum first and, inside a stratum, in
    dependency order, so every component is evaluated after every component
    it reads and needs no semi-naive rounds for predicates that are already
    complete. The order is deterministic: predicates and their dependencies
    are visited alphabetically.
    """
    strata = stratify(program)
    return sorted(_components(program), key=lambda component: strata[component[0]])


def _components(program: Program) -> list[list[str]]:
    """Strongly connected components of the IDB dependency graph, each
    emitted after the components it depends on (Tarjan's algorithm, run
    iteratively so long predicate chains cannot exhaust the stack)."""
    idb = program.idb_predicates()
    graph = {
        head: sorted({body for body, _negated in edges if body in idb})
        for head, edges in program.dependency_graph().items()
    }
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    work: list[tuple[str, Iterator[str]]] = []  # the DFS path, with unvisited edges
    components: list[list[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph[node])))

    for root in sorted(idb):
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    visit(successor)
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
    return components
