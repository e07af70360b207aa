"""An oracle for the ontology graph's invariants, checked from outside."""

from __future__ import annotations

from kdr.errors import CycleDetected, KindMismatch, SchemaViolation, UnknownParent
from kdr.ontology import ROOTS, OntologyGraph


def validate_graph(graph: OntologyGraph) -> None:
    """Re-check the forest and equivalence invariants of a whole graph."""
    root_of = {root: root for root in ROOTS}  # node -> the root it reaches
    for q, concept in graph.concepts.items():
        seen = {q}
        node = q
        while node not in root_of:
            node = graph.parents.get(node)
            if node is None:
                raise UnknownParent(f"{q} is detached from both roots")
            if node in seen:
                raise CycleDetected(f"parent cycle through {node}")
            seen.add(node)
        root = root_of[node]
        for walked in seen:
            root_of[walked] = root
        if ROOTS[root] != concept.kind:
            raise KindMismatch(f"{q} reaches the wrong root {root}")
    for a, others in graph.equivalences.items():
        for b in others:
            if graph.kind_of(a) != graph.kind_of(b):
                raise KindMismatch(f"equivalence {a} ~ {b} crosses kinds")
            if a not in graph.equivalences.get(b, ()):
                raise SchemaViolation(f"equivalence {a} ~ {b} is not symmetric")
