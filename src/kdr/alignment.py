"""Two-stage ontology expansion.

Stage one embeds "{name}: {description}" for every concept and retrieves the
top-k most similar existing concepts by cosine. Stage two shows the model the
class-definition code of the query and of each candidate and asks for a
relation per candidate; the verdicts decide where the new concept attaches.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from . import ontology as onto
from . import templates
from .errors import CycleDetected
from .llm_gateway import EmbeddingBackend, LlmGateway
from .ontology import DEFAULT_K

log = logging.getLogger(__name__)

RELATIONS = ("parent_of_query", "child_of_query", "equivalent", "unrelated")


@dataclass
class CandidateSet:
    query: str
    candidates: list[tuple[str, float]]  # (qualified name, cosine), descending


@dataclass
class RelationVerdict:
    candidate: str  # qualified name
    relation: str
    rationale: str = ""
    score: float = 0.0  # cosine carried over from retrieval


def embedding_text(name: str, description: str) -> str:
    return f"{name}: {description}"


class EmbeddingIndex(Mapping):
    """Concept vectors as the rows of one matrix, with their row norms.

    Reads as a mapping from qualified name to vector; retrieve_candidates
    scores a query against every row in one reduction.
    """

    def __init__(self, names: list[str], matrix: np.ndarray):
        self.names = names
        self.matrix = matrix
        # reduced row by row, so equal rows get bit-equal norms and tie exactly
        self.norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        self.row_of = {name: i for i, name in enumerate(names)}

    @classmethod
    def from_vectors(cls, vectors: Mapping[str, np.ndarray]) -> "EmbeddingIndex":
        names = list(vectors)
        return cls(names, np.stack([vectors[q] for q in names]) if names else np.empty((0, 0)))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.matrix[self.row_of[name]]

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def cosines(self, query_vector: np.ndarray) -> np.ndarray:
        """Cosine of every row with the query; 0.0 where a norm is zero."""
        # einsum reduces each row on its own; a BLAS `matrix @ q` blocks rows
        # and can score equal rows differently, which breaks exact ties
        scores = np.einsum("ij,j->i", self.matrix, query_vector)
        denom = self.norms * float(np.linalg.norm(query_vector))
        zero = denom == 0.0
        denom[zero] = 1.0
        scores /= denom
        scores[zero] = 0.0
        return scores


def embed_ontology(
    graph: onto.OntologyGraph,
    backend: EmbeddingBackend | LlmGateway,
    memo: dict[str, np.ndarray] | None = None,
) -> EmbeddingIndex:
    """One vector per concept, keyed by qualified name, from `backend`.embed.

    `memo` maps embedding texts to vectors across calls: only texts it lacks
    go to the backend, so a graph grown by one concept embeds one text.
    """
    names = list(graph.concepts)
    texts = []
    for q in names:
        c = graph.concepts[q]
        if not c.description:
            log.warning("concept %s has an empty description; embedding name only", q)
        texts.append(embedding_text(c.name, c.description))
    if not names:
        return EmbeddingIndex.from_vectors({})
    memo = {} if memo is None else memo
    missing = list(dict.fromkeys(t for t in texts if t not in memo))
    if missing:
        fresh = backend.embed(missing)
        memo.update(zip(missing, fresh))
        if missing == texts:  # all new and distinct: the backend's array is the matrix
            return EmbeddingIndex(names, fresh)
    return EmbeddingIndex(names, np.stack([memo[t] for t in texts]))


def retrieve_candidates(
    query: onto.Concept,
    index: Mapping[str, np.ndarray],
    k: int = DEFAULT_K,
    backend: EmbeddingBackend | LlmGateway | None = None,
    query_vector: np.ndarray | None = None,
) -> CandidateSet:
    """Exact top-k by cosine; ties break lexicographically; the query itself is skipped.

    `index` is a name -> vector mapping; an EmbeddingIndex is used as is,
    anything else is stacked first.
    """
    if query_vector is None:
        if backend is None:
            raise ValueError("need a backend or a precomputed query vector")
        query_vector = backend.embed([embedding_text(query.name, query.description)])[0]
    if not isinstance(index, EmbeddingIndex):
        index = EmbeddingIndex.from_vectors(index)
    if not index:
        return CandidateSet(query.qualified, [])
    scores = index.cosines(query_vector)
    own = index.row_of.get(query.qualified)
    rows = range(len(scores))
    if 0 < k < len(scores) - (own is not None):
        if own is not None:
            scores[own] = -np.inf  # below every cosine, so the k-th best is another row
        # every row scoring at least the k-th best, so ties at the k-th place
        # are settled by name below
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        rows = np.flatnonzero(scores >= kth).tolist()
    ranked = sorted((i for i in rows if i != own), key=lambda i: (-scores[i], index.names[i]))
    return CandidateSet(query.qualified,
                        [(index.names[i], float(scores[i])) for i in ranked[:k]])


def classify_relations(
    query: onto.Concept,
    cands: CandidateSet,
    graph: onto.OntologyGraph,
    gateway: LlmGateway,
) -> list[RelationVerdict]:
    """One relation verdict per candidate, parsed tolerantly from the response.

    A candidate the response skips, or answers with an unknown relation
    token, defaults to unrelated with the parse problem recorded in the
    rationale.
    """
    if not cands.candidates:
        return []
    candidate_codes = "\n\n".join(
        onto.render_class_code(graph, name) for name, _ in cands.candidates
    )
    prompt = templates.RELATION_CLASSIFY_PROMPT.format(
        kind=query.kind,
        query_code=onto.render_concept_code(query),
        candidate_codes=candidate_codes,
    )
    response = gateway.chat(prompt, tag="relation-classify")

    answered: dict[str, tuple[str, str]] = {}
    for line in response.splitlines():
        if ":" not in line:
            continue
        name_part, relation_part = line.split(":", 1)
        name = name_part.strip().lstrip("-* ").casefold()
        relation = relation_part.strip().casefold()
        if relation in RELATIONS:
            answered.setdefault(name, (relation, line.strip()))

    verdicts = []
    for qualified, score in cands.candidates:
        bare = qualified.rsplit(".", 1)[1].casefold()
        hit = answered.get(bare) or answered.get(qualified.casefold())
        if hit is None:
            verdicts.append(RelationVerdict(
                qualified, "unrelated",
                "no parseable verdict line for this candidate", score,
            ))
        else:
            verdicts.append(RelationVerdict(qualified, hit[0], hit[1], score))
    return verdicts


def place_concept(
    query: onto.Concept,
    verdicts: list[RelationVerdict],
    graph: onto.OntologyGraph,
) -> tuple[str, str | None, str]:
    """(parent, equivalent_to, note) for the query, without growing the graph.

    Verdicts on candidates of the other kind are ignored, with a note:
    retrieval does not filter by kind. Equivalence beats parenthood: the
    highest-cosine equivalent candidate donates its parent and an equivalence
    edge. Otherwise the highest-cosine parent_of_query candidate becomes the
    parent. Otherwise the kind root. Raises whatever inserting the query
    under that parent would raise, or CycleDetected for a query named like
    its root parent (its short name would mean the root).
    """
    root = onto.ENTITY_ROOT if query.kind == "entity" else onto.EVENT_ROOT
    equivalent_to: str | None = None
    informative = [v for v in verdicts if v.relation in ("equivalent", "parent_of_query")]
    ignored = sorted({v.candidate for v in informative
                      if graph.kind_of(v.candidate) != query.kind})
    notes = [f"ignored the verdicts on {', '.join(ignored)}, of another kind"] if ignored else []

    usable = [v for v in informative if v.candidate not in ignored]
    equivalents = [v for v in usable if v.relation == "equivalent"]
    parents = [v for v in usable if v.relation == "parent_of_query"]
    if equivalents:
        best = max(equivalents, key=lambda v: v.score)
        equivalent_to = best.candidate
        parent = graph.parents[best.candidate]
    elif parents:
        parent = max(parents, key=lambda v: v.score).candidate
    else:
        parent = root
        why = "no informative verdicts" if graph.concepts else "empty ontology"
        notes.append(f"{why}; attached under the kind root")
    note = "; ".join(notes)

    if parent == query.name:
        raise CycleDetected(f"{query.name} cannot be its own parent")
    onto.check_concept(graph, replace(query, parent=parent))
    # The equivalence edge needs no check of its own: the candidate is a stored
    # concept of its parent's kind, which the check above matched to the query.
    return parent, equivalent_to, note


def make_llm_placer(gateway: LlmGateway, k: int = DEFAULT_K):
    """Placer closure (Concept, OntologyGraph) -> (parent, equivalent_to, note).

    The one placement path: `kdr align`, organize's proposal merge and
    `eval taxonomy` all call it, and `ontology.attach` grows a graph by what
    it returns; the placer itself never grows the graph. Each graph it is
    given keeps its index as a view, rebuilt after an insert; a memo of
    embedded texts makes a graph grown by one concept embed one text. It is
    safe to call from several threads.
    """
    memo: dict[str, np.ndarray] = {}

    def index_of(graph: onto.OntologyGraph) -> EmbeddingIndex:
        return embed_ontology(graph, gateway, memo)

    def placer(query: onto.Concept, graph: onto.OntologyGraph) -> tuple[str, str | None, str]:
        index = graph.view(index_of)
        verdicts = []
        if index:
            cands = retrieve_candidates(query, index, k, backend=gateway)
            verdicts = classify_relations(query, cands, graph, gateway)
        return place_concept(query, verdicts, graph)

    return placer


def make_llm_aligner(gateway: LlmGateway, k: int = DEFAULT_K):
    """Aligner closure (Concept, OntologyGraph) -> the parent make_llm_placer picks."""
    placer = make_llm_placer(gateway, k)
    return lambda query, graph: placer(query, graph)[0]
