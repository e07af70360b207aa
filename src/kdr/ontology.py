"""Code-represented ontology.

Concepts are stored as class-like nodes rooted at the two predefined base
concepts ``Entity`` and ``Event``. The module renders concepts as canonical
class-definition code, renders import clauses, and answers hierarchy queries
(depth, lowest common ancestor, Wu&Palmer similarity).

A graph grows in place, by whoever owns it, through two paths only:
``insert_concept`` (via ``_insert``) and ``OntologyGraph.add_equivalence``;
``attach`` applies an alignment placement through both. A caller that must
leave its input unchanged takes ``graph.copy()`` once and grows the copy.
Concepts listed in any order (an ontology document, a taxonomy's terms) are
placed by ``place_concepts``, in sweeps of what ``insert_concept`` checks;
when a sweep places none, the first leftover that waits on a name no other
leftover declares raises its insert error, and otherwise the leftovers wait
on each other and raise ``CycleDetected``.
Equivalence exists only as a graph edge. Lookups are derived here once: an
AttributeSpec parses its type token when built; ``_insert`` records a
concept's slot list and each reference slot's qualified target, inherited ones
included, so a type means one concept to every reader however the graph grows;
a graph keeps these and a short-name map (shared with a copy: their values
never change) and views such as the concept-search index (built once by
``view``, dropped by ``_insert``).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field, replace

from .errors import (
    AmbiguousName,
    CycleDetected,
    DuplicateAttribute,
    DuplicateName,
    EmptyImport,
    KindMismatch,
    ParseFailure,
    SchemaViolation,
    UnknownConcept,
    UnknownParent,
)
from .files import check_keys, read_json, write_json

ENTITY_ROOT = "Entity"
EVENT_ROOT = "Event"
ROOTS = {ENTITY_ROOT: "entity", EVENT_ROOT: "event"}

# Mandatory first constructor slot per kind: entity instances are identified
# by a name, event instances by their trigger phrase.
MANDATORY_SLOT = {"entity": "name", "event": "trigger"}

# Candidate neighbours retrieved when placing a new concept (kdr.alignment);
# kept here so the CLI can show it without importing numpy.
DEFAULT_K = 10

ROOT_DESCRIPTIONS = {
    ENTITY_ROOT: "Base concept for all entities.",
    EVENT_ROOT: "Base concept for all events.",
}

_NAME_RE = re.compile(r"[A-Z][A-Za-z0-9]*\Z")
_ATTR_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_NAMESPACE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")

SCALAR_BASES = ("text", "number", "date")


def _normalize_text(value: str) -> str:
    """Collapse a free-text field onto one line so class code stays line-based."""
    return " ".join(str(value).split())


@dataclass
class AttributeSpec:
    """One typed attribute of a concept.

    ``type`` is a type token: ``text``, ``number``, ``date``, ``List[...]`` of
    those, a concept name for a reference, or ``List[ConceptName]``.
    """

    name: str
    type: str
    doc: str = ""
    base: str = field(init=False, compare=False, repr=False)
    is_list: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.doc = _normalize_text(self.doc)
        self.base, self.is_list = parse_type_token(self.type)


def parse_type_token(token: str) -> tuple[str, bool]:
    """Split a type token into (base, is_list).

    The base is one of the scalar bases or a referenced concept name.
    """
    inner, is_list = token, False
    if token.startswith("List[") and token.endswith("]"):
        inner, is_list = token[5:-1], True
    if inner in SCALAR_BASES or _NAME_RE.match(inner):
        return inner, is_list
    raise SchemaViolation(f"invalid attribute type token: {token!r}")


@dataclass
class Concept:
    """A node of the ontology: an entity or event class.

    Free-text fields (description, examples, attribute docs) are normalized
    onto single lines at construction time; the canonical code rendering is
    line-based and must stay injective.
    """

    name: str
    namespace: str
    kind: str
    parent: str
    description: str = ""
    examples: list[str] = field(default_factory=list)
    attributes: list[AttributeSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.description = _normalize_text(self.description)
        self.examples = [e for e in (_normalize_text(x) for x in self.examples) if e]

    @property
    def qualified(self) -> str:
        return f"{self.namespace}.{self.name}"


def _validate_concept_fields(c: Concept) -> None:
    if not _NAME_RE.match(c.name):
        raise SchemaViolation(f"concept name {c.name!r} must be UpperCamelCase")
    if not _NAMESPACE_RE.match(c.namespace):
        raise SchemaViolation(f"invalid namespace {c.namespace!r}")
    if c.kind not in ("entity", "event"):
        raise SchemaViolation(f"unknown kind {c.kind!r} for concept {c.name}")
    seen: set[str] = set()
    for attr in c.attributes:
        if not _ATTR_RE.match(attr.name):
            raise SchemaViolation(
                f"attribute name {attr.name!r} of {c.name} must be lower_snake_case"
            )
        if attr.name in seen:
            raise DuplicateAttribute(f"attribute {attr.name!r} repeated in {c.name}")
        seen.add(attr.name)


@dataclass
class OntologyGraph:
    """The ontology forest, grown in place by its owner.

    ``concepts`` maps qualified names (``namespace.Name``) to concepts;
    ``parents`` maps qualified names to qualified parent names or a root.
    Equivalence is kept symmetric: both directions are stored. Readers that
    share a graph must not see it grow; its owner hands them a ``copy()``.
    Slot lists and reference targets are recorded by ``_insert``: a graph whose
    constructor is given concepts has them for the roots only.
    """

    concepts: dict[str, Concept] = field(default_factory=dict)
    parents: dict[str, str] = field(default_factory=dict)
    equivalences: dict[str, set[str]] = field(default_factory=dict)
    _short: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _slots: dict[str, list[AttributeSpec]] = field(init=False, repr=False, compare=False)
    _targets: dict[str, tuple[tuple[str, str], ...]] = field(init=False, repr=False, compare=False)
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: object = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._short = {}
        for q in self.concepts:
            name = q.rsplit(".", 1)[1]
            self._short[name] = self._short.get(name, ()) + (q,)
        self._slots = {root: [mandatory_attribute(kind)] for root, kind in ROOTS.items()}
        self._targets = dict.fromkeys(ROOTS, ())

    # -- lookup ---------------------------------------------------------------

    def resolve(self, name: str, namespace: str | None = None) -> str:
        """Resolve a possibly-unqualified concept name to its qualified form.

        Lookup order: roots, explicit qualification, the given namespace, then
        a unique global match.
        """
        q = self.find(name, namespace)
        if q is None:
            raise UnknownConcept(f"unknown concept {name!r}")
        return q

    def find(self, name: str, namespace: str | None = None) -> str | None:
        """resolve, but None for a name that is not in the graph (yet)."""
        if name in ROOTS:
            return name
        if "." in name:
            return name if name in self.concepts else None
        if namespace is not None:
            q = f"{namespace}.{name}"
            if q in self.concepts:
                return q
        matches = self._short.get(name, ())
        if len(matches) == 1:
            return matches[0]
        if not matches:
            return None
        raise AmbiguousName(f"{name!r} exists in several namespaces: {sorted(matches)}")

    def targets(self, qualified: str) -> tuple[tuple[str, str], ...]:
        """(slot name, qualified concept its type named at insert) per reference slot."""
        return self._targets[qualified]

    def view(self, build):
        """What build(graph) derives from the concepts, built once until the next insert."""
        with self._lock:
            if build not in self._views:
                self._views[build] = build(self)
            return self._views[build]

    def kind_of(self, qualified: str) -> str:
        if qualified in ROOTS:
            return ROOTS[qualified]
        return self.concepts[qualified].kind

    def namespaces(self) -> dict[str, list[Concept]]:
        out: dict[str, list[Concept]] = {}
        for concept in self.concepts.values():
            out.setdefault(concept.namespace, []).append(concept)
        return out

    def import_inventories(self) -> dict[str, list[str]]:
        """What a closed import offers: each namespace's concept names, sorted."""
        return {ns: sorted(c.name for c in cs) for ns, cs in self.namespaces().items()}

    def equivalence_class(self, qualified: str) -> set[str]:
        """Transitive closure of declared equivalences, including the node itself."""
        seen = {qualified}
        frontier = [qualified]
        while frontier:
            node = frontier.pop()
            for other in self.equivalences.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return seen

    def canonical_concept(self, name: str, namespace: str | None = None) -> str:
        """Canonical representative of a concept's equivalence class.

        The lexicographically smallest qualified member, so merge keys are
        stable no matter which equivalent label produced an instance.
        """
        q = self.resolve(name, namespace)
        if q in ROOTS:
            return q
        return min(self.equivalence_class(q))

    # -- hierarchy ------------------------------------------------------------

    def root_path(self, qualified: str) -> list[str]:
        """Path from the kind root down to the node, inclusive."""
        path = [qualified]
        node = qualified
        while node not in ROOTS:
            node = self.parents[node]
            path.append(node)
        path.reverse()
        return path

    def is_descendant(self, qualified: str, ancestor: str) -> bool:
        return ancestor in self.root_path(qualified)[:-1]

    # -- mutation ---------------------------------------------------------------

    def copy(self) -> "OntologyGraph":
        """A graph that grows apart from this one; views are rebuilt on demand."""
        g = OntologyGraph(equivalences={k: set(v) for k, v in self.equivalences.items()})
        g.concepts, g.parents = dict(self.concepts), dict(self.parents)
        g._short, g._slots, g._targets = dict(self._short), dict(self._slots), dict(self._targets)
        return g

    def add_equivalence(self, a: str, b: str, namespace: str | None = None) -> None:
        """Declare a ~ b in place, stored in both directions."""
        qa, qb = self.resolve(a, namespace), self.resolve(b, namespace)
        if qa in ROOTS or qb in ROOTS:
            raise SchemaViolation("roots cannot take part in equivalences")
        if self.kind_of(qa) != self.kind_of(qb):
            raise KindMismatch(f"{qa} and {qb} have different kinds")
        self.equivalences.setdefault(qa, set()).add(qb)
        self.equivalences.setdefault(qb, set()).add(qa)


def empty_graph() -> OntologyGraph:
    return OntologyGraph()


def check_concept(graph: OntologyGraph, c: Concept) -> tuple[str, list[tuple[str, str]]]:
    """Every check insert_concept makes, without inserting; returns what _insert takes."""
    _validate_concept_fields(c)
    found = _placement(graph, c)
    if found is None:
        raise UnknownParent(f"{c.qualified} has unknown parent {c.parent!r}")
    if isinstance(found, AttributeSpec):
        raise UnknownConcept(
            f"attribute {found.name!r} of {c.name} references unknown concept {found.base!r}"
        )
    return found


def _placement(graph: OntologyGraph, c: Concept) -> tuple[str, list] | AttributeSpec | None:
    """check_concept's checks that read the graph, for a concept whose fields
    are valid. Returns the qualified parent and each own reference slot's
    qualified target (the concept itself for its own name) or, for a name not
    in the graph yet, None when it is the parent's and the attribute when it
    is an attribute's type. Every other fault raises."""
    q = c.qualified
    if q in graph.concepts:
        raise DuplicateName(f"{q} already defined")

    if c.parent not in ROOTS and c.parent in (c.name, q):  # a root name means the root
        raise CycleDetected(f"{c.name} cannot be its own parent")
    parent_q = graph.find(c.parent, c.namespace)
    if parent_q is None:
        return None
    if graph.kind_of(parent_q) != c.kind:
        raise KindMismatch(
            f"parent {parent_q} is a {graph.kind_of(parent_q)}, {c.name} is a {c.kind}"
        )

    inherited = {a.name for a in effective_attributes(graph, parent_q)}
    for attr in c.attributes:
        if attr.name in inherited:
            raise DuplicateAttribute(
                f"attribute {attr.name!r} of {c.name} shadows an inherited attribute"
            )

    targets = []
    for attr in c.attributes:
        if attr.base not in SCALAR_BASES:
            target = q if attr.base == c.name else graph.find(attr.base, c.namespace)
            if target is None:
                return attr
            targets.append((attr.name, target))

    return parent_q, targets


def _insert(graph: OntologyGraph, c: Concept, parent_q: str, targets: list) -> None:
    """Add a checked concept; its slots and targets are its parent's plus its own, if any."""
    q = c.qualified
    graph.concepts[q] = c
    graph.parents[q] = parent_q
    graph._short[c.name] = graph._short.get(c.name, ()) + (q,)
    slots, inherited = graph._slots[parent_q], graph._targets[parent_q]
    graph._slots[q] = slots + c.attributes if c.attributes else slots
    graph._targets[q] = inherited + tuple(targets) if targets else inherited
    graph._views.clear()


def insert_concept(graph: OntologyGraph, c: Concept) -> None:
    """Check a concept and insert it into the graph in place."""
    _insert(graph, c, *check_concept(graph, c))


def attach(graph: OntologyGraph, c: Concept, parent: str, equivalent_to: str | None) -> None:
    """Grow the graph in place by a placement: the concept under `parent`,
    plus its equivalence edge to `equivalent_to` when there is one."""
    insert_concept(graph, replace(c, parent=parent))
    if equivalent_to is not None:
        graph.add_equivalence(c.qualified, equivalent_to)


def place_in_passes(items: list, place) -> list:
    """Sweep items in order, calling place(item), which says whether it placed
    the item; sweep again over the rest until a sweep places none. Returns
    those leftovers in order, empty when every item was placed.
    """
    remaining = list(items)
    while remaining:
        left = [item for item in remaining if not place(item)]
        if len(left) == len(remaining):
            break
        remaining = left
    return remaining


def place_concepts(graph: OntologyGraph, concepts: list[Concept]) -> None:
    """insert_concept for concepts listed in any order, in sweeps over the list.

    A concept whose parent or an attribute type is not in the graph yet is put
    off to the next sweep with a few lookups and no exception; its fields are
    checked on its first try only. When a sweep places none, the first
    leftover whose parent, or else first unplaced attribute type, names no
    other leftover raises its insert error; when each waits on another
    leftover, CycleDetected names them.
    """
    def place(concept: Concept) -> bool:
        found = _placement(graph, concept)
        if not isinstance(found, tuple):
            return False
        _insert(graph, concept, *found)
        return True

    put_off = []
    for concept in concepts:
        _validate_concept_fields(concept)
        if not place(concept):
            put_off.append(concept)
    left = place_in_passes(put_off, place)
    declared = {c.name for c in left} | {c.qualified for c in left}
    for concept in left:
        missing = _placement(graph, concept)
        if (concept.parent if missing is None else missing.base) not in declared:
            check_concept(graph, concept)  # raises the error for the missing name
    if left:
        raise CycleDetected(f"concepts wait on each other: {[c.qualified for c in left]}")


# -- hierarchy queries --------------------------------------------------------


def depth(graph: OntologyGraph, name: str) -> int:
    """Depth of a node with the roots at depth 1."""
    return len(graph.root_path(graph.resolve(name)))


def lowest_common_ancestor(graph: OntologyGraph, a: str, b: str) -> str:
    qa, qb = graph.resolve(a), graph.resolve(b)
    if graph.kind_of(qa) != graph.kind_of(qb):
        raise KindMismatch(f"{qa} and {qb} have different kinds")
    path_a, path_b = graph.root_path(qa), graph.root_path(qb)
    lca = path_a[0]
    for x, y in zip(path_a, path_b):
        if x != y:
            break
        lca = x
    return lca


def wu_palmer(graph: OntologyGraph, a: str, b: str) -> float:
    """2 * depth(lca) / (depth(a) + depth(b)); 1.0 exactly when a is b."""
    lca = lowest_common_ancestor(graph, a, b)
    return 2.0 * depth(graph, lca) / (depth(graph, a) + depth(graph, b))


# -- attribute resolution -----------------------------------------------------


def mandatory_attribute(kind: str) -> AttributeSpec:
    return AttributeSpec(MANDATORY_SLOT[kind], "text", "identifying name")


def effective_attributes(
    graph: OntologyGraph, name: str, namespace: str | None = None
) -> list[AttributeSpec]:
    """Full constructor slot list: the mandatory slot, inherited, then own.

    Recorded by _insert as the parent's list plus the concept's own; read-only."""
    return graph._slots[graph.resolve(name, namespace)]


# -- canonical code rendering ---------------------------------------------------


def _render_class(
    name: str,
    parent_display: str,
    description: str,
    examples: list[str],
    attrs: list[AttributeSpec],
) -> str:
    lines = [f"class {name}({parent_display}):"]
    lines.append(f'    """{description}')
    lines.append("    Examples:")
    for example in examples:
        lines.append(f"    {example}")
    lines.append('    """')
    params = ", ".join(["self"] + [f"{a.name}: {a.type}" for a in attrs])
    lines.append(f"    def __init__({params}): ...")
    return "\n".join(lines)


def render_class_code(graph: OntologyGraph, name: str, namespace: str | None = None) -> str:
    """Canonical class-definition code for a concept; byte-deterministic."""
    q = graph.resolve(name, namespace)
    if q in ROOTS:
        return _render_class(q, "object", ROOT_DESCRIPTIONS[q], [], effective_attributes(graph, q))
    c = graph.concepts[q]
    parent = graph.parents[q].rsplit(".", 1)[-1]
    return _render_class(c.name, parent, c.description, c.examples, effective_attributes(graph, q))


def render_concept_code(c: Concept) -> str:
    """Class code for a concept that is not (yet) part of a graph."""
    parent_display = c.parent if c.parent else {"entity": ENTITY_ROOT, "event": EVENT_ROOT}[c.kind]
    return _render_class(c.name, parent_display, c.description, c.examples,
                         [mandatory_attribute(c.kind)] + c.attributes)


def parse_class_code(text: str) -> dict:
    """Parse canonical class code back into its structural fields.

    Returns a dict with name, parent, description, examples and attributes
    (the full constructor slot list, mandatory slot included). Attribute docs
    are not carried by the code, so they come back empty.
    """
    lines = text.split("\n")
    if len(lines) < 5:
        raise ParseFailure("class code too short")
    m = re.match(r"class ([A-Za-z0-9]+)\(([A-Za-z0-9]+)\):\Z", lines[0])
    if not m:
        raise ParseFailure(f"bad class header: {lines[0]!r}")
    name, parent = m.group(1), m.group(2)
    if not lines[1].startswith('    """'):
        raise ParseFailure("missing docstring opener")
    description = lines[1][len('    """'):]
    if lines[2] != "    Examples:":
        raise ParseFailure("missing Examples: marker")
    examples = []
    i = 3
    while i < len(lines) and lines[i] != '    """':
        if not lines[i].startswith("    "):
            raise ParseFailure(f"bad example line: {lines[i]!r}")
        examples.append(lines[i][4:])
        i += 1
    if i >= len(lines):
        raise ParseFailure("unterminated docstring")
    ctor = lines[i + 1] if i + 1 < len(lines) else ""
    m = re.match(r"    def __init__\(self(?:, (.*))?\): \.\.\.\Z", ctor)
    if not m:
        raise ParseFailure(f"bad constructor line: {ctor!r}")
    attrs: list[AttributeSpec] = []
    if m.group(1):
        for part in m.group(1).split(", "):
            if ": " not in part:
                raise ParseFailure(f"bad parameter: {part!r}")
            attr_name, token = part.split(": ", 1)
            attrs.append(AttributeSpec(attr_name, token))
    return {
        "name": name,
        "parent": parent,
        "description": description,
        "examples": examples,
        "attributes": attrs,
    }


def render_import_clause(graph: OntologyGraph, namespace: str, names: list[str]) -> str:
    """``From {namespace} Import {n1}, {n2}, ...`` preserving input order."""
    if not names:
        raise EmptyImport(f"no names to import from {namespace}")
    for n in names:
        if f"{namespace}.{n}" not in graph.concepts:
            raise UnknownConcept(f"{n!r} does not exist in namespace {namespace}")
    return f"From {namespace} Import {', '.join(names)}"


# -- persistence ----------------------------------------------------------------

# the fields a concept and an attribute entry may hold, the required ones first
_CONCEPT_FIELDS = ("name", "kind", "parent",
                   "description", "examples", "attributes", "equivalents")
_ATTRIBUTE_FIELDS = ("name", "type", "doc")
_CONCEPT_REQUIRED, _CONCEPT_ALLOWED = frozenset(_CONCEPT_FIELDS[:3]), frozenset(_CONCEPT_FIELDS)
_ATTRIBUTE_REQUIRED, _ATTRIBUTE_ALLOWED = (frozenset(_ATTRIBUTE_FIELDS[:2]),
                                           frozenset(_ATTRIBUTE_FIELDS))


def _check_field_types(entry: dict, what: str, ns: str, name) -> None:
    """Every field holds a string, except the lists: attributes, examples,
    equivalents. The error names the entry `{what} {ns}.{name}`."""
    for key, value in entry.items():
        if key == "attributes":
            if isinstance(value, list):
                continue
            want = "a list"
        elif key in ("examples", "equivalents"):
            if isinstance(value, list) and (not value or all(isinstance(v, str) for v in value)):
                continue
            want = "a list of strings"
        elif isinstance(value, str):
            continue
        else:
            want = "a string"
        raise SchemaViolation(
            f"{what} {ns}.{name}: {key!r} must be {want}, got {type(value).__name__}")


def graph_from_document(document: dict) -> OntologyGraph:
    """Build a graph from the ontology JSON document shape.

    Unknown keys and fields of the wrong type are rejected. Concepts may appear
    in any order: place_concepts places them in document order. An entry's
    keys are checked by set comparison first, and check_keys runs only on an
    entry that fails, to raise its error.
    """
    check_keys(document, "ontology document", allowed=("namespaces",))
    namespaces = check_keys(document.get("namespaces", {}), "'namespaces'")

    pending: list[Concept] = []
    declared_equivalences: list[tuple[str, str, str]] = []
    for ns, entries in namespaces.items():
        if not isinstance(entries, list):
            raise SchemaViolation(f"namespace {ns!r} must hold a list of concepts")
        for entry in entries:
            if not (isinstance(entry, dict)
                    and _CONCEPT_REQUIRED <= entry.keys() <= _CONCEPT_ALLOWED):
                check_keys(entry, f"concept in {ns!r}", required=_CONCEPT_FIELDS[:3],
                           allowed=_CONCEPT_FIELDS)
            name = entry["name"]
            _check_field_types(entry, "concept", ns, name)
            attrs = []
            for raw in entry.get("attributes", []):
                if not (isinstance(raw, dict)
                        and _ATTRIBUTE_REQUIRED <= raw.keys() <= _ATTRIBUTE_ALLOWED):
                    check_keys(raw, f"attribute of {ns}.{name}", required=_ATTRIBUTE_FIELDS[:2],
                               allowed=_ATTRIBUTE_FIELDS)
                _check_field_types(raw, "attribute of", ns, name)
                attrs.append(AttributeSpec(raw["name"], raw["type"], raw.get("doc", "")))
            concept = Concept(
                name=name,
                namespace=ns,
                kind=entry["kind"],
                parent=entry["parent"],
                description=entry.get("description", ""),
                examples=list(entry.get("examples", [])),
                attributes=attrs,
            )
            pending.append(concept)
            for other in entry.get("equivalents", []):
                declared_equivalences.append((ns, name, other))

    graph = empty_graph()
    place_concepts(graph, pending)
    for ns, name, other in declared_equivalences:
        graph.add_equivalence(name, other, ns)
    return graph


def graph_to_document(graph: OntologyGraph) -> dict:
    """The document graph_from_document builds `graph` back from. A parent
    whose name is in several namespaces is written qualified, as the name
    alone could resolve to another of them on loading."""
    namespaces: dict[str, list[dict]] = {}
    for q, concept in graph.concepts.items():
        parent = graph.parents[q]
        if len(graph._short.get(parent.rsplit(".", 1)[-1], ())) < 2:
            parent = concept.parent
        equivalents = sorted(graph.equivalences.get(q, ()))
        namespaces.setdefault(concept.namespace, []).append(
            {
                "name": concept.name,
                "kind": concept.kind,
                "parent": parent,
                "description": concept.description,
                "examples": list(concept.examples),
                "attributes": [
                    {"name": a.name, "type": a.type, "doc": a.doc} for a in concept.attributes
                ],
                "equivalents": equivalents,
            }
        )
    return {"namespaces": namespaces}


def load_ontology(path: str) -> OntologyGraph:
    return graph_from_document(read_json(path))


def save_ontology(graph: OntologyGraph, path: str) -> None:
    write_json(path, graph_to_document(graph))
