"""Knowledge store: typed instances merged by name, queried, rendered as code.

Instances of ontology concepts are keyed by (canonical concept, normalized
display name). Ingesting an object whose key already exists merges the two:
list-typed attributes take the set union preserving first-seen order, scalar
attributes keep the value with the latest provenance timestamp (ties go to
the later-ingested value), and every replaced scalar lands in the object's
history. Two distinct people sharing a name will merge; that is the accepted
cost of name-keyed merging.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import Counter
from dataclasses import dataclass, field

from . import ontology as onto
from .errors import (
    CorruptRecord,
    KdrError,
    KeyMismatch,
    TypeMismatch,
    UnknownId,
    UnrenderableValue,
)
from .files import check_keys, read_jsonl, write_file
from .textindex import InvertedIndex, tokenize


@dataclass(frozen=True)
class Ref:
    """A resolved reference to another stored object."""

    id: str


@dataclass
class SlotValue:
    value: object  # str | int | float | Ref
    provenance_index: int = 0


@dataclass
class KnowledgeObject:
    id: str
    concept: str  # namespace-qualified canonical name
    display_name: str
    slots: dict[str, list[SlotValue]] = field(default_factory=dict)
    provenance: list[tuple[str, float]] = field(default_factory=list)
    updated_at: float = 0.0
    history: list[tuple[str, object, float]] = field(default_factory=list)

    def live(self, attr: str) -> list[object]:
        return [sv.value for sv in self.slots.get(attr, [])]

    def scalar(self, attr: str) -> object | None:
        values = self.live(attr)
        return values[0] if values else None


_EDGE_PUNCT = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


def normalize_name(name: str) -> str:
    """Merge-key normalization: casefold, collapse whitespace, trim punctuation."""
    collapsed = " ".join(str(name).split()).casefold()
    return _EDGE_PUNCT.sub("", collapsed)


def object_key(graph: onto.OntologyGraph, concept: str, display_name: str,
               namespace: str | None = None) -> tuple[str, str]:
    return graph.canonical_concept(concept, namespace), normalize_name(display_name)


def object_id(graph: onto.OntologyGraph, concept: str, display_name: str,
              namespace: str | None = None) -> str:
    return _key_id(object_key(graph, concept, display_name, namespace))


def _key_id(key: tuple[str, str]) -> str:
    return hashlib.sha1("\x00".join(key).encode("utf-8")).hexdigest()[:16]


def _attr_specs(graph: onto.OntologyGraph, concept: str) -> dict[str, onto.AttributeSpec]:
    specs = onto.effective_attributes(graph, concept)
    return {a.name: a for a in specs[1:]}  # the mandatory slot lives in display_name


def _check_value(spec: onto.AttributeSpec, value: object, concept: str) -> None:
    if isinstance(value, Ref):
        if spec.base in onto.SCALAR_BASES:
            raise TypeMismatch(f"{concept}.{spec.name} is {spec.type}, got a reference")
        return
    if spec.base == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatch(f"{concept}.{spec.name} expects a number, got {value!r}")
        return
    # text, date, and unresolved references are all carried as strings
    if not isinstance(value, str):
        raise TypeMismatch(f"{concept}.{spec.name} expects text, got {value!r}")


def validate_object(graph: onto.OntologyGraph, obj: KnowledgeObject) -> None:
    specs = _attr_specs(graph, obj.concept)
    for attr, values in obj.slots.items():
        spec = specs.get(attr)
        if spec is None:
            raise TypeMismatch(f"{obj.concept} has no attribute {attr!r}")
        if not spec.is_list and len(values) > 1:
            raise TypeMismatch(f"{obj.concept}.{attr} is scalar but holds {len(values)} values")
        for sv in values:
            _check_value(spec, sv.value, obj.concept)


def make_object(
    graph: onto.OntologyGraph,
    concept: str,
    display_name: str,
    slots: dict[str, object] | None = None,
    provenance: list[tuple[str, float]] | None = None,
    namespace: str | None = None,
) -> KnowledgeObject:
    """Build a validated object; list attrs take lists, scalars take bare values."""
    key = object_key(graph, concept, display_name, namespace)
    slot_values = {attr: [SlotValue(v) for v in (raw if isinstance(raw, (list, tuple)) else [raw])]
                   for attr, raw in (slots or {}).items()}
    prov = list(provenance or [])
    obj = KnowledgeObject(
        id=_key_id(key),
        concept=key[0],
        display_name=" ".join(str(display_name).split()),
        slots=slot_values,
        provenance=prov,
        updated_at=max((ts for _, ts in prov), default=0.0),
    )
    validate_object(graph, obj)  # an empty list names its slot too
    obj.slots = {attr: values for attr, values in slot_values.items() if values}
    return obj


# -- merging ---------------------------------------------------------------------


def _value_ts(obj: KnowledgeObject, sv: SlotValue) -> float:
    if 0 <= sv.provenance_index < len(obj.provenance):
        return obj.provenance[sv.provenance_index][1]
    return obj.updated_at


def _plain(value: object) -> object:
    return {"ref": value.id} if isinstance(value, Ref) else value


def merge_objects(a: KnowledgeObject, b: KnowledgeObject,
                  graph: onto.OntologyGraph) -> KnowledgeObject:
    """Merge newcomer b into existing a; neither input is mutated."""
    if (a.concept, normalize_name(a.display_name)) != (b.concept, normalize_name(b.display_name)):
        raise KeyMismatch(f"cannot merge {a.concept}:{a.display_name} with {b.concept}:{b.display_name}")

    provenance = list(a.provenance)
    seen = set(provenance)
    index_map: dict[int, int] = {}
    for i, entry in enumerate(b.provenance):
        if entry in seen:
            index_map[i] = provenance.index(entry)
        else:
            index_map[i] = len(provenance)
            provenance.append(entry)
            seen.add(entry)

    def remap(sv: SlotValue) -> SlotValue:
        return SlotValue(sv.value, index_map.get(sv.provenance_index, 0))

    specs = _attr_specs(graph, a.concept)
    slots: dict[str, list[SlotValue]] = {k: list(v) for k, v in a.slots.items()}
    history = list(a.history)
    for attr, incoming in b.slots.items():
        if attr not in slots:
            slots[attr] = [remap(sv) for sv in incoming]
            continue
        if specs[attr].is_list:
            present = [sv.value for sv in slots[attr]]
            for sv in incoming:
                if sv.value not in present:
                    slots[attr].append(remap(sv))
                    present.append(sv.value)
        else:
            current = slots[attr][0]
            new = incoming[0]
            if new.value == current.value:
                continue
            new_ts, cur_ts = _value_ts(b, new), _value_ts(a, current)
            if new_ts >= cur_ts:  # equal timestamps: the later-ingested value wins
                history.append((attr, _plain(current.value), new_ts))
                slots[attr] = [remap(new)]

    merged = KnowledgeObject(
        id=a.id,
        concept=a.concept,
        display_name=a.display_name,
        slots=slots,
        provenance=provenance,
        updated_at=max((ts for _, ts in provenance), default=max(a.updated_at, b.updated_at)),
        history=history,
    )
    return merged


# -- the store ---------------------------------------------------------------------


class KnowledgeStore:
    """In-memory object store with a single-writer lock and lookup views
    (names, text tokens, inbound references) built on first use after a change."""

    def __init__(self, graph: onto.OntologyGraph):
        self.graph = graph
        self.objects: dict[str, KnowledgeObject] = {}
        self._lock = threading.RLock()
        self._views: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.objects)

    def get(self, obj_id: str) -> KnowledgeObject:
        if obj_id not in self.objects:
            raise UnknownId(f"no object with id {obj_id!r}")
        return self.objects[obj_id]

    def ingest(self, obj: KnowledgeObject) -> KnowledgeObject:
        """Insert or merge; returns the stored object after the update."""
        validate_object(self.graph, obj)  # resolves the concept first
        with self._lock:
            existing = self.objects.get(obj.id)
            stored = merge_objects(existing, obj, self.graph) if existing else obj
            self.objects[obj.id] = stored
            self._views.clear()
        return stored

    def ingest_all(self, objects: list[KnowledgeObject]) -> list[KnowledgeObject]:
        return [self.ingest(o) for o in objects]

    # -- reference settlement ------------------------------------------------------

    def settle(self) -> int:
        """Resolve string values sitting in reference-typed slots.

        A string in a ref slot is an unresolved display-name reference; when
        exactly that name exists for the target concept (or a descendant),
        the string becomes a real Ref. Returns how many got resolved.
        """
        resolved = 0
        with self._lock:
            for obj in self.objects.values():
                for attr, target in self.graph.targets(obj.concept):
                    for sv in obj.slots.get(attr, ()):
                        if not isinstance(sv.value, str):
                            continue
                        hit = self._find_by_name(sv.value, target)
                        if hit is not None:
                            sv.value = Ref(hit)
                            resolved += 1
            self._views.clear()  # the text and inbound views saw the strings
        return resolved

    def _find_by_name(self, name: str, target_concept: str) -> str | None:
        """Smallest id among same-name objects of the target concept, a
        descendant, or an equivalent."""
        hits = [obj_id for obj_id in self.ids_by_name().get(normalize_name(name), ())
                if (q := self.objects[obj_id].concept) == target_concept
                or self.graph.is_descendant(q, target_concept)
                or target_concept in self.graph.equivalence_class(q)]
        return min(hits) if hits else None

    def _view(self, build):
        """What build() derives from objects, built once per change to them."""
        with self._lock:
            if build.__name__ not in self._views:
                self._views[build.__name__] = build()
            return self._views[build.__name__]

    def _names(self) -> dict[str, list[str]]:
        by_name: dict[str, list[str]] = {}
        for obj in self.objects.values():
            by_name.setdefault(normalize_name(obj.display_name), []).append(obj.id)
        return by_name

    def _tokens(self) -> InvertedIndex:
        index = InvertedIndex()
        for obj_id in sorted(self.objects):
            obj = self.objects[obj_id]
            strings = [sv.value for values in obj.slots.values() for sv in values
                       if isinstance(sv.value, str)]
            index.add(obj_id, " ".join([obj.display_name, *strings]))
        return index

    def _inbound(self) -> dict[str, list[str]]:
        inbound: dict[str, list[str]] = {}
        for obj_id in sorted(self.objects):
            for attr in sorted(self.objects[obj_id].slots):
                for sv in self.objects[obj_id].slots[attr]:
                    if isinstance(sv.value, Ref):
                        inbound.setdefault(sv.value.id, []).append(obj_id)
        return inbound

    def ids_by_name(self) -> dict[str, list[str]]:
        """Normalized display name -> ids of the objects bearing it (read-only)."""
        return self._view(self._names)

    # -- queries --------------------------------------------------------------------

    def query_by_name(self, name: str, fuzzy: bool = False) -> list[KnowledgeObject]:
        if not fuzzy:
            matches = [self.objects[i] for i in self.ids_by_name().get(normalize_name(name), ())]
            return sorted(matches, key=lambda o: (o.display_name, o.id))
        postings = self._view(self._tokens).postings
        overlap = Counter(obj_id for token in set(tokenize(name))
                          for obj_id in postings.get(token, ()))
        return sorted((self.objects[i] for i in overlap),
                      key=lambda o: (-overlap[o.id], o.display_name, o.id))

    def subgraph(self, seed_ids: list[str], hops: int = 1) -> list[KnowledgeObject]:
        """Closure over references, both directions, breadth-first, deterministic."""
        for seed in seed_ids:
            if seed not in self.objects:
                raise UnknownId(f"no object with id {seed!r}")
        inbound = self._view(self._inbound)
        seen = dict.fromkeys(seed_ids)  # insertion-ordered set
        frontier = list(seed_ids)
        for _ in range(hops):
            next_frontier = []
            for obj_id in frontier:
                obj = self.objects[obj_id]
                neighbors = []
                for attr in sorted(obj.slots):
                    for sv in obj.slots[attr]:
                        if isinstance(sv.value, Ref) and sv.value.id in self.objects:
                            neighbors.append(sv.value.id)
                neighbors.extend(inbound.get(obj_id, []))
                for n in neighbors:
                    if n not in seen:
                        seen[n] = None
                        next_frontier.append(n)
            if not next_frontier:
                break
            frontier = next_frontier
        return [self.objects[i] for i in seen]


# -- declaration-code rendering -------------------------------------------------------


def _render_literal(value: object, var_of: dict[str, str], resolve) -> str:
    if isinstance(value, Ref):
        if value.id in var_of:
            return var_of[value.id]
        name = resolve(value.id)
        if name is not None:
            return json.dumps(name, ensure_ascii=False)
        raise UnrenderableValue(f"reference to {value.id!r} cannot be rendered")
    if isinstance(value, bool):
        raise UnrenderableValue(f"boolean {value!r} has no attribute type")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (int, float)):
        return repr(value)
    raise UnrenderableValue(f"cannot render {value!r}")


def _declaration_order(objects: list[KnowledgeObject]) -> list[KnowledgeObject]:
    """Referees before referrers; input order breaks ties; cycles cut silently."""
    ids = {o.id for o in objects}
    deps: dict[str, set[str]] = {}
    for obj in objects:
        wants = set()
        for values in obj.slots.values():
            for sv in values:
                if isinstance(sv.value, Ref) and sv.value.id in ids and sv.value.id != obj.id:
                    wants.add(sv.value.id)
        deps[obj.id] = wants
    ordered: list[KnowledgeObject] = []
    placed: set[str] = set()

    def place(obj: KnowledgeObject) -> bool:
        if not deps[obj.id] <= placed:
            return False
        ordered.append(obj)
        placed.add(obj.id)
        return True

    remaining = list(objects)
    while remaining := onto.place_in_passes(remaining, place):
        # reference cycle: place the first pending object and let its
        # in-cycle refs degrade to display-name strings
        first = remaining.pop(0)
        ordered.append(first)
        placed.add(first.id)
    return ordered


def render_call(class_name: str, specs: list[onto.AttributeSpec], values: dict, literal) -> str:
    """``class_name(slot=value, ...)``, slots in declaration order: a slot
    without values is left out, a scalar slot writes its first. literal
    writes one value, so declarations and training targets each pass theirs."""
    parts = []
    for spec in specs:
        held = values.get(spec.name)
        if not held:
            continue
        if spec.is_list:
            parts.append(f"{spec.name}=[{', '.join(literal(v) for v in held)}]")
        else:
            parts.append(f"{spec.name}={literal(held[0])}")
    return f"{class_name}({', '.join(parts)})"


def render_declaration_code(
    objects: list[KnowledgeObject],
    graph: onto.OntologyGraph,
    resolve_external=None,
) -> str:
    """Constructor calls bound to o{i} variables, then the result list.

    Objects are declared referees-first; reference cycles and unresolvable
    external references fall back to display-name strings when possible.
    """
    ordered = _declaration_order(objects)
    var_of: dict[str, str] = {}
    display_of = {o.id: o.display_name for o in objects}

    def resolve(ref_id: str):
        if resolve_external is not None:
            name = resolve_external(ref_id)
            if name is not None:
                return name
        return display_of.get(ref_id)

    lines = []
    for i, obj in enumerate(ordered):
        specs = onto.effective_attributes(graph, obj.concept)
        values = {attr: obj.live(attr) for attr in obj.slots}
        values[specs[0].name] = [obj.display_name]  # the mandatory slot
        call = render_call(obj.concept.rsplit(".", 1)[1], specs, values,
                           lambda v: _render_literal(v, var_of, resolve))
        lines.append(f"o{i} = {call}")
        var_of[obj.id] = f"o{i}"

    listed = ", ".join(var_of[o.id] for o in objects)
    lines.append(f"search_results = [{listed}]")
    return "\n".join(lines)


# -- persistence -----------------------------------------------------------------------


def _slot_to_json(values: list[SlotValue]) -> list[dict]:
    out = []
    for sv in values:
        value = {"ref": sv.value.id} if isinstance(sv.value, Ref) else sv.value
        out.append({"value": value, "provenance_index": sv.provenance_index})
    return out


def _slot_from_json(raw: list, attr: str) -> list[SlotValue]:
    values = []
    for item in raw:
        if not isinstance(item, dict) or "value" not in item:  # inline: one per value
            raise ValueError(f"bad slot value under {attr!r}")
        value = item["value"]
        if isinstance(value, dict):
            check_keys(value, f"reference under {attr!r}", required=("ref",), allowed=("ref",))
            value = Ref(value["ref"])
        values.append(SlotValue(value, int(item.get("provenance_index", 0))))
    return values


def object_row(obj: KnowledgeObject) -> dict:
    """The object as one JSON-ready KB line, the form `save` writes and `load` reads."""
    return {
        "id": obj.id,
        "concept": obj.concept,
        "display_name": obj.display_name,
        "slots": {attr: _slot_to_json(v) for attr, v in obj.slots.items()},
        "provenance": [[s, ts] for s, ts in obj.provenance],
        "updated_at": obj.updated_at,
        "history": [[attr, value, ts] for attr, value, ts in obj.history],
    }


def save(store: KnowledgeStore, path: str) -> None:
    write_file(path, (json.dumps(object_row(obj), ensure_ascii=False) + "\n"
                      for obj in store.objects.values()))


_ROW_KEYS = ("id", "concept", "display_name", "slots", "provenance", "updated_at", "history")


def load(path: str, graph: onto.OntologyGraph) -> KnowledgeStore:
    """The store saved at `path`, each row checked against `graph` as ingest
    checks it; a repeated id, or a reference to an id no row holds, is a
    CorruptRecord naming the line."""
    store = KnowledgeStore(graph)
    line_of: dict[str, int] = {}
    for n, row in read_jsonl(path):
        try:
            check_keys(row, "KB row", required=_ROW_KEYS, allowed=_ROW_KEYS)
            obj = KnowledgeObject(
                id=row["id"],
                concept=row["concept"],
                display_name=row["display_name"],
                slots={attr: _slot_from_json(v, attr) for attr, v in row["slots"].items()},
                provenance=[(s, float(ts)) for s, ts in row["provenance"]],
                updated_at=float(row["updated_at"]),
                history=[(attr, value, float(ts)) for attr, value, ts in row["history"]],
            )
            validate_object(graph, obj)
        except (KdrError, TypeError, ValueError, KeyError) as exc:
            raise CorruptRecord(str(exc), n, path) from exc
        if obj.id in line_of:
            raise CorruptRecord(f"repeated id {obj.id!r}", n, path)
        line_of[obj.id] = n
        store.objects[obj.id] = obj
    for obj in store.objects.values():  # a reference may point to a later row
        for values in obj.slots.values():
            for sv in values:
                if isinstance(sv.value, Ref) and sv.value.id not in line_of:
                    raise CorruptRecord(f"reference to unknown id {sv.value.id!r}",
                                        line_of[obj.id], path)
    return store
