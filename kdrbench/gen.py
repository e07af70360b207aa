"""Seeded inputs for the kdr benchmark, and the outputs they imply.

Every function here is a pure function of ``(seed, spec)``: the same seed
gives byte-identical inputs. Besides the inputs the program reads (corpus,
ontology, knowledge base, web fixtures, taxonomy), the generator writes the
scripted replies the benchmark's chat backend looks up, and predicts the
counts and scores a correct run must reproduce. Nothing here imports kdr.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# Workload specs. The sizes keep one repetition at 2-5 s, so a run holds
# several. Latency is per chat call. Every workload has enough of it that
# CPU is a fifth to a third of its time: on the 2-vCPU host this was tuned
# on, CPU speed swings 1.4-2x for tens of seconds at a time, and throughput
# spread between runs 0.2-0.33 of its median with organize-bulk at 0 ms and
# up to 0.13 with organize-bulk, research and taxonomy-align at 20 ms.
WORKLOADS: dict[str, dict] = {
    "organize-latency": {
        "kind": "organize", "latency_ms": 20, "docs": 4, "paragraphs": 6,
        "words": 320, "namespaces": 2, "concepts": 12, "imports": 3,
        "objects": 5, "name_pool": 120, "refs": 2,
    },
    "organize-bulk": {
        "kind": "organize", "latency_ms": 40, "docs": 6, "paragraphs": 4,
        "words": 320, "namespaces": 2, "concepts": 1000, "imports": 3,
        "objects": 12, "name_pool": 700, "refs": 2,
    },
    "research": {
        "kind": "research", "latency_ms": 40, "namespaces": 2,
        "concepts": 1000, "kb_objects": 2400, "max_refs": 3,
        "web_docs": 3000, "web_words": 60, "sections": 6, "topics": 2,
    },
    "taxonomy-align": {
        "kind": "taxonomy", "latency_ms": 40, "terms": 3000, "top_terms": 12,
        "leaves": 80, "k": 10, "dim": 64,
    },
}

TOPIC = "Synthetic archive holdings"
GENERATED_AT = "2026-01-01T00:00:00Z"
KB_SOURCE = "generator:kb"

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
SYLLABLES = [c1 + v + c2 for c1 in _CONSONANTS for v in _VOWELS for c2 in _CONSONANTS]
FILLER = ("archive", "ledger", "record", "survey", "holding", "entry", "registry",
          "catalogue", "volume", "folio", "index", "annex", "report", "notes")


def rng(seed: int, *keys: object) -> random.Random:
    """Independent stream per purpose, so adding one stream shifts no other."""
    return random.Random(":".join(str(k) for k in (seed,) + keys))


def unique_names(r: random.Random, count: int, parts: int, sep: str = "") -> list[str]:
    """`count` distinct capitalized names of `parts` three-letter syllables."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = sep.join(r.choice(SYLLABLES).capitalize() for _ in range(parts))
        if name.casefold() not in seen:
            seen.add(name.casefold())
            names.append(name)
    return names


def write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


# -- ontology (organize and research) -------------------------------------------------


def make_ontology(seed: int, spec: dict) -> dict:
    """Entity concepts in several namespaces, each with one List[...] reference
    attribute to its parent (roots: to themselves).

    Each namespace is a tree of fan-out four under three roots; only names and
    entry order depend on the seed, so the cost of settling parents across the
    shuffled entries varies little between seeds.
    """
    r = rng(seed, "ontology")
    namespaces = [f"NS{i}" for i in range(spec["namespaces"])]
    names = unique_names(r, spec["concepts"], 2)
    document: dict[str, list[dict]] = {ns: [] for ns in namespaces}
    for i, name in enumerate(names):
        ns = namespaces[i % len(namespaces)]
        j = len(document[ns])
        parent = "Entity" if j < 3 else document[ns][(j - 3) // 4]["name"]
        target = name if parent == "Entity" else parent
        document[ns].append({
            "name": name, "kind": "entity", "parent": parent,
            "description": f"A {name} record kept in the {ns} {r.choice(FILLER)}.",
            "examples": [], "equivalents": [],
            "attributes": [{"name": f"linked_{name.lower()}", "type": f"List[{target}]",
                            "doc": f"{target} records this one cites"}],
        })
    for entries in document.values():
        r.shuffle(entries)
    return {"namespaces": document}


class OntologyFacts:
    """Parent, reference-target and namespace lookups over a generated document."""

    def __init__(self, document: dict):
        self.parent: dict[str, str] = {}
        self.target: dict[str, str] = {}
        self.attr: dict[str, str] = {}
        self.by_ns: dict[str, list[str]] = {}
        for ns, entries in document["namespaces"].items():
            for e in entries:
                q = f"{ns}.{e['name']}"
                self.parent[q] = e["parent"] if e["parent"] == "Entity" else f"{ns}.{e['parent']}"
                self.target[q] = f"{ns}.{e['attributes'][0]['type'][5:-1]}"
                self.attr[q] = e["attributes"][0]["name"]
                self.by_ns.setdefault(ns, []).append(e["name"])
        for names in self.by_ns.values():
            names.sort()

    def is_under(self, q: str, ancestor: str) -> bool:
        while q != "Entity":
            if q == ancestor:
                return True
            q = self.parent[q]
        return False


def object_id(concept: str, display_name: str) -> str:
    """kdr's merge key digest: sha1 of the canonical concept and the casefolded name."""
    normalized = " ".join(display_name.split()).casefold()
    return hashlib.sha1(f"{concept}\x00{normalized}".encode("utf-8")).hexdigest()[:16]


# -- organize -------------------------------------------------------------------------


def passage_id(doc: int, paragraph: int) -> str:
    return f"D{doc:03d}P{paragraph:02d}"


def organize_requests(seed: int, spec: dict, facts: OntologyFacts) -> dict[tuple[str, str], dict]:
    """Per (passage id, namespace): imported types and the objects to instantiate.

    An object is (concept name, display name, referenced display names). A
    concept's references favour names instantiated in the same reply whose
    type fits, so settlement has real work; the rest come from the pool.
    """
    pool = unique_names(rng(seed, "pool"), spec["name_pool"], 2, " ")
    plans = {}
    for d in range(spec["docs"]):
        for p in range(spec["paragraphs"]):
            pid = passage_id(d, p)
            for ns, names in facts.by_ns.items():
                r = rng(seed, "request", pid, ns)
                first = r.choice(names)
                imports = [first, facts.target[f"{ns}.{first}"].split(".", 1)[1]]
                imports += r.sample(names, spec["imports"])
                imports = list(dict.fromkeys(imports))[:spec["imports"]]
                display = r.sample(pool, spec["objects"])
                typed = [(r.choice(imports), name) for name in display]
                objects = []
                for concept, name in typed:
                    target = facts.target[f"{ns}.{concept}"]
                    fitting = [n for c, n in typed if facts.is_under(f"{ns}.{c}", target)]
                    refs = []
                    for _ in range(spec["refs"]):
                        refs.append(r.choice(fitting) if fitting and r.random() < 0.6
                                    else r.choice(pool))
                    objects.append((concept, name, list(dict.fromkeys(refs))))
                plans[(pid, ns)] = {"imports": imports, "objects": objects}
    return plans


def corpus_paragraph(seed: int, spec: dict, pid: str, mentions: list[str]) -> str:
    r = rng(seed, "paragraph", pid)
    words = [r.choice(FILLER) for _ in range(spec["words"] - 2 - 2 * len(mentions))]
    for name in mentions:
        words.insert(r.randrange(len(words) + 1), name)
    return f"Dossier {pid}. " + " ".join(words) + "."


def instantiation_reply(ns: str, plan: dict, facts: OntologyFacts) -> str:
    calls = []
    for concept, name, refs in plan["objects"]:
        args = [f"name={json.dumps(name)}"]
        if refs:
            args.append(f"{facts.attr[f'{ns}.{concept}']}={json.dumps(refs)}")
        calls.append(f"    {concept}({', '.join(args)}),")
    return "```python\nresults = [\n" + "\n".join(calls) + "\n]\n```"


def predict_organize(plans: dict, facts: OntologyFacts) -> dict:
    """Counts kdr must report: extracted, stored (name-keyed merge) and resolved."""
    stored: dict[tuple[str, str], list[str]] = {}
    extracted = 0
    for (_, ns), plan in plans.items():
        for concept, name, refs in plan["objects"]:
            extracted += 1
            merged = stored.setdefault((f"{ns}.{concept}", name.casefold()), [])
            merged.extend(ref for ref in refs if ref not in merged)
    concepts_by_name: dict[str, list[str]] = {}
    for q, name in stored:
        concepts_by_name.setdefault(name, []).append(q)
    resolved = sum(
        1
        for (q, _), refs in stored.items()
        for ref in refs
        if any(facts.is_under(c, facts.target[q]) for c in concepts_by_name.get(ref.casefold(), ()))
    )
    return {"extracted_objects": extracted, "stored_objects": len(stored),
            "resolved_references": resolved, "operations": len(plans),
            "passages": len({pid for pid, _ in plans})}


def write_organize(seed: int, spec: dict, out: Path) -> dict:
    document = make_ontology(seed, spec)
    facts = OntologyFacts(document)
    plans = organize_requests(seed, spec, facts)
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for d in range(spec["docs"]):
        paragraphs = []
        for p in range(spec["paragraphs"]):
            pid = passage_id(d, p)
            mentions = [n for ns in facts.by_ns for _, n, _ in plans[(pid, ns)]["objects"][:4]]
            paragraphs.append(corpus_paragraph(seed, spec, pid, mentions))
        (corpus / f"doc{d:03d}.txt").write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
    replies = {
        "propose": json.dumps(document, indent=1),
        "importing": {f"{pid}|{ns}": "\n".join(f"From {ns} Import {t}" for t in plan["imports"])
                      for (pid, ns), plan in plans.items()},
        "instantiation": {f"{pid}|{ns}": instantiation_reply(ns, plan, facts)
                          for (pid, ns), plan in plans.items()},
    }
    write_json(out / "replies.json", replies)
    return predict_organize(plans, facts)


# -- research -------------------------------------------------------------------------


def make_kb(seed: int, spec: dict, document: dict) -> list[dict]:
    """Knowledge-base rows in kdr's JSONL shape with resolved reference edges."""
    facts = OntologyFacts(document)
    r = rng(seed, "kb")
    concepts = sorted(facts.parent)
    names = unique_names(r, spec["kb_objects"], 2, " ")
    objects = [(r.choice(concepts), name) for name in names]
    by_concept: dict[str, list[int]] = {}
    for i, (q, _) in enumerate(objects):
        by_concept.setdefault(q, []).append(i)
    # objects whose concept sits under each target, found by walking up once
    under: dict[str, list[int]] = {}
    for q, members in by_concept.items():
        node = q
        while node != "Entity":
            under.setdefault(node, []).extend(members)
            node = facts.parent[node]
    rows = []
    for i, (q, name) in enumerate(objects):
        fitting = under.get(facts.target[q], [])
        picks = sorted({r.choice(fitting) for _ in range(r.randint(1, spec["max_refs"]))}) \
            if fitting else []
        slots = {}
        if picks:
            slots[facts.attr[q]] = [
                {"value": {"ref": object_id(*objects[j])}, "provenance_index": 0} for j in picks]
        rows.append({"id": object_id(q, name), "concept": q, "display_name": name,
                     "slots": slots, "provenance": [[KB_SOURCE, 1.0]], "updated_at": 1.0,
                     "history": []})
    return rows


def research_plan(seed: int, spec: dict, rows: list[dict]) -> str:
    """Plan text: one data_analysis and one web_search request per section."""
    r = rng(seed, "plan")
    linked = [row for row in rows if row["slots"]]
    chunks = []
    for s in range(1, spec["sections"] + 1):
        seeds = r.sample(linked, spec["topics"])
        topics = " and ".join(f'"{row["display_name"]}"' for row in seeds)
        kinds = " and ".join(row["concept"].split(".", 1)[1] for row in seeds)
        chunks.append(
            f"# Section {s}: {kinds} holdings\n"
            f"<begin_data_analysis>Count the records linked to {topics} across the "
            f"{kinds} holdings<end_data_analysis>\n"
            f"<begin_web_search>{r.choice(FILLER)} history of {kinds} "
            f"{r.choice(FILLER)}<end_web_search>")
    return "\n\n".join(chunks) + "\n"


def write_research(seed: int, spec: dict, out: Path) -> dict:
    document = make_ontology(seed, spec)
    rows = make_kb(seed, spec, document)
    write_json(out / "kb.jsonl.ontology.json", document)
    (out / "kb.jsonl").write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    web = out / "web"
    web.mkdir(parents=True)
    r = rng(seed, "web")
    vocabulary = [n.lower() for names in OntologyFacts(document).by_ns.values() for n in names]
    vocabulary += [s for name in vocabulary for s in (name[:3], name[3:])]
    for i in range(spec["web_docs"]):
        words = [r.choice(FILLER if r.random() < 0.5 else vocabulary)
                 for _ in range(spec["web_words"])]
        write_json(web / f"doc{i:05d}.json", {
            "title": f"Web page {i}", "url": f"https://example.org/page/{i}",
            "body": " ".join(words) + "."})
    write_json(out / "replies.json", {"plan": research_plan(seed, spec, rows)})
    return {"sections": spec["sections"], "operations": spec["sections"]}


# -- taxonomy -------------------------------------------------------------------------


def make_taxonomy(seed: int, spec: dict) -> dict:
    """A tree of space-separated syllable paths; held-out leaves sit at depth >= 2.

    A term's concept name is its path in CamelCase, so a name that is a prefix
    of another is always one of its ancestors.
    """
    r = rng(seed, "taxonomy")
    terms: list[str] = []
    children: dict[str, set[str]] = {"": set()}
    edges = []
    while len(terms) < spec["terms"]:
        parent = "" if len(terms) < spec["top_terms"] else r.choice(terms)
        syllable = r.choice(SYLLABLES)
        if syllable in children[parent]:
            continue
        children[parent].add(syllable)
        term = f"{parent} {syllable}".strip()
        children[term] = set()
        terms.append(term)
        if parent:
            edges.append([term, parent])
    leaves = [t for t in terms if not children[t] and " " in t]
    held_out = sorted(r.sample(leaves, spec["leaves"]))
    concepts = [{"name": t, "definition": f"A {t.split()[-1]} kind of "
                 f"{t.rsplit(' ', 1)[0] if ' ' in t else 'thing'}."} for t in terms]
    return {"concepts": concepts, "edges": edges, "test_leaves": held_out}


def camel(term: str) -> str:
    return "".join(part.capitalize() for part in term.split())


def mock_embedding(texts: list[str], dim: int):
    """Reference copy of kdr's MockEmbeddingBackend: a hash-seeded unit normal."""
    import numpy as np

    out = np.empty((len(texts), dim))
    for i, text in enumerate(texts):
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        vec = np.random.default_rng(seed).standard_normal(dim)
        out[i] = vec / np.linalg.norm(vec)
    return out


def predict_taxonomy(dataset: dict, spec: dict) -> dict:
    """Accuracy and mean Wu-Palmer under the scripted classifier.

    The classifier names the retrieved candidate whose name is the longest
    prefix of the query's, which is its deepest retrieved ancestor, and
    otherwise the first (most similar) candidate.
    """
    import numpy as np

    held = set(dataset["test_leaves"])
    definition = {c["name"]: c["definition"] for c in dataset["concepts"]}
    training = [t for t in definition if t not in held]
    index = mock_embedding([f"{camel(t)}: {definition[t]}" for t in training], spec["dim"])
    parents = {}
    correct = 0
    wup_total = 0.0
    for leaf in dataset["test_leaves"]:
        query = mock_embedding([f"{camel(leaf)}: {definition[leaf]}"], spec["dim"])[0]
        scores = index @ query
        # kdr ranks by (-cosine, name); exact float ties are not expected here
        top = np.argsort(-scores, kind="stable")[:spec["k"]]
        top = sorted(top, key=lambda i: (-scores[i], camel(training[i])))
        candidates = [training[i] for i in top]
        ancestors = [c for c in candidates if camel(leaf).startswith(camel(c))]
        predicted = max(ancestors, key=len) if ancestors else candidates[0]
        expected = leaf.rsplit(" ", 1)[0]
        parents[leaf] = f"tax.{camel(predicted)}"
        correct += predicted == expected
        a, b = predicted.split(), expected.split()
        common = next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        wup_total += 2.0 * (common + 1) / ((len(a) + 1) + (len(b) + 1))
    n = len(dataset["test_leaves"])
    return {"accuracy": correct / n, "mean_wu_palmer": wup_total / n, "operations": n,
            "parents": parents}


def write_taxonomy(seed: int, spec: dict, out: Path) -> dict:
    dataset = make_taxonomy(seed, spec)
    write_json(out / "taxonomy.json", dataset)
    return predict_taxonomy(dataset, spec)


WRITERS = {"organize": write_organize, "research": write_research, "taxonomy": write_taxonomy}


def generate(seed: int, spec: dict, out: Path) -> dict:
    """Write the workload's inputs under `out`; return the predicted outputs."""
    out.mkdir(parents=True, exist_ok=True)
    return WRITERS[spec["kind"]](seed, spec, out)
