"""Regenerates e2e_mock.json, the scripted backend for the golden run."""

from __future__ import annotations

import json
from pathlib import Path

ONTOLOGY = {
    "namespaces": {
        "STUDY": [
            {"name": "Person", "kind": "entity", "parent": "Entity",
             "description": "A person in the study corpus.",
             "attributes": [{"name": "birth_year", "type": "number"}]},
            {"name": "Machine", "kind": "entity", "parent": "Entity",
             "description": "A machine or device.",
             "attributes": [{"name": "designer", "type": "Person"}]},
        ]
    }
}

INSTANTIATION_DOC1 = """\
```python
results = [
    Person(name="Ada Lovelace", birth_year=1815),
    Person(name="Charles Babbage"),
    Machine(name="Analytical Engine"),
]
```"""

INSTANTIATION_DOC2 = """\
```python
results = [
    Person(name="Charles Babbage", birth_year=1791),
    Machine(name="Analytical Engine", designer=Person(name="Charles Babbage")),
]
```"""

PLAN = """\
# Background
<begin_web_search>Who collaborated on the Analytical Engine?<end_web_search>

# Computed profile
<begin_data_analysis>mean birth year of every person on record<end_data_analysis>
"""

CODE_V1 = """\
```python
values = [o.birth_year for o in search_results]
print(sum(values) / len(values))
```"""

CODE_V2 = """\
```python
years = [o.birth_year for o in search_results
         if getattr(o, 'birth_year', None) is not None]
print('mean birth year:', sum(years) / len(years))
with open('birth_years.csv', 'w') as fh:
    fh.write('name,year\\nAda Lovelace,1815\\nCharles Babbage,1791\\n')
print('saved birth_years.csv')
```"""

SECTION_1 = "Ada Lovelace worked with Charles Babbage on the Analytical Engine [1]."
SECTION_2 = "The records give a mean birth year of 1803.0 (see the attached table)."

SCRIPT = {
    "rules": [
        {"match": "Design a concept schema",
         "responses": [json.dumps(ONTOLOGY, indent=2)]},
        {"match": r"(?s)Please import.*born in London", "regex": True,
         "responses": ["From STUDY Import Person, Machine"]},
        {"match": r"(?s)Please import.*designed the Analytical Engine", "regex": True,
         "responses": ["From STUDY Import Person, Machine"]},
        {"match": r"(?s)Please instantiate.*born in London", "regex": True,
         "responses": [INSTANTIATION_DOC1]},
        {"match": r"(?s)Please instantiate.*designed the Analytical Engine",
         "regex": True, "responses": [INSTANTIATION_DOC2]},
        {"match": "You are planning a research report", "responses": [PLAN]},
        {"match": "List the topic entities",
         "responses": ["Ada Lovelace\nCharles Babbage"]},
        {"match": "Write a Python script", "responses": [CODE_V1, CODE_V2]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS the mean and the table are produced"]},
        {"match": "Summarize the following source",
         "responses": ["Lovelace and Babbage collaborated on the Analytical Engine."]},
        {"match": "Write the answer to the research question",
         "responses": [SECTION_1]},
        {"match": "Decide whether the draft sufficiently answers",
         "responses": ["PASS covered"]},
        {"match": "Merge the computed findings", "responses": [SECTION_2]},
        # one revise rule per section, matched on the section it polishes:
        # revises overlap, so a shared queue would answer in arrival order
        {"match": f"Section to polish:\n{SECTION_1}", "responses": [SECTION_1]},
        {"match": f"Section to polish:\n{SECTION_2}", "responses": [SECTION_2]},
    ],
    "default_response": "",
}

if __name__ == "__main__":
    out = Path(__file__).parent / "e2e_mock.json"
    out.write_text(json.dumps(SCRIPT, indent=2, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
