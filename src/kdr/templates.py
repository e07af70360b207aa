"""Prompt templates used across the engine.

Every instruction string the engine sends to a model lives here, so wording
changes happen in exactly one place. The extraction templates are load-bearing:
scripted tests and training-sample generation depend on their exact bytes.
"""

from __future__ import annotations

# -- extraction ----------------------------------------------------------------

# {task} is the namespace; {clause} is an ontology.render_import_clause line.

CLOSED_IMPORTING_PROMPT = (
    "{clause}\n\n"
    "Some {task} Types are imported above. Please import all the possible "
    "{task} Types in the following sentence.\n\n"
    "Sentence: {text}"
)

OPEN_IMPORTING_PROMPT = (
    "According to the {task} Types you have learned, please import all the "
    "possible {task} Types in the sentence\n\n"
    "Sentence: {text}"
)

INSTANTIATION_PROMPT = (
    "{clause}\n\n"
    "Some {task} Types are imported above. Please instantiate all the possible "
    "{task} Objects in the following sentence.\n\n"
    "Sentence: {text}"
)

SCHEMA_RECALL_PROMPT = (
    "Please generate the detailed schema of the class {type} from {task} "
    "based on your memory."
)


# -- alignment -----------------------------------------------------------------

RELATION_CLASSIFY_PROMPT = """\
You are curating a class hierarchy of {kind} concepts.

New concept:
{query_code}

Existing candidate concepts:
{candidate_codes}

For each candidate, state its relation to the new concept. Use exactly one
line per candidate, formatted as "{{name}}: {{relation}}", where relation is
one of: parent_of_query, child_of_query, equivalent, unrelated.
"""

# -- reasoning: plan decomposition ------------------------------------------------

PLAN_PROMPT = """\
You are planning a research report titled "{title}".

Decompose the work into sections. Write each section as a markdown heading
line starting with "#" followed by the section title, then the body of that
section's plan. Inside a body, wrap each data analysis task you need in
<begin_data_analysis> and <end_data_analysis>, and each background lookup in
<begin_web_search> and <end_web_search>.

Request: {request}
"""

# -- reasoning: knowledge computation ---------------------------------------------

CODE_GENERATION_PROMPT = """\
Write a Python script that answers the analysis query below.

Class definitions:
{class_code}

The variable `search_results` is already populated with instances of these
classes before your code runs; never reassign it. Print the findings. Save
any chart or table you produce to a relative path and print that path.

Query: {query}
{feedback}
Reply with a single fenced Python code block.
"""

TOPIC_ENTITY_PROMPT = """\
List the topic entities the analysis query below is about. Reply with one
name per line and nothing else.

Query: {query}
"""

RESULT_EVALUATION_PROMPT = """\
Decide whether the analysis results satisfy the query. Reply with PASS or
FAIL as the first word, then one sentence of justification. If FAIL, explain
what to fix.

Query: {query}

Output:
{stdout}

Produced files:
{files}
"""

# -- reasoning: text cycle ---------------------------------------------------------

SUMMARIZE_PROMPT = """\
Summarize the following source so it can back the research question below.
Keep every load-bearing fact; drop everything else.

Question: {query}

Source ({url}):
{body}
"""

DRAFT_PROMPT = """\
Write the answer to the research question below using only the numbered
source summaries. Cite facts with [n] markers that refer to those numbers.

Question: {query}

Summaries:
{summaries}
"""

SUFFICIENCY_PROMPT = """\
Decide whether the draft sufficiently answers the question. Reply with PASS
or FAIL as the first word, then one sentence. If FAIL, name what is missing.

Question: {query}

Draft:
{draft}
"""

# -- pipeline ----------------------------------------------------------------------

PROPOSE_ONTOLOGY_PROMPT = """\
Design a concept schema for a research corpus about: {topic}

Reply with a single JSON object of the form
{{"namespaces": {{"<namespace>": [{{"name": ..., "kind": "entity" or "event",
"parent": ..., "description": ..., "examples": [...], "attributes":
[{{"name": ..., "type": ..., "doc": ...}}], "equivalents": [...]}}]}}}}
and nothing else. Parents must be existing concept names, "Entity", or
"Event". Attribute types are text, number, date, List[text], List[number],
List[date], or a concept name.

Corpus sample:
{sample}
"""

MERGE_SECTION_PROMPT = """\
Merge the computed findings and the drafted text below into one coherent
section body. Prefer the computed numbers whenever the two disagree. Keep
citation markers and artifact references intact.

Section: {title}

Computed findings:
{computed}

Drafted text:
{drafted}
"""

REVISE_SECTION_PROMPT = """\
Polish the section below so it reads well inside the full report. Fix
transitions and redundancy only; never alter numbers, citation markers, or
artifact references.

Full report:
{report}

Section to polish:
{section}
"""
