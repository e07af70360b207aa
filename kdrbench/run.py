"""kdr benchmark: seeded offline workloads against kdr's public API.

    python3 kdrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

    for w in organize-latency organize-bulk research taxonomy-align; do
        python3 kdrbench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Run from the root of a checkout that holds kdr's sources under src/kdr. The
runner generates the workload's inputs from the seed, then starts one fresh
interpreter per repetition (kdrbench/child.py), one at a time, until S
seconds have passed, and checks every repetition's output against what the
generator predicts. The first repetition is a warm-up: checked, not timed.
Repetitions that fail their check count as failed operations and are not
timed. The last stdout line is one JSON object: with --trace 0 the
end-to-end metrics of the untraced repetitions (see BEST for how they are
reduced), with --trace 1 the per-layer metrics of the fastest traced
repetition; traced and untraced repetitions alternate so their difference
gives the tracing overhead.

Work files go to .kdrbench_work/ in the checkout; the spans of traced
repetitions are kept there under spans/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".kdrbench_work"

MIN_REPS = 4  # a warm-up repetition, then at least three timed ones
CHILD_TIMEOUT_S = 120
WALL_LIMIT_S = 150  # no repetition starts that would likely end past this

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "model_calls": "count/run",
    "prompt_kchars": "kchar/run",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

CAVEATS = ("*The analysis request", "*No search backend", "*Search failed",
           "*No background material")


def run_child(work: Path, spec: dict, rep: int, traced: bool) -> dict:
    out = work / f"rep{rep:03d}"
    out.mkdir()
    # Repetitions take turns on the CPUs: on the host this was tuned on, each
    # CPU has its own slow phases, and a run reports its fastest throughput.
    cpus = sorted(os.sched_getaffinity(0))
    job = {
        "root": str(ROOT), "spec": spec, "trace": traced, "cpu": cpus[rep % len(cpus)],
        "inputs": str(work / "inputs"), "out": str(out), "result": str(out / "result.json"),
        "topic": gen.TOPIC, "generated_at": gen.GENERATED_AT,
    }
    (out / "job.json").write_text(json.dumps(job), encoding="utf-8")
    # one process, no extra threads: numpy's BLAS pool would add one per core
    env = dict(os.environ, TMPDIR=str(work / "tmp"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # its own session, so a timeout also ends the sandbox processes it started
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(out / "job.json")],
                            cwd=out, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition {rep} timed out after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0 or not (out / "result.json").exists():
        tail = (stderr or stdout).strip().splitlines()[-3:]
        return {"error": f"repetition {rep} exited {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    if traced:
        spans = WORK / "spans"
        spans.mkdir(exist_ok=True)
        shutil.copyfile(out / "spans.json", spans / f"{work.name}-rep{rep:03d}.json")
    return result


# -- output checks --------------------------------------------------------------------


def check_organize(output: dict, expected: dict) -> tuple[int, list[str]]:
    manifest = output["manifest"]
    problems = [f"{key} is {manifest[key]}, expected {expected[key]}"
                for key in ("passages", "extracted_objects", "stored_objects",
                            "resolved_references") if manifest[key] != expected[key]]
    if manifest["errors"]:
        problems.append(f"error ledger holds {len(manifest['errors'])} rows: "
                        f"{manifest['errors'][0]}")
    return len(manifest["errors"]), problems


def check_research(output: dict, expected: dict) -> tuple[int, list[str]]:
    sections = output["sections"]
    degraded = sum(any(c in s["body"] for c in CAVEATS) for s in sections)
    problems = []
    if len(sections) != expected["sections"]:
        problems.append(f"report has {len(sections)} sections, expected {expected['sections']}")
    if degraded:
        problems.append(f"{degraded} section bodies carry a caveat")
    artifacts = sum(s["artifacts"] for s in sections)
    if artifacts < len(sections) or len(output["copied_artifacts"]) != artifacts:
        problems.append(f"{len(output['copied_artifacts'])} of {artifacts} artifacts copied "
                        f"for {len(sections)} sections")
    return degraded, problems


def check_taxonomy(output: dict, expected: dict) -> tuple[int, list[str]]:
    wrong = [leaf for leaf, parent in expected["parents"].items()
             if output["parents"].get(leaf) != parent]
    problems = []
    if output["accuracy"] != expected["accuracy"]:
        problems.append(f"accuracy {output['accuracy']}, expected {expected['accuracy']}")
    if abs(output["mean_wu_palmer"] - expected["mean_wu_palmer"]) > 1e-12:
        problems.append(f"mean Wu-Palmer {output['mean_wu_palmer']}, "
                        f"expected {expected['mean_wu_palmer']}")
    if wrong:
        problems.append(f"{len(wrong)} leaves placed off the scripted parent, e.g. {wrong[0]}")
    return len(wrong), problems


CHECKS = {"organize": check_organize, "research": check_research, "taxonomy": check_taxonomy}


def check(rep: dict, spec: dict, expected: dict, first: dict) -> tuple[int, list[str]]:
    """(failed operations, problems) for one repetition; a failed check fails
    all its operations. `first` keeps the first repetition's fingerprint."""
    if "error" in rep:
        return expected["operations"], [rep["error"]]
    failed, problems = CHECKS[spec["kind"]](rep["output"], expected)
    # output digests and call counts must agree across the repetitions of a run
    fingerprint = {"digests": rep["output"].get("digests"), "calls": rep["calls"]}
    for key, value in first.setdefault("fingerprint", fingerprint).items():
        if fingerprint[key] != value:
            problems.append(f"{key} differ from the first repetition: {fingerprint[key]}")
    return expected["operations"] if problems else failed, problems


# -- statistics -----------------------------------------------------------------------


# One run's repetitions reduce to one value per metric: the median, except
# that throughput takes the fastest repetition. Each CPU of the 2-vCPU host
# this was tuned on switches between a fast phase and one 1.6-2x slower, each
# lasting 10-30 s, so the median throughput of a run reports that mix rather
# than the program; between runs it spread 0.2-0.5 of its median on the
# CPU-bound workloads, the fastest repetition 0.03-0.08.
BEST = {"items_per_s": max}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def reduce(name: str, values: list[float]) -> float:
    return BEST.get(name, median)(values) if values else 0.0


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"  {name:<40} {reduce(name, values):<12.6g} {unit:<10} n={len(values)}"
    if len(values) >= 4:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        line += f"  median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
    return line


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, list[float]]:
    good = [r for r in reps if r["ok"] and r["timed"] and not r["traced"]]
    return {
        "setup_s": [r["setup_s"] for r in good],
        "items_per_s": [r["output"]["items"] / r["work_s"] for r in good],
        "model_calls": [r["model_calls"] for r in good],
        "prompt_kchars": [r["prompt_chars"] / 1000.0 for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "ok_ratio": [1.0 - failed / attempted],
    }


def per_layer(reps: list[dict]) -> dict[str, list[float]]:
    """Layer metrics of the fastest traced repetition, so its self times add up."""
    traced = [r for r in reps if r["ok"] and r["traced"]]
    plain = [r["total_s"] for r in reps if r["ok"] and r["timed"] and not r["traced"]]
    if not traced or not plain:
        return {name: [] for name in tracing.LAYER_METRICS}
    fastest = min(traced, key=lambda r: r["total_s"])
    values = {name: [fastest["layers"][name]]
              for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = [fastest["total_s"] - min(plain)]
    return values


def repeat(work: Path, spec: dict, expected: dict, seconds: float, trace: bool):
    """Run and check repetitions until `seconds` have passed; returns
    (repetitions, operations attempted, operations failed)."""
    started = time.monotonic()
    reps: list[dict] = []
    first: dict = {}
    attempted = failed = 0
    last = 0.0
    while True:
        now = time.monotonic()
        if now - started + last > WALL_LIMIT_S:
            break
        # stop once another repetition would likely end more than half of
        # itself past the deadline, so a run lasts `seconds` give or take that
        if now - started + last / 2 >= seconds and len(reps) >= MIN_REPS + trace:
            break
        # repetition 0 warms the file cache and is checked but not timed;
        # a traced run then alternates untraced and traced repetitions
        traced = trace and len(reps) % 2 == 0 and len(reps) > 0
        rep = run_child(work, spec, len(reps), traced)
        last = time.monotonic() - now
        f, problems = check(rep, spec, expected, first)
        attempted += expected["operations"]
        failed += f
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if "error" not in rep:
            kind = "warm-up" if not reps else "traced" if traced else "timed"
            print(f"  rep {len(reps)} {kind}: setup {rep['setup_s']:.4f} s, "
                  f"work {rep['work_s']:.4f} s, {rep['output']['items']} items")
        reps.append(dict(rep, ok=not problems, traced=traced, timed=bool(reps)))
    return reps, attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = gen.WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        expected = gen.generate(seed, spec, work / "inputs")
        compileall.compile_dir(str(ROOT / "src" / "kdr"), quiet=1)
        reps, attempted, failed = repeat(work, spec, expected, seconds, trace)
    finally:
        shutil.rmtree(work)

    if trace:
        metrics = per_layer(reps)
        units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics = end_to_end(reps, attempted, failed)
        units = END_TO_END
    print(f"kdrbench {workload} seed={seed} repetitions={len(reps)} "
          f"({sum(r['traced'] for r in reps)} traced) attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g}")
    if trace:
        print("  (per-layer values come from one traced repetition; a layer this "
              "workload does not exercise reads 0)")
    for name, values in metrics.items():
        print(describe(name, values, units[name]))
    return {
        "correct": failed == 0 and all(r["ok"] for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reduce(name, values), "unit": units[name]}
                    for name, values in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kdr" / "__init__.py").is_file():
        print(f"error: no kdr sources under {ROOT / 'src' / 'kdr'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
