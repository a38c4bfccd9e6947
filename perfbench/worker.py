"""A fresh process that sets up one workload from its generated inputs and,
unless --setup-only, runs the closed question loop in whole passes for at
least --seconds seconds.

Set-up is timed from before ``import ragtree`` through loading the inputs
(``build_world``, or ``load_dataset`` plus ``LocalIndex.from_jsonl``). The
result is written as JSON to --out.

    python3 perfbench/worker.py --src SRC --inputs DIR --out FILE [--setup-only]
        [--seconds S] [--trace 0|1] [--spans FILE]
"""
import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

# Bounds the recorder's memory and span file. A deep-search question records
# about 7000 spans, so its traced run holds two or three traced passes.
SPAN_BUDGET = 250_000


def setup(src: str, inputs: Path, recorder) -> tuple[list, list, dict]:
    """Import ragtree from ``src`` and load the workload's inputs. Returns
    (timed questions, reference passes as (label, questions), timings)."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ragtree
    from ragtree import cli, worlds

    import_s = time.perf_counter() - t0
    if Path(ragtree.__file__).resolve().parent != (Path(src) / "ragtree").resolve():
        raise SystemExit(f"imported ragtree from {ragtree.__file__}, not from {src}")
    import standins
    from loop import Question

    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    timings = {"setup.import_s": import_s, "worlds.build_world_ms": 0.0,
               "retrieval.index_build_s": 0.0}
    if manifest["kind"] == "worlds":
        timed, instant = [], []
        started = time.perf_counter()
        loaded = [worlds.build_world(inputs / f"{name}.json") for name in manifest["questions"]]
        timings["worlds.build_world_ms"] = (time.perf_counter() - started) * 1000.0 / len(loaded)
        for world in loaded:
            example = cli.Example(id=world.name, question=world.question, gold_answer=world.gold)
            backends = world.backends()
            instant.append(Question(example, world.config(), backends))
            if manifest["lm_delay_s"]:
                backends = ragtree.Backends(
                    standins.LatencyBackend(backends.lm, manifest["lm_delay_s"], recorder),
                    standins.LatencyRetriever(backends.retriever, manifest["search_delay_s"], recorder),
                )
                timed.append(Question(example, world.config(), backends))
        if not manifest["lm_delay_s"]:
            timed = instant
    else:
        examples = cli.load_dataset(inputs / "dataset.jsonl")
        started = time.perf_counter()
        index = ragtree.LocalIndex.from_jsonl(inputs / "corpus.jsonl")
        timings["retrieval.index_build_s"] = time.perf_counter() - started
        facts = {city: tuple(v) for city, v in manifest["facts"].items()}
        backends = ragtree.Backends(worlds.RecordingBackend(standins.corpus_rules(facts)), index)
        config = ragtree.RunConfig(**manifest["config"]).validate()
        timed = instant = [Question(e, config, backends) for e in examples]
    timings["setup_s"] = time.perf_counter() - t0
    # The sequential pass runs without stand-in latency: with the engine's
    # determinism its traces must equal the timed ones byte for byte.
    references = [("sequential", [
        replace(q, config=replace(q.config, parallel_expansion=False)) for q in instant
    ])]
    if timed is not instant:
        references.append(("instant", instant))
    return timed, references, timings


def run(questions, references, seconds: float, recorder, trace_dir: Path) -> dict:
    """The timed loop, in whole passes over the questions until ``seconds``
    have passed, then the reference passes. With a recorder, passes alternate
    untraced and traced, so both latencies come from one run; no pass is
    traced once SPAN_BUDGET spans are held."""
    import layers
    from loop import QuestionLoop

    counts = layers.Counts()
    if recorder is not None:
        layers.install(recorder, counts)
    loop = QuestionLoop(trace_dir, recorder)
    n = len(questions)
    start = time.perf_counter()
    i = 0
    traced = False
    while i % n or time.perf_counter() - start < seconds:
        if recorder is not None and i % n == 0:
            traced = (i // n) % 2 == 1 and len(recorder.spans) < SPAN_BUDGET
            recorder.enabled = traced
        loop.ask(questions[i % n], traced)
        i += 1
    if recorder is not None:
        recorder.enabled = False
    for label, reference in references:
        for q in reference:
            loop.compare(q, label)
    return {"summary": loop.summary(), "occurrences": [o.__dict__ for o in loop.occurrences],
            "budget": dict(loop.budget), "counts": dict(counts.values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    from spans import Recorder

    recorder = Recorder() if args.trace else None
    questions, references, timings = setup(args.src, args.inputs, recorder)
    if args.setup_only:
        args.out.write_text(json.dumps({**timings, "peak_rss_mb": peak_rss_mb()}), encoding="utf-8")
        return 0
    trace_dir = args.out.parent / "traces"
    trace_dir.mkdir(exist_ok=True)
    result = run(questions, references, args.seconds, recorder, trace_dir)
    result["timings"] = timings
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        result["layers"] = layer_report(recorder, result, timings)
        if args.spans is not None:
            recorder.write(args.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def layer_report(recorder, result: dict, timings: dict) -> dict:
    import layers

    traced = [o for o in result["occurrences"] if o["traced"] and o["ms"] is not None]
    untraced = [o for o in result["occurrences"] if not o["traced"] and o["ms"] is not None]

    def mean(key: str) -> float:
        return statistics.fmean(o[key] for o in traced) if traced else 0.0

    def p50(occurrences) -> float:
        return statistics.median(o["ms"] for o in occurrences) if occurrences else 0.0

    extra = {
        "tree.nodes": mean("nodes"),
        "cli.trace_kb": mean("trace_bytes") / 1024.0,
        "worlds.build_world_ms": timings["worlds.build_world_ms"],
        "retrieval.index_build_s": timings["retrieval.index_build_s"],
        "setup.import_s": timings["setup.import_s"],
        "tracing.overhead_ms": p50(traced) - p50(untraced),
    }
    metrics, per_span_ms = layers.per_layer(recorder, result["counts"], extra)
    return {"metrics": metrics, "self_ms_by_span": per_span_ms,
            "traced_questions": len(traced), "untraced_questions": len(untraced)}


if __name__ == "__main__":
    raise SystemExit(main())
