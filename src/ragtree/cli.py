"""Command-line benchmark harness: JSONL datasets in, per-example JSON
traces and a metrics file out."""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, TypeVar

from .actions import ActionKind
from .config import BudgetReport, ConfigError, RunConfig
from .generation import Backend, HttpBackend, ScriptedBackend, equivalent
from .orchestrator import NO_ANSWER, Backends, SearchResult, run_search
from .retrieval import (
    LocalIndex,
    RetrievalError,
    Retriever,
    ScriptedRetriever,
    WebSearchRetriever,
)
from .worlds import WorldError, build_world


T = TypeVar("T")


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class Example:
    id: str
    question: str
    gold_answer: str
    choices: tuple[tuple[str, str], ...] = ()


@dataclass
class Metrics:
    accuracy: float
    avg_tokens: float
    avg_lm_calls: float
    avg_retriever_calls: float
    errors: int


def load_dataset(path: str | Path) -> list[Example]:
    """Parse a JSONL dataset; errors carry the offending line number."""
    path = Path(path)
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object")
            for field in ("question", "gold_answer"):
                value = row.get(field)
                if not (isinstance(value, str) and value):
                    raise DatasetError(
                        f"{path}:{lineno}: '{field}' must be a nonempty string, got {value!r}"
                    )
            example_id = row.get("id", lineno)
            if isinstance(example_id, bool) or not isinstance(example_id, (str, int)):
                raise DatasetError(
                    f"{path}:{lineno}: 'id' must be a string or an integer, got {example_id!r}"
                )
            choices = row.get("choices", [])
            if not isinstance(choices, list) or not all(
                isinstance(c, list) and len(c) == 2 and all(isinstance(p, str) for p in c)
                for c in choices
            ):
                raise DatasetError(f"{path}:{lineno}: 'choices' must be [label, text] string pairs")
            examples.append(
                Example(
                    id=str(example_id),
                    question=row["question"],
                    gold_answer=row["gold_answer"],
                    choices=tuple(map(tuple, choices)),
                )
            )
    if not examples:
        raise DatasetError(f"{path}: dataset is empty")
    return examples


def grade(prediction: str, example: Example) -> bool:
    """Multiple-choice: match the gold label or its choice text; free-form:
    normalized equivalence against the gold answer."""
    if prediction == NO_ANSWER:
        return False
    if example.choices:
        gold_label = example.gold_answer
        gold_text = next(
            (text for label, text in example.choices if equivalent(label, gold_label)), None
        )
        if equivalent(prediction, gold_label):
            return True
        return gold_text is not None and equivalent(prediction, gold_text)
    return equivalent(prediction, example.gold_answer)


def dump_trace(result: SearchResult, path: str | Path) -> None:
    """Write the trace as one line of compact JSON with sorted keys;
    byte-identical across identical runs. ``python -m json.tool`` prints it
    indented."""
    text = json.dumps(result.trace, sort_keys=True, separators=(",", ":"))
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def run_benchmark(
    examples: list[Example],
    setup: Callable[[Example], tuple[RunConfig, Backends]],
    out_dir: str | Path,
) -> tuple[Metrics, list[dict]]:
    """Run the search per example (sequentially) with the config and
    backends ``setup`` gives it, grade, and aggregate, writing each trace
    and ``metrics.json`` under ``out_dir``. One example's failure never
    aborts the batch; it is recorded with its exception's class name and
    counted in ``Metrics.errors``. Ids name the trace files, so an id that
    is repeated or is not a plain file name raises ``DatasetError`` before
    any example runs."""
    seen: set[str] = set()
    for example in examples:
        if example.id in ("", ".", "..") or any(c in example.id for c in "/\\\0"):
            raise DatasetError(f"example id {example.id!r} is not a plain file name")
        if example.id in seen:
            raise DatasetError(f"duplicate example id {example.id!r}")
        seen.add(example.id)
    records = []
    correct = errors = 0
    total = BudgetReport()
    for example in examples:
        record: dict = {"id": example.id, "gold": example.gold_answer}
        try:
            result = run_search(example.question, *setup(example))
        except Exception as exc:  # per-example isolation
            errors += 1
            record.update(
                prediction=None, correct=False, error=str(exc), error_kind=type(exc).__name__
            )
            records.append(record)
            continue
        ok = grade(result.answer, example)
        correct += ok
        total.merge(result.budget)
        record.update({"prediction": result.answer, "correct": ok})
        records.append(record)
        dump_trace(result, Path(out_dir) / f"{example.id}.trace.json")
    n = len(examples)
    metrics = Metrics(
        accuracy=correct / n,
        avg_tokens=total.tokens_generated / n,
        avg_lm_calls=total.lm_calls / n,
        avg_retriever_calls=total.retriever_calls / n,
        errors=errors,
    )
    payload = {"metrics": asdict(metrics), "examples": records}
    (Path(out_dir) / "metrics.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return metrics, records


def _parse_disabled(value: str) -> frozenset[ActionKind]:
    if not value:
        return frozenset()
    out = set()
    for code in value.split(","):
        code = code.strip().upper()
        if code not in {"A1", "A2", "A3", "A4", "A5"}:
            raise argparse.ArgumentTypeError(f"cannot disable {code!r} (A1..A5 only)")
        out.add(ActionKind(code))
    return frozenset(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragtree",
        description="Retrieval-augmented tree search over a question set.",
    )
    # One flag per source; the flag given picks the source, and two sources
    # of one kind are a usage error.
    inputs = parser.add_mutually_exclusive_group()
    inputs.add_argument("--dataset", help="JSONL dataset of examples")
    inputs.add_argument("--worlds", help="directory of scripted world JSON files")
    parser.add_argument("--out-dir", required=True, help="directory for traces and metrics")
    # RunConfig flags: dest is the field name and there is no default, so a
    # flag left off parses to None and the RunConfig default applies.
    parser.add_argument("--rollouts", type=int)
    parser.add_argument("--max-depth", type=int)
    parser.add_argument("--max-subquestions", type=int)
    parser.add_argument("--k-completions", type=int)
    parser.add_argument("--c-uct", type=float)
    parser.add_argument("--top-k", dest="top_k_docs", metavar="TOP_K", type=int)
    parser.add_argument("--tau-prune", type=float)
    parser.add_argument(
        "--disable-actions",
        dest="disabled_actions",
        type=_parse_disabled,
        metavar="A4,A5",
        help="comma-separated actions (A1..A5) to ablate",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--sequential",
        dest="parallel_expansion",
        action="store_false",
        default=None,
        help="evaluate sibling actions one at a time; otherwise they run on a "
        "thread pool when the LM or retriever may wait on I/O",
    )
    lm = parser.add_mutually_exclusive_group()
    lm.add_argument("--lm-endpoint", help="chat-completions base URL")
    lm.add_argument("--lm-scripted", help="JSON file mapping prompt keys to outputs")
    parser.add_argument("--lm-model", help="model name for --lm-endpoint (default: default)")
    retriever = parser.add_mutually_exclusive_group()
    retriever.add_argument("--corpus", help="JSONL corpus for the local inverted index")
    retriever.add_argument("--retriever-script", help="JSON query->documents map")
    retriever.add_argument("--search-endpoint", help="HTTP search API URL")
    return parser


def _load_script(path: str, build: Callable[[dict], T]) -> T:
    """Parse a JSON script file and build its backend from it; a file that
    is not JSON or not shaped as the backend expects is an input error."""
    try:
        script = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(script, dict):
            raise ValueError(f"expected a JSON object, got {type(script).__name__}")
        return build(script)
    except (ValueError, TypeError) as exc:
        raise DatasetError(f"{path}: malformed script: {exc}") from exc


def _build_lm(args) -> Backend:
    if args.lm_scripted:
        return _load_script(args.lm_scripted, ScriptedBackend)
    if args.lm_endpoint:
        model = args.lm_model if args.lm_model is not None else "default"
        return HttpBackend(base_url=args.lm_endpoint, model=model)
    raise ConfigError("one of --lm-scripted or --lm-endpoint is required")


def _build_retriever(args) -> Retriever | None:
    if args.corpus:
        return LocalIndex.from_jsonl(args.corpus)
    if args.retriever_script:
        return _load_script(args.retriever_script, ScriptedRetriever)
    if args.search_endpoint:
        return WebSearchRetriever(endpoint=args.search_endpoint)
    return None


_SOURCE_FLAGS = (
    "--lm-endpoint", "--lm-scripted", "--corpus", "--retriever-script", "--search-endpoint",
)


def main(argv: list[str] | None = None) -> int:
    """Exit 0 when every example ran, 2 on a config or input error, 3 when
    any example raised."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.worlds:
        # Each world carries its own LM and retriever scripts.
        for flag in _SOURCE_FLAGS:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                parser.error(f"argument {flag}: not allowed with argument --worlds")
    if args.lm_model is not None:
        # Only --lm-endpoint reads a model name.
        for flag, value in (("--worlds", args.worlds), ("--lm-scripted", args.lm_scripted)):
            if value is not None:
                parser.error(f"argument --lm-model: not allowed with argument {flag}")
    # Flags given on the command line, in any spelling; they beat world overrides.
    explicit = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    try:
        config = RunConfig(**explicit).validate()
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.worlds:
            world_paths = sorted(Path(args.worlds).glob("*.json"))
            if not world_paths:
                raise DatasetError(f"no world files under {args.worlds}")
            loaded = [build_world(p) for p in world_paths]
            # Keyed by name, the example id; two files of one name fail
            # run_benchmark's duplicate-id check.
            worlds = {w.name: w for w in loaded}
            examples = [
                Example(id=w.name, question=w.question, gold_answer=w.gold) for w in loaded
            ]

            def setup(ex: Example) -> tuple[RunConfig, Backends]:
                return worlds[ex.id].config(**explicit), worlds[ex.id].backends()
        else:
            if not args.dataset:
                raise DatasetError("one of --dataset or --worlds is required")
            examples = load_dataset(args.dataset)
            backends = Backends(lm=_build_lm(args), retriever=_build_retriever(args))

            def setup(ex: Example) -> tuple[RunConfig, Backends]:
                return config, backends
        started = time.monotonic()
        metrics, _ = run_benchmark(examples, setup, out_dir)
        wall_time_ms = int((time.monotonic() - started) * 1000)
    except (ConfigError, DatasetError, RetrievalError, WorldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"accuracy={metrics.accuracy:.4f} avg_tokens={metrics.avg_tokens:.1f} "
        f"avg_lm_calls={metrics.avg_lm_calls:.1f} "
        f"avg_retriever_calls={metrics.avg_retriever_calls:.1f} "
        f"wall_time_ms={wall_time_ms}"
    )
    if metrics.errors:
        print(f"error: {metrics.errors} of {len(examples)} examples raised", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
