"""Benchmark of the ragtree engine: one closed-loop client, one question at a
time, on one of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ragtree checkout; the engine is imported from its
``src/``. The inputs are generated from --seed. Set-up is timed in fresh
processes; the questions run in one more fresh process. Every answer and
trace is checked (see loop.py). With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics, and the spans go to .perfbench_run/spans-NAME.jsonl.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# kind, config, stand-in latency per LM call and per search (seconds).
WORKLOADS = {
    "worlds-instant": {"kind": "worlds", "rollouts": 16, "lm_delay_s": 0.0, "search_delay_s": 0.0},
    "worlds-latency": {"kind": "worlds", "rollouts": 16, "lm_delay_s": 0.010, "search_delay_s": 0.005},
    "corpus-rag": {"kind": "corpus", "rollouts": 4, "lm_delay_s": 0.0, "search_delay_s": 0.0},
    "deep-search": {"kind": "worlds", "rollouts": 1024, "lm_delay_s": 0.0, "search_delay_s": 0.0},
}
# Fresh set-up processes per run, half before and half after the timed
# process (which adds its own set-up), so that the median spans the run.
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "question_ms.p50": "ms",
    "question_ms.p90": "ms",
    "questions_per_s": "1/s",
    "lm_calls_per_q": "count",
    "tokens_per_q": "count",
    "retriever_calls_per_q": "count",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def write_inputs(workload: str, seed: int, out_dir: Path) -> None:
    import inputs

    spec = WORKLOADS[workload]
    manifest = {"workload": workload, "kind": spec["kind"], "lm_delay_s": spec["lm_delay_s"],
                "search_delay_s": spec["search_delay_s"], "config": {"rollouts": spec["rollouts"]}}
    if spec["kind"] == "worlds":
        manifest["questions"] = inputs.write_worlds(out_dir, seed, spec["rollouts"])
    else:
        manifest["facts"] = inputs.write_corpus(out_dir, seed)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def worker(src: Path, inputs: Path, out: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src), "--inputs", str(inputs),
           "--out", str(out), *extra]
    proc = subprocess.run(cmd, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    samples = [o["ms"] for o in result["occurrences"] if o["ms"] is not None]
    completed = len(samples)
    budget = result["budget"]
    return {
        "setup_s": statistics.median(setup_samples),
        "question_ms.p50": statistics.median(samples),
        "question_ms.p90": statistics.quantiles(samples, n=10)[-1],
        "questions_per_s": completed / (sum(samples) / 1000.0),
        "lm_calls_per_q": budget.get("lm_calls", 0) / completed,
        "tokens_per_q": budget.get("tokens", 0) / completed,
        "retriever_calls_per_q": budget.get("retriever_calls", 0) / completed,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ragtree" / "__init__.py").is_file():
        return fail(f"no ragtree sources under {src}; run from the root of a ragtree checkout")
    sys.path.insert(0, str(src))
    work = root / ".perfbench_run"
    run_dir = work / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    try:
        write_inputs(args.workload, args.seed, run_dir / "inputs")

        def probe(i: int) -> float:
            out = run_dir / f"setup{i}.json"
            return worker(src, run_dir / "inputs", out, "--setup-only")["setup_s"]

        setups = [probe(i) for i in range(SETUP_PROBES // 2)]
        result = worker(src, run_dir / "inputs", run_dir / "result.json",
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--spans", str(work / f"spans-{args.workload}.jsonl"))
        setups += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(result["timings"]["setup_s"])
    summary = result["summary"]
    if sum(o["ms"] is not None for o in result["occurrences"]) < 2:
        return fail(f"fewer than two questions completed; failures: {summary['reasons']}")
    e2e = end_to_end(result, setups)

    print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} questions, "
          f"closed loop, one client")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:24s} {e2e[name]:12.4f} {unit}")
    print(f"  {'failed_share':24s} {summary['failed_share']:12.4f} ratio")
    for reason, n in sorted(summary["reasons"].items()):
        print(f"  failure: {reason} x{n}")
    print(f"  trace_sha256 {summary['trace_sha256']}")
    if args.trace:
        from layers import PER_LAYER_UNITS

        report = result["layers"]
        metrics = {k: {"value": report["metrics"][k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        print(f"  traced questions {report['traced_questions']}, untraced {report['untraced_questions']}")
        print(f"  self time per question by span: {'wall ms':>10s} {'cpu ms':>10s}")
        for name, (wall, cpu) in sorted(report["self_ms_by_span"].items(), key=lambda kv: -kv[1][0]):
            print(f"    {name:36s} {wall:10.3f} {cpu:10.3f}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
