"""Golden trace digests: the sha256 of every shipped world's dumped trace at
rollouts 4, 8 and 16, in parallel and sequential mode.

A refactor must leave every digest unchanged. A change that alters traces
on purpose regenerates the file with ``PYTHONPATH=src python
tests/test_golden_traces.py`` and says why in CHANGES.md.
"""
import hashlib
import json
import tempfile
from pathlib import Path

from ragtree.cli import dump_trace
from ragtree.orchestrator import run_search
from ragtree.worlds import build_world

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_trace_digests.json"
FIXTURES = HERE.parent / "fixtures" / "worlds"
ROLLOUTS = (4, 8, 16)


def trace_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(FIXTURES.glob("*.json")):
        world = build_world(path)
        for rollouts in ROLLOUTS:
            for parallel in (True, False):
                config = world.config(rollouts=rollouts, parallel_expansion=parallel)
                result = run_search(world.question, config, world.backends())
                mode = "parallel" if parallel else "sequential"
                trace_path = out_dir / f"{world.name}-r{rollouts}-{mode}.json"
                dump_trace(result, trace_path)
                key = f"{world.name}/r{rollouts}/{mode}"
                digests[key] = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    return digests


def test_trace_digests_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = trace_digests(tmp_path)
    assert len(digests) == 20 * len(ROLLOUTS) * 2
    assert sorted(digests) == sorted(golden)
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"trace bytes changed for {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = trace_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} digests to {GOLDEN}")
