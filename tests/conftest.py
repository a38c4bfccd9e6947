import json
import os
from pathlib import Path

import pytest

import ragtree
from ragtree.orchestrator import run_search
from ragtree.worlds import World, build_world

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "worlds"


@pytest.fixture(scope="session")
def worlds() -> dict[str, World]:
    paths = sorted(FIXTURES.glob("*.json"))
    assert paths, f"no world fixtures under {FIXTURES}; run tests/shipped_worlds.py"
    return {p.stem: build_world(p) for p in paths}


def run_world(world: World, **config_overrides):
    config = world.config(**config_overrides)
    return run_search(world.question, config, world.backends())


def child_env() -> dict[str, str]:
    """Environment for a child Python process that imports this ragtree."""
    paths = [str(Path(ragtree.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def trace_json(trace: dict) -> str:
    return json.dumps(trace, indent=2, sort_keys=True)
