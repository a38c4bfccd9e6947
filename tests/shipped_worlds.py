"""The 20 shipped worlds under ``fixtures/worlds/``, authored as content
rules and frozen to JSON. Regenerate them after an intentional template
edit from a ragtree checkout:

    PYTHONPATH=src python tests/shipped_worlds.py --out-dir fixtures/worlds

The rules of each world kind live in ``perfbench/standins.py``, which the
benchmark uses for its seeded variants; the worlds here fix their names.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ragtree.worlds import RuleWorld, materialize

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import standins  # noqa: E402

_CITIES = [
    "Auria", "Belmont", "Corvell", "Dunmore", "Eastvale",
    "Farrow", "Glenholm", "Harwick", "Islemoor", "Jarrah",
]
_CODES = [
    "zephyr", "quillon", "maravel", "ostrine", "peldra",
    "sylvane", "torvak", "umbriel", "veshara", "wrenfall",
]


def shipped_worlds() -> list[RuleWorld]:
    worlds: list[RuleWorld] = []
    for i, (city, code) in enumerate(zip(_CITIES, _CODES)):
        doc = f"City gazette, {city} edition. {standins.gated_fact(city, code)}"
        worlds.append(
            RuleWorld(
                name=f"retrieval-gated-{i:02d}",
                question=standins.gated_question(city),
                gold=code,
                rules=standins.retrieval_gated_rules(city, code, "obsidian"),
                retriever_script={standins.gated_query(city): [(f"gazette-{i}", doc)]},
                expectations={
                    "kind": "retrieval_gated",
                    "winning_action_in": ["A4", "A5"],
                    "min_retriever_calls": 1,
                },
            )
        )
    for i in range(5):
        gold = f"harbor-{i}"
        worlds.append(
            RuleWorld(
                name=f"no-retrieval-{i:02d}",
                question=f"Which harbor is listed first in registry volume {i}?",
                gold=gold,
                rules=standins.no_retrieval_rules(f"registry volume {i} lists it first", gold),
                expectations={"kind": "no_retrieval", "retriever_calls": 0},
            )
        )
    for i in range(3):
        gold = f"meridian-{i}"
        worlds.append(
            RuleWorld(
                name=f"consistency-trap-{i:02d}",
                question=f"Which meridian does ledger {i} assign to the survey?",
                gold=gold,
                rules=standins.consistency_trap_rules(
                    gold, ["opal", "basalt", "umber", "cinder", "raven"]
                ),
                config_overrides={"k_completions": 5},
                expectations={
                    "kind": "consistency_trap",
                    "min_pruned": 1,
                    "retriever_calls": 0,
                },
            )
        )
    for i in range(2):
        gold, mirage = f"cobalt-{i}", f"crimson-{i}"
        worlds.append(
            RuleWorld(
                name=f"hallucination-trap-{i:02d}",
                question=f"What color is entry {i} in the pigment registry?",
                gold=gold,
                rules=standins.hallucination_trap_rules(gold, mirage),
                expectations={"kind": "hallucination_trap", "mirage": mirage},
            )
        )
    return worlds


def generate_fixtures(out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for rule_world in shipped_worlds():
        world = materialize(rule_world)
        path = out_dir / f"{world.name}.json"
        world.dump(path)
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the shipped world fixtures.")
    parser.add_argument("--out-dir", default="fixtures/worlds")
    args = parser.parse_args(argv)
    for path in generate_fixtures(args.out_dir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
