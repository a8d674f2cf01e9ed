"""Tiled fixtures: k copies of a scenario document side by side.

Copy c of every node is shifted by +40 m * c along x and renumbered
``c * n + rank``, where ``rank`` is the node's position among the sorted
original ids, so ids stay dense and unique. The config is kept as is. The
generator works on the raw JSON document, not on linkform's model, so the
bytes it writes depend only on the input file and on this code; the workload
pins their SHA-256.

Usage: python3 perfbench/tiling.py FIXTURE.json COPIES OUT.json
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

OFFSET_M = 40.0


def tile_document(document: dict, copies: int) -> dict:
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    nodes = document["nodes"]
    rank = {node_id: index for index, node_id in enumerate(sorted(node["id"] for node in nodes))}
    tiled = []
    for c in range(copies):
        for node in nodes:
            clone = copy.deepcopy(node)
            clone["id"] = c * len(nodes) + rank[node["id"]]
            clone["position"] = [node["position"][0] + OFFSET_M * c, node["position"][1]]
            tiled.append(clone)
    return {"config": copy.deepcopy(document["config"]), "nodes": tiled}


def tiled_bytes(fixture: Path, copies: int) -> bytes:
    document = json.loads(fixture.read_text(encoding="utf-8"))
    return (json.dumps(tile_document(document, copies), indent=2, sort_keys=True) + "\n").encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    data = tiled_bytes(Path(argv[0]), int(argv[1]))
    Path(argv[2]).write_bytes(data)
    print(sha256(data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
