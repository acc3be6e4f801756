"""Benchmark set-up: write one workload's inputs into a fresh directory.

    PYTHONPATH=src python perfbench/inputs.py WORKLOAD SEED DEST [PREFILL_DIR]

Runs in its own process so that its wall time, which the benchmark reports
as ``setup_s``, includes what a user pays to prepare inputs: interpreter
start, importing ``frobsep.curves`` and validating every curve through
``CurveSpec`` (the genus-2 discriminant included).  DEST receives the curve
and character files, a ``cache`` directory (empty, or holding a copy of the
pre-filled buckets in PREFILL_DIR) and, for ``scan-corpus``, ``corpus.json``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import sympy

from frobsep.curves import CurveSpec
from frobsep.errors import FrobsepError

HERE = Path(__file__).resolve().parent
REFERENCE_FILES = {
    "cold-tables": ("11a1.json", "g2b.json"),
    "warm-analysis": ("11a1.json", "37a1.json", "g2b.json", "sym2.json"),
}
CORPUS_GENUS1 = 8
CORPUS_GENUS2 = 4
CORPUS_PAIRS = 24


def radical(n: int) -> int:
    out = 1
    for p in sympy.factorint(abs(n)):
        out *= int(p)
    return out


def _declared(label: str, genus: int, f, h) -> CurveSpec | None:
    """The model with conductor rad(disc), or None when CurveSpec rejects it.

    Declaring the radical makes the conductor and discriminant bad-prime
    sets agree, so every bad prime is bad for the same reason.
    """
    try:
        probe = CurveSpec(label=label, genus=genus, f=f, h=h, conductor=1)
        return CurveSpec(label=label, genus=genus, f=probe.f, h=probe.h,
                         conductor=radical(probe.discriminant))
    except FrobsepError:
        return None


def generate_corpus(seed: int) -> tuple[list[CurveSpec], list[tuple[str, str]]]:
    """Small-coefficient genus-1 and genus-2 models and pairs that share curves."""
    rng = random.Random(seed)
    curves: list[CurveSpec] = []
    models = set()
    while len(curves) < CORPUS_GENUS1 + CORPUS_GENUS2:
        genus = 1 if len(curves) < CORPUS_GENUS1 else 2
        if genus == 1:
            f = (rng.randint(-9, 9), rng.randint(-5, 5), rng.randint(-1, 1), 1)
            h = (rng.randint(0, 1), rng.randint(0, 1))
        else:
            f = tuple(rng.randint(-2, 2) for _ in range(6)) + (rng.choice((0, 1)),)
            h = tuple(rng.randint(0, 1) for _ in range(4))
        curve = _declared(f"s{seed}-g{genus}-{len(curves)}", genus, f, h)
        if curve is not None and (curve.f, curve.h) not in models:
            models.add((curve.f, curve.h))
            curves.append(curve)
    labels = [c.label for c in curves]
    every_pair = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    pairs = [pair if rng.random() < 0.5 else pair[::-1]
             for pair in rng.sample(every_pair, CORPUS_PAIRS)]
    return curves, pairs


def write_inputs(workload: str, seed: int, dest: Path,
                 prefill: Path | None) -> None:
    dest.mkdir(parents=True)
    cache = dest / "cache"
    if workload == "scan-corpus":
        curves, pairs = generate_corpus(seed)
        for curve in curves:
            (dest / f"{curve.label}.json").write_text(
                json.dumps(curve.to_json()), encoding="utf-8")
        corpus = {"pairs": [[f"{a}.json", f"{b}.json"] for a, b in pairs]}
        (dest / "corpus.json").write_text(json.dumps(corpus), encoding="utf-8")
        cache.mkdir()
        return
    for name in REFERENCE_FILES[workload]:
        shutil.copyfile(HERE / "curves" / name, dest / name)
        if name != "sym2.json":
            CurveSpec.from_path(dest / name)
    if prefill is None:
        cache.mkdir()
    else:
        shutil.copytree(prefill, cache)


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 1
    workload, seed, dest = argv[0], int(argv[1]), Path(argv[2])
    prefill = Path(argv[3]) if len(argv) == 4 else None
    write_inputs(workload, seed, dest, prefill)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
