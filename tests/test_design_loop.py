"""Bit-identity guard of the seeded design loop.

``optimize_lengths`` (pop 24, 10 generations, seeds 1 and 2) on five cells,
both stacks, 40-90 kHz and one cell outside its radial band, against the
values in ``design_loop_reference.json``: the front's design vectors,
objectives and flags, compared with ``==``; a SHA-256 of every generation's
proposed design vectors and the objectives NSGA-II got for them; and the
lattice points and full-lattice fallbacks of the cell's context.  Those two
are counted over the distinct design vectors of the run, each evaluated on
its own, so they are the figures of a run that scores each distinct vector
once.

Regenerate (only on purpose, and say why in CHANGES.md) with

    PYTHONPATH=src python tests/test_design_loop.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sppal import optimizer as opt
from sppal import transducer as td
from sppal.medium import build_medium

REFERENCE = Path(__file__).resolve().parent / "design_loop_reference.json"

#: (f_u0, mode, stack, r_p); the 75 kHz, 13 mm cell is outside its radial band
CELLS = (
    (60e3, 8, "full", 9e-3),
    (40e3, 6, "half", 13e-3),
    (90e3, 8, "full", 9e-3),
    (75e3, 8, "half", 11e-3),
    (75e3, 8, "full", 13e-3),
)
SEEDS = (1, 2)


def cell_params(f_u0, mode, stack, r_p) -> opt.DesignParams:
    return opt.DesignParams(0.45, f_u0, mode, td.StackConfig(stack), r_p, 8e-3, 0.75e-3)


def run(params, seed, medium) -> tuple:
    """The context, the front and the proposed design vectors of one
    seeded run, and the SHA-256 of every generation's vectors and
    objectives."""
    ctx = opt.DesignContext(params, medium)
    proposed, digest = [], hashlib.sha256()
    nsga2 = opt.nsga2

    def recording(evaluate, bounds, config):
        def seen(xs):
            f = np.array(evaluate(xs), dtype=float)
            proposed.extend(np.array(xs))
            digest.update(np.ascontiguousarray(xs, dtype=float).tobytes())
            digest.update(f.tobytes())
            return f
        return nsga2(seen, bounds, config)

    opt.nsga2 = recording
    try:
        front = opt.optimize_lengths(ctx, opt.NsgaConfig(pop=24, generations=10, seed=seed))
    finally:
        opt.nsga2 = nsga2
    return ctx, front, proposed, digest.hexdigest()


def front_record(front) -> list:
    return [{"x": p.x.tolist(), "objectives": list(p.objectives), "flags": list(p.flags)}
            for p in front.points]


def reference() -> dict:
    """The reference record of every cell and seed.  The lattice points
    and fallbacks come from evaluating each distinct proposed vector on
    its own, so the record does not depend on how a run batches them."""
    medium = build_medium()
    out = {}
    for cell in CELLS:
        for seed in SEEDS:
            params = cell_params(*cell)
            _, front, proposed, digest = run(params, seed, medium)
            alone = opt.DesignContext(params, medium)
            distinct = {x.tobytes(): x for x in proposed}
            for x in distinct.values():
                opt.evaluate_design(alone, x)
            out[f"{cell}/{seed}"] = {
                "front": front_record(front), "evaluations_sha256": digest,
                "distinct": len(distinct), "lattice_points": alone.lattice_points,
                "fallbacks": alone.fallbacks}
    return out


@pytest.fixture(scope="module")
def expected():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cell", CELLS, ids=[f"{c[2]}-{c[0] / 1e3:g}kHz-{c[3] * 1e3:g}mm"
                                             for c in CELLS])
def test_seeded_run_keeps_its_bits(std_air, expected, cell, seed):
    want = expected[f"{cell}/{seed}"]
    ctx, front, proposed, digest = run(cell_params(*cell), seed, std_air)
    assert len(proposed) == 264
    assert front_record(front) == want["front"]
    assert digest == want["evaluations_sha256"]
    assert len({x.tobytes() for x in proposed}) == want["distinct"]
    assert (ctx.lattice_points, ctx.fallbacks) == (want["lattice_points"],
                                                  want["fallbacks"])


def test_reference_covers_both_stacks_and_a_band_miss(expected):
    assert set(expected) == {f"{c}/{s}" for c in CELLS for s in SEEDS}
    assert {c[2] for c in CELLS} == {"full", "half"}
    band = {c: any("infeasible" in p["flags"] for p in expected[f"{c}/1"]["front"])
            for c in CELLS}
    assert [c for c, miss in band.items() if miss] == [(75e3, 8, "full", 13e-3)]
    assert all(expected[f"{(75e3, 8, 'full', 13e-3)}/{s}"]["lattice_points"] == 0
               for s in SEEDS)


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(reference(), indent=1) + "\n")
    sys.exit(0)
