"""Every byte the instance generators and the run records write, pinned.

Each digest is the sha256 of a generator's document as ``json.dumps`` of
``to_json_dict()``, of a returned profile's sorted counts, or of a
``runs.jsonl`` file.  ``random.Random`` and ``game.left_sum`` give the same
bits on CPython 3.10-3.12, so the digests hold on each of them."""

import hashlib
import json

import pytest

from netalloc.experiment import (
    ExperimentConfig,
    run_batch_experiment,
    write_runs_jsonl,
)
from netalloc.instances import (
    gen_poa_grid_instance,
    gen_random_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from netalloc.utility import UtilitySpec


def criterion_8_torus():
    return gen_torus_grid(
        10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
    )


def _document(doc) -> bytes:
    return json.dumps(doc.to_json_dict()).encode()


def _poa_grid(part: str) -> bytes:
    doc, good, bad = gen_poa_grid_instance(6, 6, 0.1, 1.0)
    if part == "document":
        return _document(doc)
    profile = good if part == "good" else bad
    return repr(sorted(profile.counts.items())).encode()


OUTPUTS = {
    "torus 10x10 sqrt seed 7": lambda: _document(criterion_8_torus()),
    "torus 4x7 capped quadratic": lambda: _document(
        gen_torus_grid(
            4, 7, beta=12.0, eta=0.5, weight_seed=3,
            utility=UtilitySpec.capped_quadratic(9.0),
            behavior="optimistic",
        )
    ),
    **{
        f"poa grid 6x6 {part}": lambda part=part: _poa_grid(part)
        for part in ("document", "good", "bad")
    },
    **{
        f"ranked seed {seed}": (
            lambda seed=seed: _document(gen_ranked_instance(14, 0.35, seed))
        )
        for seed in (0, 1, 2)
    },
    **{
        f"mixed random seed {seed}": (
            lambda seed=seed: _document(gen_random_instance(16, 0.3, seed))
        )
        for seed in (0, 1, 2)
    },
}

# recorded before the two tori shared one edge builder and ranked instances
# reused their base spec
DIGESTS = {
    "mixed random seed 0": (
        "9e8310254c6a18ee6bc31068ee0e31ed5993810d9726b2fd04e55dea7f21f762"
    ),
    "mixed random seed 1": (
        "b0b3f6eb7def2c92bb8b46fb3f6b70494687c768599acf660c0e5e907c5ce80f"
    ),
    "mixed random seed 2": (
        "f7b6beb68488c0c863e0a3f49558060625d3efd67c9c5b73facf1bff4f84cf85"
    ),
    "poa grid 6x6 bad": (
        "9384b7d56f88b94d2efd28d7a0170ef0273905f5b84ea8ac21a1c500d4d3285c"
    ),
    "poa grid 6x6 document": (
        "723a3ff3dd9d5d196f752c5f1ff7d87e5e7adba01ac5d7007b761124fefdb752"
    ),
    "poa grid 6x6 good": (
        "aab15e00a15a82790f78ec56b20687b1748e4679917b92ad04fb85a05727e568"
    ),
    "ranked seed 0": (
        "8efa35e5ae5f8e59eb02f83e0b2207d65de5c2856e813244a11949037618b978"
    ),
    "ranked seed 1": (
        "7d1afd073fd68166d9832b15ff0bb9d2a77b1bedb5eb290395f7b6f5810e645f"
    ),
    "ranked seed 2": (
        "c671aa55cd4839f0282112b39be011c227a5cb24b5841fe3ba917b0ca66c91ff"
    ),
    "torus 10x10 sqrt seed 7": (
        "63d2510d018740b7413775493b27426002599d6df58d8242fccac50ed6788efd"
    ),
    "torus 4x7 capped quadratic": (
        "a25740cdaeebf5bf0603f1c3d3b11f18cbf8cf8788ab6fcb728f815f35026e49"
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_generator_output_keeps_its_bytes(name):
    assert hashlib.sha256(OUTPUTS[name]()).hexdigest() == DIGESTS[name]


# the first five optimistic criterion-8 runs of seed 1000; their ratios
# divide by the torus optimum, so this moved with it (rounds and final
# welfare did not)
RUNS_DIGEST = (
    "0964195a257404fa4f7d9d1f5604b2d3d5e14c0c81afd9a5f7e0bdf7446b45ba"
)


def test_runs_jsonl_keeps_its_bytes(tmp_path):
    report = run_batch_experiment(
        criterion_8_torus(),
        ExperimentConfig(runs=5, seed=1000, behavior="optimistic"),
    )
    path = tmp_path / "runs.jsonl"
    write_runs_jsonl(report, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RUNS_DIGEST
