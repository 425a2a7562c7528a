import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from cel import pool
from cel.corpus import build_manifest
from cel.augment import synth_bank
from cel.config import load_config
from cel.pool import ItemPool


@pytest.fixture(scope="session")
def desk_run():
    """The desk recipe, `configs/desk.json`."""
    return load_config(Path(__file__).resolve().parent.parent / "configs" / "desk.json")


@pytest.fixture(scope="session")
def tiny_manifest():
    """4 speakers x 2 utterances x 4 s; enough for two crops per utterance."""
    return build_manifest(4, 2, 4.0, seed=900)


@pytest.fixture(scope="session")
def tiny_bank():
    return synth_bank(seed=77, n_each=1, noise_duration_s=2.5, rir_count=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def on_pools():
    """on_pools(run, workers) gives {n: run(n)} for the default pool (n None)
    and for an item pool of each size n.

    Each item pool replaces `cel.pool._pool` only inside its own `with`
    block, so a later call, or a later pool, never meets a shut-down pool.
    Threads switch every 10 us, so any dependence on the order in which
    pool tasks finish would show.
    """

    def each(run, workers=(None, 1, 8)):
        interval = sys.getswitchinterval()
        results = {}
        for n in workers:
            with (
                ItemPool(n) if n else nullcontext() as item_pool,
                pytest.MonkeyPatch.context() as m,
            ):
                if item_pool is not None:
                    m.setattr(pool, "_pool", item_pool)
                sys.setswitchinterval(1e-5)
                try:
                    results[n] = run(n)
                finally:
                    sys.setswitchinterval(interval)
        return results

    return each
