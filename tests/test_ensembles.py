"""Seeded trial streams: numpy's SeedSequence -> PCG64 streams, computed directly."""
import sys
import threading

import numpy as np
import pytest

from commspectra import gaussian_matrix, sweep, trial_rng
from commspectra.ensembles import _pcg64_states, gaussian_trials
from commspectra.matrixio import json_text
from commspectra.reporting import jsonable

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**96, 2**128 - 1, 2**128 + 7]
KEYS = [(), (0,), (5, 7), (6, 2**32), (2, 2**70), (2**64, 0, 9)]


def _oracle(seed, key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", KEYS)
def test_trial_streams_are_numpy_seedsequence_streams(seed, key):
    want = _oracle(seed, key).bit_generator.state
    assert trial_rng(seed, *key).bit_generator.state == want
    if key:
        s = want["state"]
        assert _pcg64_states(seed, key[:-1], [key[-1]]) == [(s["state"], s["inc"])]


def test_pcg64_states_of_many_indices_match_one_at_a_time():
    indices = [0, 1, 7, 2**32 - 1, 2**32, 2**70, 3]
    assert _pcg64_states(2**64 + 1, (4, 2**33), indices) == [
        _pcg64_states(2**64 + 1, (4, 2**33), [t])[0] for t in indices
    ]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("trials", [range(5, 9), range(2**32 - 1, 2**32 + 2)])
def test_gaussian_trials_draw_the_per_trial_streams(seed, trials):
    # a chunk that starts mid-range, and one whose indices cross 2^32 (a
    # second entropy word); the generator need not be fresh
    rng = np.random.default_rng(7)
    rng.integers(2**32, dtype=np.uint32)
    for n in (2, 3):
        got = gaussian_trials(rng, seed, n, trials)
        want = np.stack([gaussian_matrix(_oracle(seed, (n, t)), n, real=bool(t % 2)) for t in trials])
        assert got.tobytes() == want.tobytes()


def test_sweep_chunks_draw_the_per_trial_streams(monkeypatch):
    import commspectra.search as search

    seed, chunks = 2**64 - 1, []
    real = search.spectral_batch

    def record(X):
        chunks.append(X.copy())
        return real(X)

    monkeypatch.setattr(search, "spectral_batch", record)
    # 3 trials a chunk at order 3, one chunk of all ten at order 2
    monkeypatch.setattr(search, "CHUNK_LIFT_ENTRIES", 3 * 3**4)
    sweep([2, 3], trials=10, seed=seed)
    assert [len(X) for X in chunks] == [10, 3, 3, 3, 1]
    for n in (2, 3):
        got = np.concatenate([X for X in chunks if X.shape[-1] == n])
        want = np.stack([gaussian_matrix(_oracle(seed, (n, t)), n, real=bool(t % 2)) for t in range(10)])
        assert got.tobytes() == want.tobytes()


def test_concurrent_sweeps_report_what_they_report_alone():
    # the sweep's generator belongs to the call, so two sweeps in two threads
    # cannot move each other's streams
    args = [dict(n_values=[2, 3], trials=100, seed=seed, tol=-100.0) for seed in (3, 2**64 - 1)]
    alone = [json_text(jsonable(sweep(**a))) for a in args]

    def run(i, out):
        out[i] = json_text(jsonable(sweep(**args[i])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(3):
            together = [None, None]
            threads = [threading.Thread(target=run, args=(i, together)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert together == alone
    finally:
        sys.setswitchinterval(interval)
