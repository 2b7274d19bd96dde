"""Seeded random matrix ensembles.

Every draw takes an explicit ``numpy.random.Generator``. Reproducible
per-trial streams come from :func:`trial_rng`, which splits a root seed by
trial index (counter-mode), so results do not depend on evaluation order.

The streams are numpy's: :func:`trial_rng` is
``Generator(PCG64(SeedSequence(seed, spawn_key=indices)))``, which numpy
keeps stable across versions (NEP 19); it is the one public stream.
:func:`gaussian_trials` draws a chunk of sweep trials on those streams with
one generator, moved onto each trial's PCG64 state: a private port of
``SeedSequence``'s seeding computes the states of the whole chunk at once.
"""
from __future__ import annotations

import operator

import numpy as np

from .matrices import normalized

# numpy's SeedSequence: a pool of 4 32-bit words, mixed with the INIT_A /
# MULT_A hash sequence and read out with the INIT_B / MULT_B one
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier, for its seeding step (pcg_setseq_128_srandom_r)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(x) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, [0] for 0."""
    x = operator.index(x)
    if x < 0:
        raise ValueError(f"seeds and trial indices must be nonnegative, got {x}")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the next hash constant."""
    h2 = h * _MULT_A & _MASK32
    value = (value ^ h) * h2 & _MASK32
    return value ^ value >> _XSHIFT, h2


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a hashed word y into the pool word x."""
    x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return x ^ x >> _XSHIFT


def _mix_in(pool: list[int], words, h: int) -> tuple[list[int], int]:
    """Mix each word, hashed, into every pool word in turn, as SeedSequence
    does with its entropy past the pool size; returns the new pool and the
    next hash constant."""
    pool = pool.copy()
    for w in words:
        for i, p in enumerate(pool):
            v, h = _hashmix(w, h)
            pool[i] = _mix(p, v)
    return pool, h


def _absorb(seed: int, key) -> tuple[list[int], int]:
    """SeedSequence's pool and next hash constant after the words of ``seed``
    and of each entry of ``key``."""
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.tolist()
    # each absorbed word is hashed once per pool word; a seed of fewer words
    # than the pool is absorbed as if zero-padded to the pool size
    n_words = max(len(_words(seed)), _POOL_SIZE) + sum(len(_words(k)) for k in key)
    return pool, _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32


def _readout_constants() -> tuple[tuple[int, int, int, int, int], ...]:
    """Per pool word: its two ``generate_state`` hash constant pairs, one for
    PCG64's initstate and one for its initseq, and the bit position both
    take in their 128-bit value."""
    h, pairs = _INIT_B, []
    for _ in range(2 * _POOL_SIZE):
        pairs.append((h, h := h * _MULT_B & _MASK32))
    # generate_state(4, uint64) is read little-endian, 32 bits at a time;
    # each 128-bit value takes the first of its two uint64 words as the high one
    return tuple((*pairs[i], *pairs[i + _POOL_SIZE], (64, 96, 0, 32)[i]) for i in range(_POOL_SIZE))


_READOUT = _readout_constants()


def _pcg64_state(pool: list[int]) -> tuple[int, int]:
    """PCG64's (state, inc) seeded from a SeedSequence pool."""
    initstate = initseq = 0
    for p, (a, a2, b, b2, shift) in zip(pool, _READOUT):
        v = (p ^ a) * a2 & _MASK32
        initstate |= (v ^ v >> _XSHIFT) << shift
        v = (p ^ b) * b2 & _MASK32
        initseq |= (v ^ v >> _XSHIFT) << shift
    # pcg_setseq_128_srandom_r: state = 0, one step, add initstate, one step
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


def _pcg64_states(seed: int, prefix: tuple[int, ...], indices) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``PCG64(SeedSequence(seed,
    spawn_key=(*prefix, t)))`` holds, for each t of ``indices``.

    One ``SeedSequence`` absorbs ``seed`` and ``prefix``; each t mixes only
    its own words into a copy of its pool.
    """
    pool, h = _absorb(seed, prefix)
    return [_pcg64_state(_mix_in(pool, _words(t), h)[0]) for t in indices]


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for a trial index (or index tuple) under a root
    ``seed``; counter-mode splitting, so streams are order-independent."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=indices)))


def gaussian_matrix(rng: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    """Unnormalized Ginibre draw, complex by default."""
    G = rng.standard_normal((n, n))
    if not real:
        G = G + 1j * rng.standard_normal((n, n))
    return np.asarray(G, dtype=np.complex128)


def gaussian_trials(rng: np.random.Generator, seed: int, n: int, trials: range) -> np.ndarray:
    """The order-``n`` Gaussian draws of ``trials``, stacked: trial t is
    ``gaussian_matrix(trial_rng(seed, n, t), n, real=bool(t % 2))`` bit for
    bit, complex at even t and real at odd t. ``rng``, a PCG64 generator,
    is moved onto each trial's stream in turn and left on the last."""
    draws = []
    for t, (state, inc) in zip(trials, _pcg64_states(seed, (n,), trials)):
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
        }
        draws.append(gaussian_matrix(rng, n, real=bool(t % 2)))
    return np.stack(draws)


def unit_gaussian(rng: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    """Gaussian draw scaled to unit Frobenius norm."""
    return normalized(gaussian_matrix(rng, n, real=real))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    Q, R = np.linalg.qr(gaussian_matrix(rng, n))
    d = np.diagonal(R).copy()
    d = d / np.abs(d)
    return Q * d.conj()


def random_normal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm normal matrix U diag(d) U* with complex Gaussian d."""
    U = haar_unitary(rng, n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalized((U * d) @ U.conj().T)


def random_rank_one(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm rank-one matrix u v*."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalized(np.outer(u, v.conj()))
