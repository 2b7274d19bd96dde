"""Inequality checkers, violation bundles, and bundle re-verification."""
import numpy as np
import pytest

from commspectra import (
    CONJECTURE_IDS,
    DegenerateInputError,
    ParseError,
    PreconditionError,
    center_normalize,
    check_conj1,
    check_conj2,
    check_conj2c,
    check_isotropic_trace_bound,
    check_lu_lemma,
    check_numbers_lemma,
    commutator,
    double_commutator_lift,
    double_commutator_spectrum,
    make_bundle,
    monitor_majorization,
    monitor_partial_sums,
    normalized,
    partial_sums,
    read_bundle,
    reverify_bundle,
    trial_rng,
    unit_gaussian,
    unvec,
    write_bundle,
)
from commspectra import eigensolver
from commspectra.conjectures import CHECKERS, run_checker
from commspectra.verdicts import bundle_matrices
from conftest import make_maximal_pair

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def _top_family(X, count):
    """Orthonormal eigenvector matrices of the top ``count`` eigenvalues of
    T_X for X / ||X||; any such basis has energy equal to the partial sum."""
    Xh = normalized(X)
    dec = eigensolver.eigh(double_commutator_lift(Xh), top=count)
    return [unvec(v, Xh.shape[0]) for v in dec.vectors.T]


def test_conjecture_id_registry():
    assert set(CONJECTURE_IDS) == {
        "C1", "C2", "C2A", "C2C", "C4", "LU_LEMMA", "NUMBERS_LEMMA", "ISOTROPIC",
    }


def test_check_conj1_commuting_family_is_tight_at_zero():
    diag = [np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])]
    v = check_conj1(diag)
    assert v.satisfied and v.lhs == 0.0 and v.hypotheses_residual == 0.0
    assert v.rhs == pytest.approx((2.0 + 2.0) ** 2)
    # a zero member has no unit matrix; it stays zero in the residual
    v = check_conj1(diag + [np.zeros((3, 3))])
    assert v.satisfied and v.hypotheses_residual == 0.0


def test_check_conj1_energy_matches_direct_computation():
    rng = trial_rng(50, 0)
    fam = [unit_gaussian(rng, 3) for _ in range(3)]
    v = check_conj1(fam)
    lhs = sum(
        np.linalg.norm(commutator(a, b)) ** 2 for a in fam for b in fam
    )
    assert v.lhs == pytest.approx(lhs, rel=1e-12)
    assert v.rhs == pytest.approx(9.0, rel=1e-9)  # (3 unit norms)^2


def test_check_conj2_maximal_pair_equality():
    X, Y = make_maximal_pair(2)
    v = check_conj2(X, [Y])
    assert v.satisfied
    assert v.lhs == pytest.approx(2.0, abs=1e-12)
    assert v.rhs == pytest.approx(2.0, abs=1e-12)
    assert v.hypotheses_residual < 1e-12
    v2 = check_conj2c(X, [Y])
    assert v2.satisfied and v2.rhs == pytest.approx(3.0, abs=1e-12)


def test_check_conj2_random_families_hold():
    for t in range(15):
        rng = trial_rng(51, t)
        n = 2 + t % 3
        B = unit_gaussian(rng, n)
        fam = _top_family(B, 2)
        v = check_conj2c(B, fam)
        assert v.hypotheses_residual < 1e-8
        assert v.satisfied


def test_check_conj2_rejects_degenerate_inputs():
    X, Y = make_maximal_pair(2)
    with pytest.raises(DegenerateInputError):
        check_conj2(np.zeros((2, 2)), [Y])
    with pytest.raises(PreconditionError):
        check_conj2(X, [])
    with pytest.raises(PreconditionError):
        check_conj2(X, [np.eye(3)])


def test_center_normalize_contract():
    e = center_normalize([3.0, 1.0, 2.0])
    assert abs(e.sum()) < 1e-12
    assert abs(np.linalg.norm(e) - 1.0) < 1e-12
    with pytest.raises(DegenerateInputError):
        center_normalize([1.0, 1.0])
    with pytest.raises(PreconditionError):
        center_normalize([])


def test_check_lu_lemma_equality_and_random_sweep():
    # two points at distance sqrt(2) with all weight on the single pair
    v = check_lu_lemma(center_normalize([1.0, -1.0]), [[0.0, 2.0], [0.0, 0.0]])
    assert v.satisfied
    assert v.lhs == pytest.approx(4.0, abs=1e-9)
    assert v.rhs == pytest.approx(4.0, abs=1e-12)
    for t in range(200):
        rng = trial_rng(52, t)
        m = 2 + t % 5
        etas = center_normalize(
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        r = np.triu(rng.uniform(0.0, 1.0, size=(m, m)), k=1)
        assert check_lu_lemma(etas, r).satisfied


def test_check_lu_lemma_hypothesis_errors():
    # not unit: |sum |eta|^2 - 1| = 1 is reported, and a forced breach has no bundle
    v = check_lu_lemma([1.0, -1.0], [[0.0, 1.0], [0.0, 0.0]], tol=-100.0)
    assert v.hypotheses_residual == pytest.approx(1.0)
    assert not v.hypotheses_hold and not v.satisfied and v.witness is None
    # not centered: |sum eta| = 1
    v = check_lu_lemma([1.0, 0.0], [[0.0, 1.0], [0.0, 0.0]], tol=-100.0)
    assert v.hypotheses_residual == pytest.approx(1.0) and v.witness is None
    with pytest.raises(PreconditionError):
        check_lu_lemma(center_normalize([1.0, -1.0]), [[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError):
        check_lu_lemma(center_normalize([1.0, -1.0]), np.zeros((3, 3)))


def test_check_numbers_lemma_saturating_single_pair():
    r = 1.0 / np.sqrt(2.0)
    v = check_numbers_lemma([r], [r], [[1.0]])
    assert v.satisfied
    assert v.lhs == pytest.approx(0.5, abs=1e-12)
    assert v.rhs == pytest.approx(0.5, abs=1e-12)


def test_check_numbers_lemma_hypothesis_errors():
    r = 1.0 / np.sqrt(2.0)
    with pytest.raises(PreconditionError):
        check_numbers_lemma([-r], [r], [[1.0]])
    with pytest.raises(PreconditionError):
        check_numbers_lemma([r], [r], [[0.5]])
    v = check_numbers_lemma([1.0], [1.0], [[1.0]], tol=-100.0)  # square sum 2, not 1
    assert v.hypotheses_residual == pytest.approx(1.0)
    assert not v.hypotheses_hold and not v.satisfied and v.witness is None
    with pytest.raises(PreconditionError):
        check_numbers_lemma([r], [r], np.ones((2, 2)))


def test_isotropic_families_satisfy_trace_bound(isotropic_family):
    for t in range(10):
        rng = trial_rng(53, t)
        n = 2 + t % 2
        X = unit_gaussian(rng, n)
        m = 1 + t % ((n * n) // 2)
        fam = isotropic_family(X, m, rng)
        v = check_isotropic_trace_bound(X, fam)
        assert v.hypotheses_residual < 1e-8
        assert v.satisfied


@pytest.mark.parametrize("scale", [1.2e154, 1e200])
def test_isotropic_sums_saturate_without_a_warning(scale, isotropic_family):
    # norm_scale times either sum overflows from about ||X|| = 1.2e154: the
    # rhs, or both sides, read inf, and numpy does not warn (the suite turns
    # warnings into errors)
    rng = trial_rng(53, 0)
    X = unit_gaussian(rng, 3)
    v = check_isotropic_trace_bound(scale * X, isotropic_family(X, 2, rng))
    assert v.rhs == np.inf and v.satisfied


def test_commutator_sums_saturate_instead_of_reading_nan():
    # with a member near 1e160, B_1 B_1 - B_1 B_1 was inf - inf: a NaN lhs
    # judged a valid input a violation. Each member is scaled by its power of
    # two before the products, so the sums saturate to inf, as rhs does.
    X, Y = unit_gaussian(trial_rng(1, 0), 3), unit_gaussian(trial_rng(1, 1), 3)
    for v in (
        check_conj1([1e160 * X, Y]),
        check_conj2(1e160 * X, [1e160 * Y]),
        check_conj2c(1e160 * X, [1e160 * Y]),
    ):
        assert (v.lhs, v.rhs, v.satisfied, v.witness) == (np.inf, np.inf, True, None)
    # power-of-two scaling is exact, so normal-range sums keep the products' bits
    B = np.stack([1e3 * X, Y, 1e-3 * (X @ Y)])
    direct = np.square(np.linalg.norm(B[:, None] @ B[None] - B[None] @ B[:, None], axis=(-2, -1)))
    assert check_conj1(list(B)).lhs == direct.sum()
    pivot = np.square(np.linalg.norm(B[0] @ B[1:] - B[1:] @ B[0], axis=(-2, -1)))
    assert check_conj2c(B[0], list(B[1:])).lhs == pivot.sum()


def test_isotropic_rejects_non_isotropic_family():
    rng = trial_rng(54, 0)
    X = unit_gaussian(rng, 2)
    v = check_isotropic_trace_bound(X, [X, X], tol=-100.0)  # not orthonormal: <X, X> = 1
    assert v.hypotheses_residual == pytest.approx(1.0)
    assert not v.hypotheses_hold and not v.satisfied and v.witness is None
    with pytest.raises(PreconditionError):  # 3 members exceed the cap n^2 / 2 = 2
        check_isotropic_trace_bound(X, [unit_gaussian(rng, 2) for _ in range(3)])


def _partial_sum_two_ways(X, k):
    """The 2k-partial eigenvalue sum of T_X for X / ||X||: from the spectrum,
    and as the energy sum ||[Xhat, B_a]||^2 of an orthonormal top family."""
    Xh = normalized(X)
    direct = float(partial_sums(double_commutator_spectrum(Xh))[2 * k - 1])
    mats = _top_family(Xh, 2 * k)
    return direct, sum(float(np.linalg.norm(commutator(Xh, Ba)) ** 2) for Ba in mats)


def test_cross_check_formulations_agree():
    direct, fam = _partial_sum_two_ways(E21, 1)
    assert direct == pytest.approx(4.0, abs=1e-10)
    assert fam == pytest.approx(4.0, abs=1e-7)
    for t in range(10):
        rng = trial_rng(55, t)
        n = 2 + t % 3
        X = unit_gaussian(rng, n)
        k = 1 + t % 2
        direct, fam = _partial_sum_two_ways(X, k)
        assert abs(direct - fam) < 1e-7


def _forced_bundles(isotropic_family):
    """One violation bundle per conjecture id, forced by negative tolerance."""
    rng = trial_rng(56, 0)
    X = unit_gaussian(rng, 3)
    fam = [unit_gaussian(rng, 3) for _ in range(2)]
    pairs = {}
    pairs["C1"] = check_conj1([np.diag([1.0, -1.0, 0.0])], tol=-100.0)
    pairs["C2"] = check_conj2(X, [normalized(fam[0])], tol=-100.0)
    pairs["C2C"] = check_conj2c(X, [normalized(fam[0])], tol=-100.0)
    pairs["C2A"] = monitor_partial_sums(X, tol=-100.0)
    pairs["C4"] = monitor_majorization(X, tol=-100.0)
    pairs["LU_LEMMA"] = check_lu_lemma(
        center_normalize([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]], tol=-100.0
    )
    r = 1.0 / np.sqrt(2.0)
    pairs["NUMBERS_LEMMA"] = check_numbers_lemma([r], [r], [[1.0]], tol=-100.0)
    iso = isotropic_family(X, 2, trial_rng(56, 1))
    pairs["ISOTROPIC"] = check_isotropic_trace_bound(X, iso, tol=-100.0)
    return pairs


def test_every_bundle_reverifies_from_json_alone(tmp_path, isotropic_family):
    pairs = _forced_bundles(isotropic_family)
    assert set(pairs) == set(CONJECTURE_IDS)
    for cid, verdict in pairs.items():
        assert not verdict.satisfied
        bundle = verdict.witness
        assert bundle is not None and bundle["conjecture_id"] == cid
        assert bundle["m"] == len(bundle["matrices"])
        path = tmp_path / f"{cid}.json"
        write_bundle(path, bundle)
        loaded = read_bundle(path)
        re_verdict = reverify_bundle(loaded)
        assert re_verdict.conjecture_id == cid
        # the claims were forced by tolerance, so every one passes honestly
        assert re_verdict.satisfied
        assert re_verdict.lhs == pytest.approx(verdict.lhs, abs=1e-9)
        assert re_verdict.rhs == pytest.approx(verdict.rhs, abs=1e-9)


def test_bundle_construction_validation():
    with pytest.raises(ParseError):
        make_bundle("NOT_AN_ID", [E21], 0.0, 0.0, 0.0, None)
    with pytest.raises(ParseError):
        make_bundle("C1", [], 0.0, 0.0, 0.0, None)
    with pytest.raises(ParseError):
        reverify_bundle({"conjecture_id": "??", "matrices": [], "m": 0})
    # a matrix payload that is not numeric, not an object or not 2-D
    for payload in ({"re": [["x"]]}, [[1.0]], {"re": [1.0, 0.0]}, {"re": [[1.0]], "im": [[0.0, 0.0]]}):
        with pytest.raises(ParseError):
            reverify_bundle({"conjecture_id": "C4", "m": 1, "matrices": [payload]})


def test_checker_table_covers_every_id_and_refuses_other_layouts():
    assert set(CHECKERS) == set(CONJECTURE_IDS)
    X = np.array([[0, 1], [0, 0]], dtype=complex)
    row = np.ones((1, 2))
    for cid, bad in [
        ("C1", []),
        ("C2", [X]),
        ("C2C", [X]),
        ("C2A", [X, X]),
        ("C4", [X, X]),
        ("LU_LEMMA", [row]),
        ("NUMBERS_LEMMA", [row, row, np.ones((2, 2)), X]),
        ("ISOTROPIC", [X]),
    ]:
        with pytest.raises(ParseError, match=f"^{cid} takes"):
            run_checker(cid, bad)
    with pytest.raises(ParseError, match="unknown conjecture id"):
        run_checker(["C1"], [X])


def test_judge_boundary_is_inclusive():
    from commspectra.verdicts import judge

    rhs, tol = 0.1, 0.2
    lhs = rhs + tol  # exactly on the boundary: satisfied, no witness
    at = judge("C1", [E21], lhs, rhs, 0.0, tol, 7)
    assert (at.conjecture_id, at.lhs, at.rhs, at.satisfied, at.witness) == (
        "C1", lhs, rhs, True, None
    )
    above = float(np.nextafter(lhs, np.inf))
    over = judge("C1", [E21], above, rhs, 0.0, tol, 7)
    assert not over.satisfied
    assert over.witness == make_bundle("C1", [E21], above, rhs, 0.0, 7)


def test_read_bundle_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    with pytest.raises(ParseError):
        read_bundle(path)
    path.write_text("{\"no_id\": 1}")
    with pytest.raises(ParseError):
        read_bundle(path)
    with pytest.raises(ParseError):
        read_bundle(tmp_path / "missing.json")
    path.write_bytes(b"\xff\xfe{")  # not UTF-8
    with pytest.raises(ParseError):
        read_bundle(path)


def test_bundle_file_round_trip_is_bit_exact(tmp_path):
    X = unit_gaussian(trial_rng(58, 0), 3)
    edges = np.array([[0.0, -0.0], [5e-324, -1.7976931348623157e308]])
    Z = np.empty((2, 2), dtype=complex)
    Z.real, Z.imag = edges, edges[::-1]
    bundle = make_bundle("C1", [X, Z, np.array([[1.0, -0.0]])], 1.0, 0.5, 0.0, 3)
    path = tmp_path / "b.json"
    write_bundle(path, bundle)
    back = read_bundle(path)
    assert back == bundle
    for M, N in zip(bundle_matrices(back), [X, Z, np.array([[1.0, -0.0]])]):
        assert M.dtype == np.complex128 and M.tobytes() == N.astype(complex).tobytes()


def test_partial_sum_monitor_refuses_order_one():
    # no k with 1 <= k <= n^2 / 2: refused, as bound_report and the C4 profile are
    with pytest.raises(PreconditionError, match="n >= 2"):
        monitor_partial_sums(np.array([[2.0]]))
    bundle = make_bundle("C2A", [np.array([[1.0]])], 0.0, 4.0, 0.0, None)
    with pytest.raises(PreconditionError, match="n >= 2"):
        reverify_bundle(bundle)


def test_monitor_verdict_consistency_with_spectrum():
    rng = trial_rng(57, 0)
    X = unit_gaussian(rng, 3)
    spec = double_commutator_spectrum(X)
    v = monitor_partial_sums(X, spectrum=spec)
    assert v.satisfied
    assert v.lhs <= v.rhs + 1e-8
    prefix = np.cumsum(np.maximum(spec.values, 0.0))
    ks = np.arange(1, spec.values.size // 2 + 1)
    worst = np.max(prefix[2 * ks - 1] - (2.0 * ks + 2.0))
    assert v.lhs - v.rhs == pytest.approx(worst, abs=1e-12)
