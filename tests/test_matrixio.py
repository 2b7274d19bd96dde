"""File formats: JSON and text matrices, scalar-lemma payloads, digests."""
import hashlib
import json

import numpy as np
import pytest

from commspectra import (
    ParseError,
    load_check_payload,
    load_matrix,
    save_matrix,
    trial_rng,
    unit_gaussian,
)
from commspectra.matrixio import read_input


def test_json_round_trip_is_exact(tmp_path):
    X = unit_gaussian(trial_rng(70, 0), 3)
    path = tmp_path / "m.json"
    save_matrix(path, X)
    Y = load_matrix(path)
    assert np.array_equal(X, Y)  # float -> repr -> float is lossless
    # edge values, down to the sign of a zero: compare the bits
    edges = np.array([[0.0, -0.0, 5e-324], [-5e-324, 1.7976931348623157e308, -1.0], [1.0, 2.0, 3.0]])
    E = np.empty((3, 3), dtype=complex)
    E.real, E.imag = edges, edges.T
    for M in (E, edges):
        save_matrix(path, M)
        assert load_matrix(path).tobytes() == M.astype(complex).tobytes()
    # a real-only matrix with im omitted
    path.write_text(json.dumps({"n": 3, "re": edges.tolist()}))
    assert load_matrix(path).tobytes() == edges.astype(complex).tobytes()


def test_json_im_field_is_optional(tmp_path):
    path = tmp_path / "real.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 2.0], [3.0, 4.0]]}))
    X = load_matrix(path)
    assert np.array_equal(X, np.array([[1, 2], [3, 4]], dtype=complex))


def test_text_format_tokens_and_sniffing(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1+2i 3-1I\n0 1j\n")
    X = load_matrix(path)
    assert np.array_equal(X, np.array([[1 + 2j, 3 - 1j], [0, 1j]]))
    path.write_text("2i 1-I -i\n3.5e-2j (1+2i) 0\n0 0 1\n")
    want = [[complex(0, 2), complex(1, -1), complex(0, -1)], [complex(0, 0.035), complex(1, 2), 0], [0, 0, 1]]
    assert load_matrix(path).tobytes() == np.array(want, dtype=complex).tobytes()  # -i's real part is +0.0
    # format detection is content-based: JSON content in a .txt file works
    path2 = tmp_path / "m2.txt"
    save_matrix(path2, X)
    assert np.array_equal(load_matrix(path2), X)


def test_text_format_skips_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n1 0\n\n0 1\n\n")
    assert np.array_equal(load_matrix(path), np.eye(2, dtype=complex))


@pytest.mark.parametrize(
    "content",
    [
        "",  # no rows
        "1 2\n3\n",  # ragged
        "1 2\n",  # non-square
        "1 banana\n2 3\n",  # bad token
        "inf 0\n0 0\n",  # parses but is non-finite
        "nan 0\n0 0\n",
    ],
)
def test_text_format_rejections(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError):
        load_matrix(path)


@pytest.mark.parametrize("token", ["inf", "-Inf", "infinity", "nan", "1+infi"])
def test_text_non_finite_tokens_are_refused_as_non_finite(tmp_path, token):
    # only the imaginary unit becomes j: the i of inf is kept, so an infinite
    # token parses and meets the same refusal as nan
    path = tmp_path / "bad.txt"
    path.write_text(f"{token} 0\n0 0\n")
    with pytest.raises(ParseError, match="non-finite entries are not accepted"):
        load_matrix(path)


@pytest.mark.parametrize(
    "payload",
    [
        "{broken json",
        json.dumps({"re": [[1.0]]}),  # missing n
        json.dumps({"n": 0, "re": []}),  # n not positive
        json.dumps({"n": 1}),  # missing re
        json.dumps({"n": 2, "re": [[1.0]]}),  # shape mismatch
        json.dumps({"n": 1, "re": [[1.0]], "im": [[0.0, 0.0]]}),  # im mismatch
        json.dumps({"n": 1, "re": [["x"]]}),  # non-numeric
        '{"n": 1, "re": [[NaN]]}',  # non-finite literal
        '{"n": 1, "re": [[Infinity]]}',
        json.dumps({"n": 2.5, "re": [[1, 0], [0, 1]]}),  # n not an integer
        json.dumps({"n": True, "re": [[1]]}),  # n a boolean
        '{"n": Infinity, "re": [[1]]}',
        json.dumps({"n": 1, "re": [1.0]}),  # not a matrix
        json.dumps({"n": 1, "re": {"a": 1}}),
    ],
)
def test_json_format_rejections(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ParseError):
        load_matrix(path)


def test_json_n_accepted_forms(tmp_path):
    # an integral float and a numeral string are still read as the order
    path = tmp_path / "m.json"
    for n in (2.0, "2", 2):
        path.write_text(json.dumps({"n": n, "re": [[1, 0], [0, 1]]}))
        assert np.array_equal(load_matrix(path), np.eye(2))


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "does-not-exist.json")
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")  # not UTF-8
    with pytest.raises(ParseError):
        load_matrix(path)


def test_save_matrix_rejects_non_square(tmp_path):
    with pytest.raises(ParseError):
        save_matrix(tmp_path / "bad.json", np.ones((2, 3)))


def test_save_matrix_is_byte_deterministic(tmp_path):
    X = unit_gaussian(trial_rng(70, 1), 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(a, X)
    save_matrix(b, X)
    assert a.read_bytes() == b.read_bytes()


def test_sha256_digest_matches_hashlib(tmp_path):
    path = tmp_path / "blob.json"
    path.write_text("{\"n\": 1, \"re\": [[0.0]]}")
    text, digest = read_input(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(digest) == 64
    assert np.array_equal(load_matrix(path, text), load_matrix(path))


def _bits(loaded):
    """A loader's result with each array as its dtype, shape and bytes."""
    if isinstance(loaded, tuple):
        return tuple(map(_bits, loaded))
    if isinstance(loaded, np.ndarray):
        return loaded.dtype, loaded.shape, loaded.tobytes()
    return loaded


def test_files_with_a_byte_order_mark_load(tmp_path):
    from commspectra import make_bundle, read_bundle

    X = unit_gaussian(trial_rng(70, 2), 2)
    save_matrix(tmp_path / "m.json", X)
    (tmp_path / "m.txt").write_text("1 2+1i\n-3i 4\n")
    (tmp_path / "lu.json").write_text(json.dumps({"etas": {"re": [0.6, -0.6], "im": [0.0, 0.0]}, "r": [[0, 1], [0, 0]]}))
    (tmp_path / "numbers.json").write_text(json.dumps({"etas": [1, -1], "omegas": [0.5, -0.5], "r": [[0, 1], [1, 0]]}))
    (tmp_path / "bundle.json").write_text(json.dumps(make_bundle("C4", [X], 1.0, 2.0, 0.0, 3)))
    loaders = {
        "m.json": load_matrix,
        "m.txt": load_matrix,
        "lu.json": lambda path, text=None: load_check_payload(path, "lu", text=text),
        "numbers.json": lambda path, text=None: load_check_payload(path, "numbers", text=text),
        "bundle.json": lambda path, text=None: read_bundle(path),
    }
    for name, load in loaders.items():
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        text, digest = read_input(marked)
        assert digest == hashlib.sha256(marked.read_bytes()).hexdigest()  # the mark is hashed
        assert text == read_input(plain)[0]
        want = _bits(load(plain))
        assert _bits(load(marked)) == want and _bits(load(marked, text)) == want


def test_lu_payload_real_and_complex_forms(tmp_path):
    path = tmp_path / "lu.json"
    path.write_text(json.dumps({"etas": [0.5, -0.5], "r": [[0.0, 1.0], [0.0, 0.0]]}))
    etas, r = load_check_payload(path, "lu")
    assert etas.dtype == np.complex128
    assert np.array_equal(etas, np.array([0.5, -0.5], dtype=complex))
    assert np.array_equal(r, [[0.0, 1.0], [0.0, 0.0]])

    path.write_text(
        json.dumps({"etas": {"re": [0.0, 0.0], "im": [0.5, -0.5]}, "r": [[0, 1], [0, 0]]})
    )
    etas, _ = load_check_payload(path, "lu")
    assert np.array_equal(etas, np.array([0.5j, -0.5j]))

    path.write_text(json.dumps({"etas": {"re": [1.0, -1.0]}, "r": [[0, 1], [0, 0]]}))
    etas, _ = load_check_payload(path, "lu")
    assert np.array_equal(etas, np.array([1.0 + 0j, -1.0 + 0j]))

    # each part is raveled before the lengths are compared
    path.write_text(json.dumps({"etas": {"re": [[0.5], [-0.5]], "im": [0.5, -0.5]}, "r": [[0, 1], [0, 0]]}))
    etas, _ = load_check_payload(path, "lu")
    assert np.array_equal(etas, np.array([0.5 + 0.5j, -0.5 - 0.5j]))


def test_numbers_payload(tmp_path):
    path = tmp_path / "num.json"
    r = 1.0 / np.sqrt(2.0)
    path.write_text(json.dumps({"etas": [r], "omegas": [r], "r": [[1.0]]}))
    etas, omegas, R = load_check_payload(path, "numbers")
    assert etas.dtype == np.float64 and omegas.dtype == np.float64
    assert R.shape == (1, 1)


@pytest.mark.parametrize(
    "payload, kind",
    [
        ("[1, 2]", "lu"),  # not an object
        (json.dumps({"r": [[1.0]]}), "lu"),  # missing etas
        (json.dumps({"etas": [1.0]}), "lu"),  # missing r
        (json.dumps({"etas": [1.0], "r": [1.0]}), "lu"),  # r not 2-D
        (json.dumps({"etas": {"re": [1.0], "im": [1.0, 2.0]}, "r": [[1.0]]}), "lu"),
        (json.dumps({"etas": {"re": ["x"]}, "r": [[1.0]]}), "lu"),
        (json.dumps({"etas": {"im": [1.0]}, "r": [[1.0]]}), "lu"),  # missing re
        ('{"etas": {"re": [NaN]}, "r": [[1.0]]}', "lu"),
        (json.dumps({"etas": [1.0], "r": [[1.0]]}), "numbers"),  # missing omegas
        (json.dumps({"etas": [1.0], "omegas": [1.0], "r": [[1.0]]}), "frequencies"),
    ],
)
def test_payload_rejections(tmp_path, payload, kind):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ParseError):
        load_check_payload(path, kind)


def test_payload_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_check_payload(tmp_path / "gone.json", "lu")
