import numpy as np
import pytest

from avqds.pauli import PauliString, WeightedPauliSum, anticommutes, masks
from conftest import dense_pauli


def test_from_label_round_trip():
    p = PauliString.from_label("XIZY")
    assert p.label() == "XIZY"
    assert p.letter(0) == "X"
    assert p.letter(3) == "Y"
    assert p.n_qubits == 4


def test_y_sets_both_masks():
    p = PauliString.from_label("IY")
    assert p.x_bits == 0b10
    assert p.z_bits == 0b10


def test_support_and_weight():
    p = PauliString.from_label("XIZY")
    assert p.support == (0, 2, 3)
    assert p.weight == 3
    assert PauliString.from_label("III").weight == 0


def test_single_and_two_site():
    assert PauliString.single(4, 2, "Z").label() == "IIZI"
    assert PauliString.two_site(4, (1, 3), "XY").label() == "IXIY"
    with pytest.raises(ValueError):
        PauliString.two_site(4, (1, 1), "XX")
    with pytest.raises(ValueError):
        PauliString.single(2, 5, "X")


def test_bad_label_rejected():
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")


def test_sum_merges_duplicates():
    zz = PauliString.from_label("ZZ")
    x = PauliString.from_label("XI")
    h = WeightedPauliSum(2, [(1.0, zz), (0.5, x), (2.0, zz)])
    assert len(h) == 2
    coeffs = {s.label(): c for c, s in h}
    assert coeffs == {"ZZ": 3.0, "XI": 0.5}


def test_sum_rejects_complex_and_mismatched():
    z = PauliString.from_label("Z")
    with pytest.raises(ValueError):
        WeightedPauliSum(1, [(1 + 0.5j, z)])
    with pytest.raises(ValueError):
        WeightedPauliSum(2, [(1.0, z)])
    # a real coefficient passed as complex is fine
    h = WeightedPauliSum(1, [(complex(2.0), z)])
    assert h.terms[0][0] == 2.0


def test_sum_preserves_first_occurrence_order():
    strings = [PauliString.from_label(s) for s in ("XI", "ZZ", "IY")]
    h = WeightedPauliSum(2, [(1.0, s) for s in strings])
    assert [s.label() for _, s in h] == ["XI", "ZZ", "IY"]


def _label(rng, n):
    return "".join(rng.choice(list("IXYZ"), size=n))


def test_anticommutes_matches_the_matrices():
    """On 3 qubits against the Kronecker products: PQ = -QP exactly when the
    parity helper says so, elementwise over broadcast mask arrays."""
    rng = np.random.default_rng(3)
    strings = [PauliString.from_label(_label(rng, 3)) for _ in range(24)]
    x, z = masks(strings)
    odd = anticommutes(x[:, None], z[:, None], x, z)
    for j, p in enumerate(strings):
        for k, q in enumerate(strings):
            a, b = dense_pauli(p), dense_pauli(q)
            assert odd[j, k] == np.allclose(a @ b, -(b @ a)) != np.allclose(a @ b, b @ a)


def test_anticommutes_counts_sites_up_to_64_qubits():
    """The xor fold reaches every bit of a 64-qubit mask: the parity is that
    of the sites where the two letters differ and neither is I."""
    rng = np.random.default_rng(4)
    for n in (1, 33, 63, 64):
        labels = [_label(rng, n) for _ in range(2)]
        p, q = (PauliString.from_label(label) for label in labels)
        sites = sum(a != b and "I" not in (a, b) for a, b in zip(*labels))
        assert bool(anticommutes(*(np.uint64(v) for v in (p.x_bits, p.z_bits, q.x_bits, q.z_bits)))) == (sites % 2 == 1)
