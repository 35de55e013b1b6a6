import itertools
import random

import pytest

from uqb2 import lattice


def _mat_mul(A, B):
    n, m = len(A), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(m)]
        for i in range(n)
    ]


def _check_decomposition(H, snf):
    n = len(H)
    D = _mat_mul(_mat_mul([list(r) for r in snf.U], [list(r) for r in H]), [list(r) for r in snf.V])
    assert tuple(tuple(r) for r in D) == snf.D
    assert all(snf.D[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    assert abs(lattice.determinant(snf.U)) == 1
    assert abs(lattice.determinant(snf.V)) == 1
    nz = [d for d in snf.diag if d]
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))


def test_named_matrices_invariant_factors():
    for name in ("uqb2", "balg"):
        snf = lattice.smith_normal_form(lattice.NAMED_MATRICES[name])
        assert snf.diag == (2, 2, 0, 0)
        _check_decomposition(lattice.NAMED_MATRICES[name], snf)
    snf = lattice.smith_normal_form(lattice.NAMED_MATRICES["qaspace"])
    assert snf.diag == (1, 1, 0, 0)


def test_zero_matrix_snf():
    Z = [[0] * 4 for _ in range(4)]
    snf = lattice.smith_normal_form(Z)
    assert snf.diag == (0, 0, 0, 0)
    _check_decomposition(Z, snf)


def test_snf_random_reconstruction():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(1, 5)
        H = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        _check_decomposition(H, lattice.smith_normal_form(H))


def test_snf_rejects_non_square():
    with pytest.raises(ValueError):
        lattice.smith_normal_form([[1, 2, 3], [4, 5, 6]])


def test_pi_degree_named():
    for m in range(5, 17):
        l = m if m % 2 else m // 2
        assert lattice.pi_degree(lattice.NAMED_MATRICES["uqb2"], m) == l
        assert lattice.pi_degree(lattice.NAMED_MATRICES["balg"], m) == l


def test_pi_degree_zero_matrix_and_validation():
    assert lattice.pi_degree([[0] * 4 for _ in range(4)], 9) == 1
    with pytest.raises(ValueError):
        lattice.pi_degree([[0, 1], [1, 0]], 5)


def test_antisymmetric_invariant_factors_pair_up():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.choice((2, 4, 6))
        H = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randrange(-6, 7)
                H[i][j], H[j][i] = v, -v
        nz = [d for d in lattice.smith_normal_form(H).diag if d]
        assert len(nz) % 2 == 0
        assert nz[0::2] == nz[1::2]


def _in_kernel(H, v, l):
    n = len(H)
    return all(sum(H[r][c] * v[c] for c in range(n)) % l == 0 for r in range(n))


@pytest.mark.parametrize("l", [3, 5])
def test_kernel_mod_membership_and_completeness(l):
    H = lattice.NAMED_MATRICES["qaspace"]
    basis = lattice.kernel_mod(H, l)
    assert len(basis) == 4
    for v in basis:
        assert _in_kernel(H, v, l)
    # completeness: residues generated by the basis == all kernel residues
    seen = {(0, 0, 0, 0)}
    frontier = {tuple(x % l for x in v) for v in basis}
    while frontier:
        nxt = set()
        for a in frontier | {(0, 0, 0, 0)}:
            for v in basis:
                b = tuple((x + y) % l for x, y in zip(a, v))
                if b not in seen:
                    seen.add(b)
                    nxt.add(b)
        frontier = nxt
    target = {
        v for v in itertools.product(range(l), repeat=4) if _in_kernel(H, v, l)
    }
    assert seen == target


def test_kernel_mod_describes_congruent_triples():
    # for the affine-space matrix the kernel is a == b == c (mod l), d free
    H = lattice.NAMED_MATRICES["qaspace"]
    l = 5
    basis = lattice.kernel_mod(H, l)
    for v in basis:
        a, b, c, _ = v
        assert (a - b) % l == 0 and (b - c) % l == 0


@pytest.mark.parametrize("l", [3, 5])
def test_hilbert_basis_expected_generators(l):
    got = lattice.nonneg_hilbert_basis(lattice.NAMED_MATRICES["qaspace"], l)
    want = sorted(
        [(l, 0, 0, 0), (0, l, 0, 0), (0, 0, l, 0), (0, 0, 0, 1), (1, 1, 1, 0)]
    )
    assert got == want


def test_hilbert_basis_trivial_instance():
    got = lattice.nonneg_hilbert_basis([[0] * 4 for _ in range(4)], 1)
    assert got == sorted([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def _brute_hilbert_basis(H, l, bound):
    """Kernel points in [0, bound]^n that are not the sum of two nonzero
    kernel points: the definition, checked pair by pair."""
    n = len(H)
    pts = sorted(
        (v for v in itertools.product(range(bound + 1), repeat=n) if any(v) and _in_kernel(H, v, l)),
        key=sum,
    )
    found = set(pts)
    minimal = []
    for s in pts:
        half = sum(s) // 2
        for a in pts:
            if sum(a) > half:
                minimal.append(s)
                break
            rest = tuple(y - x for x, y in zip(a, s))
            if min(rest) >= 0 and rest in found:
                break
        else:
            minimal.append(s)
    return sorted(minimal)


def test_hilbert_basis_matches_the_definition_on_a_larger_box():
    # every generator the brute force finds in [0, 2l]^n, and no other,
    # comes out: complete beyond the box [0, l]^n
    rng = random.Random(15)
    for case in range(120):
        n = rng.randrange(2, 5)
        l = rng.randrange(1, 7)
        H = [[rng.randrange(-l, l + 1) for _ in range(n)] for _ in range(n)]
        if case % 2:
            for i in range(n):
                H[i][i] = 0
                for j in range(i):
                    H[i][j] = -H[j][i]
        assert lattice.nonneg_hilbert_basis(H, l) == _brute_hilbert_basis(H, l, 2 * l), (H, l)


def test_hilbert_basis_rejects_non_square_and_small_modulus():
    with pytest.raises(ValueError):
        lattice.nonneg_hilbert_basis([[1, 2, 3], [4, 5, 6]], 5)
    for l in (0, -3):
        with pytest.raises(ValueError):
            lattice.nonneg_hilbert_basis(lattice.NAMED_MATRICES["qaspace"], l)
