import tracemalloc

import numpy as np
import pytest

from emduality import holonomy as ho
from emduality.symplectic import Taming, gamma, ElectromagneticPair, random_sp, sp_basis


def print_bundle(p: ho.BundlePresentation) -> str:
    """Bundle file text of a presentation, exact to the last bit."""
    lines = [f"nv = {p.n_v}"]
    for g in p.generators:
        lines.append("generator = " + " ".join(repr(float(v)) for v in g.ravel()))
    for w in p.relations:
        lines.append("relation = " + " ".join(str(i) for i in w))
    return "\n".join(lines) + "\n"


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def reduced_words(n_gen: int, max_len: int):
    """Freely reduced words over generators and inverses, lengths 1..max_len,
    level by level."""
    letters = [k for k in range(1, n_gen + 1)] + [-k for k in range(1, n_gen + 1)]
    frontier = [[l] for l in letters]
    yield from frontier
    for _ in range(max_len - 1):
        frontier = [w + [l] for w in frontier for l in letters if l != -w[-1]]
        yield from frontier


def per_word_traces(p: ho.BundlePresentation, max_len: int) -> list[tuple[int, float]]:
    """(length, trace) of every reduced word, each word multiplied from
    scratch left to right from the identity, with one np.linalg.inv per
    generator: the per-word oracle of the stacked invariants."""
    inverses = [np.linalg.inv(g) for g in p.generators]
    out = []
    for w in reduced_words(len(p.generators), max_len):
        m = np.eye(2 * p.n_v)
        for idx in w:
            m = m @ (p.generators[idx - 1] if idx > 0 else inverses[-idx - 1])
        out.append((len(w), float(np.trace(m))))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestPresentationCheck:
    def test_empty_presentation_passes(self):
        p = ho.BundlePresentation(1)
        assert ho.presentation_check(p).ok

    def test_omega_generator_passes(self):
        from emduality.symplectic import omega
        p = ho.BundlePresentation(1, [omega(1)])
        assert ho.presentation_check(p).ok

    def test_torus_relation_fails_for_noncommuting(self, rng):
        g1, g2 = random_sp(1, rng), random_sp(1, rng)
        assert np.max(np.abs(g1 @ g2 - g2 @ g1)) > 1e-6  # generic: non-commuting
        p = ho.BundlePresentation(1, [g1, g2], relations=[[1, 2, -1, -2]])
        diag = ho.presentation_check(p)
        assert not diag.ok
        assert diag.relation_violations[0] > 1e-6

    def test_torus_relation_passes_for_commuting(self):
        p = ho.BundlePresentation(1, [rotation(0.3), rotation(1.1)],
                                  relations=[[1, 2, -1, -2]])
        assert ho.presentation_check(p).ok

    def test_non_symplectic_generator_flagged(self):
        p = ho.BundlePresentation(1, [np.diag([2.0, 1.0])])
        diag = ho.presentation_check(p)
        assert not diag.ok
        assert diag.generator_violations[0] > 0.5


def gl_commutant_oracle(generators, n_v):
    """Null space of the joint commutant + sp conditions, built from Kronecker
    Sylvester operators on full gl(2n) -- independent of the sp-basis path.

    Column-major vec throughout: vec(A X B) = (B^T kron A) vec(X)."""
    d = 2 * n_v
    blocks = []
    for h in generators:
        # vec(H X - X H) = (Id kron H - H^T kron Id) vec(X)
        blocks.append(np.kron(np.eye(d), h) - np.kron(h.T, np.eye(d)))
    from emduality.symplectic import omega
    om = omega(n_v)
    # commutation matrix: K vec(X) = vec(X^T)
    k = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            k[i * d + j, j * d + i] = 1.0
    # vec(X^T Om + Om X) = (Om^T kron Id) K vec(X) + (Id kron Om) vec(X)
    sp_rows = np.kron(om.T, np.eye(d)) @ k + np.kron(np.eye(d), om)
    blocks.append(sp_rows)
    import scipy.linalg
    return scipy.linalg.null_space(np.vstack(blocks), rcond=1e-10).shape[1]


class TestCentralizer:
    def test_trivial_holonomy_full_sp(self):
        for nv in (1, 2):
            mats, dim = ho.centralizer_algebra(ho.BundlePresentation(nv))
            assert dim == nv * (2 * nv + 1)

    def test_rotation_generator_dim1(self):
        p = ho.BundlePresentation(1, [rotation(0.7)])
        mats, dim = ho.centralizer_algebra(p)
        assert dim == 1
        assert dim == gl_commutant_oracle(p.generators, 1)

    def test_hyperbolic_generator_dim1(self):
        p = ho.BundlePresentation(1, [np.diag([2.0, 0.5])])
        mats, dim = ho.centralizer_algebra(p)
        assert dim == 1
        assert dim == gl_commutant_oracle(p.generators, 1)
        # centralizer of the diagonal torus is diagonal
        x = mats[0]
        assert abs(x[0, 1]) < 1e-10 and abs(x[1, 0]) < 1e-10

    def test_output_commutes_with_generators(self, rng):
        gens = [random_sp(2, rng), random_sp(2, rng)]
        p = ho.BundlePresentation(2, gens)
        mats, dim = ho.centralizer_algebra(p)
        for x in mats:
            for h in gens:
                assert np.max(np.abs(x @ h - h @ x)) <= 1e-10 * max(1, np.max(np.abs(h)))

    def test_dim_bounded_by_sp_dim(self, rng):
        for nv in (1, 2):
            p = ho.BundlePresentation(nv, [random_sp(nv, rng)])
            _, dim = ho.centralizer_algebra(p)
            assert dim <= nv * (2 * nv + 1)


class TestAutbTheta:
    def standard_taming(self, n):
        return gamma(ElectromagneticPair(np.zeros((n, n)), np.eye(n)))

    def test_trivial_holonomy_u1(self):
        mats, dim = ho.autb_theta_algebra(ho.BundlePresentation(1), self.standard_taming(1))
        assert dim == 1

    def test_trivial_holonomy_u2(self):
        mats, dim = ho.autb_theta_algebra(ho.BundlePresentation(2), self.standard_taming(2))
        assert dim == 4

    def test_two_hyperbolic_generators_trivial(self, rng):
        # two generic hyperbolics generate enough to kill the centralizer
        g1 = np.diag([2.0, 0.5])
        s = random_sp(1, rng)
        g2 = s @ np.diag([3.0, 1 / 3.0]) @ np.linalg.inv(s)
        p = ho.BundlePresentation(1, [g1, g2])
        mats, dim = ho.autb_theta_algebra(p, self.standard_taming(1))
        assert dim == 0
        _, cdim = ho.centralizer_algebra(p)
        assert cdim == 0

    def test_subalgebra_of_centralizer(self, rng):
        p = ho.BundlePresentation(1, [rotation(0.4)])
        _, cdim = ho.centralizer_algebra(p)
        _, tdim = ho.autb_theta_algebra(p, self.standard_taming(1))
        assert tdim <= cdim

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ho.PresentationError):
            ho.autb_theta_algebra(ho.BundlePresentation(2), self.standard_taming(1))


class TestConjugacyInvariants:
    def test_trivial_holonomy(self):
        v = ho.conjugacy_invariants(ho.BundlePresentation(2), 3)
        assert np.allclose(v, 4.0)

    def test_conjugation_invariance(self, rng):
        gens = [random_sp(1, rng), random_sp(1, rng)]
        p = ho.BundlePresentation(1, gens)
        s = random_sp(1, rng)
        sinv = np.linalg.inv(s)
        q = ho.BundlePresentation(1, [s @ g @ sinv for g in gens])
        v1 = ho.conjugacy_invariants(p, 4)
        v2 = ho.conjugacy_invariants(q, 4)
        assert v1.shape == v2.shape
        assert np.max(np.abs(v1 - v2)) <= 1e-10 * max(1.0, np.max(np.abs(v1)))

    def test_distinct_rotations_distinguished(self):
        p7 = ho.BundlePresentation(1, [rotation(0.7)])
        p8 = ho.BundlePresentation(1, [rotation(0.8)])
        v7 = ho.conjugacy_invariants(p7, 1)
        v8 = ho.conjugacy_invariants(p8, 1)
        assert v7[0] == pytest.approx(2 * np.cos(0.7))
        # traces of g and g^-1 coincide in Sp, first entries differ across angles
        assert np.min(np.abs(v7 - v8)) > 1e-3

    def test_word_length_guard(self):
        p = ho.BundlePresentation(1, [rotation(0.1)])
        with pytest.raises(ho.PresentationError):
            ho.conjugacy_invariants(p, 7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_stacked_equals_per_word_oracle(self, n, g):
        rng = np.random.default_rng([n, g])
        p = ho.BundlePresentation(n, [random_sp(n, rng) for _ in range(g)])
        max_len = 6 if g < 3 else 5
        oracle = per_word_traces(p, max_len)
        for length in range(1, max_len + 1):
            count = sum(1 for l, _ in oracle if l == length)
            assert count == 2 * g * (2 * g - 1) ** (length - 1)
            want = np.sort(np.array([t for l, t in oracle if l <= length]))
            assert np.array_equal(ho.conjugacy_invariants(p, length), want)

    def test_split_chunks_equal_oracle(self, rng, monkeypatch):
        # 40 entries: 2 words of 4 entries per chunk, so every level splits
        monkeypatch.setattr(ho, "CHUNK_ENTRIES", 40)
        p = ho.BundlePresentation(1, [random_sp(1, rng) for _ in range(3)])
        want = np.sort(np.array([t for _, t in per_word_traces(p, 4)]))
        assert np.array_equal(ho.conjugacy_invariants(p, 4), want)

    def test_memory_bounded_by_chunk(self, rng):
        # 5 generators of Sp(4) at length 6: 664300 words, 10.6M matrix
        # entries at the last level; one stacked level would take about 6.7
        # chunks of transient, the chunked expansion takes about 3.2
        p = ho.BundlePresentation(2, [random_sp(2, rng) for _ in range(5)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ho.conjugacy_invariants(p, 6)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(out) == sum(10 * 9 ** (k - 1) for k in range(1, 7))
        assert peak <= 4 * ho.CHUNK_ENTRIES * out.itemsize + 2 * out.nbytes

    def test_word_count(self):
        # 1 generator: freely reduced words over {g, g^-1} with no gg^-1: per
        # length L there are exactly 2 words (g^L and g^-L)
        p = ho.BundlePresentation(1, [rotation(0.2)])
        assert len(ho.conjugacy_invariants(p, 3)) == 6


class TestBundleFile:
    def test_round_trip(self, rng):
        p = ho.BundlePresentation(1, [random_sp(1, rng), random_sp(1, rng)],
                                  relations=[[1, 2, -1, -2]])
        q = ho.parse_bundle(print_bundle(p))
        assert q.n_v == 1
        assert len(q.generators) == 2
        for a, b in zip(p.generators, q.generators):
            assert np.array_equal(a, b)
        assert q.relations == p.relations

    def test_equality_by_value(self, rng):
        p = ho.BundlePresentation(1, [random_sp(1, rng), random_sp(1, rng)],
                                  relations=[[1, 2, -1, -2]])
        assert ho.parse_bundle(print_bundle(p)) == p
        assert p != ho.BundlePresentation(1, p.generators, relations=[[1, -1]])
        assert p != ho.BundlePresentation(1, p.generators[:1])
        assert p != ho.BundlePresentation(1, [2 * p.generators[0], p.generators[1]],
                                          relations=p.relations)
        assert p != ho.BundlePresentation(2)
        assert p != "nv = 1"

    @pytest.mark.parametrize("nv", ["0", "13"])
    def test_nv_out_of_range(self, nv):
        with pytest.raises(ho.PresentationError, match="nv"):
            ho.parse_bundle(f"nv = {nv}")

    def test_bad_entry_count(self):
        with pytest.raises(ho.PresentationError):
            ho.parse_bundle("nv = 1\ngenerator = 1 0 0")

    def test_index_out_of_range(self):
        with pytest.raises(ho.PresentationError):
            ho.BundlePresentation(1, [rotation(1.0)], relations=[[2]])

    def test_singular_generator_rejected(self):
        with pytest.raises(ho.PresentationError, match="singular"):
            ho.parse_bundle("nv = 1\ngenerator = 0 0 0 0\nrelation = 1 -1")

    def test_letter_table(self, rng):
        gens = [random_sp(2, rng), random_sp(2, rng)]
        p = ho.BundlePresentation(2, gens, relations=[[1, -2]])
        assert p.letters.shape == (4, 4, 4)
        assert np.array_equal(p.inverse, [2, 3, 0, 1])
        for k, g in enumerate(gens):
            assert np.array_equal(p.letters[k], g)
            assert np.array_equal(p.letters[2 + k], np.linalg.inv(g))
        assert np.array_equal(p.word_matrix([1, -2]),
                              np.eye(4) @ gens[0] @ np.linalg.inv(gens[1]))


def test_out_of_range_generator_is_refused():
    """A generator entry above 1e150 is refused: the centralizer's unit-norm
    columns would square it to infinity."""
    with pytest.raises(ho.PresentationError, match="generator 2 is out of range"):
        ho.BundlePresentation(1, [np.eye(2), np.diag([1e200, 1e-200])])
