"""Flat symplectic vector bundles presented by holonomy matrices.

A presentation is a list of Sp(2n, R) generator matrices together with group
relation words.  The based automorphism algebras are computed as matrix
centralizers; conjugation invariants are trace vectors of reduced words, formed
level by level as stacked products over one letter table, in bounded chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .symplectic import MAX_N, Taming, null_space, sp_basis, sp_check
from .textio import key_values, numbers

MAX_WORD_LEN = 6
RELATION_TOL = 1e-10
RANK_RTOL = 1e-10      # relative singular value threshold for centralizer ranks
# matrix entries of one stacked product of conjugacy_invariants (32 MB)
CHUNK_ENTRIES = 1 << 22


class PresentationError(ValueError, InputError):
    pass


@dataclass
class BundlePresentation:
    """Holonomy data: images of fundamental-group generators plus relations.

    Relation words are lists of signed 1-based generator indices; -k means the
    inverse of generator k.  ``letters`` stacks the generators, then their
    inverses, (2g, 2n, 2n); letter j has inverse letter ``inverse[j]``.
    """

    n_v: int
    generators: list[np.ndarray] = field(default_factory=list)
    relations: list[list[int]] = field(default_factory=list)
    letters: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.generators = [np.asarray(g, dtype=float) for g in self.generators]
        for g in self.generators:
            if g.shape != (2 * self.n_v, 2 * self.n_v):
                raise PresentationError(
                    f"generator shape {g.shape} does not match n_v={self.n_v}")
        for word in self.relations:
            for idx in word:
                if idx == 0 or abs(idx) > len(self.generators):
                    raise PresentationError(f"relation index {idx} out of range")
        gens = np.reshape(self.generators, (-1, 2 * self.n_v, 2 * self.n_v))
        try:
            self.letters = np.concatenate([gens, np.linalg.inv(gens)])
        except np.linalg.LinAlgError:
            raise PresentationError("a generator is singular, so not a holonomy "
                                    "matrix: it has no inverse") from None
        self.inverse = np.roll(np.arange(len(self.letters)), len(gens))

    def __eq__(self, other):
        """Value equality of n_v, generators and relations; never raises."""
        if not isinstance(other, BundlePresentation):
            return NotImplemented
        return (self.n_v == other.n_v and _same(self.generators, other.generators)
                and _same(self.relations, other.relations))

    def word_matrix(self, word: list[int]) -> np.ndarray:
        """Product of the word's letters, left to right from the identity."""
        out = np.eye(2 * self.n_v)
        for idx in word:
            out = out @ self.letters[idx - 1 if idx > 0 else len(self.generators) - idx - 1]
        return out


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(map(np.array_equal, a, b))


@dataclass
class PresentationDiagnostics:
    generator_violations: list[float]
    relation_violations: list[float]
    ok: bool


def presentation_check(p: BundlePresentation) -> PresentationDiagnostics:
    """Per-generator symplectic violation and per-relation deviation from Id."""
    gen_viol = [sp_check(g, RELATION_TOL)[1] for g in p.generators]
    rel_viol = [float(np.max(np.abs(p.word_matrix(w) - np.eye(2 * p.n_v))))
                for w in p.relations]
    ok = all(v <= RELATION_TOL for v in gen_viol + rel_viol)
    return PresentationDiagnostics(gen_viol, rel_viol, ok)


def _commutant_rows(mats: list[np.ndarray], basis: np.ndarray) -> np.ndarray:
    """Rows of the conditions X H = H X, H in mats, over the sp basis
    coordinates: 4n^2 rows per H, one column per basis element."""
    h = np.reshape(mats, (-1, 1) + basis.shape[1:])
    return np.moveaxis(basis @ h - h @ basis, 1, -1).reshape(-1, len(basis))


def _centralizer(n_v: int, mats: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Basis and dimension of the elements of sp(2n, R) commuting with every H in mats."""
    basis = sp_basis(n_v)
    null = null_space(_commutant_rows(mats, basis), RANK_RTOL)
    return list(np.tensordot(null.T, basis, 1)), null.shape[1]


def centralizer_algebra(p: BundlePresentation) -> tuple[list[np.ndarray], int]:
    """Basis and dimension of {X in sp(2n, R) : X H_i = H_i X for all generators}.

    With no generators this is all of sp(2n, R); the dimension can never
    exceed n(2n+1).
    """
    return _centralizer(p.n_v, p.generators)


def autb_theta_algebra(p: BundlePresentation, j0: Taming) -> tuple[list[np.ndarray], int]:
    """Centralizer elements additionally commuting with the fiber taming J0."""
    if j0.n != p.n_v:
        raise PresentationError("taming rank does not match the presentation")
    return _centralizer(p.n_v, [*p.generators, j0.J])


def conjugacy_invariants(p: BundlePresentation, max_word_len: int) -> np.ndarray:
    """Sorted trace vector of all reduced holonomy words up to the given length.

    Invariant under simultaneous conjugation of the generators, so equal
    vectors mean the presentations are not distinguished by these invariants
    (the converse is not decided).
    """
    if max_word_len < 1:
        raise PresentationError("max_word_len must be >= 1")
    if max_word_len > MAX_WORD_LEN:
        raise PresentationError(f"max_word_len capped at {MAX_WORD_LEN} "
                                "(word count grows exponentially)")
    if not p.generators:
        # only the empty word: the trace of Id, once
        return np.array([2.0 * p.n_v])
    levels: list[list[np.ndarray]] = [[] for _ in range(max_word_len)]
    _extend(p, np.eye(2 * p.n_v) @ p.letters, np.arange(len(p.letters)), levels)
    return np.sort(np.concatenate([t for level in levels for t in level]))


def _extend(p: BundlePresentation, words: np.ndarray, last: np.ndarray,
            levels: list[list[np.ndarray]], depth: int = 0):
    """Append the traces of ``words`` (last letters ``last``) to levels[depth],
    then recurse on each word times each letter not cancelling its last, in
    chunks of CHUNK_ENTRIES entries taken in order, as one level would list them."""
    levels[depth].append(np.trace(words, axis1=-2, axis2=-1))
    if depth + 1 == len(levels):
        return
    rows = max(1, CHUNK_ENTRIES // (words[0].size * (len(p.letters) - 1)))
    for start in range(0, len(words), rows):
        word, letter = np.nonzero(last[start:start + rows, None] != p.inverse)
        _extend(p, words[start + word] @ p.letters[letter], letter, levels, depth + 1)


# ---------------------------------------------------------------- file format

def parse_bundle(text: str) -> BundlePresentation:
    """Bundle presentation file: 'nv = k', 'generator = <4k^2 row-major floats>'
    lines and 'relation = i j -i -j' lines; '#' comments.  nv appears once."""
    n_v = None
    gens: list[np.ndarray] = []
    rels: list[list[int]] = []
    for lineno, key, val in key_values(text, PresentationError,
                                       {"nv", "generator", "relation"}):
        if key == "nv":
            vals = numbers(val, PresentationError, f"nv on line {lineno}", int)
            if len(vals) != 1 or not 1 <= vals[0] <= MAX_N:
                raise PresentationError(f"nv on line {lineno} must be one integer in 1..{MAX_N}")
            n_v = vals[0]
        elif key == "generator":
            if n_v is None:
                raise PresentationError("nv must come before generators")
            vals = numbers(val.replace(",", " "), PresentationError,
                           f"generator on line {lineno}")
            d = 2 * n_v
            if len(vals) != d * d:
                raise PresentationError(
                    f"generator on line {lineno} needs {d * d} entries, got {len(vals)}")
            gens.append(np.array(vals).reshape(d, d))
        else:  # relation
            rels.append(numbers(val.replace(",", " "), PresentationError,
                                f"relation on line {lineno}", int))
    if n_v is None:
        raise PresentationError("file must set nv")
    return BundlePresentation(n_v, gens, rels)

