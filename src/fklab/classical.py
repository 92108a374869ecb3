"""Classical side of the strong-coupling expansion: truncated Hamiltonians,
plaquette/next-nearest-neighbour potentials, Ising contours, Peierls check.

Energies are always *relative* to the uniform configurations: every interaction
term vanishes when all spins are equal, so the two homogeneous states have
energy zero by construction.

``interaction_terms`` is the one table of the h2 and h4 terms: groups of one
coupling and the offsets of its terms' corners from their anchor site.  The
energies evaluate it with one shifted-view helper, ``_corner_views``, on the
spins with the box's doubled, which ``extract_contours`` reads its broken
bonds from as well; ``mc`` builds the sampler's local tables from it.
``extract_contours`` labels its faces' components in numpy, on the integer
edge ids of ``face_keys``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lattice import Site, SpinConfiguration, UNIT_STEPS

# ---------------------------------------------------------------------------
# Coefficients of the truncated effective Hamiltonians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCoefficients:
    """Explicit polynomial coefficients of the second/fourth order models.

    Higher-order tails are truncated; tolerance budgets in tests account for
    the neglected odd powers.  All values are positive for U >= 2.
    """

    U: float

    def __post_init__(self):
        if not (math.isfinite(self.U) and self.U >= 2):
            raise ValueError(f"coefficients are only sensible for finite U >= 2, got {self.U}")
        try:
            self.U**3   # the fourth-order coefficients divide by it
        except OverflowError:
            raise ValueError(f"U^3 overflows a float, got U = {self.U}") from None

    @property
    def j(self) -> float:
        """Nearest-neighbour coupling of the second-order model, 1/(4U)."""
        return 1.0 / (4.0 * self.U)

    @property
    def j1(self) -> float:
        """Ising-contour energy per face, 2*j = 1/(2U)."""
        return 1.0 / (2.0 * self.U)

    @property
    def c_nn(self) -> float:
        return 1.0 / (4.0 * self.U) - 11.0 / (16.0 * self.U**3)

    @property
    def c_nnn(self) -> float:
        return 3.0 / (16.0 * self.U**3)

    @property
    def c_2(self) -> float:
        return 1.0 / (8.0 * self.U**3)

    @property
    def c_plq(self) -> float:
        return 5.0 / (16.0 * self.U**3)

    @property
    def j2(self) -> float:
        """Interface energy per face in the fourth-order model, 2*c_nn."""
        return 1.0 / (2.0 * self.U) - 11.0 / (8.0 * self.U**3)

    @property
    def k2(self) -> float:
        """Energy per delta-edge of the rhombus model, 1/(4 U^3)."""
        return 1.0 / (4.0 * self.U**3)


# ---------------------------------------------------------------------------
# Local potentials
# ---------------------------------------------------------------------------


def plaquette_potential(sx: int, sy: int, sz: int, st: int) -> int:
    """h_p for four spins in cyclic order around a unit square.

    Diagonals are (x, z) and (y, t).  Minimum value -16, attained exactly on
    the eight three-against-one patterns.
    """
    return 5 * (sx * sy * sz * st - 1) + 3 * (sx * sz + sy * st - 2)


def nnn_potential(sx: int, sz: int) -> int:
    """h_{x,z} for two spins at lattice distance 2: 0 aligned, -2 anti-aligned."""
    return sx * sz - 1


def bosonic_plaquette_potential(sx: int, sy: int, sz: int, sw: int) -> int:
    """Plaquette potential obtained with commuting (bosonic) operators.

    Unlike the fermionic h_p it does not favour the three-against-one pattern,
    so it does not select the staircase interface.
    """
    return 1 - sx * sy * sz * sw + 5 * (sx * sz + sy * sw - 2)


# ---------------------------------------------------------------------------
# The interaction table and relative energies of configurations
# ---------------------------------------------------------------------------

HAMILTONIANS = ("h2", "h4")

# terms as the offsets of their other corners from the anchor site x: a pair
# x, x + d, or a unit square x, x + e_mu, x + e_mu + e_nu, x + e_nu
_NN = tuple((d,) for d in UNIT_STEPS)
_SQRT2 = tuple((d,) for d in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)))
_DIST2 = (((2, 0, 0),), ((0, 2, 0),), ((0, 0, 2),))
_PLAQUETTES = (
    ((1, 0, 0), (1, 1, 0), (0, 1, 0)),
    ((1, 0, 0), (1, 0, 1), (0, 0, 1)),
    ((0, 1, 0), (0, 1, 1), (0, 0, 1)),
)

Terms = tuple[tuple[float, tuple[tuple[Site, ...], ...]], ...]


def interaction_terms(coeffs: ModelCoefficients, hamiltonian: str) -> Terms:
    """h2 or h4 as groups (w, terms) of one coupling w and the offset tuples
    of its terms: a pair term has one offset and a plaquette three.

    The relative energy is the sum, over the terms and over the anchor sites
    x at which some corner (x or x + an offset) is in the box, of
    w (product of the corner spins - 1); shell spins are part of the
    configuration.  h2 is the nearest-neighbour bonds at w = -J; h4 adds
    the face diagonals (sqrt 2), the distance-2 pairs and the plaquettes of
    order U^-3.  This table is the one list of offsets and couplings: the
    energies below and the sampler's local tables in ``mc`` read it.
    """
    if hamiltonian == "h2":
        return ((-coeffs.j, _NN),)
    if hamiltonian == "h4":
        return ((-coeffs.c_nn, _NN), (coeffs.c_nnn, _SQRT2), (coeffs.c_2, _DIST2),
                (coeffs.c_plq, _PLAQUETTES))
    raise ValueError(f"hamiltonian must be one of {HAMILTONIANS}, got {hamiltonian!r}")


@functools.lru_cache(maxsize=8)   # relative_energy asks on every call; a scan of h4 takes ~30 us
def interaction_reach(terms: Terms) -> int:
    """The shell depth a table needs: the largest distance along an axis
    between two corners of one term, 1 for h2 and 2 for h4.  Every site that
    shares a term with a box site then lies in the box or its shell."""
    return max(max(x) - min(x) for _, group in terms for offsets in group
               for x in zip((0, 0, 0), *offsets))


def _corner_views(a: np.ndarray, offsets) -> list[np.ndarray]:
    """Views of ``a`` at x and at x + c for each offset c, over every x at
    which all of them are in range."""
    corners = ((0, 0, 0), *offsets)
    lo = [-min(x) for x in zip(*corners)]
    hi = [n - max(x) for x, n in zip(zip(*corners), a.shape)]
    return [a[lo[0] + c[0]:hi[0] + c[0], lo[1] + c[1]:hi[1] + c[1], lo[2] + c[2]:hi[2] + c[2]]
            for c in corners]


def _box_weighted(config: SpinConfiguration) -> np.ndarray:
    """The spins with those of the box doubled: the corner product of a term
    is -2^n when the term is broken (spin product -1) with n corners in the
    box, so ``product < -1`` picks the broken terms that count."""
    weighted = config.spins.copy()
    weighted[config.volume.box] *= 2
    return weighted


def relative_energy(config: SpinConfiguration, terms: Terms) -> float:
    """The relative energy of ``config`` under an ``interaction_terms`` table;
    each broken term (spin product -1) adds -2 w.  A shell shallower than
    the table's ``interaction_reach`` raises ValueError."""
    reach = interaction_reach(terms)
    if config.volume.shell < reach:
        raise ValueError(f"shell depth {config.volume.shell} is below the interaction reach {reach}")
    weighted = _box_weighted(config)
    e = 0.0
    for w, group in terms:
        broken = 0
        for offsets in group:
            corners = _corner_views(weighted, offsets)
            product = corners[0] * corners[1]
            for c in corners[2:]:
                product *= c
            broken += int(np.count_nonzero(product < -1))
        e += w * (-2 * broken)
    return e


def h2_relative_energy(config: SpinConfiguration, coeffs: ModelCoefficients) -> float:
    """Second-order relative energy -J * sum over bonds of (s_x s_y - 1).

    Bonds with at least one end in the volume contribute; shell spins are part
    of the configuration.  Zero on the two uniform configurations.
    """
    return relative_energy(config, interaction_terms(coeffs, "h2"))


def h4_relative_energy(config: SpinConfiguration, coeffs: ModelCoefficients) -> float:
    """Fourth-order relative energy with nn, sqrt(2), distance-2 and plaquette terms."""
    return relative_energy(config, interaction_terms(coeffs, "h4"))


# ---------------------------------------------------------------------------
# Ising contours
# ---------------------------------------------------------------------------

Face = tuple[Site, int]  # (lower site k, direction mu): face dual to bond (k, k+e_mu)


def face_vertices(face: Face) -> tuple[tuple[int, int, int], ...]:
    """The four integer corners of the dual face, in cyclic order."""
    k, mu = face
    others = [i for i in range(3) if i != mu]
    base = list(k)
    base[mu] += 1
    verts = []
    for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
        v = list(base)
        v[others[0]] += da
        v[others[1]] += db
        verts.append(tuple(v))
    return tuple(verts)


#: ``face_vertices`` of the faces ((0, 0, 0), mu), shape (3, 4, 3); side i
#: of a face joins corners i and i + 1 (mod 4), and a side of the 3D lattice
#: is its lower corner and its axis.
_FACE_CORNERS = np.array([face_vertices(((0, 0, 0), mu)) for mu in range(3)])
_SIDE_LOW = np.minimum(_FACE_CORNERS, np.roll(_FACE_CORNERS, -1, axis=1))
_SIDE_AXIS = np.abs(np.roll(_FACE_CORNERS, -1, axis=1) - _FACE_CORNERS).argmax(axis=-1)


def grid_ids(points: np.ndarray) -> np.ndarray:
    """Number integer points (coordinates on the last axis) over their own
    bounding box: equal points get equal ids.  Ids compare only within one
    call, and no origin is assumed."""
    if points.size == 0:
        return np.zeros(points.shape[:-1], dtype=np.int64)
    flat = points.reshape(-1, points.shape[-1])
    lo = flat.min(axis=0)
    ext = flat.max(axis=0) - lo + 1
    ids = np.zeros(points.shape[:-1], dtype=np.int64)
    for i in range(points.shape[-1]):
        ids = ids * ext[i] + (points[..., i] - lo[i])
    return ids


def face_corners(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``face_vertices`` of each face (k[i], mu[i]), shape (n, 4, 3)."""
    return k[:, None, :] + _FACE_CORNERS[mu]


def face_sides(k: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower corner (n, 4, 3) and axis (n, 4) of the four sides of each face."""
    return k[:, None, :] + _SIDE_LOW[mu], _SIDE_AXIS[mu]


def face_keys(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Integer ids of the four sides of each face (k[i], mu[i]), in
    ``face_sides`` order, shape (n, 4).  Equal ids mean equal sides; ids
    compare only within one call, and no origin is assumed.

    The lower sites are numbered over their bounding box widened by one step,
    which holds every corner of every face, so a side's lower corner has the
    base id ``(k - lo) @ stride`` plus the id of its offset ``_SIDE_LOW``
    from k, and a side's id is its lower corner's times 3 plus its axis.
    """
    if len(k) == 0:
        return np.zeros((0, 4), dtype=np.int64)
    lo = k.min(axis=0)
    ext = k.max(axis=0) - lo + 2
    stride = 3 * np.array([ext[1] * ext[2], ext[2], 1])
    return ((k - lo) @ stride)[:, None] + (_SIDE_LOW @ stride + _SIDE_AXIS)[mu]


def face_arrays(faces: Iterable[Face]) -> tuple[np.ndarray, np.ndarray]:
    """Faces as arrays: lower sites (n, 3) and directions (n,), one row per face of ``faces`` in turn."""
    rows = np.array([(*k, mu) for k, mu in faces], dtype=np.int64).reshape(-1, 4)
    return rows[:, :3], rows[:, 3]


@dataclass(frozen=True)
class IsingContour:
    """A maximal face-connected component of the broken-bond face set."""

    faces: frozenset
    area: int          # number of faces with at least one end in the volume
    pinned: bool = False

    def __len__(self) -> int:
        return self.area


def _label_rows(ids: np.ndarray) -> np.ndarray:
    """Component label of each row of an (n, m) integer id array: rows that
    share an id are connected, and every row is labelled with the least row
    index of its component.

    One stable sort of the flat ids joins the rows of equal neighbouring ids
    into edges (a, b).  Each round hooks the label of either end to the
    smaller of the two labels (``np.minimum.at``) and then jumps pointers
    until every label is a root (``lab[lab] == lab``); the rounds stop when
    both ends of every edge carry one label.  A label never exceeds its row
    and stays in its row's component, so the fixed point labels each
    component with its least row.
    """
    flat = ids.ravel()
    order = np.argsort(flat, kind="stable")
    row = order // ids.shape[1]
    same = flat[order[1:]] == flat[order[:-1]]
    a, b = row[:-1][same], row[1:][same]
    lab = np.arange(len(ids))
    while True:
        la, lb = lab[a], lab[b]
        if np.array_equal(la, lb):
            return lab
        np.minimum.at(lab, la, lb)
        np.minimum.at(lab, lb, la)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def _face_components(config: SpinConfiguration):
    """The labelled broken-bond faces of ``extract_contours``: lower sites k
    (n, 3), directions mu (n,) and component labels lab (n,) of the faces,
    and, indexed by label, each component's size, area and pinned flag."""
    vol = config.volume
    weighted = _box_weighted(config)
    idx, mus, inside = [], [], []
    for mu, d in enumerate(UNIT_STEPS):
        s1, s2 = _corner_views(weighted, (d,))
        product = s1 * s2
        broken = product < 0
        idx.append(np.argwhere(broken))
        mus.append(np.full(len(idx[-1]), mu))
        inside.append(product[broken] < -1)
    k = np.concatenate(idx) + np.array(vol.padded_lo)
    mu = np.concatenate(mus)
    involume = np.concatenate(inside)

    n = len(k)
    lab = _label_rows(face_keys(k, mu))
    size = np.bincount(lab, minlength=n)
    area = np.bincount(lab[involume], minlength=n)
    mixed = config.bc in ("bc100", "bc111")
    pinned = (area < size) & mixed
    if mixed:
        assert np.count_nonzero(pinned) == 1, "mixed bc must pin exactly one component"
    return k, mu, lab, size, area, pinned


def extract_contours(config: SpinConfiguration) -> list[IsingContour]:
    """Decompose the broken-bond face set into maximal connected components.

    Faces are connected when they share an edge.  Faces dual to bonds with
    both ends in the shell are included, so that the pinned interface stays
    connected through the boundary ring, but they do not count toward contour
    areas.  Under the mixed boundary conditions exactly one component is
    flagged as the pinned interface: the one containing faces dual to
    shell-shell bonds, i.e. the component forced through the boundary by the
    prescription itself.  The boundary condition is ``config.bc``.

    The broken bonds are read per axis as whole arrays, each face is keyed by
    the integer ids of its four edges from ``face_keys``, and
    ``_label_rows`` labels the faces' components on those ids; areas and
    pinned flags are counts per label (``_face_components``).  Face tuples
    are built only for the returned contours, each frozenset filled in
    ascending face order, and contours of equal rank come in order of their
    first face.
    """
    k, mu, lab, size, area, pinned = _face_components(config)
    # a component with no face in the volume and not pinned is an artifact
    # of the bc living purely in the shell
    keep = (lab == np.arange(len(k))) & ((area > 0) | pinned)
    roots = np.flatnonzero(keep)
    members = np.flatnonzero(keep[lab])
    members = members[np.argsort(lab[members], kind="stable")]
    faces = list(zip(map(tuple, k[members].tolist()), mu[members].tolist()))
    ends = np.cumsum(size[roots]).tolist()
    contours = [IsingContour(faces=frozenset(faces[start:end]), area=a, pinned=p)
                for start, end, a, p in zip([0, *ends], ends, area[roots].tolist(),
                                            pinned[roots].tolist())]
    contours.sort(key=lambda c: (-c.pinned, -c.area))
    return contours


def contour_energy(contour: IsingContour, coeffs: ModelCoefficients) -> float:
    """Second-order self-energy E(gamma) = J1 |gamma|."""
    return coeffs.j1 * contour.area


@dataclass
class PeierlsReport:
    c0: float
    c0_max: float
    checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def peierls_check(
    contours: Iterable[IsingContour], coeffs: ModelCoefficients, c0: float = 0.4
) -> PeierlsReport:
    """Verify E(gamma) >= (c0/U) |gamma| for every closed contour.

    With the truncated J1 the per-face energy is exactly 1/(2U), so the
    maximal admissible Peierls constant is c0_max = U * J1 = 1/2.
    """
    U = coeffs.U
    report = PeierlsReport(c0=c0, c0_max=U * coeffs.j1, checked=0)
    for g in contours:
        if g.pinned or g.area == 0:
            continue
        report.checked += 1
        if contour_energy(g, coeffs) < (c0 / U) * g.area - 1e-15:
            report.violations.append(g)
    return report
