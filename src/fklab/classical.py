"""Classical side of the strong-coupling expansion: truncated Hamiltonians,
plaquette/next-nearest-neighbour potentials, Ising contours, Peierls check.

Energies are always *relative* to the uniform configurations: every interaction
term vanishes when all spins are equal, so the two homogeneous states have
energy zero by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lattice import Site, SpinConfiguration, UNIT_STEPS, Volume, components

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
# Relative energies of configurations
# ---------------------------------------------------------------------------

_SQRT2_STEPS = (
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
)
_DIST2_STEPS = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
_PLAQUETTE_PLANES = ((0, 1), (0, 2), (1, 2))


def _volume_mask(volume: Volume) -> np.ndarray:
    mask = np.zeros(volume.padded_dims, dtype=bool)
    mask[volume.box] = True
    return mask


def _shifted_view(a: np.ndarray, d: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Views (a at p, a at p+d) over all positions where both are in range."""
    D = a.shape
    sl1, sl2 = [], []
    for i in range(3):
        lo = max(0, -d[i])
        hi = D[i] - max(0, d[i])
        sl1.append(slice(lo, hi))
        sl2.append(slice(lo + d[i], hi + d[i]))
    return a[tuple(sl1)], a[tuple(sl2)]


def _pair_sum(spins: np.ndarray, volmask: np.ndarray, d: tuple[int, int, int]) -> float:
    """Sum of (s_x s_y - 1) over pairs x, x+d with at least one end in the volume."""
    s1, s2 = _shifted_view(spins, d)
    m1, m2 = _shifted_view(volmask, d)
    sel = m1 | m2
    prod = (s1.astype(np.int64) * s2)[sel]
    return float(np.sum(prod - 1))


def _plaquette_sum(spins: np.ndarray, volmask: np.ndarray, plane: tuple[int, int]) -> float:
    """Sum of (s_x s_y s_z s_t - 1) over unit squares in the given plane with
    at least one corner in the volume."""
    mu, nu = plane
    emu = tuple(1 if i == mu else 0 for i in range(3))
    enu = tuple(1 if i == nu else 0 for i in range(3))
    both = tuple(emu[i] + enu[i] for i in range(3))
    D = spins.shape
    sl = [slice(0, D[i] - both[i]) for i in range(3)]

    def at(d):
        return tuple(slice(sl[i].start + d[i], sl[i].stop + d[i]) for i in range(3))

    s0 = spins[tuple(sl)].astype(np.int64)
    s1 = spins[at(emu)]
    s2 = spins[at(both)]
    s3 = spins[at(enu)]
    m = volmask[tuple(sl)] | volmask[at(emu)] | volmask[at(both)] | volmask[at(enu)]
    prod = (s0 * s1 * s2 * s3)[m]
    return float(np.sum(prod - 1))


def h2_relative_energy(config: SpinConfiguration, coeffs: ModelCoefficients) -> float:
    """Second-order relative energy -J * sum over bonds of (s_x s_y - 1).

    Bonds with at least one end in the volume contribute; shell spins are part
    of the configuration.  Zero on the two uniform configurations.
    """
    spins = config.spins
    volmask = _volume_mask(config.volume)
    total = 0.0
    for d in UNIT_STEPS:
        total += _pair_sum(spins, volmask, d)
    return -coeffs.j * total


def h4_relative_energy(config: SpinConfiguration, coeffs: ModelCoefficients) -> float:
    """Fourth-order relative energy with nn, sqrt(2), distance-2 and plaquette terms."""
    if config.volume.shell < 2:
        raise ValueError("fourth-order evaluation requires shell depth >= 2")
    spins = config.spins
    volmask = _volume_mask(config.volume)
    e = 0.0
    for d in UNIT_STEPS:
        e += -coeffs.c_nn * _pair_sum(spins, volmask, d)
    for d in _SQRT2_STEPS:
        e += coeffs.c_nnn * _pair_sum(spins, volmask, d)
    for d in _DIST2_STEPS:
        e += coeffs.c_2 * _pair_sum(spins, volmask, d)
    for plane in _PLAQUETTE_PLANES:
        e += coeffs.c_plq * _plaquette_sum(spins, volmask, plane)
    return e


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


def face_keys(k: np.ndarray, mu: np.ndarray, corner_connect: bool = False) -> np.ndarray:
    """Integer ids of the four sides of each face (k[i], mu[i]), in
    ``face_sides`` order, shape (n, 4); with ``corner_connect`` the ids of its
    four corners instead.  A side's id encodes its lower corner and its axis;
    ids compare only within one call (see ``grid_ids``)."""
    if corner_connect:
        return grid_ids(face_corners(k, mu))
    low, axis = face_sides(k, mu)
    return grid_ids(low) * 3 + axis


def face_arrays(faces: Iterable[Face]) -> tuple[np.ndarray, np.ndarray]:
    """Faces as arrays: lower sites (n, 3) and directions (n,), in iteration order."""
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


def extract_contours(
    config: SpinConfiguration,
    corner_connect: bool = False,
) -> list[IsingContour]:
    """Decompose the broken-bond face set into maximal connected components.

    Faces are connected when they share an edge (``corner_connect=True`` uses
    shared corners instead, for sensitivity checks).  Faces dual to bonds with
    both ends in the shell are included, so that the pinned interface stays
    connected through the boundary ring, but they do not count toward contour
    areas.  Under the mixed boundary conditions exactly one component is
    flagged as the pinned interface: the one containing faces dual to
    shell-shell bonds, i.e. the component forced through the boundary by the
    prescription itself.  The boundary condition is ``config.bc``.

    The broken bonds are read per axis as whole arrays, each face is keyed by
    the integer ids of its four edges (or corners) from ``face_keys``, and
    ``lattice.components`` joins faces sharing an id; face tuples are built
    only for the returned contours.
    """
    vol = config.volume
    spins = config.spins
    volmask = _volume_mask(vol)
    idx, mus, inside = [], [], []
    for mu, d in enumerate(UNIT_STEPS):
        s1, s2 = _shifted_view(spins, d)
        m1, m2 = _shifted_view(volmask, d)
        broken = s1 != s2
        idx.append(np.argwhere(broken))
        mus.append(np.full(len(idx[-1]), mu))
        inside.append((m1 | m2)[broken])
    k = np.concatenate(idx) + np.array(vol.padded_lo)
    mu = np.concatenate(mus)
    involume = np.concatenate(inside).tolist()
    sites, dirs = k.tolist(), mu.tolist()

    mixed = config.bc in ("bc100", "bc111")
    contours = []
    for members in components(face_keys(k, mu, corner_connect).tolist()):
        area = sum(involume[i] for i in members)
        pinned = mixed and area < len(members)
        if area == 0 and not pinned:
            continue  # artifact of the bc living purely in the shell
        fs = frozenset((tuple(sites[i]), dirs[i]) for i in members)
        contours.append(IsingContour(faces=fs, area=area, pinned=pinned))
    contours.sort(key=lambda c: (-c.pinned, -c.area))
    if mixed:
        assert sum(1 for c in contours if c.pinned) == 1, "mixed bc must pin exactly one component"
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
