"""One conformance matrix: every execution tier against one reference.

A cell is one value per axis of :data:`AXES`.  The tier table
(:func:`repro.lbm.solver.validate_tier`) rejects it, or it steps
``STEPS`` times.  A rejected cell raises the ``ConfigError``
:func:`rejection` names within 1 s and leaks no segment.  A reference
cell (NumPy, lockstep, barrier, plain) closes the chain to the per-q
oracles below: the single-domain ``Solver`` — the one-rank
``DistributedSolver`` built from a grid, stepping the one-pass schedule —
equals :class:`ReferenceStepper`, and a distributed reference equals
:func:`reference_distributed_f` and the ``Solver``, ``array_equal``.
MRT at more than one rank is the one exception: its 19x19 moment GEMM
is width-sensitive, so its link to the ``Solver`` is banded at
``EXACT_TOL``.  Any other
cell equals the reference cell of its partition, ``array_equal`` with
its mass, except compiled cells other than exact BGK on the periodic
grid: those are banded at ``EXACT_TOL`` (exact mode: reduction order
only) or ``FASTMATH_TOL`` and equal their own lockstep barrier run bit
for bit.  Periodic cells conserve mass.  The cells are :data:`PINNED`
(rows pinned by name) plus a greedy all-pairs completion over the
product of the axes: every pair of axis values the tier table allows is
in a supported cell, every pair it rejects in an unsupported row.
"""

import collections
import itertools
import os
from time import perf_counter

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.decomp import axis_decompose, grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.geometry.flags import INLET, OUTLET
from repro.lbm.boundary import PressureOutlet, VelocityInlet
from repro.lbm.checkpoint import load_checkpoint, save_checkpoint
from repro.lbm.distributed import DistributedSolver
from repro.lbm.rankplan import rank_link_lists
from repro.lbm.solver import Solver, SolverConfig
from repro.lbm.stream import upstream_ids
from repro.models import MODEL_NAMES, SimulatedDevice, create_model
from repro.models.compiled import compiled_available
from repro.runtime.procexec import fork_available
from repro.runtime.shmem import leaked_segments

from .plan_oracle import stream_links

pytestmark = pytest.mark.usefixtures("hard_time_bound")

STEPS = 12
#: exact mode: fastmath off; only reduction order may differ from BLAS
EXACT_TOL = dict(rtol=1e-10, atol=1e-14)
#: fastmath mode: reassociation/contraction allowed in the kernels
FASTMATH_TOL = dict(rtol=1e-8, atol=1e-11)

#: compiled provider -> (backend, fastmath)
COMPILED = {
    "compiled-serial-exact": ("compiled-serial", False),
    "compiled-serial-fastmath": ("compiled-serial", True),
    "compiled-parallel": ("compiled-parallel", False),
}
#: model provider -> (model name, gpu_aware)
MODELS = {f"model-{name}": (name, True) for name in MODEL_NAMES}
MODELS["model-hip-staged"] = ("hip", False)
SINGLE = "single"  # the single-domain ``Solver``
AXES = {
    "collision": ("bgk", "trt", "mrt"),
    "provider": ("numpy", *COMPILED, *MODELS),
    "executor": ("lockstep", "process"),
    "schedule": ("barrier", "overlap"),
    "ranks": (SINGLE, "1r", "2r", "4r"),
    "sanitize": ("plain", "sanitize"),
    "grid": ("periodic", "inlet"),
}
Cell = collections.namedtuple("Cell", AXES)
BASE = Cell(*(values[0] for values in AXES.values()))
GRID_CONFIG = {
    "periodic": dict(force=(1e-5, 0.0, 0.0), periodic=(True, False, False)),
    "inlet": dict(inlet_velocity=(0.05, 0.0, 0.0)),
}


def rejection(cell, backend=None):
    """The tier table's verdict: the ``ConfigError`` message of ``cell``
    (with ``backend`` in place of its provider's), or None when it runs."""
    backend = backend or COMPILED.get(cell.provider, ("numpy",))[0]
    model, process = cell.provider in MODELS, cell.executor == "process"
    sanitize = cell.sanitize == "sanitize"
    if model and backend != "numpy":
        return "two kernel providers"
    if model and sanitize:
        return "with a programming model as the kernel provider"
    if model and process:
        return "programming models run under executor='lockstep' only"
    if sanitize and backend != "numpy":
        return "sanitize=True requires backend='numpy'"
    if process and backend in ("compiled", "compiled-parallel"):
        return "executor='process' runs backend='compiled-serial'"
    return None


def _pin(**axes):
    """A sub-product of :data:`AXES`: ``"*"`` is every value of an axis,
    a name or tuple those values, an absent axis its first value."""

    def values(axis, every):
        given = axes.get(axis, every[0])
        if given == "*":
            return every
        return (given,) if isinstance(given, str) else given

    return itertools.product(*(values(k, v) for k, v in AXES.items()))


#: rows pinned by name on top of the pairwise completion: each keeps an
#: equality of a named configuration
PINNED = (
    # single domain: every collision, grid and non-model provider; the
    # models under BGK, CUDA under TRT/MRT, three models on the inlet grid
    *_pin(collision="*", provider=("numpy", *COMPILED), grid="*"),
    *_pin(provider=tuple(MODELS)),
    *_pin(collision=("trt", "mrt"), provider="model-cuda"),
    *_pin(provider=("model-cuda", "model-sycl", "model-kokkos-openacc"),
          grid="inlet"),
    # lockstep NumPy: every collision, rank count and grid, both
    # schedules from 2 ranks
    *_pin(collision="*", ranks=("1r", "2r", "4r"), grid="*"),
    *_pin(collision="*", schedule="overlap", ranks=("2r", "4r"), grid="*"),
    # process tier: every collision and schedule at 2 and 4 ranks, exact
    # compiled BGK, TRT through open boundaries, the sanitizer
    *_pin(collision="*", executor="process", schedule="*",
          ranks=("2r", "4r")),
    *_pin(provider="compiled-serial-exact", executor="process",
          schedule="*", ranks=("2r", "4r")),
    *_pin(collision="trt", executor="process", ranks="4r", grid="inlet"),
    *_pin(executor="process", schedule="*", ranks="2r", sanitize="sanitize"),
    # compiled-parallel and host-staged HIP under both schedules
    *_pin(provider="compiled-parallel", schedule="*", ranks="2r"),
    *_pin(provider="model-hip-staged", schedule="*", ranks="4r"),
    # distributed models: CUDA under every collision and at 4 ranks,
    # four more under BGK, Kokkos-SYCL through open boundaries
    *_pin(collision="*", provider="model-cuda", ranks="2r"),
    *_pin(provider=("model-sycl", "model-kokkos-hip", "model-kokkos-openacc",
                    "model-kokkos-sycl"), ranks="2r"),
    *_pin(provider="model-cuda", ranks="4r"),
    *_pin(provider="model-kokkos-sycl", schedule="*", ranks="2r",
          grid="inlet"),
    # 2x2x2 blocks, the only partition cut on every axis: overlap under
    # every collision on both grids, and forked.  Rows outside the ranks
    # axis, so the pairwise completion stops at 4 ranks
    *_pin(collision="*", schedule="overlap", ranks="8r", grid="*"),
    *_pin(executor="process", schedule="overlap", ranks="8r"),
)


def _pairs(cell):
    return frozenset(itertools.combinations(zip(AXES, cell), 2))


def _matrix():
    """:data:`PINNED` completed greedily until it holds every pair of
    axis values a supported cell holds; then ``(cell, backend)`` rows
    for the rest: one per pair only rejected cells hold, single-domain
    and at 2 ranks, and the cells the provider axis cannot name (a
    model with a compiled backend; forked ranks with ``compiled``, the
    OpenMP variant where the provider can thread)."""
    product = map(Cell._make, itertools.product(*AXES.values()))
    pairs = {c: _pairs(c) for c in product if rejection(c) is None}
    cells = list(dict.fromkeys(Cell(*values) for values in PINNED))
    covered = frozenset().union(*map(_pairs, cells))
    wanted = frozenset().union(*pairs.values())
    while not wanted <= covered:
        best = max(pairs, key=lambda c: len(pairs[c] - covered))
        cells.append(best)
        covered |= pairs[best]
    every = frozenset(
        pair
        for a, b in itertools.combinations(AXES, 2)
        for pair in itertools.product(
            [(a, v) for v in AXES[a]], [(b, v) for v in AXES[b]]
        )
    )
    rejected = sorted(every - wanted)
    unsupported = [
        *((BASE._replace(ranks=r, **dict(pair)), None) for pair in rejected
          for r in (SINGLE, "2r")),
        *((BASE._replace(provider="model-cuda", ranks=r), "compiled-serial")
          for r in (SINGLE, "2r")),
        (BASE._replace(executor="process", ranks="2r"), "compiled"),
    ]
    return cells, unsupported, wanted, frozenset(rejected)


SUPPORTED, UNSUPPORTED, SUPPORTED_PAIRS, REJECTED_PAIRS = _matrix()


def cell_id(cell):
    return "-".join(value for value in cell if value != "plain")


def rejected_id(row):
    """The values a rejected row sets apart from :data:`BASE`."""
    cell, backend = row
    values = [v for v, base in zip(cell, BASE) if v != base]
    return "-".join(values + [f"backend={backend}"] * bool(backend))


def grid_of(name):
    return make_cylinder(CylinderSpec(scale=0.5, periodic=name == "periodic"))


def config_of(cell, **overrides):
    backend, fastmath = COMPILED.get(cell.provider, ("numpy", False))
    return SolverConfig(**{
        **dict(tau=0.8, collision=cell.collision, executor=cell.executor,
               overlap=cell.schedule == "overlap", backend=backend,
               sanitize=cell.sanitize == "sanitize", fastmath=fastmath),
        **GRID_CONFIG[cell.grid],
        **overrides,
    })


def build(cell, **overrides):
    """The cell's solver, built but not stepped."""
    config, grid = config_of(cell, **overrides), grid_of(cell.grid)
    model, gpu_aware = MODELS.get(cell.provider, (None, True))
    if cell.ranks == SINGLE:
        return Solver(
            grid, config, model=create_model(model) if model else None
        )
    part = grid_decompose(grid, int(cell.ranks[:-1]))
    if not model:
        return DistributedSolver(part, config)
    models = [
        create_model(model, SimulatedDevice(device_id=rank))
        for rank in range(part.num_ranks)
    ]
    return DistributedSolver(part, config, models=models, gpu_aware=gpu_aware)


def skip_unless_runnable(cell):
    if cell.provider in COMPILED and not compiled_available():
        pytest.skip("no host C compiler")
    if cell.executor == "process" and not fork_available():
        pytest.skip("needs the POSIX fork start method")


@pytest.fixture(scope="module")
def run():
    """``run(cell)``: ``(f, mass before, mass after)`` of ``STEPS`` steps
    of ``cell``, memoised so rows share their reference and anchor runs."""
    runs = {}

    def run(cell):
        skip_unless_runnable(cell)
        if cell not in runs:
            with build(cell) as solver:
                m0 = solver.mass()
                solver.step(STEPS)
                runs[cell] = (solver.gather_f(), m0, solver.mass())
        return runs[cell]

    return run


def band(cell):
    """The tolerance against the NumPy reference; None is bitwise.
    Scalar BGK has no reductions beyond the ascending-q moment sums the
    NumPy kernels also use, so exact mode is bit-identical there."""
    backend, fastmath = COMPILED.get(cell.provider, (None, False))
    if fastmath:
        return FASTMATH_TOL
    if backend is None or (cell.collision, cell.grid) == ("bgk", "periodic"):
        return None
    return EXACT_TOL


class ReferenceStepper:
    """The per-q single-domain algorithm, one population at a time:
    allocating collide, :func:`stream_links` over the one-rank link
    lists of :func:`~repro.lbm.rankplan.rank_link_lists`, equilibrium
    boundaries built from the grid's flags."""

    def __init__(self, grid, config):
        self.lattice = config.make_lattice()
        self.collision = config.make_collision()
        (self.links,) = rank_link_lists(
            grid, axis_decompose(grid, 1), self.lattice, config.periodic
        )
        coords, _ = grid.compact_ids()
        n = coords.shape[0]
        self.ids = np.arange(n, dtype=np.int64)
        self.f = self.lattice.equilibrium(
            np.full(n, config.rho0), np.zeros((n, 3))
        )
        self.f_tmp = np.empty_like(self.f)
        x, y, z = coords.T
        flags = grid.flags[x, y, z]
        self.boundaries = []
        if np.any(flags == INLET):
            self.boundaries.append(
                VelocityInlet(
                    self.ids[flags == INLET], config.inlet_velocity, config.rho0
                )
            )
        if np.any(flags == OUTLET):
            self.boundaries.append(
                PressureOutlet(self.ids[flags == OUTLET], config.rho0)
            )
        self.time = 0

    def step(self, num_steps):
        for _ in range(num_steps):
            self.collision.apply(self.lattice, self.f, self.ids)
            stream_links(self.links, self.f, self.f_tmp)
            self.f, self.f_tmp = self.f_tmp, self.f
            self.time += 1
            for boundary in self.boundaries:
                boundary.apply(self.lattice, self.f, self.time)


def reference_distributed_f(part, config, num_steps):
    """The per-q distributed algorithm on buffers of its own: one
    ghost-padded array pair per rank in :func:`rank_link_lists`'
    numbering (owned nodes, then the remote upstream nodes), allocating
    collide on owned nodes, whole-column ghost copies located by global
    node id (not through the exchange tables), :func:`stream_links` over
    each rank's link lists, equilibrium boundaries.  The
    ``DistributedSolver`` is built, never stepped: it lends its lattice,
    collision, initial state and boundary objects, no buffer."""
    solver = DistributedSolver(part, config)
    lattice, collision, ranks = solver.lattice, solver.collision, solver.ranks
    links = rank_link_lists(part.grid, part, lattice, config.periodic)
    coords, index_map = part.grid.compact_ids()
    f, f_tmp, ghost_copies = [], [], []
    for st in ranks:
        owned = st.plan.owned_global
        ups = np.concatenate([
            upstream_ids(
                part.grid.shape, c, config.periodic, coords[owned], index_map
            )
            for c in lattice.c
        ])
        ghosts = np.setdiff1d(ups[ups >= 0], owned)
        padded = np.empty((lattice.q, owned.size + ghosts.size))
        padded[:, : owned.size] = st.f
        f.append(padded)
        f_tmp.append(np.empty_like(padded))
        for owner in ranks:
            held = np.isin(ghosts, owner.plan.owned_global)
            if held.any():
                ghost_copies.append((
                    st.rank,
                    owned.size + np.flatnonzero(held),
                    owner.rank,
                    np.searchsorted(owner.plan.owned_global, ghosts[held]),
                ))
    for time in range(1, num_steps + 1):
        for st in ranks:
            collision.apply(lattice, f[st.rank], np.arange(st.num_owned))
        for rank, ghost_cols, owner, owned_cols in ghost_copies:
            f[rank][:, ghost_cols] = f[owner][:, owned_cols]
        for st in ranks:
            r = st.rank
            stream_links(links[r], f[r], f_tmp[r])
            f[r], f_tmp[r] = f_tmp[r], f[r]
            if st.inlet is not None:
                st.inlet.apply(lattice, f[r], time)
            if st.outlet is not None:
                st.outlet.apply(lattice, f[r], time)
    out = np.empty((lattice.q, solver.num_nodes))
    for st in ranks:
        out[:, st.plan.owned_global] = f[st.rank][:, : st.num_owned]
    return out


def assert_matches(run, cell, other, tol):
    (f, _, mass), (f_other, _, mass_other) = run(cell), run(other)
    if tol is None:
        assert np.array_equal(f, f_other)
        assert mass == mass_other
    else:
        np.testing.assert_allclose(f, f_other, **tol)


def check_chain(run, cell):
    f, config = run(cell)[0], config_of(cell)
    if cell.ranks == SINGLE:
        oracle = ReferenceStepper(grid_of(cell.grid), config)
        oracle.step(STEPS)
        assert np.array_equal(f, oracle.f)
        return
    part = grid_decompose(grid_of(cell.grid), int(cell.ranks[:-1]))
    assert np.array_equal(f, reference_distributed_f(part, config, STEPS))
    single = run(cell._replace(ranks=SINGLE))[0]
    if cell.collision != "mrt" or cell.ranks == "1r":
        assert np.array_equal(f, single)
    else:
        np.testing.assert_allclose(f, single, **EXACT_TOL)


@pytest.mark.parametrize("cell", SUPPORTED, ids=cell_id)
def test_cell(cell, run):
    anchor = cell._replace(
        executor="lockstep", schedule="barrier", sanitize="plain"
    )
    reference = anchor._replace(provider="numpy")
    if cell == reference:
        check_chain(run, cell)
    else:
        assert_matches(run, cell, reference, band(cell))
        if band(cell) is not None and cell != anchor:
            assert_matches(run, cell, anchor, None)
    if cell.grid == "periodic":
        _, m0, mass = run(cell)
        assert mass == pytest.approx(m0, rel=1e-12)


@pytest.mark.parametrize(
    "cell, backend", UNSUPPORTED, ids=list(map(rejected_id, UNSUPPORTED))
)
def test_rejected(cell, backend):
    if (cell.executor, cell.provider) == ("process", "compiled-parallel"):
        # a parent that has run an OpenMP kernel is what hung the forked
        # ranks in collide before the tier table rejected this cell
        if compiled_available():
            build(cell._replace(executor="lockstep")).step(1)
    began = perf_counter()
    with pytest.raises(ConfigError, match=rejection(cell, backend)):
        build(cell, **({"backend": backend} if backend else {}))
    assert perf_counter() - began < 1.0
    assert leaked_segments(os.getpid()) == []


def test_every_pair_is_covered(capsys):
    assert not any(map(rejection, SUPPORTED))
    assert all(rejection(*row) for row in UNSUPPORTED)
    assert frozenset().union(*map(_pairs, SUPPORTED)) >= SUPPORTED_PAIRS
    rejected = frozenset().union(*(_pairs(c) for c, _ in UNSUPPORTED))
    assert REJECTED_PAIRS <= rejected
    with capsys.disabled():
        print(
            f"\nconformance matrix: {len(SUPPORTED)} supported cells, "
            f"{len(UNSUPPORTED)} unsupported rows"
        )


#: a 2-rank checkpoint restarts on 3 ranks under these tiers
RESTART_CELLS = [
    Cell(*values)
    for values in (
        *_pin(executor="*", schedule="*", ranks="3r"),
        *_pin(provider="compiled-serial-exact", executor="process",
              schedule="overlap", ranks="3r"),
    )
]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A 2-rank lockstep NumPy checkpoint at step 10, and that run's own
    continuation to step 15."""
    saver = build(BASE._replace(ranks="2r"))
    saver.step(10)
    path = save_checkpoint(saver, tmp_path_factory.mktemp("cp") / "f.npz")
    saver.step(5)
    return path, saver.gather_f()


@pytest.mark.parametrize("own_steps", [0, 3], ids=["fresh", "stepped"])
@pytest.mark.parametrize(
    "cell", RESTART_CELLS, ids=lambda c: f"{c.executor}-{c.schedule}-{c.provider}"
)
def test_restart_across_tiers(checkpoint, cell, own_steps):
    """The checkpoint restarts under every tier, into a fresh solver or
    one that has stepped, and continues bit for bit."""
    skip_unless_runnable(cell)
    path, expected = checkpoint
    with build(cell) as solver:
        solver.step(own_steps)
        load_checkpoint(solver, path)
        assert solver.time == 10
        solver.step(5)
        assert np.array_equal(solver.gather_f(), expected)
