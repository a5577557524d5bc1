"""Metamorphic relation: the same cone in other class coordinates gives the
same numbers (Chen, Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01,
1998; Segura, Fraser, Sanchez and Ruiz-Cortes, IEEE TSE 42(9), 2016).

A unimodular change ``U`` of the class basis maps each class ``v`` to ``U v``
and the form ``M`` to ``U^-T M U^-1``, so every pairing, facet and ratio is
unchanged; the generators are also shuffled and each is scaled by a positive
rational, which keeps the cone. The facet count, ``H^(dim_X - 1)``, the lc
verdict, the valuation limits, ``natural_valuation`` for ``k <= 7`` and the
limiting discrepancies must not move. The double description picks its
start simplex greedily from generator order and class coordinates, so a
fault that depends on either shows here while every golden, which fixes one
presentation per input, still passes.

The cones are the benchmark's ``cones`` shapes at seeds 0-2 (basis 3-5,
8-16 generators on the moment curve, all five lc cases), each read both as
a surface cone (``dim_X = 3``) and as a curve cone (``dim_X = 2``). A curve
cone reads degrees from the form's first row, so there ``U`` fixes ``e_0``.
The transformations are drawn by hypothesis when it is installed
(derandomized, so every run draws the same ones) and by a seeded
``random.Random`` otherwise.
"""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

from singvol import (
    PolarizedCone,
    QVector,
    SymForm,
    lc_boundary_exists,
    limiting_discrepancy,
    natural_valuation,
    valuation_limit,
)
from singvol.cone import RigidClass

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # a seeded Random draws the transformations instead
    given = None

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@lru_cache(maxsize=None)
def _specs(seed: int) -> tuple:
    """The cone items of the ``cones`` workload at ``seed`` (no dcc grids)."""
    # exec rather than import, so no bytecode cache is written into perfbench/
    workloads = {"__name__": "perfbench_workloads"}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), workloads)
    pool = workloads["Cones"]().generate(seed, False, "")
    return tuple(spec for spec in pool if spec["kind"] != "dcc")


def _unimodular(rng: Random, n: int, fix_e0: bool) -> tuple[list, list]:
    """``(U, U^-1)``: a product of row additions and sign flips. With
    ``fix_e0`` only rows ``j >= 1`` are added or flipped, so column 0 stays
    ``e_0``."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    low = 1 if fix_e0 else 0
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.choice([j for j in range(low, n) if j != i])
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # E U, E = I + c e_i e_j^T
        for row in inv:  # U^-1 E^-1
            row[j] -= c * row[i]
    flip = rng.randrange(low, n)
    u[flip] = [-a for a in u[flip]]
    for row in inv:
        row[flip] = -row[flip]
    return u, inv


def _cone(spec: dict, dim_x: int, rng: Random | None = None) -> tuple:
    """The cone of ``spec`` and its probe classes; with ``rng``, in a new
    class basis with shuffled and scaled generators."""
    n = spec["basis"]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    u, inv = _unimodular(rng, n, dim_x == 2) if rng else (eye, eye)

    def move(v) -> QVector:
        return QVector(sum(a * Fraction(x) for a, x in zip(row, v)) for row in u)

    m = spec["form"]
    form = [[sum(inv[i][a] * m[i][j] * inv[j][b] for i in range(n) for j in range(n))
             for b in range(n)] for a in range(n)]
    gens = [move(g) for g in spec["gens"]]
    if rng:
        gens = [g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 4))) for g in gens]
        rng.shuffle(gens)
    cone = PolarizedCone(
        dim_x=dim_x,
        basis=[f"e{i}" for i in range(n)],
        form=SymForm(form),
        nef_gens=[move(spec["H"])],
        pseff_gens=gens,
        k_class=move(spec["K"]),
        h_class=move(spec["H"]),
        rigid=[RigidClass(move(c), (("R", Fraction(mult)),)) for c, mult in spec["rigid"]],
    )
    return cone, [move(c) for c in spec["classes"]]


def _numbers(cone: PolarizedCone, classes: list) -> dict:
    verdict = lc_boundary_exists(cone)
    return {
        "facets": len(cone.facet_normals),
        "h_power": cone.h_power(),
        "lc": (verdict.exists, verdict.forced_a),
        "limits": [valuation_limit(cone, c) for c in classes],
        "valuations": [[natural_valuation(cone, c, k) for k in range(1, 8)] for c in classes],
        "limiting": [limiting_discrepancy(cone, m) for m in (1, 2, 3, 4, 6, 12)],
    }


@lru_cache(maxsize=None)
def _original(seed: int, index: int, dim_x: int) -> dict:
    return _numbers(*_cone(_specs(seed)[index], dim_x))


def _check_basis_change(seed: int, draw: int) -> None:
    rng = Random(draw)
    for index, spec in enumerate(_specs(seed)):
        for dim_x in (2, 3):
            moved = _numbers(*_cone(spec, dim_x, rng))
            assert moved == _original(seed, index, dim_x), (seed, draw, index, dim_x)


if given is not None:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @settings(max_examples=2, derandomize=True, deadline=None, database=None)
    @given(draw=st.integers(0, 2**32 - 1))
    def test_class_basis_change_keeps_every_cone_number(seed: int, draw: int) -> None:
        _check_basis_change(seed, draw)
else:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_class_basis_change_keeps_every_cone_number(seed: int) -> None:
        for draw in Random(seed).sample(range(2**32), 2):
            _check_basis_change(seed, draw)


def test_the_cones_cover_both_lc_outcomes_and_open_verdicts() -> None:
    # the relation compares verdicts, so each outcome must occur in the pool
    verdicts = {_original(0, index, 3)["lc"][0] for index in range(len(_specs(0)))}
    assert verdicts == {True, False, None}


def test_the_basis_change_is_unimodular_and_fixes_e0_on_curve_cones() -> None:
    rng = Random(5)
    for n in (3, 4, 5):
        for fix_e0 in (False, True):
            u, inv = _unimodular(rng, n, fix_e0)
            product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in u]
            assert product == [[int(i == j) for j in range(n)] for i in range(n)]
            assert u != product  # not the identity
            if fix_e0:
                assert [row[0] for row in u] == [int(i == 0) for i in range(n)]
