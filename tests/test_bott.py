import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import qcplane.matrixops as mo
from qcplane import algebra, bott, cli, qnormal
from qcplane.errors import ConfigurationError, DomainError
from qcplane.qnormal import TruncationWindow
from qcplane.qspace import Interval
from qcplane.represent import represent

SAMPLE_POINTS = [Fraction(0)] + [Fraction(2) ** k for k in range(-12, 13)]


def test_canonical_power_coefficients():
    mode, cf = bott.canonical_power(1, "1/2")
    assert mode == 1
    assert cf.rf.evaluate(1).re == Fraction(1, 2)
    mode, cf = bott.canonical_power(2, "1/2")
    assert mode == 2
    assert cf.rf.evaluate(1).re == Fraction(1, 8)
    mode, cf = bott.canonical_power(-1, "1/2")
    assert mode == -1
    assert cf.rf.evaluate(1).re == 1
    mode, cf = bott.canonical_power(-2, "1/2")
    assert cf.rf.evaluate(1).re == 2
    with pytest.raises(DomainError):
        bott.canonical_power(0, "1/2")


def test_power_element_matches_matrix_powers():
    T = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-6, 6), exact=True)
    for n in range(1, 5):
        direct = np.linalg.matrix_power(T.zeta, n)
        rep = represent(bott.power_element(n, "1/2"), T)
        assert mo.max_entry_gap(direct, rep) == 0
        direct_star = np.linalg.matrix_power(mo.adjoint(T.zeta), n)
        rep_star = represent(bott.power_element(-n, "1/2"), T)
        assert mo.max_entry_gap(direct_star, rep_star) == 0


def test_power_element_adjoint_symmetry():
    pts = [Fraction(1, 4), Fraction(1), Fraction(3)]
    for n in (1, 2, 3):
        a = algebra.adjoint(bott.power_element(n, "1/2"))
        b = bott.power_element(-n, "1/2")
        assert algebra.element_residual(a, b, pts) == 0


def test_projection_entry_values():
    P = bott.bott_projection(1, 1, "1/2")
    (e11, e12), (e21, e22) = P.entries
    assert e11.coefficient(0).eval_exact(1).re == Fraction(4, 5)
    assert e12.coefficient(1).eval_exact(1).re == Fraction(2, 5)
    assert e21.coefficient(-1).eval_exact(1).re == Fraction(1, 2)
    # diagonal corner t^2/(1+t^2): the unit 1@0 is folded in, so it tends to 1
    corner = e22.coefficient(0)
    assert corner.eval_exact(1).re == Fraction(1, 2)
    assert corner.value_at_zero == 0
    assert corner.rf.limit_at_infinity() == 1


def test_projection_mode_layout():
    for n in (1, 2, 3):
        P = bott.bott_projection(n, 1, "2/3")
        (e11, e12), (e21, e22) = P.entries
        assert e11.modes == (0,)
        assert e12.modes == (n,)
        assert e21.modes == (-n,)
        assert e22.modes == (0,)
        assert max(e.mode_span for row in P.entries for e in row) == n
    Pm = bott.bott_projection(2, -1, "2/3")
    assert Pm.entries[0][1].modes == (-2,)


def test_projection_offdiagonal_structure():
    for sign in (1, -1):
        P = bott.bott_projection(2, sign, "1/2")
        (e11, e12), (e21, e22) = P.entries
        for e in (e12, e21):
            f = e.coefficient(e.modes[0])
            assert f.value_at_zero == 0
            assert f.vanishes_at_infinity
        # lower left is the adjoint of the upper right
        adj = algebra.adjoint(e12)
        assert algebra.element_residual(adj, e21, SAMPLE_POINTS[1:]) == 0


def test_projection_exact_certificate():
    for n in (1, 2):
        for sign in (1, -1):
            P = bott.bott_projection(n, sign, "1/2")
            report = bott.verify_projection_exact(P, SAMPLE_POINTS)
            assert report.max_residue == 0
            assert report.points_checked == len(SAMPLE_POINTS)


def test_projection_exact_flags_scaled_copy():
    P = bott.bott_projection(1, 1, "1/2")
    fake = dataclasses.replace(P, entries=bott.m2_scale(P.entries, 2))
    report = bott.verify_projection_exact(fake, SAMPLE_POINTS)
    assert report.max_residue > 0
    with pytest.raises(DomainError):
        bott.verify_projection_exact(P, [])


def test_projection_numeric_defects():
    T = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-8, 8))
    for sign in (1, -1):
        rep = bott.verify_projection_numeric(bott.bott_projection(1, sign, "1/2"), T)
        assert rep.max_defect <= 1e-12
    T23 = qnormal.build_from_generators("2/3", ["1"], TruncationWindow(-10, 10))
    rep = bott.verify_projection_numeric(bott.bott_projection(2, 1, "2/3"), T23)
    assert rep.max_defect <= 1e-12


def test_projection_numeric_flags_scaled_copy():
    T = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-8, 8))
    P = bott.bott_projection(1, 1, "1/2")
    fake = dataclasses.replace(P, entries=bott.m2_scale(P.entries, 2))
    rep = bott.verify_projection_numeric(fake, T)
    assert rep.idempotency_defect > 0.1


def test_projection_numeric_window_guard():
    T = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-5, 5))
    with pytest.raises(ConfigurationError):
        bott.verify_projection_numeric(bott.bott_projection(3, 1, "1/2"), T)


def test_winding_signs():
    # the two signs of the n = 1 projection pair to +1 and -1, exactly
    assert {sign: bott.index(bott.bott_projection(1, sign, "1/2")) for sign in (1, -1)} \
        == {1: 1, -1: -1}


def test_winding_flat_reference_is_zero():
    P = bott.bott_projection(1, 1, "1/2")
    z = algebra.zero_element(P.q)
    flat = dataclasses.replace(P, entries=((algebra.parse_element(P.q, ["1@0"]), z), (z, z)))
    assert bott.index(flat) == 0


def test_the_index_is_sign_times_n():
    # the orbit trace of tr P - 1 telescopes to sign n on every family member
    for q in ("1/2", "3/7", "9/10"):
        for n in (1, 2, 3):
            for sign in (1, -1):
                assert bott.index(bott.bott_projection(n, sign, q)) == sign * n, (q, n, sign)
    P = bott.bott_projection(1, 1, "1/2")
    z = algebra.zero_element(P.q)
    # 2P, and P read at the wrong q or the wrong n, satisfy no identity; a leaf has none
    leaf = algebra.element(P.q, {0: algebra.IndicatorCoefficient(Interval.open_closed(0, 1))})
    for wrong in (dataclasses.replace(P, entries=bott.m2_scale(P.entries, 2)),
                  dataclasses.replace(P, q=Fraction(1, 3)), dataclasses.replace(P, n=3),
                  dataclasses.replace(P, entries=((leaf, z), (z, z)))):
        assert bott.index(wrong) is None


def test_projection_constructor_guards():
    with pytest.raises(DomainError):
        bott.bott_projection(0, 1, "1/2")
    with pytest.raises(DomainError):
        bott.bott_projection(1, 2, "1/2")
    with pytest.raises(DomainError):
        bott.bott_projection(1, 1, "1/1")
    with pytest.raises(DomainError):
        bott.bott_projection(1, 1, "3/2")


def test_block_band_matches_dense_blocks():
    for q, n, sign, window in (("1/2", 1, 1, (-6, 6)), ("2/3", 2, -1, (-8, 8))):
        T = qnormal.build_from_generators(q, ["1", "3/4"], TruncationWindow(*window),
                                          zero_mass=1)
        P = bott.bott_projection(n, sign, q)
        z = algebra.zero_element(P.q)
        for entries in (P.entries, ((algebra.parse_element(q, ["1@0"]), z), (z, z))):
            blocks = [[represent(entries[i][j], T) for j in range(2)] for i in range(2)]
            got = bott._block_band(entries, T).dense()
            assert np.max(np.abs(got - np.block(blocks))) == 0.0


def test_projection_numeric_defects_match_dense_svd():
    T = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-10, 10))
    P = bott.bott_projection(2, 1, "1/2")
    for entries in (P.entries, bott.m2_scale(P.entries, 2)):
        cand = dataclasses.replace(P, entries=entries)
        B = bott._block_band(entries, T).dense()
        idx = bott._block_interior(T, 2 * P.n)
        want = np.linalg.norm(mo.compress(B @ B - B, idx), 2)
        rep = bott.verify_projection_numeric(cand, T)
        assert abs(rep.idempotency_defect - want) <= 1e-15 * max(1.0, want)


def test_perturbed_control_defect_is_about_two(capsys):
    # (2P)^2 - 2P = 2P; P has norm 1 on the interior once it holds a few levels
    code = cli.main(["bott", "--perturb"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    rows = report["projections"]
    assert not any(row["passed"] for row in rows)
    for row in rows:
        if row["n"] < 3:
            assert abs(row["idempotency_defect"] - 2.0) <= 1e-12
